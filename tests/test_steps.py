"""Step functions, monotone generalized inverses, and piecewise-linear maps,
checked against literal scan oracles and their own defining identities."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import geninv_grid_scan, geninv_scan, preimage_by_branches, step_eval_scan
from scdt.steps import NEG_INF, POS_INF, PiecewiseLinearMap, StepFunction, _bracket, compose


@st.composite
def monotone_steps(draw, allow_inf_values=True, plateaus=True, pos_inf_top=False):
    """A random monotone step function with well-separated breakpoints."""
    n_bp = draw(st.integers(min_value=0, max_value=6))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.25, max_value=5.0, allow_nan=False),
            min_size=n_bp,
            max_size=n_bp,
        )
    )
    start = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    bp = start + np.cumsum(gaps) if n_bp else np.empty(0)
    inc = st.floats(min_value=0.25, max_value=5.0, allow_nan=False)
    if plateaus:
        inc = st.one_of(st.just(0.0), inc)
    increments = draw(st.lists(inc, min_size=n_bp, max_size=n_bp))
    v0 = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    values = np.concatenate([[v0], v0 + np.cumsum(increments)])
    if allow_inf_values and n_bp >= 1:
        if draw(st.booleans()):
            values[0] = NEG_INF
        if draw(st.booleans()):
            values[-1] = POS_INF
    if pos_inf_top:
        vapi = POS_INF
    else:
        vapi = draw(st.sampled_from([None, POS_INF]))
    return StepFunction(bp, values, value_at_pos_inf=vapi)


@st.composite
def pwl_maps(draw, strictly=False, min_knots=2, max_knots=6):
    """A random monotone piecewise-linear map with well-separated knots."""
    n = draw(st.integers(min_value=min_knots, max_value=max_knots))
    xgaps = draw(
        st.lists(
            st.floats(min_value=0.25, max_value=5.0, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    ygap = st.floats(min_value=0.25, max_value=5.0, allow_nan=False)
    if not strictly:
        ygap = st.one_of(st.just(0.0), ygap)
    ygaps = draw(st.lists(ygap, min_size=n - 1, max_size=n - 1))
    x0 = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    y0 = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    xs = x0 + np.concatenate([[0.0], np.cumsum(xgaps)])
    ys = y0 + np.concatenate([[0.0], np.cumsum(ygaps)])
    return PiecewiseLinearMap(xs, ys)


def x_probes(f: StepFunction) -> np.ndarray:
    """Evaluation points: breakpoints, midpoints, beyond both ends, ±inf."""
    bp = f.breakpoints
    probes = [NEG_INF, POS_INF]
    if bp.size:
        probes += list(bp)
        probes += list((bp[:-1] + bp[1:]) / 2)
        probes += [bp[0] - 1.0, bp[-1] + 1.0]
    else:
        probes += [-1.0, 0.0, 1.0]
    return np.array(probes)


def y_probes(f: StepFunction) -> np.ndarray:
    """Level probes: the values themselves, points between and beyond them."""
    finite = f.values[np.isfinite(f.values)]
    probes = [-1e9, 1e9]
    probes += list(finite)
    probes += list(finite - 0.1)
    probes += list(finite + 0.1)
    if finite.size > 1:
        probes += list((finite[:-1] + finite[1:]) / 2)
    return np.array(probes)


# --- evaluation -------------------------------------------------------------


class TestStepEval:
    def test_heaviside_left_of_step(self):
        h = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        assert h(-1.0) == 0.0

    def test_heaviside_right_continuous_at_step(self):
        h = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        assert h(0.0) == 1.0

    def test_constant_everywhere(self):
        f = StepFunction(np.empty(0), np.array([3.5]))
        for x in (-1e9, -1.0, 0.0, 2.0, 1e9, NEG_INF, POS_INF):
            assert f(x) == 3.5

    def test_endpoint_values(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        assert f(NEG_INF) == 0.0
        assert f(POS_INF) == 1.0

    def test_distinct_value_at_pos_inf(self):
        f = StepFunction(np.array([0.0]), np.array([0.0, 1.0]), value_at_pos_inf=POS_INF)
        assert f(1e300) == 1.0
        assert f(POS_INF) == POS_INF

    @given(monotone_steps())
    def test_matches_linear_scan(self, f):
        for x in x_probes(f):
            expected = step_eval_scan(f.breakpoints, f.values, f.value_at_pos_inf, x)
            assert f(float(x)) == expected

    @given(monotone_steps())
    def test_vectorized_matches_scalar(self, f):
        xs = x_probes(f)
        out = f(xs)
        assert out.shape == xs.shape
        assert all(out[i] == f(float(xs[i])) for i in range(xs.size))

    def test_rejects_nan_input(self):
        f = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            f(float("nan"))


class TestStepValidation:
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0]), np.array([0.0, 1.0, 2.0]))

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([1.0, 1.0]), np.array([0.0, 0.5, 1.0]))

    def test_breakpoints_must_be_finite(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, POS_INF]), np.array([0.0, 0.5, 1.0]))

    def test_monotone_rejects_decreasing_values(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0]), np.array([1.0, 0.0]))

    def test_value_at_pos_inf_below_top_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0]), np.array([0.0, 1.0]), value_at_pos_inf=0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0]), np.array([0.0, float("nan")]))
        with pytest.raises(ValueError, match="^value_at_pos_inf must not be NaN$"):
            StepFunction(np.array([0.0]), np.array([0.0, 1.0]), value_at_pos_inf=float("nan"))

    @pytest.mark.parametrize("bp, vals", [
        (np.zeros((1, 1)), np.array([0.0, 1.0])),
        (np.array([0.0]), np.array([[0.0, 1.0]])),
    ], ids=["2-D breakpoints", "2-D values"])
    def test_two_dimensional_arrays_rejected(self, bp, vals):
        with pytest.raises(ValueError, match="^breakpoints and values must be one-dimensional$"):
            StepFunction(bp, vals)

    def test_arrays_frozen(self):
        f = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            f.values[0] = 5.0


# --- generalized inverse ----------------------------------------------------


class TestGeninvEval:
    def test_heaviside_interior_level(self):
        h = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        assert h.geninv_eval(0.5) == 0.0

    def test_heaviside_top_level_empty_set(self):
        h = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        assert h.geninv_eval(1.0) == POS_INF

    def test_heaviside_below_range_whole_line(self):
        h = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        assert h.geninv_eval(-0.5) == NEG_INF

    def test_two_step_levels(self):
        # F = 0 on (-inf,1), 0.5 on [1,2), 1 on [2,inf): the superlevel set
        # {F > y} opens where the first value above y is attained.
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        assert f.geninv_eval(0.25) == 1.0
        assert f.geninv_eval(0.5) == 2.0
        assert f.geninv_eval(0.75) == 2.0
        assert f.geninv_eval(1.0) == POS_INF
        assert f.geninv_eval(-0.25) == NEG_INF

    def test_no_breakpoints_on_arrays(self):
        f = StepFunction(np.empty(0), np.array([3.5]))
        got = f.geninv_eval(np.array([[-1.0, 3.5], [NEG_INF, POS_INF]]))
        assert np.array_equal(got, [[NEG_INF, POS_INF], [NEG_INF, POS_INF]])

    @given(monotone_steps())
    def test_matches_structural_scan(self, f):
        for y in y_probes(f):
            assert f.geninv_eval(float(y)) == geninv_scan(f.breakpoints, f.values, y)

    @given(monotone_steps(allow_inf_values=False))
    def test_structural_scan_matches_grid_scan(self, f):
        # Validates the oracle itself: a literal inf over a dense candidate
        # grid that contains every breakpoint.
        bp = f.breakpoints
        if bp.size:
            cands = np.unique(
                np.concatenate(
                    [bp, (bp[:-1] + bp[1:]) / 2, [bp[0] - 2.0, bp[-1] + 2.0]]
                )
            )
        else:
            cands = np.array([-2.0, 0.0, 2.0])
        for y in y_probes(f):
            s = geninv_scan(f.breakpoints, f.values, y)
            g = geninv_grid_scan(lambda x: f(float(x)), y, cands)
            if s == NEG_INF:
                assert g == cands[0]
            else:
                assert g == s


#: Values that stress the bracket: signed zeros, subnormals, the ends of float64 and +-inf.
_EDGES = [0.0, -0.0, 5e-324, 1e-320, -1e-320, 1e-300, 1e308, -1e308, POS_INF, NEG_INF]


@st.composite
def brackets(draw):
    """Non-empty non-decreasing values (duplicates, +-inf ends, subnormal gaps, spans
    beyond float64) and keys, sorted or not: on a value, an ulp to either side of one,
    any float, +-inf, NaN, and beyond both ends."""
    entry = st.floats(allow_nan=False) | st.floats(-1e-300, 1e-300) | st.sampled_from(_EDGES)
    values = np.sort(np.array(draw(st.lists(entry, min_size=1, max_size=12)), dtype=float))
    values = np.repeat(values, draw(st.lists(st.integers(1, 3), min_size=values.size,
                                             max_size=values.size)))
    near = st.sampled_from(values.tolist()).flatmap(
        lambda v: st.sampled_from([v, math.nextafter(v, NEG_INF), math.nextafter(v, POS_INF)]))
    keys = np.array(draw(st.lists(near | entry | st.just(np.nan), max_size=30)), dtype=float)
    return values, np.sort(keys) if draw(st.booleans()) else keys


class TestBracket:
    @pytest.mark.filterwarnings("error")
    @given(case=brackets())
    # 1 / 1e-320 overflows: interp gives inf.
    @example(case=([0.0, 1e-320, 1e-320, 1.0], [5e-321, 1e-320, 0.5]))
    # Infinite values: 0 * inf one way and the other (NaN), or the far value exactly.
    @example(case=([NEG_INF, 0.0, 1.0, POS_INF], [NEG_INF, -1.0, 0.0, 0.5, 2.0, POS_INF, np.nan]))
    @example(case=([NEG_INF, POS_INF], [0.0, NEG_INF, POS_INF]))
    # A span beyond float64: slope 0 on the key's side.
    @example(case=([-1e308, 1e308], [0.0, -1e308, 1e308, 1.7e308, -1.7e308]))
    @example(case=([5.0], [np.nan, 4.0, 5.0, 6.0]))
    @example(case=([-0.0, 0.0, 0.0, 1.0], [0.0, -0.0, np.nan, 0.5, np.nan, 1.0]))
    def test_is_searchsorted_right_minus_one(self, case):
        values, keys = (np.array(x, dtype=float) for x in case)
        want = np.searchsorted(values, keys, side="right") - 1
        got = _bracket(values, keys)
        assert got.dtype == np.intp and np.array_equal(got, want)
        for key, bracket in zip(keys[:3], want):  # a 0-d key
            assert _bracket(values, np.asarray(key)) == bracket


class TestGeninvClosedForm:
    def test_heaviside_structure(self):
        g = StepFunction(np.array([0.0]), np.array([0.0, 1.0])).geninv()
        assert np.array_equal(g.breakpoints, [0.0, 1.0])
        assert np.array_equal(g.values, [NEG_INF, 0.0, POS_INF])
        assert g.value_at_pos_inf == POS_INF

    @given(monotone_steps())
    def test_agrees_with_geninv_eval_pointwise(self, f):
        g = f.geninv()
        for y in np.concatenate([y_probes(f), x_probes(g)]):
            assert g(float(y)) == f.geninv_eval(float(y))

    @given(monotone_steps())
    def test_result_is_monotone_step(self, f):
        g = f.geninv()
        if g.values.size > 1:
            assert np.all(g.values[1:] >= g.values[:-1])

    @given(monotone_steps(plateaus=False, pos_inf_top=True))
    def test_involution_is_bit_exact_for_strict_steps(self, f):
        # With strictly increasing values and the F(+inf) = +inf convention
        # the double generalized inverse reproduces the representation
        # exactly: every float is copied, never recomputed.
        ff = f.geninv().geninv()
        assert np.array_equal(ff.breakpoints, f.breakpoints)
        assert np.array_equal(ff.values, f.values)
        assert ff.value_at_pos_inf == f.value_at_pos_inf

    @given(monotone_steps(pos_inf_top=True))
    def test_involution_pointwise_with_plateaus(self, f):
        # Plateaus may drop redundant breakpoints from the representation,
        # but the function itself is unchanged everywhere.
        ff = f.geninv().geninv()
        for x in x_probes(f):
            assert ff(float(x)) == f(float(x))


# --- piecewise-linear maps --------------------------------------------------


class TestPiecewiseLinear:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            PiecewiseLinearMap(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            PiecewiseLinearMap(np.array([0.0, POS_INF]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "xs, ys, cause",
        [
            ([0.0, 1e-300], [0.0, 1e300], "slope overflows"),
            ([-1e308, 1e308], [0.0, 1.0], "span overflows"),
            ([0.0, 1.0], [-1e308, 1e308], "span overflows"),
            ([0.0, 1e300], [0.0, 1e-300], "underflows to 0"),
        ],
    )
    def test_knots_float64_cannot_hold_are_refused(self, xs, ys, cause):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=cause):
                PiecewiseLinearMap(np.array(xs), np.array(ys))

    @given(pwl_maps())
    def test_knots_evaluate_exactly(self, g):
        out = g(g.xs)
        assert np.array_equal(out, g.ys)

    @given(pwl_maps(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_interior_matches_interp(self, g, frac):
        x = g.xs[0] + frac * (g.xs[-1] - g.xs[0])
        expected = float(np.interp(x, g.xs, g.ys))
        assert g(float(x)) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(pwl_maps(), st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_extrapolation_is_linear(self, g, d):
        hi = g(float(g.xs[-1] + d))
        assert hi == pytest.approx(g.ys[-1] + d * g.slopes[-1], rel=1e-12, abs=1e-12)
        lo = g(float(g.xs[0] - d))
        assert lo == pytest.approx(g.ys[0] - d * g.slopes[0], rel=1e-12, abs=1e-12)

    def test_infinite_arguments(self):
        g = PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert g(POS_INF) == POS_INF
        assert g(NEG_INF) == NEG_INF
        flat = PiecewiseLinearMap(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0, 1.0]))
        assert flat(POS_INF) == 1.0
        assert flat(NEG_INF) == 0.0

    @given(pwl_maps(strictly=True))
    def test_preimage_inverts_knots_exactly(self, g):
        assert np.array_equal(g.preimage(g.ys), g.xs)

    @given(pwl_maps(strictly=True), st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    def test_preimage_roundtrip(self, g, y):
        x = g.preimage(float(y))
        assert g(float(x)) == pytest.approx(y, rel=1e-9, abs=1e-9)

    @given(pwl_maps(strictly=True), st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    def test_roundtrip_through_preimage(self, g, x):
        y = g(float(x))
        assert g.preimage(float(y)) == pytest.approx(x, rel=1e-9, abs=1e-9)

    def test_preimage_of_plateau_level_is_left_edge(self):
        g = PiecewiseLinearMap(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0, 2.0]))
        assert g.preimage(1.0) == 1.0
        assert g.preimage(1.0 + 1e-9) > 2.0

    def test_preimage_escapes_on_flat_tails(self):
        flat_right = PiecewiseLinearMap(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
        assert flat_right.preimage(1.5) == POS_INF
        assert flat_right.preimage(-0.5) == -0.5  # left end still climbs
        flat_left = PiecewiseLinearMap(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]))
        assert flat_left.preimage(0.0) == NEG_INF
        assert flat_left.preimage(-0.5) == NEG_INF

    def test_preimage_of_infinities(self):
        g = PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert g.preimage(POS_INF) == POS_INF
        assert g.preimage(NEG_INF) == NEG_INF

    @pytest.mark.parametrize(
        "xs, ys, method, arg",
        [
            ([0.0, 1.0, 2.0], [0.0, 1e-320, 1.0], "preimage", -1.0),
            ([0.0, 1.0, 2.0], [-1.0, 0.0, 1e-320], "preimage", 2.0),
            ([0.0, 1.0], [0.0, 1e300], "__call__", 1e10),
            ([0.0, 1.0], [0.0, 1e300], "__call__", [0.5, -1e10]),
            ([1e308, 1.5e308, 1.6e308], [0.0, 0.0, 1.0], "preimage", 5.0),
        ],
        ids=["subnormal-first-slope", "subnormal-last-slope", "steep", "steep-array", "far-knots"],
    )
    def test_end_segment_overflow_raises(self, xs, ys, method, arg):
        g = PiecewiseLinearMap(np.array(xs), np.array(ys))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="extrapolated end segment overflows float64"):
                getattr(g, method)(arg)

    def test_overflowing_terms_of_a_representable_point(self):
        # x - xs[-1] overflows, but the point 1 + 1.9e308 * 1e-307 is about 20.
        g = PiecewiseLinearMap(np.array([-1e308, -0.9e308]), np.array([0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g(1e308) == pytest.approx(20.0, rel=1e-12)
            assert g.preimage(-1.8e308) == pytest.approx(-1.8e315 / 1e7 - 1e308, rel=1e-12)
            assert g.preimage(g(1e308)) == pytest.approx(1e308, rel=1e-12)
            flat = PiecewiseLinearMap(np.array([1e308, 1.5e308, 1.6e308]),
                                      np.array([3.0, 3.0, 4.0]))
            assert flat(-1e308) == 3.0
            assert flat.preimage(-5.0) == NEG_INF
            assert np.array_equal(flat([POS_INF, NEG_INF]), [POS_INF, 3.0])

    @given(pwl_maps(), st.sampled_from([1.0, 1e306, 3e306]),
           st.lists(st.floats(min_value=-1e308, max_value=1e308), max_size=4))
    def test_preimage_is_the_three_branch_oracle_bit_for_bit(self, g, scale, extra):
        # Scaled knots reach 1.35e308, so probes out to +-1e308 overflow the
        # terms of an end segment, and then its point or only its halved terms.
        g = PiecewiseLinearMap(g.xs * scale, g.ys * scale)
        mids = g.ys[:-1] / 2 + g.ys[1:] / 2
        probes = [*g.ys, *mids, g.ys[0] - scale, g.ys[-1] + scale,
                  NEG_INF, POS_INF, -1e308, 1e308, *extra]

        def outcome(preimage, y):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out = preimage(y)
                except ValueError as exc:
                    return "raised", str(exc)
            arr = np.asarray(out)
            return type(out), arr.dtype, arr.shape, arr.tobytes()

        for y in [*probes, np.array(probes), g.ys, mids]:
            assert outcome(g.preimage, y) == outcome(lambda v: preimage_by_branches(g, v), y)


# --- composition ------------------------------------------------------------


class TestCompose:
    def test_identity_map_returns_same_function(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        ident = PiecewiseLinearMap(np.array([-10.0, 10.0]), np.array([-10.0, 10.0]))
        c = compose(f, ident)
        assert np.array_equal(c.breakpoints, f.breakpoints)
        assert np.array_equal(c.values, f.values)

    def test_shifted_heaviside(self):
        h = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        shift = PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([-3.0, -2.0]))
        c = compose(h, shift)  # x -> H(x - 3)
        assert np.array_equal(c.breakpoints, [3.0])
        assert np.array_equal(c.values, [0.0, 1.0])

    def test_constant_step_stays_constant(self):
        f = StepFunction(np.empty(0), np.array([2.0]))
        g = PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([0.0, 5.0]))
        c = compose(f, g)
        assert c.breakpoints.size == 0
        assert np.array_equal(c.values, [2.0])

    def test_rejects_non_pwl(self):
        f = StepFunction(np.array([0.0]), np.array([0.0, 1.0]))
        with pytest.raises(TypeError):
            compose(f, lambda x: x)

    @given(monotone_steps(allow_inf_values=False), pwl_maps(strictly=True))
    def test_matches_pointwise_evaluation(self, f, g):
        # Region boundaries are rounded preimages, so x -> f(g(x)) may flip
        # one ulp away from them; probe strictly inside each region.
        c = compose(f, g)
        bp = c.breakpoints
        xs = [bp[0] - 1.0, bp[-1] + 1.0] if bp.size else [0.0]
        for b in bp:
            xs += [b - 1e-6, b + 1e-6]
        if bp.size > 1:
            xs += list((bp[:-1] + bp[1:]) / 2)
        for x in xs:
            assert c(float(x)) == f(g(float(x)))
        assert c(POS_INF) == f(g(POS_INF))

    @given(monotone_steps(allow_inf_values=False), pwl_maps())
    def test_matches_pointwise_with_plateaus(self, f, g):
        # Midpoint probes keep clear of the rounded region boundaries, where
        # 1-ulp ties are out of contract.
        c = compose(f, g)
        bp = c.breakpoints
        xs = [bp[0] - 1.0, bp[-1] + 1.0] if bp.size else [0.0]
        if bp.size > 1:
            gaps = bp[1:] - bp[:-1]
            mids = (bp[:-1] + bp[1:]) / 2
            xs += list(mids[gaps > 1e-6])
        for x in xs:
            assert c(float(x)) == f(g(float(x)))


def _evaluators():
    from scdt.genmodel import IncreasingReparam

    f = StepFunction(np.array([0.0, 1.0]), np.array([NEG_INF, 0.5, POS_INF]))
    g = PiecewiseLinearMap(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]))
    out = {"eval": f.eval, "geninv_eval": f.geninv_eval, "map": g, "preimage": g.preimage}
    for kind, r in (("dilation", IncreasingReparam.dilation(2.0)),
                    ("affine", IncreasingReparam.affine(2.0, 1.0)),
                    ("pwl", IncreasingReparam.piecewise_linear([0.0, 1.0], [0.0, 2.0]))):
        out[f"forward/{kind}"], out[f"inverse/{kind}"] = r.forward, r.inverse
    return out


class TestScalarRule:
    """Every evaluator returns a Python float for a scalar argument (a 0-d
    array included) and an array of the argument's shape otherwise."""

    @pytest.mark.parametrize("name", sorted(_evaluators()))
    def test_scalar_in_float_out(self, name):
        fn = _evaluators()[name]
        probes = np.array([NEG_INF, -1.0, -0.0, 0.5, 1.0, 1e300, POS_INF, 2.0])
        for p in probes:
            for x in (float(p), np.asarray(p)):
                assert type(fn(x)) is float
        for x in (probes.tolist(), probes.reshape(2, 4)):
            out = fn(x)
            assert isinstance(out, np.ndarray) and out.shape == np.shape(x)
            assert np.array_equal(out.ravel(), [fn(float(p)) for p in probes])
