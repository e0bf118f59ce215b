"""Discrete/signed measures, references, grid conversions, and push-forwards,
checked against prefix-sum and linear-scan oracles."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import discrete_measures, reference_measures, signed_measures
from oracles import (
    cdf,
    cdf_scan,
    holds_subnormal_weight,
    measure_from_density_by_masks,
    quantile_scan,
    quantiles_by_padded_search,
    support_gap_brute_force,
)
from scdt.errors import InvalidReferenceError, RangeError, SingularityError
from scdt.measures import (
    DiscreteMeasure,
    GridDensity,
    ReferenceMeasure,
    SignedMeasure,
    _support_gap,
    measure_from_density,
    measure_quantiles,
    pushforward,
    rebin,
)
from scdt.steps import NEG_INF, POS_INF
from scdt.transform import TransformConfig, scdt_forward_batch


class TestDiscreteMeasure:
    def test_zero_measure(self):
        z = DiscreteMeasure.zero()
        assert z.is_zero and z.total_mass == 0.0 and z.locations.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.0, 0.0]), np.array([1.0, 1.0]))  # unsorted
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 0.0]), np.array([1.0, 1.0]))  # duplicate
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0]), np.array([0.0]))  # zero weight
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0]), np.array([-1.0]))  # negative weight
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0]), np.array([POS_INF]))  # infinite weight
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([float("nan")]), np.array([1.0]))

    def test_unequal_lengths_rejected(self):
        message = "^locations and weights must be 1-D arrays of equal length$"
        for build in (DiscreteMeasure, DiscreteMeasure.from_atoms):
            with pytest.raises(ValueError, match=message):
                build(np.array([0.0, 1.0]), np.array([1.0]))
            with pytest.raises(ValueError, match=message):
                build(np.zeros((2, 1)), np.ones((2, 1)))

    def test_total_mass_consistency_enforced(self):
        DiscreteMeasure(np.array([0.0]), np.array([2.0]), total_mass=2.0)
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0]), np.array([2.0]), total_mass=3.0)

    def test_overflowing_total_raises_range_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="total mass of the atoms overflows"):
                DiscreteMeasure(np.array([0.0, 1.0]), np.array([1e308, 1e308]))

    @pytest.mark.parametrize("build", [
        lambda: DiscreteMeasure(np.array([0.0, 1.0]), np.array([1e308, 1e308]), total_mass=1.0),
        # Three weights of max / 3 sum past the largest float.
        lambda: pushforward(np.arange(3.0), np.finfo(float).max),
    ], ids=["constructor", "pushforward"])
    def test_given_total_of_overflowing_weights_raises_range_error(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="total mass of the atoms overflows"):
                build()

    def test_from_atoms_whose_merged_weight_overflows_raises_range_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="total mass of the atoms overflows"):
                DiscreteMeasure.from_atoms(np.array([1.0, 1.0]), np.array([1e308, 1e308]))

    def test_scaled_overflow_raises_range_error(self):
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="by 10.0 overflows"):
                m.scaled(10.0)

    def test_infinite_locations_allowed(self):
        m = DiscreteMeasure(np.array([NEG_INF, 0.0, POS_INF]), np.array([1.0, 2.0, 3.0]))
        assert m.total_mass == 6.0

    def test_from_atoms_sorts_merges_and_drops_zeros(self):
        m = DiscreteMeasure.from_atoms(
            np.array([2.0, 1.0, 2.0, 3.0]), np.array([0.5, 1.0, 0.25, 0.0])
        )
        assert np.array_equal(m.locations, [1.0, 2.0])
        assert np.array_equal(m.weights, [1.0, 0.75])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20),
        st.data(),
    )
    def test_from_atoms_matches_dict_accumulation(self, locs, data):
        ws = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                min_size=len(locs),
                max_size=len(locs),
            )
        )
        m = DiscreteMeasure.from_atoms(np.array(locs), np.array(ws))
        acc = {}
        for loc, w in zip(locs, ws):
            if w > 0:
                acc[loc] = acc.get(loc, 0.0) + w
        assert list(m.locations) == sorted(acc)
        for loc, w in zip(m.locations, m.weights):
            assert w == pytest.approx(acc[loc], rel=1e-15)

    def test_from_atoms_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_atoms(np.array([0.0]), np.array([-1.0]))

    def test_from_atoms_refuses_a_nan_weight(self):
        # NaN is neither negative nor positive: it must not pass as a zero weight.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^atom weights must be nonnegative$"):
                DiscreteMeasure.from_atoms(np.array([0.0, 1.0]), np.array([1.0, np.nan]))

    def test_scaled(self):
        m = DiscreteMeasure(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        s = m.scaled(0.5)
        assert np.array_equal(s.weights, [0.5, 1.5])
        assert DiscreteMeasure.zero().scaled(2.0).is_zero
        with pytest.raises(ValueError):
            m.scaled(0.0)
        with pytest.raises(ValueError):
            m.scaled(POS_INF)


    def test_float_arrays_are_frozen_in_place_not_copied(self):
        # Copying would double the memory of every large measure; the
        # caller's arrays become read-only instead.
        locs, w = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        m = DiscreteMeasure(locs, w)
        assert m.locations is locs and m.weights is w
        samples = np.array([1.0, -1.0])
        assert GridDensity(0.0, 1.0, samples).samples is samples
        for arr in (locs, w, samples):
            assert not arr.flags.writeable
        # Other inputs are converted to new float arrays, which are frozen.
        ints = np.array([0, 1])
        assert DiscreteMeasure(ints, w).locations is not ints
        assert ints.flags.writeable


class TestCdf:
    def test_delta_is_heaviside(self):
        f = cdf(DiscreteMeasure(np.array([0.0]), np.array([1.0])))
        assert np.array_equal(f.breakpoints, [0.0])
        assert np.array_equal(f.values, [0.0, 1.0])
        assert f(-0.5) == 0.0 and f(0.0) == 1.0

    def test_zero_measure_is_constant_zero(self):
        f = cdf(DiscreteMeasure.zero())
        assert f.breakpoints.size == 0
        assert f(0.0) == 0.0 and f(POS_INF) == 0.0

    def test_two_atom_prefix_sums(self):
        f = cdf(DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.3, 0.7])))
        assert f(0.5) == 0.0
        assert f(1.0) == pytest.approx(0.3)
        assert f(1.5) == pytest.approx(0.3)
        assert f(2.0) == pytest.approx(1.0)

    @given(discrete_measures(max_atoms=15))
    def test_matches_prefix_sum_scan(self, m):
        f = cdf(m)
        probes = np.concatenate([m.locations, m.locations - 0.5, m.locations + 0.5])
        for x in probes:
            assert f(float(x)) == pytest.approx(
                cdf_scan(m.locations, m.weights, x), rel=1e-12, abs=1e-12
            )

    @given(discrete_measures(max_atoms=10))
    # The weights sum to one ulp above the stored mass 0.10794165049342948.
    @example(pushforward(np.array([0.0, 0.0, POS_INF]), 0.10794165049342948))
    def test_value_at_pos_inf_is_total_mass(self, m):
        assert cdf(m)(POS_INF) == m.total_mass

    def test_atom_at_neg_inf_lifts_head(self):
        m = DiscreteMeasure(np.array([NEG_INF, 1.0]), np.array([0.25, 0.75]))
        f = cdf(m)
        assert f(NEG_INF) == 0.25
        assert f(0.0) == 0.25
        assert f(1.0) == 1.0

    def test_atom_at_pos_inf_appears_only_at_pos_inf(self):
        m = DiscreteMeasure(np.array([1.0, POS_INF]), np.array([0.5, 0.5]))
        f = cdf(m)
        assert f(1e300) == 0.5
        assert f(POS_INF) == 1.0

    def test_only_infinite_atoms(self):
        m = DiscreteMeasure(np.array([NEG_INF, POS_INF]), np.array([0.5, 0.5]))
        f = cdf(m)
        assert f(0.0) == 0.5
        assert f(POS_INF) == 1.0


class TestSignedMeasure:
    def test_overlap_rejected(self):
        a = DiscreteMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        b = DiscreteMeasure(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(SingularityError):
            SignedMeasure(a, b)

    @given(st.data())
    def test_support_gap_is_symmetric_and_matches_brute_force(self, data):
        atoms = st.floats(allow_nan=False)
        a = np.sort(np.array(data.draw(st.lists(atoms, max_size=10, unique=True)), dtype=float))
        # Entries of a, or 1e-9 away from them, make collisions and near-collisions.
        near = st.tuples(st.sampled_from(a.tolist() or [0.0]), st.sampled_from([0.0, 1e-9, -1e-9]))
        b = np.sort(np.array(data.draw(st.lists(atoms | near.map(lambda t: t[0] + t[1]),
                                                max_size=10, unique=True)), dtype=float))

        def outcome(fn, x, y):
            try:
                return fn(x, y)
            except SingularityError as exc:
                return str(exc)

        ab, ba = (outcome(_support_gap, x, y) for x, y in ((a, b), (b, a)))
        assert ab == outcome(support_gap_brute_force, a, b)
        assert ba == outcome(support_gap_brute_force, b, a)
        # A shared zero is named with the sign its first argument gives it.
        assert ab == ba or ab.replace("-0.0", "0.0") == ba.replace("-0.0", "0.0")

    def test_total_variation(self):
        s = SignedMeasure(
            DiscreteMeasure(np.array([0.0]), np.array([2.0])),
            DiscreteMeasure(np.array([1.0]), np.array([3.0])),
        )
        assert s.total_variation == 5.0
        assert SignedMeasure.zero().total_variation == 0.0


class TestGridDensity:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridDensity(1.0, 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            GridDensity(0.0, 1.0, np.array([]))
        with pytest.raises(ValueError):
            GridDensity(0.0, 1.0, np.array([POS_INF]))

    @pytest.mark.parametrize("build", [
        lambda: GridDensity(-1e308, 1e308, np.array([1.0, 2.0])),
        lambda: rebin(SignedMeasure(DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                                    DiscreteMeasure.zero()), -1e308, 1e308, 4),
        lambda: scdt_forward_batch(np.array([[1.0, 0.0]]), -1e308, 1e308, TransformConfig()),
    ], ids=["density", "rebin", "batch"])
    def test_overflowing_span_refused(self, build):
        # Finite t0 < t1 whose span is inf would give bins of infinite width.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"span t1 - t0 of \[-1e\+308, 1e\+308\]"):
                build()

    def test_bin_geometry(self):
        d = GridDensity(0.0, 2.0, np.array([1.0, -1.0]))
        assert d.n_bins == 2
        assert d.bin_width == 1.0
        assert np.array_equal(d.bin_centers(), [0.5, 1.5])


class TestReferenceMeasure:
    def test_uniform_knots(self):
        ref = ReferenceMeasure.uniform(2.0, 4.0, mass=3.0)
        assert ref.support == (2.0, 4.0)
        assert ref.total_mass == 3.0

    def test_validation_errors_use_reference_error(self):
        with pytest.raises(InvalidReferenceError):
            ReferenceMeasure(np.array([0.0]), np.array([0.0]))
        with pytest.raises(InvalidReferenceError):
            ReferenceMeasure(np.array([0.0, 1.0]), np.array([0.0, 0.0]))  # flat
        with pytest.raises(InvalidReferenceError):
            ReferenceMeasure(np.array([0.0, 1.0]), np.array([0.5, 1.0]))  # y0 != 0
        with pytest.raises(InvalidReferenceError):
            ReferenceMeasure(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidReferenceError):
            ReferenceMeasure.uniform(1.0, 1.0)
        with pytest.raises(InvalidReferenceError):
            ReferenceMeasure.uniform(0.0, 1.0, mass=0.0)

    @pytest.mark.parametrize("args, name", [
        pytest.param((True, 2.0), "a", id="a-bool"),
        pytest.param(("0", 1.0), "a", id="a-text"),
        pytest.param((np.array(0.0), 1.0), "a", id="a-0-d"),
        pytest.param((0.0, True), "b", id="b-bool"),
        pytest.param((0.0, "1"), "b", id="b-text"),
        pytest.param((0.0, 1.0, True), "mass", id="mass-bool"),
        pytest.param((0.0, 1.0, "1"), "mass", id="mass-text"),
    ])
    def test_uniform_refuses_what_is_not_a_number(self, args, name):
        with pytest.raises(InvalidReferenceError, match=f"^{name}: expected a number, got "):
            ReferenceMeasure.uniform(*args)

    @pytest.mark.parametrize("top", [1e-320, 1e308])
    def test_extreme_mass_quantiles_are_exact(self, top):
        # The quantile is the preimage of p * mass under the CDF map itself,
        # so a subnormal or near-maximal mass still inverts to the knots.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = ReferenceMeasure(np.array([0.0, 1.0]), np.array([0.0, top]))
            p = np.array([0.0, 0.25, 0.5, 1.0])
            assert np.array_equal(ref.quantile(p), p)
            assert np.array_equal(ref.cdf_eval(ref.quantile(p)), p * top)

    @pytest.mark.parametrize(
        "xs, ys, cause",
        [
            ([0.0, 1e-300], [0.0, 1e300], "slope overflows"),
            ([-1e308, 1e308], [0.0, 1.0], "span overflows"),
            ([0.0, 1e300], [0.0, 1e-300], "underflows to 0"),
        ],
    )
    def test_knots_float64_cannot_hold_are_refused(self, xs, ys, cause):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidReferenceError, match=cause):
                ReferenceMeasure(np.array(xs), np.array(ys))

    def test_quantile_identity_reference(self):
        ref = ReferenceMeasure.uniform(0.0, 1.0)
        assert ref.quantile(0.25) == 0.25

    def test_quantile_linear_interpolation(self):
        ref = ReferenceMeasure.uniform(2.0, 4.0)
        assert ref.quantile(0.5) == 3.0

    def test_quantile_boundaries(self):
        ref = ReferenceMeasure.uniform(2.0, 4.0)
        assert ref.quantile(0.0) == 2.0
        assert ref.quantile(1.0) == 4.0

    def test_quantile_rejects_out_of_range(self):
        ref = ReferenceMeasure.uniform()
        with pytest.raises(ValueError):
            ref.quantile(1.5)
        with pytest.raises(ValueError):
            ref.quantile(-0.1)

    def test_cdf_eval_clamps_outside_support(self):
        ref = ReferenceMeasure.uniform(0.0, 2.0, mass=4.0)
        assert ref.cdf_eval(-5.0) == 0.0
        assert ref.cdf_eval(1.0) == 2.0
        assert ref.cdf_eval(5.0) == 4.0
        assert ref.cdf_eval(NEG_INF) == 0.0
        assert ref.cdf_eval(POS_INF) == 4.0

    @given(reference_measures(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_cdf_inverts_quantile(self, ref, p):
        x = ref.quantile(float(p))
        assert ref.cdf_eval(x) / ref.total_mass == pytest.approx(p, abs=1e-12)

    @given(reference_measures(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_cdf_matches_interp(self, ref, frac):
        x = ref.xs[0] + frac * (ref.xs[-1] - ref.xs[0])
        assert ref.cdf_eval(float(x)) == pytest.approx(
            float(np.interp(x, ref.xs, ref.ys)), rel=1e-12, abs=1e-12
        )


class TestMeasureFromDensity:
    def test_all_positive_gives_zero_negative_part(self):
        s = measure_from_density(GridDensity(0.0, 1.0, np.array([1.0, 2.0])))
        assert s.negative_part.is_zero
        assert np.array_equal(s.positive_part.locations, [0.25, 0.75])

    def test_mixed_signs_split_to_parts(self):
        s = measure_from_density(GridDensity(0.0, 2.0, np.array([1.0, -1.0])))
        assert np.array_equal(s.positive_part.locations, [0.5])
        assert np.array_equal(s.positive_part.weights, [1.0])
        assert np.array_equal(s.negative_part.locations, [1.5])
        assert np.array_equal(s.negative_part.weights, [1.0])

    def test_all_zero_gives_zero_measure(self):
        s = measure_from_density(GridDensity(0.0, 1.0, np.zeros(4)))
        assert s.positive_part.is_zero and s.negative_part.is_zero

    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False),
            min_size=1,
            max_size=64,
        )
    )
    def test_rebin_roundtrip_on_dyadic_grid(self, samples):
        d = GridDensity(0.0, float(len(samples)) / 8, np.array(samples))
        if holds_subnormal_weight(d):
            with pytest.raises(RangeError, match="below the smallest normal float"):
                measure_from_density(d)
            return
        back = rebin(measure_from_density(d), d.t0, d.t1, d.n_bins)
        assert np.array_equal(back.samples, d.samples)

    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False),
            min_size=1,
            max_size=64,
        )
    )
    def test_rebin_roundtrip_on_general_grid(self, samples):
        d = GridDensity(-0.3, 4.7, np.array(samples))
        if holds_subnormal_weight(d):
            with pytest.raises(RangeError, match="below the smallest normal float"):
                measure_from_density(d)
            return
        back = rebin(measure_from_density(d), d.t0, d.t1, d.n_bins)
        assert np.allclose(back.samples, d.samples, rtol=1e-12, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "density, cause",
        [
            (GridDensity(0.0, 0.01, np.array([1e-322, 1.0])), "underflows to 0"),
            # Its weight, the sample over 8, would keep fewer bits: rebin could not return it.
            (GridDensity(0.0, 0.125, np.array([4.357289704339519e-308])),
             "below the smallest normal float"),
            (GridDensity(0.0, 4.0, np.array([1e308, 1.0])), "bin width overflows"),
            (GridDensity(1e16, 1e16 + 8, np.ones(8)), "collide"),
            (GridDensity(0.0, 2.0, np.array([1e308, 1e308])), "total mass of a part overflows"),
            (GridDensity(1e16, 1e16 + 8, np.array([1.0, -1.0] * 4)), "bin centres collide"),
        ],
        ids=["weight-underflow", "weight-subnormal", "weight-overflow", "centre-collision",
             "mass-overflow", "parts-collide"],
    )
    def test_unrepresentable_atoms_raise_range_error(self, density, cause):
        with pytest.raises(RangeError, match=cause):
            measure_from_density(density)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @given(
        st.floats(min_value=-1e20, max_value=1e20),
        st.one_of(
            st.floats(min_value=1e-3, max_value=1e3),
            st.integers(min_value=1, max_value=64).map(lambda k: k * 2.0**-52),
        ),
        st.lists(st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)),
                 min_size=1, max_size=40),
        st.sampled_from([None] * 4 + [1e-320, -1e-320, 1e308, -1e308]),
    )
    def test_parts_equal_the_masked_gathers_bit_for_bit(
        self, t0, relative_span, samples, extreme
    ):
        # Spans of a few ulps of t0 make neighbouring bin centres collide.
        t1 = t0 + relative_span * max(abs(t0), 1.0)
        if not (np.isfinite(t1) and t1 > t0):
            return
        d = GridDensity(t0, t1, np.array(samples + [extreme] * (extreme is not None)))
        try:
            want = measure_from_density_by_masks(d)
        except ValueError:
            with pytest.raises(RangeError):
                measure_from_density(d)
            return
        s = measure_from_density(d)
        for part, expected in zip((s.positive_part, s.negative_part), want):
            assert part.locations.tobytes() == expected.locations.tobytes()
            assert part.weights.tobytes() == expected.weights.tobytes()
            assert part.total_mass == expected.total_mass
            assert not part.locations.flags.writeable and not part.weights.flags.writeable


class TestPushforward:
    def test_constant_zero_map_gives_delta(self):
        m = pushforward(np.zeros(8), 1.0)
        assert np.array_equal(m.locations, [0.0])
        assert np.array_equal(m.weights, [1.0])

    def test_identity_samples_give_uniform_empirical(self):
        q = (np.arange(4) + 0.5) / 4
        m = pushforward(q, 1.0)
        assert np.array_equal(m.locations, q)
        assert np.array_equal(m.weights, np.full(4, 0.25))

    def test_affine_samples(self):
        q = (np.arange(4) + 0.5) / 4
        m = pushforward(2 * q + 1, 3.0)
        assert np.array_equal(m.locations, 2 * q + 1)
        assert np.array_equal(m.weights, np.full(4, 0.75))

    def test_zero_mass_gives_zero_measure(self):
        assert pushforward(np.zeros(4), 0.0).is_zero

    def test_rejects_decreasing_samples(self):
        with pytest.raises(ValueError):
            pushforward(np.array([1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("samples, message", [
        (np.zeros((2, 2)), "^samples must be a non-empty 1-D array$"),
        (np.array([0.0, np.nan, 1.0]), "^samples must not contain NaN$"),
    ], ids=["2-D", "nan"])
    def test_rejects_malformed_samples(self, samples, message):
        with pytest.raises(ValueError, match=message):
            pushforward(samples, 1.0)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            pushforward(np.zeros(4), -1.0)

    def test_rejects_infinite_mass(self):
        with pytest.raises(ValueError, match="mass must be finite and nonnegative"):
            pushforward(np.zeros(4), POS_INF)

    @pytest.mark.parametrize("mass", [True, "1", np.array(1.0)], ids=["bool", "text", "0-d"])
    def test_mass_must_be_a_number(self, mass):
        with pytest.raises(ValueError, match="^mass: expected a number, got "):
            pushforward(np.zeros(4), mass)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize(
        "samples, mass, cause",
        [
            (np.ones(4), 5e-324, "mass / M underflows to 0"),
            (np.ones(3), np.finfo(float).max, "mass / M times a count overflows"),
        ],
        ids=["underflow", "overflow"],
    )
    def test_unrepresentable_weights_raise_range_error(self, samples, mass, cause):
        with pytest.raises(RangeError, match=cause):
            pushforward(samples, mass)

    @given(
        st.lists(
            st.sampled_from([NEG_INF, -2.5, -1.0, 0.0, 5e-324, 1.0, 1.0 + 2**-52, 7.0, POS_INF]),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=1e-300, max_value=1e300),
    )
    def test_runs_match_np_unique(self, samples, mass):
        arr = np.sort(np.array(samples))
        m = pushforward(arr, mass)
        uniq, counts = np.unique(arr, return_counts=True)
        assert m.locations.tobytes() == uniq.tobytes()
        assert m.weights.tobytes() == (counts * (mass / arr.size)).tobytes()
        assert m.total_mass == mass

    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
    )
    def test_preserves_total_mass_exactly(self, samples, mass):
        m = pushforward(np.sort(np.array(samples)), mass)
        assert m.total_mass == mass

    def test_many_distinct_samples_accept_their_mass(self):
        # 99,991 weights of mass / 99,991 sum sequentially to a value off by
        # more than 1e-12 relative; the stored mass must still be accepted.
        m = pushforward(np.arange(99991) / 99991, 0.8924182013739745)
        assert m.total_mass == 0.8924182013739745
        assert m.weights.size == 99991


class TestRebin:
    def test_delta_at_bin_center_gives_spike(self):
        m = SignedMeasure(
            DiscreteMeasure(np.array([0.25]), np.array([1.0])), DiscreteMeasure.zero()
        )
        d = rebin(m, 0.0, 1.0, 2)
        assert np.array_equal(d.samples, [2.0, 0.0])  # mass 1 / width 0.5

    def test_zero_measure_gives_zeros(self):
        d = rebin(SignedMeasure.zero(), 0.0, 1.0, 4)
        assert np.array_equal(d.samples, np.zeros(4))

    @pytest.mark.parametrize("n_bins", [2.5, np.inf, True, "4"])
    def test_n_bins_must_be_a_whole_number(self, n_bins):
        with pytest.raises(ValueError, match="n_bins must be an integer"):
            rebin(SignedMeasure.zero(), 0.0, 1.0, n_bins)

    @pytest.mark.parametrize("t0, t1, n_bins", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0)],
                             ids=["empty", "reversed", "no-bins"])
    def test_grid_must_be_an_interval_with_bins(self, t0, t1, n_bins):
        with pytest.raises(ValueError, match=r"^need finite t0 < t1 and n_bins >= 1$"):
            rebin(SignedMeasure.zero(), t0, t1, n_bins)

    @pytest.mark.parametrize("n_bins", [2**60, 2**63 - 1, 2**63, 10**30])
    def test_bin_count_no_array_can_hold_is_refused(self, n_bins):
        m = SignedMeasure(
            DiscreteMeasure(np.array([1.0]), np.array([1.0])), DiscreteMeasure.zero()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^n_bins {n_bins} is more bins than any"):
                rebin(m, 0.0, 1.0, n_bins)

    def test_atom_on_right_edge_kept_in_last_bin(self):
        m = SignedMeasure(
            DiscreteMeasure(np.array([1.0]), np.array([1.0])), DiscreteMeasure.zero()
        )
        d = rebin(m, 0.0, 1.0, 4)
        assert d.samples[-1] == 4.0

    def test_out_of_range_atom_rejected(self):
        m = SignedMeasure(
            DiscreteMeasure(np.array([2.0]), np.array([1.0])), DiscreteMeasure.zero()
        )
        with pytest.raises(RangeError):
            rebin(m, 0.0, 1.0, 4)

    def test_infinite_atom_rejected(self):
        m = SignedMeasure(
            DiscreteMeasure(np.array([POS_INF]), np.array([1.0])), DiscreteMeasure.zero()
        )
        with pytest.raises(RangeError):
            rebin(m, 0.0, 1.0, 4)

    @pytest.mark.parametrize("locs, message", [
        ([-0.5, 0.25, 0.5], "outside the grid"),
        ([0.25, 0.5, 1.5], "outside the grid"),
        ([NEG_INF, 0.25, 0.5], "at [+]-inf"),
        ([0.25, 0.5, POS_INF], "at [+]-inf"),
        ([-0.5, 0.5, POS_INF], "at [+]-inf"),
        ([NEG_INF, 0.5, 1.5], "at [+]-inf"),
    ], ids=["below-first", "above-last", "neg-inf-first", "pos-inf-last", "below-and-pos-inf",
            "neg-inf-and-above"])
    @pytest.mark.parametrize("side", ["positive", "negative"])
    def test_multi_atom_part_with_a_bad_end_rejected(self, locs, message, side):
        bad = DiscreteMeasure(np.array(locs), np.ones(3))
        good = DiscreteMeasure(np.array([0.125, 0.375, 0.875]), np.ones(3))
        m = SignedMeasure(bad, good) if side == "positive" else SignedMeasure(good, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match=message):
                rebin(m, 0.0, 1.0, 4)

    @pytest.mark.filterwarnings("error")
    def test_density_that_overflows_raises_range_error(self):
        # Mass 1e10 over a bin width of 2.5e-301 overflows float64.
        m = SignedMeasure(DiscreteMeasure([1e-301], [1e10]), DiscreteMeasure.zero())
        with pytest.raises(RangeError, match="over the bin width 2.5e-301 overflows"):
            rebin(m, 0.0, 1e-300, 4)

    def test_atoms_on_both_grid_edges_kept(self):
        m = SignedMeasure(DiscreteMeasure(np.array([0.0, 0.5, 1.0]), np.ones(3)),
                          DiscreteMeasure(np.array([0.125, 0.875]), np.ones(2)))
        assert np.array_equal(rebin(m, 0.0, 1.0, 4).samples, [0.0, 0.0, 4.0, 0.0])

    @given(signed_measures(max_atoms=6))
    def test_preserves_signed_mass(self, s):
        d = rebin(s, -150.0, 150.0, 64)
        total = float(np.sum(d.samples)) * d.bin_width
        expected = s.positive_part.total_mass - s.negative_part.total_mass
        assert total == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestMeasureQuantiles:
    def test_zero_measure_rejected(self):
        with pytest.raises(ValueError):
            measure_quantiles(DiscreteMeasure.zero(), np.array([0.5]))

    def test_single_atom_constant(self):
        m = DiscreteMeasure(np.array([3.0]), np.array([2.0]))
        q = (np.arange(8) + 0.5) / 8
        assert np.array_equal(measure_quantiles(m, q), np.full(8, 3.0))

    @given(discrete_measures(max_atoms=12), st.data())
    def test_matches_linear_scan(self, m, data):
        qs = data.draw(
            st.lists(
                st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
                min_size=1,
                max_size=20,
            )
        )
        out = measure_quantiles(m, np.array(qs))
        for q, v in zip(qs, out):
            assert v == quantile_scan(m.locations, m.weights, q)

    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            max_size=8,
            unique=True,
        ),
        st.sampled_from([(NEG_INF,), (POS_INF,), (NEG_INF, POS_INF)]),
        st.data(),
    )
    def test_infinite_atoms_match_cdf_generalized_inverse(self, finite, ends, data):
        locs = np.sort(np.concatenate((finite, ends)))
        weights = data.draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
                min_size=locs.size,
                max_size=locs.size,
            )
        )
        m = DiscreteMeasure(locs, np.asarray(weights))
        random_levels = data.draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=20)
        )
        q = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), *random_levels])
        expected = np.minimum(cdf(m).geninv_eval(q * m.total_mass), m.locations[-1])
        assert np.array_equal(measure_quantiles(m, q), expected)

    levels = st.lists(st.floats(min_value=-1.0, max_value=2.0) | st.just(float("nan")),
                      max_size=20).map(lambda q: np.array(q, dtype=float))

    @given(
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8,
                 unique=True),
        st.sampled_from([(), (NEG_INF,), (POS_INF,), (NEG_INF, POS_INF)]),
        levels,
        st.data(),
    )
    def test_matches_padded_search(self, finite, ends, q, data):
        locs = np.sort(np.concatenate((finite, ends)))
        weights = data.draw(st.lists(st.floats(min_value=1e-300, max_value=1e300),
                                     min_size=locs.size, max_size=locs.size))
        m = DiscreteMeasure(locs, np.array(weights))
        expected = quantiles_by_padded_search(m.locations, m.weights, q)
        assert measure_quantiles(m, q).tobytes() == expected.tobytes()
        # A scalar level gives a numpy float, as the padded search does.
        for level in q.tolist() + [np.array(0.5)]:
            got = measure_quantiles(m, level)
            want = quantiles_by_padded_search(m.locations, m.weights, level)
            assert type(got) is type(want) is np.float64
            assert got.tobytes() == want.tobytes()

    @given(
        st.lists(st.just(0.0) | st.floats(min_value=1e-6, max_value=1e3)
                 | st.floats(min_value=-1e3, max_value=-1e-6), min_size=1, max_size=40),
        levels,
    )
    def test_density_parts_match_padded_search(self, samples, q):
        s = measure_from_density(GridDensity(-1.0, 2.0, np.array(samples)))
        for part in (s.positive_part, s.negative_part):
            if part.is_zero:
                continue
            expected = quantiles_by_padded_search(part.locations, part.weights, q)
            # The first search takes the running sum measure_from_density left; the second sums.
            assert "_csum" in vars(part)
            for _ in range(2):
                assert measure_quantiles(part, q).tobytes() == expected.tobytes()
                assert "_csum" not in vars(part)

    def test_large_sorted_searches_bisect_nothing(self, monkeypatch):
        # 4e5 atoms at M = 2^17: each sorted level is bracketed from the one before,
        # and the support gap of two 4e5-entry supports likewise; no key is bisected.
        m = DiscreteMeasure(np.arange(400_000.0), np.random.default_rng(5).random(400_000) + 0.5)
        q = (np.arange(2**17) + 0.5) / 2**17
        want = quantiles_by_padded_search(m.locations, m.weights, q)
        calls, search = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: calls.append(1) or search(*a, **k))
        got = measure_quantiles(m, q)
        gap = _support_gap(m.locations, m.locations + 0.25)
        monkeypatch.undo()
        assert calls == []
        assert got.tobytes() == want.tobytes() and gap == 0.25

    @given(discrete_measures(max_atoms=12))
    def test_non_decreasing_on_sorted_levels(self, m):
        q = (np.arange(64) + 0.5) / 64
        out = measure_quantiles(m, q)
        assert np.all(out[1:] >= out[:-1])
