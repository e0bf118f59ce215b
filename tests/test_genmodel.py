"""Reparameterization actions, transform-space prediction laws, the signal
templates, and the synthetic dataset generator."""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import scdt
from conftest import MERGING_GEN, gen_configs, signed_measures
from oracles import cdf, convexity_probe
from scdt.genmodel import (
    CARRIER_PERIOD,
    TEMPLATES,
    WINDOW_CENTER,
    WINDOW_HALF_WIDTH,
    GenConfig,
    IncreasingReparam,
    LabeledSignals,
    apply_reparam,
    generate_dataset,
    _phase,
    _window,
    predict_transform_under_reparam,
)
from scdt.errors import RangeError, ScdtError, SingularityError
from scdt.measures import (
    DiscreteMeasure,
    GridDensity,
    SignedMeasure,
    measure_from_density,
    rebin,
)
from scdt.transform import TransformConfig, scdt_forward


class TestIncreasingReparam:
    def test_translation_round_trip_exact(self):
        g = IncreasingReparam.translation(0.5)
        assert g(2.0) == 1.5
        assert g.inverse(1.5) == 2.0
        xs = np.arange(8) / 4.0
        assert np.array_equal(g.inverse(g(xs)), xs)

    def test_dilation_round_trip_exact(self):
        g = IncreasingReparam.dilation(2.0)
        assert g(3.0) == 1.5
        assert g.inverse(1.5) == 3.0
        xs = np.arange(8) / 4.0
        assert np.array_equal(g.inverse(g(xs)), xs)

    def test_affine_round_trip(self):
        g = IncreasingReparam.affine(1.3, -0.7)
        assert g(2.0) == pytest.approx(1.3 * 2.0 - 0.7)
        xs = np.linspace(-3.0, 3.0, 17)
        assert np.allclose(g.inverse(g(xs)), xs, rtol=1e-12, atol=1e-12)

    def test_piecewise_linear_knots_and_inverse(self):
        g = IncreasingReparam.piecewise_linear([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert g(1.0) == 2.0
        assert g.inverse(2.0) == 1.0
        xs = np.linspace(-1.0, 4.0, 21)
        assert np.allclose(g.inverse(g(xs)), xs, rtol=1e-12, atol=1e-12)

    def test_piecewise_linear_inverse_is_the_preimage(self):
        # A subnormal rise on the first segment: its slope 1e-320 still
        # divides exactly, where the reciprocal slope 1e320 would overflow.
        g = IncreasingReparam.piecewise_linear([0.0, 1.0, 2.0], [0.0, 1e-320, 1.0])
        assert g.inverse(0.5e-320) == 0.5
        assert np.array_equal(g.inverse(g.pwl.ys), g.pwl.xs)
        # Below the first knot the inverse is -1e320, which float64 cannot hold.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows float64"):
                g.inverse(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncreasingReparam("rotation")
        with pytest.raises(ValueError):
            IncreasingReparam.dilation(0.0)
        with pytest.raises(ValueError):
            IncreasingReparam.dilation(-2.0)
        with pytest.raises(ValueError):
            IncreasingReparam.affine(0.0, 1.0)
        for offset in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                IncreasingReparam.affine(1.0, offset)
            with pytest.raises(ValueError):
                IncreasingReparam.translation(offset)
        with pytest.raises(ValueError):
            IncreasingReparam.piecewise_linear([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=20),
    )
    def test_translation_is_exact_shift(self, a, xs):
        g = IncreasingReparam.translation(a)
        arr = np.array(xs)
        assert np.array_equal(g(arr), arr - a) and np.array_equal(g.inverse(arr), arr + a)
        for x in xs:
            assert g(x) == x - a and g.inverse(x) == x + a

    def test_call_is_forward(self):
        g = IncreasingReparam.affine(2.0, 1.0)
        assert g(3.0) == g.forward(3.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "g, direction, point",
        [
            (IncreasingReparam.affine(2.0, 0.0), "forward", 1e308),
            (IncreasingReparam.dilation(0.5), "forward", 1e308),
            (IncreasingReparam.affine(0.5, 0.0), "inverse", -1e308),
            (IncreasingReparam.dilation(2.0), "inverse", 1e308),
        ],
        ids=["affine-forward", "dilation-forward", "affine-inverse", "dilation-inverse"],
    )
    def test_image_beyond_float64_raises_value_error(self, g, direction, point):
        # As a piecewise-linear warp does, with no overflow RuntimeWarning first.
        for x in (point, np.array([0.0, point])):
            with pytest.raises(ValueError, match="overflows float64"):
                getattr(g, direction)(x)

    @pytest.mark.filterwarnings("error")
    @given(
        st.floats(min_value=5e-324, max_value=1e308),
        st.floats(allow_nan=False, allow_infinity=False),
        st.lists(st.floats(allow_nan=False), max_size=12),
    )
    def test_closed_forms_keep_every_representable_bit(self, a, b, xs):
        x = np.array(xs + [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf])
        dilation, affine = IncreasingReparam.dilation(a), IncreasingReparam.affine(a, b)
        for fn, closed in ((dilation.forward, lambda x: x / a), (dilation.inverse, lambda y: a * y),
                           (affine.forward, lambda x: a * x + b),
                           (affine.inverse, lambda y: (y - b) / a)):
            with np.errstate(all="ignore"):
                want = closed(x)
            # Where the closed form overflows on a finite point, the point itself
            # may still be finite (b offsets the product); else the call raises.
            beyond = ~np.isfinite(want) & np.isfinite(x)
            try:
                got = fn(x)
            except ValueError as exc:
                assert "overflows float64" in str(exc) and np.any(beyond)
                continue
            assert got[~beyond].tobytes() == want[~beyond].tobytes()
            assert np.all(np.isfinite(got[beyond]))
            for xi, gi in zip(x, got):
                assert np.float64(fn(float(xi))).tobytes() == gi.tobytes()


class TestApplyReparam:
    def test_translation_moves_atoms_forward(self):
        s = SignedMeasure(
            DiscreteMeasure(np.array([1.0]), np.array([1.0])), DiscreteMeasure.zero()
        )
        out = apply_reparam(s, IncreasingReparam.translation(0.5))
        assert np.array_equal(out.positive_part.locations, [1.5])
        assert np.array_equal(out.positive_part.weights, [1.0])

    def test_dilation_scales_atom_locations(self):
        s = SignedMeasure(
            DiscreteMeasure(np.array([1.0, 2.0]), np.array([0.25, 0.75])),
            DiscreteMeasure.zero(),
        )
        out = apply_reparam(s, IncreasingReparam.dilation(2.0))
        assert np.array_equal(out.positive_part.locations, [2.0, 4.0])
        assert np.array_equal(out.positive_part.weights, [0.25, 0.75])

    def test_zero_parts_stay_zero(self):
        out = apply_reparam(SignedMeasure.zero(), IncreasingReparam.affine(2.0, 1.0))
        assert out.positive_part.is_zero and out.negative_part.is_zero

    def test_cdf_composition_law(self):
        # The reparameterized measure's CDF is the original CDF composed
        # with g.  A dyadic translation keeps every comparison exact, so
        # equality holds at every probe including the atoms themselves.
        m = DiscreteMeasure(np.array([0.25, 1.0, 2.5]), np.array([0.5, 1.0, 0.25]))
        s = SignedMeasure(m, DiscreteMeasure.zero())
        g = IncreasingReparam.translation(0.5)
        out = apply_reparam(s, g)
        old_cdf = cdf(m)
        new_cdf = cdf(out.positive_part)
        probes = np.concatenate(
            [out.positive_part.locations, [-10.0, 0.5, 1.2, 2.9, 10.0]]
        )
        assert np.array_equal(new_cdf.eval(probes), old_cdf.eval(g(probes)))

    @given(signed_measures(max_atoms=6), st.floats(0.5, 2.0), st.floats(-1.0, 1.0))
    def test_masses_conserved_exactly(self, s, a, b):
        from scdt.errors import SingularityError

        try:
            out = apply_reparam(s, IncreasingReparam.affine(a, b))
        except SingularityError:
            # Rounding through g^-1 can collapse a positive and a negative
            # atom onto one float; rejecting that draw is the right outcome.
            assume(False)
        for new, old in (
            (out.positive_part, s.positive_part),
            (out.negative_part, s.negative_part),
        ):
            if new.locations.size == old.locations.size:
                # No atoms merged: the same weights are summed in the same
                # order, so the total is bit-identical.
                assert new.total_mass == old.total_mass
            else:
                # Rounding collapsed neighbors and pre-summed their weights;
                # the total can move by reassociation rounding only.
                assert new.total_mass == pytest.approx(old.total_mass, rel=1e-12)


class TestPredictTransform:
    def make_signal(self) -> SignedMeasure:
        return SignedMeasure(
            DiscreteMeasure(np.array([0.25, 1.0]), np.array([0.5, 0.5])),
            DiscreteMeasure(np.array([2.0, 3.5]), np.array([0.25, 0.75])),
        )

    @pytest.mark.parametrize(
        "g",
        [
            IncreasingReparam.translation(0.5),
            IncreasingReparam.dilation(2.0),
            IncreasingReparam.affine(1.5, -0.25),
        ],
        ids=["translation", "dilation", "affine"],
    )
    def test_prediction_matches_recomputation_bit_for_bit(self, g):
        # Both routes apply g^-1 to the same floats: relocating atoms and
        # re-sampling quantiles selects the relocated values, while the
        # prediction maps the sampled values directly.
        cfg = TransformConfig(n_quantiles=32)
        s = self.make_signal()
        t = scdt_forward(s, cfg)
        predicted = predict_transform_under_reparam(t, g)
        recomputed = scdt_forward(apply_reparam(s, g), cfg)
        for p, r in ((predicted.plus, recomputed.plus), (predicted.minus, recomputed.minus)):
            assert np.array_equal(p.samples, r.samples)
            assert p.mass == r.mass

    def test_zero_part_is_preserved(self):
        cfg = TransformConfig(n_quantiles=8)
        s = SignedMeasure(
            DiscreteMeasure(np.array([1.0]), np.array([2.0])), DiscreteMeasure.zero()
        )
        t = scdt_forward(s, cfg)
        predicted = predict_transform_under_reparam(t, IncreasingReparam.dilation(3.0))
        assert predicted.minus.is_zero
        assert np.array_equal(predicted.plus.samples, np.full(8, 3.0))
        assert predicted.plus.mass == 2.0


class TestTemplates:
    def test_names(self):
        assert tuple(t.name for t in TEMPLATES) == ("gabor", "sawtooth", "square")

    def test_gabor_peaks_at_window_center(self):
        assert TEMPLATES[0](np.array([WINDOW_CENTER]))[0] == 1.0

    def test_supported_inside_window_only(self):
        lo = WINDOW_CENTER - WINDOW_HALF_WIDTH
        hi = WINDOW_CENTER + WINDOW_HALF_WIDTH
        outside = np.array([lo - 0.1, hi + 0.1, -100.0, 100.0])
        for template in TEMPLATES:
            assert not np.any(template(outside))

    def test_every_template_is_genuinely_signed(self):
        t = np.linspace(-0.5, 5.0, 2048)
        for template in TEMPLATES:
            vals = template(t)
            assert vals.min() < 0.0 < vals.max()

    def test_bounded_by_unit_window(self):
        t = np.linspace(-0.5, 5.0, 2048)
        for template in TEMPLATES:
            assert np.max(np.abs(template(t))) <= 1.0 + 1e-12

    def test_sawtooth_and_square_match_scipy_signal_bit_for_bit(self):
        from scipy import signal

        cfg = GenConfig()
        grid = GridDensity(cfg.t0, cfg.t1, np.zeros(cfg.n_grid)).bin_centers()
        rng = np.random.default_rng(0)
        spread = rng.uniform(WINDOW_CENTER - 1.0, WINDOW_CENTER + 1.0, 100_000)
        half_periods = WINDOW_CENTER + np.arange(-8, 9) * (CARRIER_PERIOD / 2)
        for t in (grid, spread, half_periods):
            for template, oracle in zip(TEMPLATES[1:], (signal.sawtooth, signal.square)):
                want = oracle(_phase(t)) * _window(t)
                assert template(t).tobytes() == want.tobytes(), template.name

    def test_importing_the_package_leaves_out_scipy_signal(self):
        src = os.path.dirname(os.path.dirname(scdt.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, scdt, scdt.cli; "
            "print('scipy.signal' in sys.modules, 'scipy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False", "False"]


#: What a JSON value may hold: null, bools, ints (beyond float64 too), floats (NaN and
#: +-inf too), strings, lists of up to three of these, and an object.
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.sampled_from([2**1024, -2**1024, 10**400]), st.floats(),
                         st.text(max_size=3))
JSON_VALUES = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
                        st.dictionaries(st.text(max_size=2), JSON_SCALARS, max_size=2))


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig()
        assert cfg.per_class == (167, 167, 166)
        assert cfg.n_signals == 500
        assert cfg.n_grid == 256

    def test_int_per_class_broadcasts(self):
        assert GenConfig(per_class=5).per_class == (5, 5, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(t0=1.0, t1=0.0)
        with pytest.raises(ValueError):
            GenConfig(n_grid=0)
        with pytest.raises(ValueError):
            GenConfig(a_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            GenConfig(a_range=(2.0, 1.0))
        # Finite ends whose distance overflows float64 leave no width to draw from.
        with pytest.raises(ValueError, match="of finite width"):
            GenConfig(b_range=(-1e308, 1e308))
        with pytest.raises(ValueError):
            GenConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            GenConfig(per_class=(5, 5))
        with pytest.raises(ValueError):
            GenConfig(per_class=(5, 0, 5))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(n_grid=16.9), "n_grid"),
            (dict(n_grid=np.inf), "n_grid"),
            (dict(seed=1.5), "seed"),
            (dict(seed=True), "seed"),
            (dict(per_class=(2.5, 2, 2)), "per_class"),
            (dict(per_class=True), "per_class"),
            (dict(per_class=2.5), "per_class"),
            (dict(per_class="2"), "per_class"),
        ],
        ids=["fractional-n_grid", "infinite-n_grid", "fractional-seed", "bool-seed",
             "fractional-count", "bool-per_class", "fractional-per_class", "text-per_class"],
    )
    def test_integer_fields_take_whole_numbers_only(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GenConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(noise_sigma=np.inf), "noise_sigma must be finite and nonnegative"),
            (dict(noise_sigma=-0.1), "noise_sigma must be finite and nonnegative"),
            (dict(per_class=[[1, 2], [3]]), "per_class must be an integer, got [1, 2]"),
        ],
        ids=["infinite-noise_sigma", "negative-noise_sigma", "ragged-per_class"],
    )
    def test_refusal_names_its_cause(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            GenConfig(**kwargs)

    def test_whole_floats_and_numpy_integers_are_ints(self):
        cfg = GenConfig(n_grid=16.0, seed=np.int64(3), per_class=(np.int32(2), 3.0, 4))
        assert (cfg.n_grid, cfg.seed, cfg.per_class) == (16, 3, (2, 3, 4))
        assert all(type(v) is int for v in (cfg.n_grid, cfg.seed, *cfg.per_class))

    @pytest.mark.parametrize("seed", [-1, -3.0, np.int64(-2**40)])
    def test_negative_seed_is_refused_by_name(self, seed):
        # np.random.default_rng takes no negative seed; refuse it before generating.
        with pytest.raises(ValueError, match=f"seed must be a nonnegative whole number, got "
                                             f"{int(seed)}$"):
            GenConfig(seed=seed)
        with pytest.raises(ValueError, match="seed must be a nonnegative whole number"):
            scdt.run_experiment(GenConfig(per_class=2, n_grid=8),
                                scdt.TransformConfig(n_quantiles=4), seed=seed)

    @given(key=st.sampled_from([f.name for f in dataclasses.fields(GenConfig)]),
           value=JSON_VALUES)
    def test_each_field_is_converted_or_refused_by_name(self, key, value):
        # As read from a JSON config: GenConfig converts the value or names its key.
        try:
            cfg = GenConfig(**{key: value})
        except ValueError as exc:
            assert key in str(exc)
            return
        assert all(type(v) is float for v in (cfg.t0, cfg.t1, cfg.noise_sigma))
        for pair in (cfg.a_range, cfg.b_range):
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(v) is float for v in pair)


#: Warps every atom to about -1, where neighbours of opposite sign collide.
COLLAPSING = GenConfig(t0=-3.0, a_range=(1e15, 1e15), b_range=(1e15, 1e15), per_class=1)


def per_signal_dataset(cfg: GenConfig):
    """The dataset built signal by signal: warp the template measure, rebin,
    add noise, drawing a, b and the noise in that order per signal."""
    rng = np.random.default_rng(cfg.seed)
    centers = GridDensity(cfg.t0, cfg.t1, np.zeros(cfg.n_grid)).bin_centers()
    out = []
    for label, template in enumerate(TEMPLATES):
        base = measure_from_density(GridDensity(cfg.t0, cfg.t1, template(centers)))
        for _ in range(cfg.per_class[label]):
            g = IncreasingReparam.affine(rng.uniform(*cfg.a_range), rng.uniform(*cfg.b_range))
            density = rebin(apply_reparam(base, g), cfg.t0, cfg.t1, cfg.n_grid)
            out.append((label, density.samples + rng.normal(0.0, cfg.noise_sigma, cfg.n_grid)))
    return out


class TestGenerateDataset:
    def small_cfg(self, **kw) -> GenConfig:
        base = dict(per_class=(3, 3, 3), n_grid=64)
        base.update(kw)
        return GenConfig(**base)

    def test_counts_shapes_and_label_order(self):
        cfg = self.small_cfg()
        data = generate_dataset(cfg)
        assert len(data) == 9
        assert [label for label, _ in data] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        for _, density in data:
            assert density.samples.shape == (64,)
            assert (density.t0, density.t1) == (cfg.t0, cfg.t1)

    def test_same_seed_is_bit_identical(self):
        a = generate_dataset(self.small_cfg(seed=7))
        b = generate_dataset(self.small_cfg(seed=7))
        for (la, da), (lb, db) in zip(a, b):
            assert la == lb
            assert np.array_equal(da.samples, db.samples)

    def test_different_seed_differs(self):
        a = generate_dataset(self.small_cfg(seed=0))
        b = generate_dataset(self.small_cfg(seed=1))
        assert any(
            not np.array_equal(da.samples, db.samples)
            for (_, da), (_, db) in zip(a, b)
        )

    def test_identity_reparam_without_noise_recovers_templates(self):
        cfg = GenConfig(
            per_class=(1, 1, 1), a_range=(1.0, 1.0), b_range=(0.0, 0.0), noise_sigma=0.0
        )
        centers = GridDensity(cfg.t0, cfg.t1, np.zeros(cfg.n_grid)).bin_centers()
        for (label, density), template in zip(generate_dataset(cfg), TEMPLATES):
            assert np.max(np.abs(density.samples - template(centers))) <= 1e-12

    def test_atoms_off_the_grid_raise_range_error(self):
        with pytest.raises(
            RangeError, match=re.escape("atoms outside the grid [-0.5, 5.0] cannot be rebinned")
        ):
            generate_dataset(GenConfig(a_range=(0.1, 0.1)))

    def test_collapsed_atoms_raise_singularity_error(self):
        with pytest.raises(SingularityError):
            generate_dataset(COLLAPSING)

    @pytest.mark.filterwarnings("error")
    def test_warped_atoms_beyond_float64_raise_the_off_grid_error(self):
        # (location - b) / 1e-310 leaves float64 for every atom of every template.
        with pytest.raises(
            RangeError, match=re.escape("atoms outside the grid [-0.5, 5.0] cannot be rebinned")
        ):
            generate_dataset(GenConfig(a_range=(1e-310, 1e-310), per_class=1))

    @pytest.mark.parametrize(
        "cfg",
        [
            GenConfig(per_class=(5, 4, 3), n_grid=64, seed=11),
            GenConfig(per_class=(2, 1, 2), n_grid=7, t0=-1.0, t1=6.0, noise_sigma=0.0),
            MERGING_GEN,
            GenConfig(a_range=(0.1, 0.1)),
            COLLAPSING,
        ],
        ids=["small", "coarse-noiseless", "merging", "off-grid", "collapsing"],
    )
    def test_matches_the_per_signal_path(self, cfg):
        try:
            want = per_signal_dataset(cfg)
        except ScdtError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                generate_dataset(cfg)
            return
        got = generate_dataset(cfg)
        assert [label for label, _ in got] == [label for label, _ in want]
        got_rows = np.stack([d.samples for _, d in got])
        assert got_rows.tobytes() == np.stack([samples for _, samples in want]).tobytes()


class TestLabeledSignals:
    @given(gen_configs())
    def test_pairs_are_read_only_rows_of_the_view(self, cfg):
        view = generate_dataset(cfg)
        assert isinstance(view, LabeledSignals) and len(view) == cfg.n_signals
        assert view.samples.shape == (cfg.n_signals, cfg.n_grid)
        assert view.labels.dtype == int
        assert not view.labels.flags.writeable and not view.samples.flags.writeable
        assert (view.t0, view.t1) == (cfg.t0, cfg.t1)
        pairs = list(view)
        assert len(pairs) == len(view)
        for i, (label, density) in enumerate(pairs):
            assert type(label) is int and label == view.labels[i]
            assert (density.t0, density.t1) == (view.t0, view.t1)
            assert not density.samples.flags.writeable
            assert density.samples.tobytes() == view.samples[i].tobytes()
        assert view[-1][1].samples.tobytes() == view.samples[-1].tobytes()
        with pytest.raises(IndexError):
            view[len(view)]

    def test_arrays_are_frozen_in_place(self):
        labels, samples = np.array([0, 1]), np.ones((2, 3))
        view = LabeledSignals(labels, 0.0, 1.0, samples)
        assert view.labels is labels and view.samples is samples
        assert not samples.flags.writeable and not labels.flags.writeable

    @pytest.mark.parametrize(
        "labels, t0, t1, samples, message",
        [
            ([0.5, 1], 0.0, 1.0, np.ones((2, 3)), "labels must be integers"),
            (["0", "1"], 0.0, 1.0, np.ones((2, 3)), "labels must be integers"),
            ([0, 1], 0.0, 1.0, np.array([[1.0, np.nan], [0.0, 0.0]]), "must be finite"),
            ([0, 1], 0.0, 1.0, np.array([[1.0, 0.0], [np.inf, 0.0]]), "must be finite"),
            ([0, 1, 2], 0.0, 1.0, np.ones((2, 3)), "one label per row"),
            ([0], 0.0, 1.0, np.ones((2, 3)), "one label per row"),
            ([0, 1], 0.0, 1.0, np.ones(2), "one label per row"),
            ([], 0.0, 1.0, np.ones((0, 3)), r"\(n_signals, n_bins\) with at least one of each"),
            ([0, 1], 0.0, 1.0, np.ones((2, 0)), r"\(n_signals, n_bins\) with at least one of each"),
            ([0, 1], 1.0, 0.0, np.ones((2, 3)), "need finite t0 < t1"),
            ([0, 1], -1e308, 1e308, np.ones((2, 3)), "overflows float64"),
        ],
        ids=["fractional-label", "text-label", "nan-sample", "inf-sample", "more-labels",
             "fewer-labels", "1-d-samples", "no-signals", "no-bins", "reversed-grid", "span-overflow"],
    )
    def test_constructor_refuses(self, labels, t0, t1, samples, message):
        with pytest.raises(ValueError, match=message):
            LabeledSignals(labels, t0, t1, samples)


class TestConvexityProbe:
    def make_signal(self) -> SignedMeasure:
        cfg = GenConfig()
        centers = GridDensity(cfg.t0, cfg.t1, np.zeros(cfg.n_grid)).bin_centers()
        return measure_from_density(GridDensity(cfg.t0, cfg.t1, TEMPLATES[0](centers)))

    def test_alpha_out_of_range(self):
        s = self.make_signal()
        g = IncreasingReparam.translation(0.1)
        with pytest.raises(ValueError):
            convexity_probe(s, g, g, -0.1, TransformConfig(n_quantiles=8))
        with pytest.raises(ValueError):
            convexity_probe(s, g, g, 1.1, TransformConfig(n_quantiles=8))

    def test_endpoints_reproduce_single_transforms(self):
        cfg = TransformConfig(n_quantiles=64)
        s = self.make_signal()
        g = IncreasingReparam.affine(1.25, -0.125)
        h = IncreasingReparam.affine(0.8, 0.25)
        tg = scdt_forward(apply_reparam(s, g), cfg)
        th = scdt_forward(apply_reparam(s, h), cfg)
        at0 = convexity_probe(s, g, h, 0.0, cfg)
        at1 = convexity_probe(s, g, h, 1.0, cfg)
        assert np.array_equal(at0.plus.samples, th.plus.samples)
        assert np.array_equal(at0.minus.samples, th.minus.samples)
        assert np.array_equal(at1.plus.samples, tg.plus.samples)
        assert np.array_equal(at1.minus.samples, tg.minus.samples)

    def test_affine_blend_is_transform_of_an_affine_family_member(self):
        # Blending the inverses of two affine maps gives another affine
        # inverse; the probe must coincide with the transform generated by
        # that member.
        cfg = TransformConfig(n_quantiles=256)
        s = self.make_signal()
        alpha = 0.3
        a1, b1 = 1.25, -0.125
        a2, b2 = 0.8, 0.25
        g = IncreasingReparam.affine(a1, b1)
        h = IncreasingReparam.affine(a2, b2)
        blended = convexity_probe(s, g, h, alpha, cfg)
        # alpha * g^-1 + (1 - alpha) * h^-1 maps y to slope * y + intercept:
        slope = alpha / a1 + (1 - alpha) / a2
        intercept = -alpha * b1 / a1 - (1 - alpha) * b2 / a2
        member = IncreasingReparam.affine(1.0 / slope, -intercept / slope)
        direct = scdt_forward(apply_reparam(s, member), cfg)
        for bp, dp in ((blended.plus, direct.plus), (blended.minus, direct.minus)):
            assert np.allclose(bp.samples, dp.samples, rtol=1e-12, atol=1e-12)
            assert bp.mass == pytest.approx(dp.mass, rel=1e-15)

    def test_masses_blend_linearly(self):
        cfg = TransformConfig(n_quantiles=32)
        s = self.make_signal()
        g = IncreasingReparam.dilation(2.0)
        h = IncreasingReparam.translation(0.5)
        out = convexity_probe(s, g, h, 0.25, cfg)
        # Reparameterizations conserve mass, so the blend does too.
        assert out.plus.mass == pytest.approx(s.positive_part.total_mass, rel=1e-15)
        assert out.minus.mass == pytest.approx(s.negative_part.total_mass, rel=1e-15)
