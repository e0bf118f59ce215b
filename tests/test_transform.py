"""Forward/inverse transforms: quantile sampling, mass channels, the
zero-measure convention, round trips, and singularity handling."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scdt
from conftest import discrete_measures, probability_measures, signed_measures
from oracles import cdt_probability, quantile_scan, scdt_inverse_by_unique
from scdt.classify import FeatureMatrix, featurize, fit_lda, run_experiment
from scdt.cli import ExperimentConfig
from scdt.errors import RangeError, ScdtError, SingularityError, SingularityWarning
from scdt.measures import (
    DiscreteMeasure,
    GridDensity,
    ReferenceMeasure,
    SignedMeasure,
    measure_from_density,
    pushforward,
    rebin,
)
from scdt.genmodel import TEMPLATES, GenConfig, IncreasingReparam, generate_dataset
from scdt.metrics import d_s
from scdt.steps import POS_INF, PiecewiseLinearMap, StepFunction, _Frozen
from scdt.transform import (
    CdtResult,
    ScdtResult,
    TransformConfig,
    cdt_inverse,
    cdt_positive,
    scdt_forward,
    scdt_inverse,
)


class TestTransformConfig:
    def test_midpoint_grid(self):
        cfg = TransformConfig(n_quantiles=4)
        assert np.array_equal(cfg.quantiles, [0.125, 0.375, 0.625, 0.875])
        assert np.all(cfg.quantiles > 0) and np.all(cfg.quantiles < 1)

    def test_default_reference_is_uniform_unit(self):
        cfg = TransformConfig()
        assert cfg.reference.support == (0.0, 1.0)
        assert cfg.reference.total_mass == 1.0
        assert cfg.n_quantiles == 1024

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            TransformConfig(n_quantiles=1)

    @pytest.mark.parametrize("m", [2.7, np.inf, np.nan, True, "8"])
    def test_n_quantiles_must_be_a_whole_number(self, m):
        with pytest.raises(ValueError, match="n_quantiles must be an integer"):
            TransformConfig(n_quantiles=m)

    def test_whole_float_and_numpy_integer_n_quantiles(self):
        for m in (8.0, np.int32(8), np.float64(8.0)):
            assert type(TransformConfig(n_quantiles=m).n_quantiles) is int

    def test_rejects_non_reference(self):
        with pytest.raises(TypeError):
            TransformConfig(reference="uniform")

    def test_grid_is_frozen(self):
        cfg = TransformConfig(n_quantiles=8)
        with pytest.raises(ValueError):
            cfg.quantiles[0] = 0.5


class TestCdtResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            CdtResult(np.array([0.0]), 1.0)  # too short
        with pytest.raises(ValueError):
            CdtResult(np.array([1.0, 0.0]), 1.0)  # decreasing
        with pytest.raises(ValueError):
            CdtResult(np.array([0.0, float("nan")]), 1.0)
        with pytest.raises(ValueError):
            CdtResult(np.array([0.0, 1.0]), -1.0)
        with pytest.raises(ValueError):
            CdtResult(np.array([0.0, 1.0]), POS_INF)

    def test_zero_convention_enforced(self):
        CdtResult(np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            CdtResult(np.array([0.0, 1.0]), 0.0)

    def test_zero_constructor(self):
        z = CdtResult.zero(8)
        assert z.is_zero and z.samples.size == 8 and not np.any(z.samples)

    def test_infinite_samples_allowed(self):
        c = CdtResult(np.array([0.0, POS_INF]), 1.0)
        assert c.samples[-1] == POS_INF

    @given(discrete_measures(), st.integers(min_value=2, max_value=64))
    def test_public_constructor_accepts_library_results_and_rejects_them_spoiled(self, m, n):
        # cdt_positive builds its result without __post_init__; the public
        # constructor takes its samples and mass unchanged, and still rejects
        # them unsorted or with a NaN.
        got = cdt_positive(m, TransformConfig(n_quantiles=n))
        checked = CdtResult(got.samples.copy(), got.mass)
        assert checked.samples.tobytes() == got.samples.tobytes()
        assert type(got.mass) is float and checked.mass == got.mass
        if got.samples[0] < got.samples[-1]:
            with pytest.raises(ValueError, match="non-decreasing"):
                CdtResult(got.samples[::-1], got.mass)
        with pytest.raises(ValueError, match="NaN"):
            CdtResult(np.append(got.samples[1:], np.nan), got.mass)

    def test_scdt_result_requires_shared_grid(self):
        with pytest.raises(ValueError):
            ScdtResult(CdtResult.zero(4), CdtResult.zero(8))


class TestCdtProbability:
    def test_delta_at_zero_is_identically_zero(self):
        cfg = TransformConfig(n_quantiles=16)
        out = cdt_probability(DiscreteMeasure(np.array([0.0]), np.array([1.0])), cfg)
        assert np.array_equal(out, np.zeros(16))

    def test_rejects_non_probability(self):
        cfg = TransformConfig(n_quantiles=4)
        with pytest.raises(ValueError):
            cdt_probability(DiscreteMeasure(np.array([0.0]), np.array([2.0])), cfg)

    def test_fine_empirical_reference_transforms_to_near_identity(self):
        # The reference itself, discretized to 1000 atoms, should map to
        # samples within one atom spacing of the quantile levels.
        n = 1000
        atoms = (np.arange(n) + 0.5) / n
        m = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
        cfg = TransformConfig(n_quantiles=100)
        out = cdt_probability(m, cfg)
        assert np.max(np.abs(out - cfg.quantiles)) <= 1.0 / n

    def test_uniform_on_interval_matches_analytic_quantiles(self):
        # Uniform on [2,3] as 1000 atoms: the quantile function is
        # q -> 2 + q up to one atom spacing.
        n = 1000
        atoms = 2.0 + (np.arange(n) + 0.5) / n
        m = DiscreteMeasure(atoms, np.full(n, 1.0 / n))
        cfg = TransformConfig(n_quantiles=100)
        out = cdt_probability(m, cfg)
        assert np.max(np.abs(out - (2.0 + cfg.quantiles))) <= 2e-3

    @given(probability_measures(max_atoms=10))
    def test_matches_scan_oracle(self, m):
        cfg = TransformConfig(n_quantiles=32)
        out = cdt_probability(m, cfg)
        for q, v in zip(cfg.quantiles, out):
            assert v == quantile_scan(m.locations, m.weights, q)


class TestCdtPositive:
    def test_zero_measure_convention(self):
        cfg = TransformConfig(n_quantiles=8)
        out = cdt_positive(DiscreteMeasure.zero(), cfg)
        assert out.is_zero and not np.any(out.samples)

    def test_scaled_delta_keeps_mass_channel(self):
        cfg = TransformConfig(n_quantiles=8)
        out = cdt_positive(DiscreteMeasure(np.array([0.0]), np.array([3.0])), cfg)
        assert np.array_equal(out.samples, np.zeros(8))
        assert out.mass == 3.0

    def test_scaled_uniform_empirical(self):
        n = 256
        atoms = (np.arange(n) + 0.5) / n
        m = DiscreteMeasure(atoms, np.full(n, 2.0 / n))
        cfg = TransformConfig(n_quantiles=64)
        out = cdt_positive(m, cfg)
        assert out.mass == pytest.approx(2.0)
        assert np.max(np.abs(out.samples - cfg.quantiles)) <= 1.0 / n

    @given(signed_measures(max_atoms=8))
    def test_mass_channels_exact(self, s):
        cfg = TransformConfig(n_quantiles=16)
        t = scdt_forward(s, cfg)
        assert t.plus.mass == s.positive_part.total_mass
        assert t.minus.mass == s.negative_part.total_mass

    @given(signed_measures(max_atoms=8))
    def test_samples_non_decreasing(self, s):
        cfg = TransformConfig(n_quantiles=16)
        t = scdt_forward(s, cfg)
        for part in (t.plus, t.minus):
            assert np.all(part.samples[1:] >= part.samples[:-1])

    @given(signed_measures(max_atoms=8))
    def test_samples_stay_in_support_interval(self, s):
        cfg = TransformConfig(n_quantiles=16)
        t = scdt_forward(s, cfg)
        for part, m in ((t.plus, s.positive_part), (t.minus, s.negative_part)):
            if m.is_zero:
                continue
            assert np.all(part.samples >= m.locations[0])
            assert np.all(part.samples <= m.locations[-1])

    @given(probability_measures(max_atoms=8))
    def test_reference_choice_does_not_change_samples(self, m):
        # Any valid reference produces the same quantile samples: the
        # reference CDF composed with its own quantile map is the identity.
        cfg_uniform = TransformConfig(n_quantiles=32)
        cfg_pwl = TransformConfig(
            reference=ReferenceMeasure(
                np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.7, 1.0])
            ),
            n_quantiles=32,
        )
        assert np.array_equal(
            cdt_probability(m, cfg_uniform), cdt_probability(m, cfg_pwl)
        )


class TestScdtForward:
    def test_purely_positive_signal(self):
        s = SignedMeasure(
            DiscreteMeasure(np.array([1.0]), np.array([1.0])), DiscreteMeasure.zero()
        )
        t = scdt_forward(s, TransformConfig(n_quantiles=8))
        assert t.minus.is_zero
        assert np.array_equal(t.plus.samples, np.ones(8))

    def test_two_delta_signal(self):
        s = SignedMeasure(
            DiscreteMeasure(np.array([1.0]), np.array([1.0])),
            DiscreteMeasure(np.array([2.0]), np.array([1.0])),
        )
        t = scdt_forward(s, TransformConfig(n_quantiles=8))
        assert np.array_equal(t.plus.samples, np.ones(8)) and t.plus.mass == 1.0
        assert np.array_equal(t.minus.samples, np.full(8, 2.0)) and t.minus.mass == 1.0

    def test_zero_signal(self):
        t = scdt_forward(SignedMeasure.zero(), TransformConfig(n_quantiles=8))
        assert t.plus.is_zero and t.minus.is_zero


class TestInverse:
    def test_zero_samples_unit_mass_gives_delta(self):
        cfg = TransformConfig(n_quantiles=8)
        m = cdt_inverse(CdtResult(np.zeros(8), 1.0), cfg)
        assert np.array_equal(m.locations, [0.0])
        assert np.array_equal(m.weights, [1.0])

    def test_zero_tuple_gives_zero_measure(self):
        cfg = TransformConfig(n_quantiles=8)
        assert cdt_inverse(CdtResult.zero(8), cfg).is_zero

    def test_grid_size_mismatch_rejected(self):
        cfg = TransformConfig(n_quantiles=8)
        with pytest.raises(ValueError):
            cdt_inverse(CdtResult.zero(16), cfg)

    def test_atomic_roundtrip_exact_for_aligned_weights(self):
        # Weights that are whole multiples of mass/M are recovered bit for
        # bit: each atom receives exactly its share of quantile samples.
        cfg = TransformConfig(n_quantiles=16)
        m = DiscreteMeasure(np.array([-1.0, 0.5, 2.0]), np.array([4, 8, 4]) / 16.0)
        out = cdt_inverse(cdt_positive(m, cfg), cfg)
        assert np.array_equal(out.locations, m.locations)
        assert np.array_equal(out.weights, m.weights)

    def test_two_delta_roundtrip_exact(self):
        s = SignedMeasure(
            DiscreteMeasure(np.array([1.0]), np.array([1.0])),
            DiscreteMeasure(np.array([2.0]), np.array([1.0])),
        )
        cfg = TransformConfig(n_quantiles=8)
        back = scdt_inverse(scdt_forward(s, cfg), cfg)
        assert np.array_equal(back.positive_part.locations, [1.0])
        assert np.array_equal(back.positive_part.weights, [1.0])
        assert np.array_equal(back.negative_part.locations, [2.0])
        assert np.array_equal(back.negative_part.weights, [1.0])

    def test_gridded_uniform_roundtrip_exact_when_aligned(self):
        # 256 equal bins at M = 1024: every bin mass is a whole number of
        # quantile samples, so the rebinned round trip is exact.
        n, m_quant = 256, 1024
        d = GridDensity(2.0, 3.0, np.ones(n))
        cfg = TransformConfig(n_quantiles=m_quant)
        back = scdt_inverse(scdt_forward(measure_from_density(d), cfg), cfg)
        rebinned = rebin(back, d.t0, d.t1, n)
        assert np.max(np.abs(rebinned.samples - d.samples)) == 0.0

    def test_gridded_uniform_roundtrip_misaligned_error_small(self):
        # 300 bins do not divide 1024 samples; each bin is off by at most one
        # sample weight, so the L1 error stays below (n_bins + 1) / M of the
        # total variation.
        n, m_quant = 300, 1024
        d = GridDensity(2.0, 3.0, np.ones(n))
        cfg = TransformConfig(n_quantiles=m_quant)
        s = measure_from_density(d)
        back = scdt_inverse(scdt_forward(s, cfg), cfg)
        rebinned = rebin(back, d.t0, d.t1, n)
        l1 = float(np.sum(np.abs(rebinned.samples - d.samples))) * d.bin_width
        tv = s.positive_part.total_mass + s.negative_part.total_mass
        assert l1 <= (n + 1) / m_quant * tv

    def test_support_collision_raises(self):
        cfg = TransformConfig(n_quantiles=8)
        t = ScdtResult(
            CdtResult(np.ones(8), 1.0),
            CdtResult(np.ones(8), 1.0),
        )
        with pytest.raises(SingularityError):
            scdt_inverse(t, cfg)

    def test_near_collision_warns(self):
        cfg = TransformConfig(n_quantiles=8)
        t = ScdtResult(
            CdtResult(np.ones(8), 1.0),
            CdtResult(np.full(8, 1.0 + 5e-10), 1.0),
        )
        with pytest.warns(SingularityWarning):
            scdt_inverse(t, cfg)

    def test_comfortable_gap_does_not_warn(self):
        import warnings

        cfg = TransformConfig(n_quantiles=8)
        t = ScdtResult(
            CdtResult(np.ones(8), 1.0),
            CdtResult(np.full(8, 2.0), 1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scdt_inverse(t, cfg)

    def test_one_sided_tuple_gives_positive_measure_only(self):
        cfg = TransformConfig(n_quantiles=8)
        t = ScdtResult(CdtResult(np.full(8, 1.5), 2.0), CdtResult.zero(8))
        s = scdt_inverse(t, cfg)
        assert np.array_equal(s.positive_part.locations, [1.5])
        assert s.positive_part.total_mass == 2.0
        assert s.negative_part.is_zero

    @given(signed_measures(max_atoms=5))
    def test_roundtrip_preserves_masses(self, s):
        import warnings

        cfg = TransformConfig(n_quantiles=64)
        with warnings.catch_warnings():
            # Randomly drawn supports may sit arbitrarily close together;
            # the proximity warning is expected and not under test here.
            warnings.simplefilter("ignore", SingularityWarning)
            back = scdt_inverse(scdt_forward(s, cfg), cfg)
        assert back.positive_part.total_mass == pytest.approx(
            s.positive_part.total_mass, rel=1e-12
        )
        assert back.negative_part.total_mass == pytest.approx(
            s.negative_part.total_mass, rel=1e-12
        )

    def test_mass_per_sample_underflow_raises_range_error(self):
        # 5e-324 / 4 rounds to 0: no atom weight can hold the part's mass.
        cfg = TransformConfig(n_quantiles=4)
        t = ScdtResult(CdtResult(np.ones(4), 5e-324), CdtResult.zero(4))
        with pytest.raises(RangeError, match="mass / M underflows to 0"):
            scdt_inverse(t, cfg)


@st.composite
def transform_pairs(draw):
    """An ``ScdtResult`` whose rows are drawn, with repeats, from a few base
    values (plus) and the same values moved by 0, one ulp, 1e-10 or 3 either
    way (minus), so rows have ties and runs and the parts share locations,
    sit closer than the warning gap on either side, or stay apart.  Either
    part may be zero, and ``+-inf`` samples occur.  Signed zeros are left
    out: which zero names a run of both is not part of the contract."""
    m = draw(st.integers(min_value=2, max_value=48))
    base = draw(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=5))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    move = draw(st.sampled_from([lambda x: x, lambda x: np.nextafter(x, sign * np.inf),
                                 lambda x: x + sign * 1e-10, lambda x: x + sign * 3.0]))
    parts = []
    for pool in ([x + 0.0 for x in base], [move(x) + 0.0 for x in base]):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            parts.append(CdtResult.zero(m))
            continue
        pool += draw(st.sampled_from([[], [-np.inf], [np.inf], [-np.inf, np.inf]]))
        row = np.sort(draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))
        parts.append(CdtResult(row, draw(st.floats(min_value=1e-300, max_value=1e300))))
    return ScdtResult(*parts)


def _outcome(fn):
    """``(result or (error type, message), SingularityWarning messages)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught if w.category is SingularityWarning]


class TestInverseAgainstUniqueOracle:
    """``scdt_inverse`` finds runs of equal samples in one pass and checks
    both parts with one search; the oracle uses ``np.unique``,
    ``np.intersect1d`` and a separate gap search."""

    @given(transform_pairs())
    def test_parts_errors_and_warnings_match(self, t):
        cfg = TransformConfig(n_quantiles=t.n_quantiles)
        got, warned = _outcome(lambda: scdt_inverse(t, cfg))
        try:
            *want, want_warned = scdt_inverse_by_unique(t, cfg)
        except ScdtError as exc:
            assert got == (type(exc), str(exc)) and warned == []
            return
        for part, expected in zip((got.positive_part, got.negative_part), want):
            assert part.locations.tobytes() == expected.locations.tobytes()
            assert part.weights.tobytes() == expected.weights.tobytes()
            assert part.total_mass == expected.total_mass
        assert warned == want_warned

    @given(transform_pairs())
    def test_rebinned_inverse_matches(self, t):
        cfg = TransformConfig(n_quantiles=t.n_quantiles)

        def oracle():
            plus, minus, _ = scdt_inverse_by_unique(t, cfg)
            return rebin(SignedMeasure(plus, minus), -1e3, 1e3 + 4, 37).samples

        got = _outcome(lambda: rebin(scdt_inverse(t, cfg), -1e3, 1e3 + 4, 37).samples)[0]
        want = _outcome(oracle)[0]
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want

    @pytest.mark.parametrize(
        "plus, minus",
        [
            ([0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 3.0, 3.0]),
            ([0.0, 1.0, 1.0, 2.0], [np.nextafter(1.0, 2.0)] * 4),
            ([-np.inf, 1.0, 2.0, np.inf], [-np.inf, 3.0, 4.0, 5.0]),
            ([-np.inf, 1.0, 2.0, 2.0], [2.0 + 1e-10, 3.0, np.inf, np.inf]),
        ],
        ids=["exact-collision", "one-ulp-apart", "shared-minus-inf", "near-collision-with-infs"],
    )
    def test_hand_picked_supports_match(self, plus, minus):
        t = ScdtResult(CdtResult(np.array(plus), 1.0), CdtResult(np.array(minus), 2.0))
        cfg = TransformConfig(n_quantiles=4)
        got, warned = _outcome(lambda: scdt_inverse(t, cfg))
        try:
            *want, want_warned = scdt_inverse_by_unique(t, cfg)
        except ScdtError as exc:
            assert got == (type(exc), str(exc))
            return
        assert [p.locations.tobytes() for p in (got.positive_part, got.negative_part)] == [
            p.locations.tobytes() for p in want]
        assert warned == want_warned != []


class TestTransformMemo:
    """``cdt_positive`` keeps its last result on the measure."""

    def _measure(self, n=300, seed=0):
        rng = np.random.default_rng(seed)
        return measure_from_density(GridDensity(-1.0, 2.0, rng.standard_normal(n)))

    def test_same_arrays_for_any_reference(self):
        s = self._measure()
        first = scdt_forward(s, TransformConfig(n_quantiles=128))
        other = TransformConfig(ReferenceMeasure.uniform(-3.0, 5.0, mass=2.0), n_quantiles=128)
        again = scdt_forward(s, other)
        assert again.plus is first.plus and again.minus is first.minus
        fresh = scdt_forward(self._measure(), other)
        assert again.plus.samples.tobytes() == fresh.plus.samples.tobytes()

    def test_second_grid_size_gets_its_own_samples(self):
        s = self._measure()
        small = cdt_positive(s.positive_part, TransformConfig(n_quantiles=64))
        large = cdt_positive(s.positive_part, TransformConfig(n_quantiles=256))
        assert small.samples.size == 64 and large.samples.size == 256
        fresh = self._measure().positive_part
        for m, got in ((64, small), (256, large)):
            want = cdt_positive(fresh, TransformConfig(n_quantiles=m))
            assert got.samples.tobytes() == want.samples.tobytes()
        back = cdt_positive(s.positive_part, TransformConfig(n_quantiles=64))
        assert back.samples.tobytes() == small.samples.tobytes()

    def test_memoized_samples_stay_read_only(self):
        plus = self._measure().positive_part
        cfg = TransformConfig(n_quantiles=64)
        first = cdt_positive(plus, cfg)
        again = cdt_positive(plus, cfg)
        assert again is first and not again.samples.flags.writeable
        with pytest.raises(ValueError):
            again.samples[0] = 0.0

    def test_memo_is_not_a_field(self):
        s = self._measure()
        plus = s.positive_part
        before = repr(plus)
        # The running sum measure_from_density leaves for the first search is no field either.
        assert "_csum" in vars(plus) and "_csum" not in vars(dataclasses.replace(plus))
        assert "_csum" not in vars(pickle.loads(pickle.dumps(plus)))
        scdt_forward(s, TransformConfig(n_quantiles=32))
        assert "_memo" in vars(plus) and "_csum" not in vars(plus)
        assert "_csum" not in vars(s.negative_part)
        assert repr(plus) == before
        assert [f.name for f in dataclasses.fields(plus)] == ["locations", "weights", "total_mass"]
        assert "_memo" not in vars(dataclasses.replace(plus))
        unpickled = pickle.loads(pickle.dumps(plus))
        assert "_memo" not in vars(unpickled)
        assert unpickled.locations.tobytes() == plus.locations.tobytes()
        assert unpickled.total_mass == plus.total_mass
        assert pickle.dumps(unpickled) == pickle.dumps(plus)


def _frozen_objects():
    """One object of every dataclass of the package under its class name, and
    every result the library stores past ``__post_init__``, by name."""
    d = GridDensity(-1.0, 2.0, np.array([1.0, -2.0, 0.0, 3.0, -0.5, 0.25]))
    cfg = TransformConfig(n_quantiles=8)

    def back():
        return scdt_inverse(scdt_forward(measure_from_density(d), cfg), cfg)

    def features():
        return featurize([(0, d), (1, d), (1, d)], "scdt", cfg)

    def memo_part():
        part = measure_from_density(d).positive_part
        cdt_positive(part, cfg)
        return part

    def lda_model():
        rows = np.array([[0.0, 1.0], [0.5, 1.5], [4.0, 0.0], [4.5, 0.25]])
        return fit_lda(FeatureMatrix(rows, [0, 0, 1, 1], "raw_signal"))

    small = GenConfig(per_class=4, n_grid=32)
    return {
        "measure_from_density/positive": lambda: measure_from_density(d).positive_part,
        "measure_from_density/negative": lambda: measure_from_density(d).negative_part,
        "measure_from_density/signed": lambda: measure_from_density(d),
        "pushforward": lambda: pushforward(np.array([0.0, 0.0, 1.0]), 2.0),
        "scdt_inverse/positive": lambda: back().positive_part,
        "scdt_inverse/negative": lambda: back().negative_part,
        "scdt_inverse/signed": back,
        "cdt_positive": lambda: cdt_positive(measure_from_density(d).positive_part, cfg),
        "cdt_positive/measure": memo_part,
        "featurize": features,
        "subset": lambda: features().subset(np.array([True, False, True])),
        "StepFunction": lambda: StepFunction(np.array([0.0, 1.0]), np.array([-np.inf, 0.5, 1.0])),
        "PiecewiseLinearMap": lambda: PiecewiseLinearMap(np.array([0.0, 1.0]), np.array([0, 2.0])),
        "DiscreteMeasure": lambda: DiscreteMeasure(np.array([0.0, 1.0]), np.array([2.0, 3.0])),
        "SignedMeasure": lambda: SignedMeasure(DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                                               DiscreteMeasure.zero()),
        "GridDensity": lambda: GridDensity(0.0, 1.0, np.array([1.0, -1.0])),
        "ReferenceMeasure": lambda: ReferenceMeasure(np.array([-1.0, 0.5, 2.0]),
                                                     np.array([0.0, 0.3, 2.5])),
        "TransformConfig": lambda: TransformConfig(ReferenceMeasure.uniform(), n_quantiles=4),
        "CdtResult": lambda: CdtResult(np.array([0.0, 1.0]), 2.0),
        "ScdtResult": lambda: ScdtResult(CdtResult(np.array([0.0, 1.0]), 2.0), CdtResult.zero(2)),
        "DistanceReport": lambda: d_s(measure_from_density(d), back(), 8),
        "IncreasingReparam": lambda: IncreasingReparam.piecewise_linear([0.0, 1.0], [0.0, 2.0]),
        "ClassTemplate": lambda: TEMPLATES[0],
        "GenConfig": lambda: small,
        "LabeledSignals": lambda: generate_dataset(small),
        "FeatureMatrix": lambda: FeatureMatrix(np.zeros((2, 3)), [0, 1], "raw_signal"),
        "LdaModel": lda_model,
        "ExperimentReport": lambda: run_experiment(small, TransformConfig(n_quantiles=8)),
        "ExperimentConfig": lambda: ExperimentConfig(small, cfg, 1),
    }


FROZEN_OBJECTS = _frozen_objects()

#: Every dataclass defined in a module of the package.
DATACLASSES = {
    cls
    for info in pkgutil.iter_modules(scdt.__path__)
    for cls in vars(importlib.import_module(f"scdt.{info.name}")).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    and cls.__module__ == f"scdt.{info.name}"
}

#: The modules whose ``__all__`` the package re-exports, in order.
LIBRARY_MODULES = ("errors", "steps", "measures", "transform", "metrics", "genmodel", "classify")


def test_package_surface_is_the_library_modules_all():
    modules = [importlib.import_module(f"scdt.{name}") for name in LIBRARY_MODULES]
    assert all(hasattr(module, "__all__") for module in modules)
    assert scdt.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(scdt.__all__)) == len(scdt.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(scdt, name) is getattr(module, name), name
    for name in ("fileio", "cli"):
        assert not set(importlib.import_module(f"scdt.{name}").__all__) & set(scdt.__all__)


def _held(obj):
    """``obj`` and every dataclass and array in its fields, nested ones included."""
    yield obj
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, tuple) else ()
    for value in values:
        yield from _held(value)


@pytest.mark.parametrize("name", FROZEN_OBJECTS)
def test_trusted_output_is_a_complete_frozen_dataclass(name):
    # Every dataclass derives from _Frozen and has an object above under its class name.
    class_names = {cls.__name__ for cls in DATACLASSES}
    assert all(issubclass(cls, _Frozen) for cls in DATACLASSES)
    assert class_names <= FROZEN_OBJECTS.keys()
    obj = FROZEN_OBJECTS[name]()
    assert type(obj) in DATACLASSES and (name not in class_names or type(obj).__name__ == name)
    copies = {"copy": copy.copy(obj), "deepcopy": copy.deepcopy(obj)}
    if not isinstance(obj, scdt.ClassTemplate):  # its lambdas cannot be pickled
        copies["pickle"] = pickle.loads(pickle.dumps(obj))
    # A result stored without __post_init__ shows a misspelled or missing field only here.
    # A copy holds the fields alone, every array read-only, nested ones included; a
    # shallow copy shares the nested objects, caches and all.
    for kind, held in [("object", obj), *copies.items()]:
        for value in _held(held):
            assert not isinstance(value, np.ndarray) or not value.flags.writeable, kind
            if dataclasses.is_dataclass(value):
                names = {f.name for f in dataclasses.fields(value)}
                shared = kind == "object" or (kind == "copy" and value is not held)
                assert set(vars(value)) - ({"_memo", "_csum"} if shared else set()) == names, kind
        assert repr(held) == repr(obj), kind
    assert repr(dataclasses.replace(obj)) == repr(obj)
