"""Transport distances: hand-computed values, domain guards, metric axioms,
and exact agreement between measure-space and transform-space norms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from conftest import probability_measures, signed_measures
from oracles import d_s_longdouble
from scdt.errors import MetricDomainError
from scdt.measures import (
    DiscreteMeasure,
    GridDensity,
    ReferenceMeasure,
    SignedMeasure,
    measure_from_density,
)
from scdt.metrics import DistanceReport, d_s, d_w2, transform_l2, w2
from scdt.steps import POS_INF, PiecewiseLinearMap
from scdt.transform import CdtResult, ScdtResult, TransformConfig, scdt_forward


def delta(x: float, mass: float = 1.0) -> DiscreteMeasure:
    return DiscreteMeasure(np.array([x]), np.array([mass]))


def same_bytes(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def end_atom_pair(half_width: float):
    """Two 4-bin signals on ``[-half_width, half_width]`` whose unit-mass
    positive atoms sit at opposite ends, three bins apart, and whose
    negative parts agree: every distance between them is the atom gap,
    ``1.5 * half_width``."""
    d = 2.0 / half_width
    return [measure_from_density(GridDensity(-half_width, half_width, np.array(row)))
            for row in ([d, 0.0, -d, 0.0], [0.0, 0.0, -d, d])]


def all_four(a: SignedMeasure, b: SignedMeasure, n_quantiles: int = 1024):
    """Calls of ``d_s``, of ``d_w2`` and ``w2`` on the positive parts, and of
    ``transform_l2`` under the unit-mass uniform reference."""
    cfg = TransformConfig(n_quantiles=n_quantiles)
    return (
        lambda: d_s(a, b, n_quantiles).value,
        lambda: d_w2(a.positive_part, b.positive_part, n_quantiles).value,
        lambda: w2(a.positive_part, b.positive_part, n_quantiles),
        lambda: transform_l2(scdt_forward(a, cfg), scdt_forward(b, cfg), cfg),
    )


class TestDistanceReport:
    def test_components_must_explain_value(self):
        DistanceReport(5.0, {"a": 3.0, "b": 4.0})
        with pytest.raises(ValueError):
            DistanceReport(2.0, {"a": 1.0, "b": 1.0})

    def test_rejects_negative_and_infinite(self):
        with pytest.raises(ValueError):
            DistanceReport(-1.0)
        with pytest.raises(ValueError):
            DistanceReport(POS_INF)

    def test_components_optional(self):
        assert DistanceReport(1.5).components is None

    def test_components_checked_at_extreme_scales(self):
        # Squared, both sides are inf at 1e200 and 0 at 1e-300.
        DistanceReport(1.5e200, {"a": 0.9e200, "b": 1.2e200})
        DistanceReport(1.5e-300, {"a": 0.9e-300, "b": 1.2e-300})
        with pytest.raises(ValueError):
            DistanceReport(1.5e200, {"a": 1e200, "b": 1e200})
        with pytest.raises(ValueError):
            DistanceReport(1e-300, {"a": 0.0})

    def test_check_no_looser_than_relative_1e9_on_squares(self):
        with pytest.raises(ValueError):
            DistanceReport(5.0 * (1 + 1e-9), {"a": 3.0, "b": 4.0})


class TestW2:
    def test_identical_measures_distance_zero(self):
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert w2(m, m) == 0.0

    def test_point_masses(self):
        assert w2(delta(0.0), delta(1.0)) == 1.0
        assert w2(delta(-2.0), delta(3.0)) == 5.0

    def test_translation_moves_distance_by_shift(self):
        # Dyadic atoms and a dyadic shift keep every quantile difference
        # exactly equal to the shift.
        atoms = np.arange(8) / 8.0
        m = DiscreteMeasure(atoms, np.full(8, 0.125))
        shifted = DiscreteMeasure(atoms + 0.5, np.full(8, 0.125))
        assert w2(m, shifted) == 0.5

    def test_two_atom_split_value(self):
        # Half the quantile grid moves distance 1, the other half stays:
        # the squared mean is 1/2.
        m = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert w2(m, delta(0.0), n_quantiles=4) == math.sqrt(0.5)

    def test_rejects_unnormalized(self):
        with pytest.raises(MetricDomainError):
            w2(delta(0.0, mass=2.0), delta(1.0))

    def test_rejects_infinite_atoms(self):
        with pytest.raises(MetricDomainError):
            w2(delta(POS_INF), delta(0.0))

    @given(probability_measures(max_atoms=8), probability_measures(max_atoms=8))
    def test_symmetry_exact(self, a, b):
        assert w2(a, b, n_quantiles=64) == w2(b, a, n_quantiles=64)


class TestDW2:
    def test_both_zero(self):
        r = d_w2(DiscreteMeasure.zero(), DiscreteMeasure.zero())
        assert r.value == 0.0
        assert r.components == {"quantile": 0.0, "mass": 0.0}

    def test_scaled_delta_at_origin_vs_zero(self):
        # The normalized shape sits at the origin, so only mass differs.
        r = d_w2(delta(0.0, mass=3.0), DiscreteMeasure.zero())
        assert r.value == 3.0
        assert r.components["quantile"] == 0.0

    def test_offset_delta_vs_zero(self):
        # Quantile term 2 (the location), mass term 1.
        r = d_w2(delta(2.0), DiscreteMeasure.zero())
        assert r.value == math.sqrt(5.0)
        assert r.components == {"quantile": 2.0, "mass": 1.0}

    def test_same_shape_different_mass(self):
        r = d_w2(delta(0.0, mass=3.0), delta(0.0, mass=2.0))
        assert r.value == 1.0
        assert r.components["quantile"] == 0.0

    def test_rejects_infinite_atoms(self):
        with pytest.raises(MetricDomainError):
            d_w2(delta(POS_INF, mass=2.0), delta(0.0))

    @given(signed_measures(max_atoms=6))
    def test_symmetry_exact(self, s):
        a, b = s.positive_part, s.negative_part
        assert d_w2(a, b, n_quantiles=64).value == d_w2(b, a, n_quantiles=64).value


def test_metrics_share_the_default_reference(monkeypatch):
    # Each metric call builds a TransformConfig; none may rebuild the uniform
    # reference, whose CDF is the only PiecewiseLinearMap on these paths.
    built = []
    original = PiecewiseLinearMap.__post_init__
    monkeypatch.setattr(PiecewiseLinearMap, "__post_init__",
                        lambda self: built.append(self) or original(self))
    a, b = SignedMeasure(delta(0.0), delta(1.0)), SignedMeasure(delta(0.5), delta(2.0))
    for call in all_four(a, b, 16)[:3]:
        call()
    assert built == []
    assert TransformConfig().reference is TransformConfig(n_quantiles=8).reference


class TestDS:
    def test_identity_of_indiscernibles(self):
        s = SignedMeasure(delta(1.0), delta(2.0))
        assert d_s(s, s).value == 0.0

    def test_sign_flip_of_unit_dipole(self):
        a = SignedMeasure(delta(1.0), delta(2.0))
        b = SignedMeasure(delta(2.0), delta(1.0))
        r = d_s(a, b)
        assert r.value == math.sqrt(2.0)
        assert r.components == {"plus": 1.0, "minus": 1.0}

    def test_dipole_vs_its_positive_part(self):
        # Positive parts agree; the negative part is compared against the
        # zero measure (quantile term 2, mass term 1).
        a = SignedMeasure(delta(1.0), delta(2.0))
        b = SignedMeasure(delta(1.0), DiscreteMeasure.zero())
        r = d_s(a, b)
        assert r.components["plus"] == 0.0
        assert r.value == math.sqrt(5.0)

    @given(signed_measures(max_atoms=4), signed_measures(max_atoms=4))
    def test_symmetry_exact(self, a, b):
        assert d_s(a, b, n_quantiles=64).value == d_s(b, a, n_quantiles=64).value

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            measures = []
            for _k in range(3):
                locs = np.sort(rng.uniform(-5.0, 5.0, size=6))
                w = rng.uniform(0.1, 2.0, size=6)
                measures.append(
                    SignedMeasure(
                        DiscreteMeasure(locs[:3], w[:3]),
                        DiscreteMeasure(locs[3:], w[3:]),
                    )
                )
            a, b, c = measures
            dac = d_s(a, c, n_quantiles=256).value
            dab = d_s(a, b, n_quantiles=256).value
            dbc = d_s(b, c, n_quantiles=256).value
            assert dac <= dab + dbc + 1e-9


class TestDSAfterForward:
    """``d_s`` reads the transform samples a forward transform left on the
    measures; the values must not depend on whether one ran first."""

    @staticmethod
    def _pair():
        rng = np.random.default_rng(7)
        return [measure_from_density(GridDensity(0.0, 3.0, rng.standard_normal(500) + shift))
                for shift in (0.0, 0.4)]

    @pytest.mark.parametrize("first_m", [256, 1024])
    def test_equals_fresh_measures_byte_for_byte(self, first_m):
        a, b = self._pair()
        for s in (a, b):
            scdt_forward(s, TransformConfig(n_quantiles=first_m))
        fresh_a, fresh_b = self._pair()
        for m in (256, 1024):
            got, want = d_s(a, b, m), d_s(fresh_a, fresh_b, m)
            assert same_bytes(got.value, want.value)
            assert got.components == want.components


class TestExtremeScales:
    """Distances whose squares leave float64 range: the one kernel scales
    the sample gaps before it squares them, and warns of nothing."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("half_width", [1e200, 1e-300])
    def test_end_atom_pair_gives_the_atom_gap(self, half_width):
        a, b = end_atom_pair(half_width)
        for call in all_four(a, b):
            assert math.isclose(call(), 1.5 * half_width, rel_tol=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_opposite_sign_samples_near_max_float_raise(self):
        a, b = (SignedMeasure(delta(x), DiscreteMeasure.zero()) for x in (-1.7e308, 1.7e308))
        for call in all_four(a, b, n_quantiles=8):
            with pytest.raises(MetricDomainError):
                call()

    @pytest.mark.filterwarnings("error")
    def test_distance_rounding_to_inf_raises(self):
        a = SignedMeasure(delta(0.0), delta(1.0))
        b = SignedMeasure(delta(1.7e308), delta(-1.7e308))
        cfg = TransformConfig(n_quantiles=8)
        with pytest.raises(MetricDomainError):
            d_s(a, b, 8)
        with pytest.raises(MetricDomainError):
            transform_l2(scdt_forward(a, cfg), scdt_forward(b, cfg), cfg)
        with pytest.raises(MetricDomainError):
            d_w2(delta(1.7e308, mass=1.7e308), DiscreteMeasure.zero(), 8)

    def test_reference_weight_overflow_raises(self):
        cfg = TransformConfig(ReferenceMeasure.uniform(0.0, 1.0, mass=1e300), n_quantiles=8)
        a, b = end_atom_pair(1e200)
        with pytest.raises(MetricDomainError):
            transform_l2(scdt_forward(a, cfg), scdt_forward(b, cfg), cfg)

    def test_gap_below_smallest_float_rounds_up_not_to_zero(self):
        # One of 64 samples differs by 5e-324; the exact gap, 5e-324 / 8, is
        # below every positive float.
        a = SignedMeasure(DiscreteMeasure(np.array([0.0, 5e-324]), np.array([63.0, 1.0])),
                          DiscreteMeasure.zero())
        b = SignedMeasure(delta(0.0, mass=64.0), DiscreteMeasure.zero())
        assert d_s(a, b, 64).value == 5e-324
        # A weight of sqrt(1e-300) on a quantile gap of 1e-200.
        cfg = TransformConfig(ReferenceMeasure.uniform(0.0, 1.0, mass=1e-300), n_quantiles=8)
        ta, tb = (scdt_forward(SignedMeasure(delta(x), DiscreteMeasure.zero()), cfg)
                  for x in (0.0, 1e-200))
        assert transform_l2(ta, tb, cfg) == 5e-324

    @pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024,
                        reason="np.longdouble has no wider exponent range than float64")
    @given(signed_measures(max_atoms=4), signed_measures(max_atoms=4),
           st.integers(min_value=-300, max_value=300))
    def test_scaled_measures_match_extended_precision(self, a, b, k):
        def scaled(s):
            try:
                return SignedMeasure(*(DiscreteMeasure(p.locations * 10.0**k, p.weights * 10.0**k)
                                       for p in (s.positive_part, s.negative_part)))
            except ValueError:  # atoms that collide once scaled
                reject()

        a, b = scaled(a), scaled(b)
        cfg = TransformConfig(n_quantiles=64)
        ta, tb = scdt_forward(a, cfg), scdt_forward(b, cfg)
        got = d_s(a, b, 64).value
        want = d_s_longdouble(a, b, 64)
        # Below 2**-1022 float64 spacing is absolute: 2**-1074.
        assert abs(got - want) <= 1e-14 * want + 4 * 2.0**-1074
        differ = any(not np.array_equal(p.samples, q.samples) or p.mass != q.mass
                     for p, q in ((ta.plus, tb.plus), (ta.minus, tb.minus)))
        assert (got > 0) == differ
        assert same_bytes(transform_l2(ta, tb, cfg), got)


class TestTransformL2:
    def test_grid_mismatch_rejected(self):
        cfg = TransformConfig(n_quantiles=8)
        t8 = ScdtResult(CdtResult.zero(8), CdtResult.zero(8))
        t16 = ScdtResult(CdtResult.zero(16), CdtResult.zero(16))
        with pytest.raises(ValueError):
            transform_l2(t8, t16, cfg)
        with pytest.raises(ValueError):
            transform_l2(t16, t16, cfg)

    def test_rejects_infinite_samples(self):
        cfg = TransformConfig(n_quantiles=4)
        bad = ScdtResult(
            CdtResult(np.array([0.0, 0.0, 0.0, POS_INF]), 1.0), CdtResult.zero(4)
        )
        good = ScdtResult(CdtResult(np.zeros(4), 1.0), CdtResult.zero(4))
        with pytest.raises(MetricDomainError):
            transform_l2(bad, good, cfg)

    def test_mass_gap_only(self):
        cfg = TransformConfig(n_quantiles=4)
        t1 = ScdtResult(CdtResult(np.zeros(4), 3.0), CdtResult.zero(4))
        t2 = ScdtResult(CdtResult(np.zeros(4), 1.0), CdtResult.zero(4))
        assert transform_l2(t1, t2, cfg) == 2.0

    def test_reference_mass_weights_quantile_block(self):
        cfg = TransformConfig(
            reference=ReferenceMeasure.uniform(0.0, 1.0, mass=2.0), n_quantiles=4
        )
        t1 = ScdtResult(CdtResult(np.ones(4), 1.0), CdtResult.zero(4))
        t2 = ScdtResult(CdtResult(np.zeros(4), 1.0), CdtResult.zero(4))
        assert transform_l2(t1, t2, cfg) == math.sqrt(2.0)

    @given(signed_measures(max_atoms=6), signed_measures(max_atoms=6))
    def test_matches_signed_distance_for_probability_reference(self, a, b):
        cfg = TransformConfig(n_quantiles=64)
        norm = transform_l2(scdt_forward(a, cfg), scdt_forward(b, cfg), cfg)
        dist = d_s(a, b, n_quantiles=64).value
        assert same_bytes(norm, dist)

    def test_distance_between_dipoles_matches_hand_value(self):
        cfg = TransformConfig(n_quantiles=16)
        a = SignedMeasure(delta(1.0), delta(2.0))
        b = SignedMeasure(delta(2.0), delta(1.0))
        norm = transform_l2(scdt_forward(a, cfg), scdt_forward(b, cfg), cfg)
        assert norm == pytest.approx(math.sqrt(2.0), rel=1e-15)
