"""Feature extraction, regularized Fisher LDA, and the three-class
separability experiment."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import gen_configs
from oracles import (
    confusion_by_loop,
    holds_subnormal_weight,
    lda_explicit_q,
    lda_extended_precision,
    lda_primal,
    pad_2d_by_branch,
    regularization_by_class_loop,
)
from scdt import classify
from scdt.classify import (
    FEATURE_KINDS,
    FeatureMatrix,
    _apply_q,
    _confusion,
    _pad_2d,
    featurize,
    fit_lda,
    run_experiment,
)
from scdt.errors import RangeError, ScdtError
from scdt.genmodel import GenConfig, generate_dataset
from scdt.measures import GridDensity, measure_from_density
from scdt import transform
from scdt.transform import TransformConfig, scdt_forward, scdt_forward_batch


def spike_density(bin_index: int, n_bins: int = 4, sign: float = 1.0) -> GridDensity:
    samples = np.zeros(n_bins)
    samples[bin_index] = 2.0 * sign
    return GridDensity(0.0, 2.0, samples)


class TestFeatureMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros(3), np.zeros(3, dtype=int), "scdt")
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((3, 2)), np.zeros(2, dtype=int), "scdt")
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[np.inf, 0.0]]), np.zeros(1, dtype=int), "scdt")
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((2, 2)), np.zeros(2, dtype=int), "pca")

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.5, 1.7]),
            np.array([0.0, np.nan]),
            np.array([np.inf, 1.0]),
            np.array([1e300, 0.0]),
            np.array([2**63, 1], dtype=np.uint64),
            np.array([1 + 0.5j, 2]),
            np.array(["1", "2"]),
            np.array([0, 1], dtype=object),
        ],
        ids=["fractional", "nan", "inf", "beyond-int64", "uint64-beyond-int64", "complex",
             "text", "object"],
    )
    def test_labels_must_be_integers(self, labels):
        # np.asarray(labels, dtype=int) would make [0, 1] of [0.5, 1.7], -2**63 of 2**63,
        # 1 of 1 + 0.5j and 1 of "1".
        with pytest.raises(ValueError, match="labels must be integers"):
            FeatureMatrix(np.zeros((2, 2)), labels, "scdt")

    def test_whole_float_and_integer_labels_are_accepted(self):
        fm = FeatureMatrix(np.zeros((3, 2)), np.array([0.0, 2.0, -(2.0**63)]), "scdt")
        assert fm.labels.dtype == int and np.array_equal(fm.labels, [0, 2, -(2**63)])
        fm = FeatureMatrix(np.zeros((2, 2)), np.array([2**63 - 1, 0], dtype=np.uint64), "scdt")
        assert fm.labels.dtype == int and np.array_equal(fm.labels, [2**63 - 1, 0])
        labels = np.array([3, 1, 2])
        assert FeatureMatrix(np.zeros((3, 2)), labels, "scdt").labels is labels

    def test_rows_are_frozen(self):
        fm = FeatureMatrix(np.zeros((2, 2)), np.zeros(2, dtype=int), "scdt")
        with pytest.raises(ValueError):
            fm.rows[0, 0] = 1.0

    def test_float_rows_are_frozen_in_place(self):
        rows = np.zeros((2, 2))
        assert FeatureMatrix(rows, np.zeros(2, dtype=int), "scdt").rows is rows
        assert not rows.flags.writeable

    def test_subset(self):
        fm = FeatureMatrix(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]), "scdt")
        sub = fm.subset(np.array([False, True, True]))
        assert np.array_equal(sub.labels, [1, 2])
        assert np.array_equal(sub.rows, [[2.0, 3.0], [4.0, 5.0]])


class TestFeaturize:
    def test_raw_rows_are_the_samples(self):
        signals = [(0, spike_density(0)), (1, spike_density(2))]
        fm = featurize(signals, "raw_signal", TransformConfig(n_quantiles=4))
        assert fm.rows.shape == (2, 4)
        assert np.array_equal(fm.rows[0], spike_density(0).samples)
        assert np.array_equal(fm.labels, [0, 1])

    def test_transform_row_layout(self):
        # One positive and one negative spike: the row is (plus samples,
        # plus mass, minus samples, minus mass) = 2 * 4 + 2 entries.
        samples = np.array([2.0, 0.0, 0.0, -2.0])
        signals = [(0, GridDensity(0.0, 2.0, samples))]
        fm = featurize(signals, "scdt", TransformConfig(n_quantiles=4))
        assert fm.rows.shape == (1, 10)
        expected = np.array([0.25, 0.25, 0.25, 0.25, 1.0, 1.75, 1.75, 1.75, 1.75, 1.0])
        assert np.array_equal(fm.rows[0], expected)

    def test_translated_spikes_differ_by_constant_offset(self):
        # Moving a spike two bins shifts every quantile sample by exactly
        # one length unit; the mass channels stay equal.
        signals = [(0, spike_density(0)), (0, spike_density(2))]
        fm = featurize(signals, "scdt", TransformConfig(n_quantiles=4))
        diff = fm.rows[1] - fm.rows[0]
        assert np.array_equal(diff[:4], np.ones(4))
        assert diff[4] == 0.0

    def test_mixed_grids_rejected(self):
        signals = [(0, spike_density(0)), (1, spike_density(0, n_bins=8))]
        with pytest.raises(ValueError, match="all signals must share one grid"):
            featurize(signals, "raw_signal", TransformConfig(n_quantiles=4))

    def test_empty_and_bad_kind_rejected(self):
        cfg = TransformConfig(n_quantiles=4)
        with pytest.raises(ValueError, match="no signals to featurize"):
            featurize([], "raw_signal", cfg)
        with pytest.raises(ValueError):
            featurize([(0, spike_density(0))], "pca", cfg)

    def test_fractional_label_rejected(self):
        # np.array([0.5], dtype=int) would have made it label 0.
        with pytest.raises(ValueError, match="labels must be integers"):
            featurize([(0.5, spike_density(0))], "raw_signal", TransformConfig(n_quantiles=4))

    @given(gen_configs())
    def test_view_and_its_pairs_give_the_same_features(self, gen):
        view = generate_dataset(gen)
        for kind in FEATURE_KINDS:
            got = featurize(view, kind, TransformConfig(n_quantiles=16))
            want = featurize(list(view), kind, TransformConfig(n_quantiles=16))
            for a, b in ((got.rows, want.rows), (got.labels, want.labels)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            assert got.labels.tobytes() == view.labels.tobytes()
            if kind == "raw_signal":
                assert got.rows.tobytes() == view.samples.tobytes()

    @given(gen_configs(), st.sampled_from(FEATURE_KINDS), st.data())
    def test_subset_is_the_public_constructor_on_the_rows(self, gen, kind, data):
        features = featurize(generate_dataset(gen), kind, TransformConfig(n_quantiles=8))
        n = features.labels.size
        index = np.array(data.draw(st.one_of(
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.integers(min_value=-n, max_value=n - 1), max_size=2 * n).map(
                lambda ids: np.array(ids, dtype=int)))))
        got = features.subset(index)
        want = FeatureMatrix(features.rows[index], features.labels[index], kind)
        assert got.feature_kind == want.feature_kind == kind
        for a, b in ((got.rows, want.rows), (got.labels, want.labels)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    @given(gen_configs(), st.sampled_from(FEATURE_KINDS), st.integers(0, 3),
           st.integers(1, 3))
    def test_slice_subset_is_a_read_only_view_of_the_rows(self, gen, kind, start, step):
        features = featurize(generate_dataset(gen), kind, TransformConfig(n_quantiles=8))
        got = features.subset(slice(start, None, step))
        for a, b in ((got.rows, features.rows), (got.labels, features.labels)):
            want = b[start::step]
            assert a.dtype == want.dtype and a.shape == want.shape
            assert a.tobytes() == want.tobytes()
            assert a.size == 0 or np.shares_memory(a, b)
            assert not a.flags.writeable


def per_signal_rows(signals, cfg: TransformConfig) -> np.ndarray:
    """Transform rows built signal by signal through the measure objects."""
    rows = []
    for _, density in signals:
        t = scdt_forward(measure_from_density(density), cfg)
        rows.append(np.concatenate((t.plus.samples, [t.plus.mass], t.minus.samples, [t.minus.mass])))
    return np.array(rows)


@st.composite
def signals_on_one_grid(draw):
    """Labeled densities on one grid of 1-512 bins: zero bins, all-zero and
    one-sign rows, magnitudes from subnormal to about 1e308."""
    n_bins = draw(st.integers(min_value=1, max_value=512))
    t0 = draw(st.floats(min_value=-10.0, max_value=10.0))
    span = draw(st.floats(min_value=1e-3, max_value=1e3))
    signals = []
    for label in range(draw(st.integers(min_value=1, max_value=4))):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        lo = draw(st.integers(min_value=-323, max_value=308))
        hi = min(lo + draw(st.integers(min_value=0, max_value=40)), 308)
        signs = {
            "mixed": rng.choice((-1.0, 0.0, 1.0), size=n_bins),
            "zero": np.zeros(n_bins),
            "positive": rng.choice((0.0, 1.0), size=n_bins),
            "negative": rng.choice((-1.0, 0.0), size=n_bins),
        }[draw(st.sampled_from(("mixed", "zero", "positive", "negative")))]
        samples = signs * 10.0 ** rng.uniform(lo, hi, size=n_bins)
        signals.append((label, GridDensity(t0, t0 + span, samples)))
    return signals


def replayed_rows(monkeypatch):
    """The sample rows ``scdt_forward_batch`` replays through the per-signal transform."""
    calls = []

    def replay(d):
        calls.append(d.samples)
        return measure_from_density(d)

    monkeypatch.setattr(transform, "measure_from_density", replay)
    return calls


class TestTransformKernel:
    @pytest.mark.filterwarnings("error")
    @given(signals_on_one_grid(),
           st.one_of(st.integers(min_value=2, max_value=64), st.sampled_from([1024, 4096, 2**17]),
                     st.integers(min_value=65, max_value=2**17)))
    # Part totals of about 4e-306 and 2e-306, where M / total overflows at M = 2^17.
    @example([(0, GridDensity(0.0, 4.0, np.array([1e-306, -2e-306, 0.0, 3e-306])))], 2**17)
    def test_rows_equal_the_per_signal_transforms_bit_for_bit(self, signals, n_quantiles):
        cfg = TransformConfig(n_quantiles=n_quantiles)
        try:
            want = per_signal_rows(signals, cfg)
        except ScdtError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                featurize(signals, "scdt", cfg)
            return
        with pytest.MonkeyPatch.context() as mp:
            replayed = replayed_rows(mp)
            got = featurize(signals, "scdt", cfg).rows
        assert replayed == []
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_rows_with_subnormal_weights_raise_the_per_signal_error(self):
        # Weights of 5e-324 and 1e-323 on bins of width 1 are subnormal: each row raises
        # the per-signal RangeError, and featurize raises the same.
        samples = np.array([5e-324, 0.0, -1e-323, 0.0, 5e-324, 0.0])
        cfg = TransformConfig(n_quantiles=8)
        for signal in ((0, GridDensity(0.0, 6.0, samples)), (1, GridDensity(0.0, 6.0, -samples))):
            with pytest.raises(RangeError, match="below the smallest normal float") as info:
                per_signal_rows([signal], cfg)
            with pytest.raises(RangeError, match=re.escape(str(info.value))):
                featurize([signal], "scdt", cfg)

    @pytest.mark.filterwarnings("error")
    def test_rows_of_every_normal_scale_are_counted(self, monkeypatch):
        # Part totals from subnormal to near overflow at M = 2^17 on bins of width 1.
        # Every row of normal weights is counted without a replay, also where a part
        # total is below M * 5.6e-309, so that M / total would overflow.  A row with a
        # weight below the smallest normal float raises the per-signal error.
        rng = np.random.default_rng(7)
        scales = [5e-324, 1e-320, 1e-310, 1e-307, 1e-306, 1e-305, 1e-300, 1.0, 1e300, 5e306]
        rows = np.array([rng.choice((-1.0, 0.0, 1.0), size=24) * rng.uniform(1, 2, size=24) * a
                         for a in scales])
        rows[4] = np.where(rows[4] > 0, 5e306, rows[4])  # beside a tiny minus part
        assert np.all(np.any(rows > 0, axis=1) & np.any(rows < 0, axis=1))
        signals = [(i, GridDensity(-3.0, 21.0, row)) for i, row in enumerate(rows)]
        cfg = TransformConfig(n_quantiles=2**17)
        assert [holds_subnormal_weight(d) for _, d in signals] == [True] * 3 + [False] * 7
        for signal in signals[:3]:
            with pytest.raises(RangeError, match="below the smallest normal float") as info:
                per_signal_rows([signal], cfg)
            with pytest.raises(RangeError, match=re.escape(str(info.value))):
                featurize([signal], "scdt", cfg)
        replayed = replayed_rows(monkeypatch)
        got = featurize(signals[3:], "scdt", cfg).rows
        assert replayed == []
        assert got.tobytes() == per_signal_rows(signals[3:], cfg).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_rows_near_the_largest_float_are_counted(self, monkeypatch):
        # At M = 2 the level past the last, (M + 1/2) / M * total, overflows for these
        # plus parts; the count must neither warn nor replay.
        rows = np.array([[1.5e308, 0.0, -1.0], [1.0, 1.7e308, -2.0]])
        signals = [(i, GridDensity(0.0, 3.0, row)) for i, row in enumerate(rows)]
        cfg = TransformConfig(n_quantiles=2)
        replayed = replayed_rows(monkeypatch)
        got = featurize(signals, "scdt", cfg).rows
        assert replayed == []
        assert got.tobytes() == per_signal_rows(signals, cfg).tobytes()

    def test_benchmark_rows_are_all_counted(self, monkeypatch):
        replayed = replayed_rows(monkeypatch)
        features = featurize(generate_dataset(GenConfig()), "scdt", TransformConfig(n_quantiles=1024))
        assert features.rows.shape == (500, 2050)
        assert replayed == []

    @pytest.mark.filterwarnings("error")
    def test_valid_row_on_a_colliding_grid_is_the_per_signal_transform(self, monkeypatch):
        # Centres of bins 2k - 1 and 2k round to one float near 1e16, but no two atoms of
        # this row share a centre; the grid sends it to the replay, which must succeed.
        signals = [(0, GridDensity(1e16, 1e16 + 8, [1.0, 0.0, -2.0, 0.0, 3.0, 0.0, 0.0, 0.0]))]
        cfg = TransformConfig(n_quantiles=16)
        replayed = replayed_rows(monkeypatch)
        got = featurize(signals, "scdt", cfg).rows
        assert len(replayed) == 1
        assert got.tobytes() == per_signal_rows(signals, cfg).tobytes()
        assert np.array_equal(np.unique(got[0, :16]), [1e16, 1e16 + 4])

    def test_kernel_validates_its_arrays(self):
        cfg = TransformConfig(n_quantiles=4)
        for bad in (np.zeros(4), np.zeros((2, 0)), np.array([[0.0, np.nan]])):
            with pytest.raises(ValueError):
                scdt_forward_batch(bad, 0.0, 1.0, cfg)
        with pytest.raises(ValueError):
            scdt_forward_batch(np.zeros((1, 2)), 1.0, 0.0, cfg)
        assert scdt_forward_batch(np.zeros((0, 3)), 0.0, 1.0, cfg).shape == (0, 10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "t0, t1, samples",
        [
            (0.0, 0.01, [1e-322, 1.0]),
            (0.0, 4.0, [1e308, 1.0]),
            (1e16, 1e16 + 8, np.ones(8)),
            (1e16, 1e16 + 8, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
            (0.0, 2.0, [1e308, 1e308]),
        ],
        ids=["weight-underflow", "weight-overflow", "centre-collision", "parts-collide",
             "mass-overflow"],
    )
    def test_unrepresentable_row_raises_what_measure_from_density_raises(self, t0, t1, samples):
        bad = GridDensity(t0, t1, np.asarray(samples, dtype=float))
        with pytest.raises(ScdtError) as expected:
            measure_from_density(bad)
        signals = [(0, GridDensity(t0, t1, np.zeros(bad.n_bins))), (1, bad), (2, bad)]
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            featurize(signals, "scdt", TransformConfig(n_quantiles=4))


class TestFitLda:
    def separated_blobs(self, rng, spread=0.1, n=20):
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        rows, labels = [], []
        for c, center in enumerate(centers):
            rows.append(center + spread * rng.standard_normal((n, 2)))
            labels.append(np.full(n, c))
        return FeatureMatrix(np.vstack(rows), np.concatenate(labels), "raw_signal")

    def test_well_separated_blobs_classify_perfectly(self):
        rng = np.random.default_rng(0)
        train = self.separated_blobs(rng)
        test = self.separated_blobs(rng)
        model = fit_lda(train)
        assert np.mean(model.predict(test.rows) == test.labels) == 1.0

    def test_arrays_are_frozen(self):
        model = fit_lda(self.separated_blobs(np.random.default_rng(0)))
        report = run_experiment(GenConfig(per_class=4, n_grid=32), TransformConfig(n_quantiles=8))
        for arr in (model.projection, model.class_means_projected, model.classes,
                    report.confusion_signal, report.confusion_scdt, report.projections_signal,
                    report.projections_scdt, report.test_labels):
            assert not arr.flags.writeable

    def test_needs_two_classes_and_two_per_class(self):
        with pytest.raises(ValueError):
            fit_lda(FeatureMatrix(np.zeros((4, 2)), np.zeros(4, dtype=int), "scdt"))
        with pytest.raises(ValueError):
            fit_lda(
                FeatureMatrix(np.zeros((3, 2)), np.array([0, 0, 1]), "scdt")
            )

    def test_identical_classes_tie_goes_to_lowest_id(self):
        # Indistinguishable classes leave no discriminant directions; every
        # projected distance ties and the lowest class id wins.
        rows = np.ones((6, 3))
        labels = np.array([2, 2, 3, 3, 5, 5])
        model = fit_lda(FeatureMatrix(rows, labels, "raw_signal"))
        assert model.projection.shape == (3, 0)
        assert np.array_equal(model.predict(np.ones((4, 3))), [2, 2, 2, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rows_without_a_direction_are_still_checked(self, bad):
        # With no direction kept the projection has no value to check: the rows are checked.
        model = fit_lda(FeatureMatrix(np.ones((6, 3)), [2, 2, 3, 3, 5, 5], "raw_signal"))
        for method in (model.transform, model.predict):
            with pytest.raises(ValueError, match="rows must be finite"):
                method(np.array([[bad, 0.0, 0.0]]))

    def test_projection_rank_bounded_by_classes_minus_one(self):
        rng = np.random.default_rng(1)
        train = self.separated_blobs(rng)
        model = fit_lda(train)
        assert model.projection.shape[1] <= 2

    def test_uniform_feature_rescaling_keeps_predictions(self):
        rng = np.random.default_rng(2)
        train = self.separated_blobs(rng)
        test_rows = self.separated_blobs(rng).rows
        base = fit_lda(train).predict(test_rows)
        for c in (0.01, 100.0):
            scaled_train = FeatureMatrix(train.rows * c, train.labels, "raw_signal")
            scaled = fit_lda(scaled_train).predict(test_rows * c)
            assert np.array_equal(scaled, base)

    def test_constant_columns_are_tolerated(self):
        rng = np.random.default_rng(3)
        blobs = self.separated_blobs(rng)
        rows = np.hstack([blobs.rows, np.full((blobs.rows.shape[0], 2), 7.0)])
        model = fit_lda(FeatureMatrix(rows, blobs.labels, "raw_signal"))
        padded = np.hstack([blobs.rows, np.full((blobs.rows.shape[0], 2), 7.0)])
        assert np.mean(model.predict(padded) == blobs.labels) == 1.0

    @pytest.mark.parametrize(
        "rows, message",
        [
            (np.zeros(2), r"rows must be \(n, 2\)"),
            (np.zeros((3, 4)), r"rows must be \(n, 2\)"),
            (np.zeros((3, 2, 1)), r"rows must be \(n, 2\)"),
            (np.array([[0.0, 0.0], [np.nan, 1.0]]), "finite"),
            (np.array([[np.inf, 0.0]]), "finite"),
            (np.array([[1e308, 1e308]]) * [[1.0, -1.0]], "finite"),
        ],
        ids=["1-D", "wrong-width", "3-D", "nan", "inf", "overflowing-projection"],
    )
    def test_transform_and_predict_refuse_bad_rows(self, rows, message):
        model = fit_lda(self.separated_blobs(np.random.default_rng(0)))
        for method in (model.transform, model.predict):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match=message):
                    method(rows)

    @pytest.mark.parametrize("lda_lambda", [0.0, -1e-6, np.nan, np.inf, -np.inf])
    def test_lambda_must_be_finite_and_positive(self, lda_lambda):
        train = self.separated_blobs(np.random.default_rng(0))
        with pytest.raises(ValueError, match="lda_lambda must be finite and positive"):
            fit_lda(train, lda_lambda)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-300],
                             ids=["overflow", "underflow", "zero-trace"])
    def test_out_of_range_features_raise_value_error(self, scale):
        # At 1e200 the squared rows overflow the scatter; at 1e-160 they
        # underflow to a zero ridge, which would leave it singular; at 1e-300
        # the trace itself is 0, which is not the absolute ridge of no scatter.
        blobs = self.separated_blobs(np.random.default_rng(0))
        scaled = FeatureMatrix(blobs.rows * scale, blobs.labels, "raw_signal")
        with pytest.raises(ValueError, match="out of range"):
            fit_lda(scaled)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_reduced_problem_raises_value_error(self):
        # No within-class scatter leaves the absolute ridge 1e-6; classes 1e160 apart
        # then overflow only the small between-class problem, past every earlier check.
        rows = np.array([[0.0], [0.0], [1e160], [1e160]])
        with pytest.raises(ValueError, match="^feature values are out of range"):
            fit_lda(FeatureMatrix(rows, [0, 0, 1, 1], "raw_signal"))


class TestApplyQ:
    """The reflector form of Q against the Q that ``np.linalg.qr`` forms."""

    @pytest.mark.parametrize(
        "shape, rank",
        [((2050, 250), None), ((40, 40), None), ((30, 70), None), ((200, 60), 5)],
        ids=["tall", "square", "wide", "rank-deficient"],
    )
    def test_matches_the_formed_q(self, shape, rank):
        rng = np.random.default_rng(7)
        if rank is None:
            # The transpose of a C-ordered array, as fit_lda factorizes (X - mu)^T.
            a = rng.standard_normal(shape[::-1]).T
        else:
            a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        h, tau = np.linalg.qr(a, mode="raw")
        q = np.linalg.qr(a)[0]
        x = rng.standard_normal((q.shape[1], 3))
        assert np.max(np.abs(_apply_q(h, tau, x) - q @ x)) <= 1e-13 * np.max(np.abs(x))


@st.composite
def lda_problems(draw):
    """Rows of 2-4 classes (2-30 rows each, any class ids) around random
    centres in 1-60 features plus 0-20 features that hold 7.0 in every row,
    all times a scale from 1e-3 to 1e3; the row count falls above and below
    the feature count."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sizes = draw(st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=4))
    ids = draw(st.lists(st.integers(min_value=-5, max_value=50), min_size=len(sizes),
                        max_size=len(sizes), unique=True))
    p = draw(st.integers(min_value=1, max_value=60))
    spread = draw(st.floats(min_value=0.1, max_value=5.0))
    y = np.repeat(ids, sizes)
    centres = dict(zip(ids, spread * rng.standard_normal((len(ids), p))))
    rows = np.array([centres[c] for c in y]) + rng.standard_normal((y.size, p))
    scale = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    constant = np.full((y.size, draw(st.integers(min_value=0, max_value=20))), 7.0)
    return np.hstack([rows, constant]) * scale, y


class TestFitLdaAgainstExplicitQ:
    """The fit, which never forms Q, against the same solve on the Q that
    ``np.linalg.qr`` forms: the same predictions and number of directions,
    projections of the rows equal up to column sign within
    ``1e-8 * max|projection|``, and the same regularization bit for bit."""

    @given(lda_problems())
    def test_matches_the_solve_on_a_formed_basis(self, problem):
        rows, y = problem
        model = fit_lda(FeatureMatrix(rows, y, "raw_signal"))
        oracle = lda_explicit_q(rows, y, 1e-6)
        test_rows = np.vstack([rows, rows[::-1] * 0.9 + rows * 0.1])
        assert np.array_equal(model.predict(test_rows), oracle.predict(test_rows))
        got, want = model.transform(test_rows), oracle.transform(test_rows)
        assert got.shape == want.shape
        signs = np.where(np.sum(got * want, axis=0) < 0, -1.0, 1.0)
        bound = 1e-8 * np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got * signs - want), initial=0.0) <= bound
        assert model.regularization == oracle.regularization


def experiment_split(seed: int, kind: str):
    """The train and test features of the benchmark dataset on ``seed``,
    split by index parity as in ``run_experiment``."""
    features = featurize(generate_dataset(GenConfig(seed=seed)), kind, TransformConfig())
    even = np.arange(features.labels.size) % 2 == 0
    return features.subset(even), features.subset(~even)


class TestRegularization:
    """The ridge of the fit, whose centred rows are formed in one step, is the
    class loop's of the oracle bit for bit."""

    @given(lda_problems(), st.sampled_from([1e-6, 0.3]))
    def test_matches_the_class_loop(self, problem, lda_lambda):
        rows, y = problem
        model = fit_lda(FeatureMatrix(rows, y, "raw_signal"), lda_lambda)
        assert model.regularization == regularization_by_class_loop(rows, y, lda_lambda)

    @pytest.mark.parametrize("kind", FEATURE_KINDS)
    @pytest.mark.parametrize("seed", [0, 97])
    def test_benchmark_datasets(self, seed, kind):
        train, _ = experiment_split(seed, kind)
        want = regularization_by_class_loop(train.rows, train.labels, 1e-6)
        assert fit_lda(train).regularization == want


class TestFitLdaAgainstPrimal:
    """The fit against the primal Cholesky oracle: the same predictions, the
    same number of directions, and projections equal up to column sign
    within ``1e-6 * max|projection|``."""

    def assert_matches_primal(self, train, test_rows):
        model, oracle = fit_lda(train), lda_primal(train.rows, train.labels, 1e-6)
        assert np.array_equal(model.predict(test_rows), oracle.predict(test_rows))
        got, want = model.transform(test_rows), oracle.transform(test_rows)
        assert got.shape == want.shape
        signs = np.where(np.sum(got * want, axis=0) < 0, -1.0, 1.0)
        assert np.max(np.abs(got * signs - want)) <= 1e-6 * np.max(np.abs(want))
        assert model.regularization == pytest.approx(oracle.regularization, rel=1e-12)

    @pytest.mark.parametrize("kind", ["raw_signal", "scdt"])
    @pytest.mark.parametrize("seed", [0, 97])
    def test_benchmark_datasets(self, seed, kind):
        train, test = experiment_split(seed, kind)
        assert train.rows.shape[0] <= train.rows.shape[1]
        self.assert_matches_primal(train, test.rows)

    @pytest.mark.parametrize(
        "sizes, n_constant, constant",
        [((50, 50, 50), 0, 7.0), ((20, 20, 20), 200, 7.0), ((20, 13, 7), 200, 0.7)],
        ids=["n-above-p", "low-rank-rows", "inexact-constant"],
    )
    def test_blobs(self, sizes, n_constant, constant):
        # Three 2-D blobs plus three noise features, and optionally constant
        # features: 150 rows of 5 features, or 60 or 40 rows of rank 5 in 205.
        # The means of 20, 13, 7 and 40 copies of 0.7 round differently, so
        # class-mean offsets taken as mc - mu would differ by class along the
        # constant features, and the solve would amplify them.
        blobs = TestFitLda().separated_blobs(np.random.default_rng(4), 3.0, max(sizes))
        n = blobs.labels.size
        noise = np.random.default_rng(5).standard_normal((n, 3))
        rows = np.hstack([blobs.rows, noise, np.full((n, n_constant), constant)])
        keep = np.arange(n) % max(sizes) < np.repeat(sizes, max(sizes))
        rows = rows[keep]
        train = FeatureMatrix(rows, blobs.labels[keep], "raw_signal")
        self.assert_matches_primal(train, rows + 0.5)


class TestFitLdaAgainstExtendedPrecision:
    """The fit's projection against the same LDA solved in ``np.longdouble``
    on the even rows of the benchmark transform features, at the default
    p = 2050 and at p = 8194 (M = 4096, where the ridge is smallest against
    the scatter): equal up to column sign within ``5e-8 * max|projection|``."""

    @pytest.mark.parametrize("seed, n_quantiles", [(0, 1024), (97, 1024), (0, 4096)])
    def test_benchmark_transform_features(self, seed, n_quantiles):
        features = featurize(generate_dataset(GenConfig(seed=seed)), "scdt",
                             TransformConfig(n_quantiles=n_quantiles))
        train = features.subset(np.arange(features.labels.size) % 2 == 0)
        got = fit_lda(train).projection
        want = lda_extended_precision(train.rows, train.labels, 1e-6)
        assert got.shape == want.shape
        signs = np.where(np.sum(got * want, axis=0) < 0, -1.0, 1.0)
        assert np.max(np.abs(got * signs - want)) <= 5e-8 * np.max(np.abs(want))


class TestReportHelpers:
    @given(st.data())
    def test_confusion_equals_the_loop(self, data):
        ids = sorted(data.draw(st.sets(st.integers(-9, 9), min_size=2, max_size=5)))
        unpredicted = data.draw(st.sampled_from(ids))
        n = data.draw(st.integers(0, 20))
        truth = data.draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
        pred = data.draw(st.lists(st.sampled_from([c for c in ids if c != unpredicted]),
                                  min_size=n, max_size=n))
        classes = np.array(ids)
        truth, pred = np.array(truth, dtype=int), np.array(pred, dtype=int)
        got, want = _confusion(classes, truth, pred), confusion_by_loop(classes, truth, pred)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got[:, ids.index(unpredicted)].any()

    @given(st.integers(0, 6), st.integers(0, 3), st.data())
    def test_pad_2d_equals_the_branch(self, n, k, data):
        proj = np.array(data.draw(st.lists(st.floats(), min_size=n * k, max_size=n * k)),
                        dtype=float).reshape(n, k)
        got, want = _pad_2d(proj), pad_2d_by_branch(proj)
        assert got.dtype == want.dtype and got.shape == want.shape == (n, 2)
        assert got.tobytes() == want.tobytes()


class TestRunExperiment:
    def small(self, **kw) -> GenConfig:
        base = dict(per_class=(8, 8, 8), n_grid=128, noise_sigma=0.0)
        base.update(kw)
        return GenConfig(**base)

    def test_split_is_two_strided_views_of_the_features(self, monkeypatch):
        featurized, trained = [], []
        real_featurize, real_fit = classify.featurize, classify.fit_lda

        def spy_featurize(*args):
            featurized.append(real_featurize(*args))
            return featurized[-1]

        def spy_fit(train, lda_lambda):
            trained.append(train)
            return real_fit(train, lda_lambda)

        monkeypatch.setattr(classify, "featurize", spy_featurize)
        monkeypatch.setattr(classify, "fit_lda", spy_fit)
        report = run_experiment(self.small(n_grid=32), TransformConfig(n_quantiles=16))
        assert len(featurized) == len(trained) == len(FEATURE_KINDS)
        for features, train in zip(featurized, trained):
            assert np.shares_memory(train.rows, features.rows)
            assert train.rows.strides[0] == 2 * features.rows.strides[0]
            assert np.array_equal(train.labels, features.labels[::2])
        assert np.array_equal(report.test_labels, featurized[-1].labels[1::2])

    def test_split_counts_and_confusions(self):
        gen = self.small()
        report = run_experiment(gen, TransformConfig(n_quantiles=128))
        n_test = report.test_labels.size
        assert n_test == gen.n_signals // 2
        assert report.confusion_signal.sum() == n_test
        assert report.confusion_scdt.sum() == n_test
        assert report.projections_scdt.shape == (n_test, 2)
        assert 0.0 <= report.accuracy_signal_space <= 1.0

    def test_transform_features_separate_the_classes(self):
        # Without sampling noise, warped copies of the three templates are
        # linearly separable in transform space but not as raw signals.
        report = run_experiment(self.small(), TransformConfig(n_quantiles=128))
        assert report.accuracy_scdt_space == 1.0
        assert report.accuracy_signal_space < report.accuracy_scdt_space

    def test_noisy_version_stays_accurate(self):
        report = run_experiment(
            self.small(n_grid=64, noise_sigma=0.02),
            TransformConfig(n_quantiles=64),
            seed=0,
        )
        assert report.accuracy_scdt_space >= 0.9

    def test_deterministic_under_seed(self):
        cfg = TransformConfig(n_quantiles=32)
        a = run_experiment(self.small(n_grid=32), cfg, seed=4)
        b = run_experiment(self.small(n_grid=32), cfg, seed=4)
        assert a.accuracy_scdt_space == b.accuracy_scdt_space
        assert np.array_equal(a.projections_scdt, b.projections_scdt)
        assert np.array_equal(a.confusion_signal, b.confusion_signal)

    def test_class_without_training_signal_raises_value_error(self):
        # Class 2 has one signal, index 7: it falls in the held-out half only.
        with pytest.raises(ValueError, match="class 2 has no training signal"):
            run_experiment(GenConfig(per_class=(3, 4, 1), n_grid=32),
                           TransformConfig(n_quantiles=16))

    def test_seed_argument_overrides_config(self):
        cfg = TransformConfig(n_quantiles=32)
        report = run_experiment(self.small(n_grid=32, seed=0), cfg, seed=5)
        assert report.seed == 5
        assert report.gen_config.seed == 5
        with pytest.raises(ValueError, match="seed must be a whole number"):
            run_experiment(self.small(n_grid=32), cfg, seed=5.5)

    def test_report_round_trips_through_json(self):
        report = run_experiment(self.small(n_grid=32), TransformConfig(n_quantiles=32))
        payload = report.to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["n_train"] + parsed["n_test"] == report.gen_config.n_signals
        assert set(parsed) >= {
            "accuracy_signal_space",
            "accuracy_scdt_space",
            "confusion_signal",
            "confusion_scdt",
            "seed",
            "gen_config",
        }
        assert len(parsed["confusion_scdt"]) == 3  # one row per class
