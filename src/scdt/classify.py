"""Fisher linear discriminant analysis on raw signals and on transform
vectors, and the three-class separability experiment.

Transform feature vectors concatenate both Jordan channels and both mass
scalars, which is the full injective image of a signed measure, so a linear
classifier in transform space sees everything the transform preserves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .genmodel import GenConfig, LabeledSignals, _integer_labels, generate_dataset
from .steps import _Frozen
from .transform import TransformConfig, scdt_forward_batch

__all__ = [
    "FeatureMatrix",
    "LdaModel",
    "ExperimentReport",
    "featurize",
    "fit_lda",
    "run_experiment",
    "FEATURE_KINDS",
]

FEATURE_KINDS = ("raw_signal", "scdt")

#: Default within-class scatter regularization, relative to the scatter's
#: mean diagonal entry (which makes predictions invariant under uniform
#: feature rescaling), or an absolute ridge when the scatter is zero; it must
#: be finite and positive, as the scatter is singular whenever n <= p.
DEFAULT_LDA_LAMBDA = 1e-6


@dataclass(frozen=True, eq=False)
class FeatureMatrix(_Frozen):
    """One feature vector per signal, with class labels."""

    rows: np.ndarray
    labels: np.ndarray
    feature_kind: str

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        labels = _integer_labels(self.labels)
        if rows.ndim != 2 or labels.ndim != 1 or rows.shape[0] != labels.size:
            raise ValueError("rows must be (n_signals, n_features) with one label per row")
        if not np.all(np.isfinite(rows)):
            raise ValueError("feature vectors must be finite")
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"feature_kind must be one of {FEATURE_KINDS}")
        self._store(rows=rows, labels=labels)

    def subset(self, index: Union[slice, np.ndarray]) -> "FeatureMatrix":
        """The rows at ``index``: a slice shares them (read-only), an index array copies them."""
        return object.__new__(FeatureMatrix)._store(
            rows=self.rows[index], labels=self.labels[index], feature_kind=self.feature_kind)


def featurize(
    signals: Union[LabeledSignals, Sequence], kind: str, cfg: TransformConfig
) -> FeatureMatrix:
    """Vectorize labeled signals, a :class:`LabeledSignals` view or a list of
    ``(label, GridDensity)`` pairs on one grid: the raw density samples, or
    the transform tuple (plus samples, plus mass, minus samples, minus mass)
    of length ``2 * n_quantiles + 2``, all under one shared config."""
    if kind not in FEATURE_KINDS:
        raise ValueError(f"feature_kind must be one of {FEATURE_KINDS}")
    if not signals:
        raise ValueError("no signals to featurize")
    if not isinstance(signals, LabeledSignals):
        grids = {(d.t0, d.t1, d.n_bins) for _, d in signals}
        if len(grids) != 1:
            raise ValueError("all signals must share one grid")
        (t0, t1, _), = grids
        signals = LabeledSignals([label for label, _ in signals], t0, t1,
                                 [d.samples for _, d in signals])
    rows = signals.samples
    if kind == "scdt":
        rows = scdt_forward_batch(rows, signals.t0, signals.t1, cfg)
    return object.__new__(FeatureMatrix)._store(rows=rows, labels=signals.labels,
                                                feature_kind=kind)


@dataclass(frozen=True, eq=False)
class LdaModel(_Frozen):
    """Fisher discriminant directions (scatter-whitened) and the projected
    class means; classification is by the nearest projected mean, ties going
    to the lowest class id."""

    projection: np.ndarray
    class_means_projected: np.ndarray
    classes: np.ndarray
    regularization: float

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """The projections of ``rows``, an (n, p) array of feature vectors."""
        rows, p = np.asarray(rows, dtype=float), self.projection.shape[0]
        if rows.ndim != 2 or rows.shape[1] != p:
            raise ValueError(f"rows must be (n, {p}): one feature vector of length {p} each")
        proj = rows @ self.projection
        if not np.all(np.isfinite(proj if proj.shape[1] else rows)):  # n x k; the rows if k = 0
            raise ValueError("rows must be finite and project to finite values")
        return proj

    def predict(self, rows: np.ndarray) -> np.ndarray:
        proj = self.transform(rows)
        dists = np.linalg.norm(
            proj[:, None, :] - self.class_means_projected[None, :, :], axis=2
        )
        return self.classes[np.argmin(dists, axis=1)]


def _apply_q(h: np.ndarray, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``Q @ x`` for a 2-D ``x`` and the reduced Q of ``h, tau = np.linalg.qr(a,
    mode="raw")`` (the Q of the default mode): one pass over the reflectors of Q."""
    out = np.zeros((x.shape[1], h.shape[1]))
    out[:, : x.shape[0]] = x.T
    for j in reversed(range(tau.size)):
        v = h[j, j:].copy()  # v_j: 0 above j, 1 at j, h[j, j + 1:] below
        v[0] = 1.0
        out[:, j:] -= (tau[j] * (out[:, j:] @ v))[:, None] * v
    return np.ascontiguousarray(out.T)


def fit_lda(train: FeatureMatrix, lda_lambda: float = DEFAULT_LDA_LAMBDA) -> LdaModel:
    """Fit regularized Fisher LDA.

    Solves the generalized eigenproblem of between-class versus regularized
    within-class scatter through the low-rank class-mean factorization, with
    one ``min(n, p)``-square solve in the coordinates ``R^T`` of one Householder
    factorization ``(X - mu)^T = Q R``.  Q is never formed: its reflectors are
    applied to the at most ``classes - 1`` discriminant directions only.
    """
    if not 0 < lda_lambda < np.inf:
        raise ValueError("lda_lambda must be finite and positive")
    X, y = train.rows, train.labels
    classes, inverse = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    p = X.shape[1]
    mu = X.mean(axis=0)
    if np.bincount(inverse).min() < 2:
        raise ValueError("need at least two samples per class")
    class_means = np.stack([X[y == c].mean(axis=0) for c in classes])
    centred = class_means[inverse]  # one n x p buffer, X minus each row's class mean
    np.subtract(X, centred, out=centred)
    trace = float(np.vdot(centred, centred))
    lam_eff = lda_lambda * trace / p if trace > 0 else float(lda_lambda)
    if not 0 < lam_eff < np.inf:
        raise ValueError("feature values are out of range: the scatter over- or underflows")
    h, tau = np.linalg.qr(np.subtract(X, mu, out=centred).T, mode="raw")  # the buffer, reused
    coords = np.tril(h[:, : tau.size])  # the rows of X - mu in the basis Q; they sum to 0
    between = np.empty((tau.size, classes.size))
    for k, c in enumerate(classes):
        mc = coords[y == c].mean(axis=0)
        coords[y == c] -= mc
        between[:, k] = np.sqrt(np.count_nonzero(y == c)) * mc
    reduced = coords.T @ coords
    reduced[np.diag_indices_from(reduced)] += lam_eff
    solved = np.linalg.solve(reduced, between)
    small = between.T @ solved
    if not np.all(np.isfinite(small)):
        raise ValueError("feature values are out of range: the scatter over- or underflows")
    eigvals, eigvecs = np.linalg.eigh(small)
    top = max(float(eigvals[-1]), 0.0)
    keep = eigvals > top * 1e-10 if top > 0 else np.zeros(eigvals.size, dtype=bool)
    order = np.nonzero(keep)[0][::-1]
    projection = _apply_q(h, tau, (solved @ eigvecs[:, order]) / np.sqrt(eigvals[order]))
    return LdaModel(
        projection=projection,
        class_means_projected=class_means @ projection,
        classes=classes,
        regularization=lam_eff,
    )


@dataclass(frozen=True, eq=False)
class ExperimentReport(_Frozen):
    """Held-out accuracies, confusion matrices, and 2-D projections of the
    test split in both feature spaces."""

    accuracy_signal_space: float
    accuracy_scdt_space: float
    confusion_signal: np.ndarray
    confusion_scdt: np.ndarray
    projections_signal: np.ndarray
    projections_scdt: np.ndarray
    test_labels: np.ndarray
    seed: int
    gen_config: GenConfig
    n_quantiles: int
    lda_lambda: float

    def to_dict(self) -> dict:
        """JSON-ready summary (projections stay as arrays of rows)."""
        return {
            "accuracy_signal_space": self.accuracy_signal_space,
            "accuracy_scdt_space": self.accuracy_scdt_space,
            "confusion_signal": self.confusion_signal.tolist(),
            "confusion_scdt": self.confusion_scdt.tolist(),
            "seed": self.seed,
            "n_quantiles": self.n_quantiles,
            "lda_lambda": self.lda_lambda,
            "gen_config": dataclasses.asdict(self.gen_config),
            "n_train": int(sum(self.gen_config.per_class) - self.test_labels.size),
            "n_test": int(self.test_labels.size),
        }


def _confusion(classes: np.ndarray, truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    k = classes.size  # every label is one of the classes
    cells = np.searchsorted(classes, truth) * k + np.searchsorted(classes, pred)
    return np.bincount(cells, minlength=k * k).reshape(k, k)


def _pad_2d(proj: np.ndarray) -> np.ndarray:
    out = np.zeros((proj.shape[0], 2))
    out[:, : proj.shape[1]] = proj[:, :2]
    return out


def run_experiment(
    gen: GenConfig,
    cfg: TransformConfig,
    lda_lambda: float = DEFAULT_LDA_LAMBDA,
    seed: Optional[int] = None,
) -> ExperimentReport:
    """Generate a dataset, split it in half by index parity, fit LDA on raw
    and on transform features, and evaluate on the held-out half.

    ``seed`` overrides the config seed when given; everything downstream is
    deterministic, so equal seeds give bit-identical reports.
    """
    if seed is not None:
        gen = dataclasses.replace(gen, seed=seed)
    signals = generate_dataset(gen)
    train, held_out = slice(0, None, 2), slice(1, None, 2)  # strided views: no row is copied
    untrained = set(signals.labels.tolist()) - set(signals.labels[train].tolist())
    if untrained:  # a set, not np.setdiff1d, which imports numpy.ma (2 MB) on first use
        raise ValueError(f"class {min(untrained)} has no training signal: the split trains "
                         "on the even-indexed signals only")
    records = []
    for kind in FEATURE_KINDS:
        features = featurize(signals, kind, cfg)
        model = fit_lda(features.subset(train), lda_lambda)
        test = features.subset(held_out)
        pred = model.predict(test.rows)
        records.append((float(np.mean(pred == test.labels)),
                        _confusion(model.classes, test.labels, pred),
                        _pad_2d(model.transform(test.rows))))
    (acc_signal, conf_signal, proj_signal), (acc_scdt, conf_scdt, proj_scdt) = records
    return ExperimentReport(
        accuracy_signal_space=acc_signal,
        accuracy_scdt_space=acc_scdt,
        confusion_signal=conf_signal,
        confusion_scdt=conf_scdt,
        projections_signal=proj_signal,
        projections_scdt=proj_scdt,
        test_labels=signals.labels[held_out],
        seed=gen.seed,
        gen_config=gen,
        n_quantiles=cfg.n_quantiles,
        lda_lambda=lda_lambda,
    )
