"""Forward and inverse transport transforms of probability, positive, and
signed measures relative to an atomless reference.

A probability measure is represented by its generalized inverse CDF sampled
at midpoint quantile levels of the reference; a positive measure adds a total
mass channel; a signed measure transforms part-wise through its Jordan
decomposition into a 4-tuple (plus samples, plus mass, minus samples, minus
mass).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityWarning
from .measures import (
    SMALLEST_NORMAL,
    DiscreteMeasure,
    GridDensity,
    ReferenceMeasure,
    SignedMeasure,
    _centres,
    _grid,
    _support_gap,
    measure_from_density,
    measure_quantiles,
    pushforward,
)
from .steps import _as_float_array, _Frozen, _real, _whole

__all__ = [
    "TransformConfig",
    "CdtResult",
    "ScdtResult",
    "cdt_positive",
    "scdt_forward",
    "scdt_forward_batch",
    "cdt_inverse",
    "scdt_inverse",
]

#: Number of midpoint quantile levels when none is given.
DEFAULT_N_QUANTILES = 1024

#: Relative tolerance on the total mass of a claimed probability measure.
PROBABILITY_RTOL = 1e-9

#: Distinct supports closer than this (absolute gap) trigger a warning that
#: mutual singularity is numerically borderline.
COLLISION_WARN_GAP = 1e-9

#: The reference of every config given none: its arrays are read-only, so one serves all.
_UNIFORM = ReferenceMeasure.uniform()


@dataclass(frozen=True, eq=False)
class TransformConfig(_Frozen):
    """Discretization of the transform: the reference measure and the number
    of midpoint quantile levels ``q_j = (j - 1/2) / M``.

    The midpoint grid stays strictly inside ``(0, 1)``, which keeps every
    sample finite for measures of bounded support (the endpoint levels 0 and 1
    are where quantile functions escape to ``+-inf``).
    """

    reference: ReferenceMeasure = _UNIFORM
    n_quantiles: int = DEFAULT_N_QUANTILES
    quantiles: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.reference, ReferenceMeasure):
            raise TypeError("reference must be a ReferenceMeasure")
        m = _whole(self.n_quantiles, "n_quantiles")
        if m < 2:
            raise ValueError("n_quantiles must be at least 2")
        q = (np.arange(m) + 0.5) / m
        self._store(n_quantiles=m, quantiles=q)


@dataclass(frozen=True, eq=False)
class CdtResult(_Frozen):
    """Transform of a finite positive measure: quantile samples of the
    normalized measure plus a total mass channel.

    The zero measure is encoded by the convention (all-zero samples, mass 0);
    the mass field alone disambiguates it from a unit mass concentrated at 0.
    """

    samples: np.ndarray
    mass: float

    def __post_init__(self) -> None:
        samples = _as_float_array(self.samples, "samples")
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 entries")
        if np.any(samples[1:] < samples[:-1]):
            raise ValueError("samples must be non-decreasing")
        mass = _real(self.mass, "mass")
        if not (np.isfinite(mass) and mass >= 0):
            raise ValueError("mass must be finite and nonnegative")
        if mass == 0 and np.any(samples != 0):
            raise ValueError("the zero measure is encoded as all-zero samples with mass 0")
        self._store(samples=samples, mass=mass)

    @property
    def is_zero(self) -> bool:
        return self.mass == 0

    @classmethod
    def zero(cls, n_quantiles: int) -> "CdtResult":
        return cls(np.zeros(n_quantiles), 0.0)


@dataclass(frozen=True, eq=False)
class ScdtResult(_Frozen):
    """Transform of a signed measure: the pair of positive-part and
    negative-part transforms on a shared quantile grid."""

    plus: CdtResult
    minus: CdtResult

    def __post_init__(self) -> None:
        if self.plus.samples.size != self.minus.samples.size:
            raise ValueError("plus and minus parts must share one quantile grid")

    @property
    def n_quantiles(self) -> int:
        return self.plus.samples.size


def cdt_positive(nu: DiscreteMeasure, cfg: TransformConfig) -> CdtResult:
    """Transform of a finite positive measure: normalized quantile samples and
    the total mass; the zero measure maps to the (0, 0) convention.  ``nu``
    keeps the result for the last ``n_quantiles`` asked: the samples do not
    depend on the reference."""
    if nu.is_zero:
        return CdtResult.zero(cfg.n_quantiles)
    memo = nu.__dict__.get("_memo")
    if memo is None or memo[0] != cfg.n_quantiles:
        samples = measure_quantiles(nu, cfg.quantiles)
        memo = (cfg.n_quantiles,
                object.__new__(CdtResult)._store(samples=samples, mass=nu.total_mass))
        nu.__dict__["_memo"] = memo
    return memo[1]


def scdt_forward(s: SignedMeasure, cfg: TransformConfig) -> ScdtResult:
    """Part-wise transform of a signed measure through its Jordan
    decomposition."""
    return ScdtResult(cdt_positive(s.positive_part, cfg), cdt_positive(s.negative_part, cfg))


def scdt_forward_batch(
    samples: np.ndarray, t0: float, t1: float, cfg: TransformConfig
) -> np.ndarray:
    """Transform every row of ``samples`` (signals x bins), a density on the
    equal bins of ``[t0, t1]``, into the row (plus samples, plus mass, minus
    samples, minus mass) of length ``2 * n_quantiles + 2``.

    Row ``i`` equals ``scdt_forward(measure_from_density(GridDensity(t0, t1,
    samples[i])), cfg)`` bit for bit: a zero bin adds exactly 0.0 to the
    row-wise cumulative sums, so masses and levels are the same floats as
    for the per-signal atoms, and an empty part gets the (all-zero samples,
    mass 0) convention.  Instead of searching each level, the kernel counts
    the levels ``q_j * total`` below each bin's cumulative weight ``c``: the
    estimate ``ceil(c / total * M - 1/2)`` from the normalized weight is
    settled with one step each way against those exact levels, and each bin
    centre is repeated by its count.  The rows its screen flags (weights or
    part masses floating point may not hold, or a grid whose bin centres
    collide) are replayed through :func:`measure_from_density` and
    :func:`scdt_forward`, which raise their own :class:`RangeError` for a
    row that cannot be binned.
    """
    x = _as_float_array(samples, "density samples", finite=True)
    if x.ndim != 2:
        raise ValueError("samples must be a 2-D array (signals x bins) with at least one bin")
    n_signals, n_bins = x.shape
    t0, t1, _, width = _grid(t0, t1, n_bins)
    centers = _centres(t0, width, np.arange(n_bins))
    with np.errstate(over="ignore"):
        w = np.abs(x) * width
    m = cfg.n_quantiles
    # Per row and part: each bin centre and then the mass, with the number of times
    # each is written; one repeat writes every row.
    values = np.empty((n_signals, 2, n_bins + 1))
    counts = np.ones((n_signals, 2, n_bins + 1), dtype=np.intp)
    # On a grid whose bin centres collide only the atoms of a row show whether it fails.
    suspect = np.full(n_signals, not np.all(centers[1:] > centers[:-1]))
    # Weights measure_from_density refuses: below the smallest normal float, or overflowing.
    unfit = (w < SMALLEST_NORMAL) | ~np.isfinite(w)
    for part, mask in enumerate((x > 0, x < 0)):
        with np.errstate(over="ignore"):
            c = np.cumsum(np.where(mask, w, 0.0), axis=1)
        total = c[:, -1]
        suspect |= ~np.isfinite(total) | np.any(mask & unfit, axis=1)
        rows = total > 0  # weights of rows not replayed are normal: atoms exactly where total > 0
        # e[r, k] = #{j : q_j * total_r < c[r, k]}: the estimate from c / total in [0, 1]
        # is off by at most one, and one step each way against the exact levels
        # q_j * total = (j + 1/2) / M * total settles it.  The level past the last,
        # (M + 1/2) / M * total, may overflow, and a flagged row's infinite total gives
        # NaN.  An empty part counts against a total of 1.
        t = np.where(rows, total, 1.0)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.ceil(c / t * m - 0.5)
            e += (e + 0.5) / m * t < c
            e -= (e - 0.5) / m * t >= c
        # From a part's last atom on, c = total lies above the top level (M - 1/2) / M * total,
        # so e = M there; an empty part's counts are 0, and its M levels go to its last bin.
        e[:, -1] = m
        e[suspect] = m  # any valid counts: the replay overwrites the row
        e = e.astype(np.intp)
        values[:, part, :-1] = np.where(rows[:, None], centers, 0.0)
        values[:, part, -1] = total
        counts[:, part, 0] = e[:, 0]
        np.subtract(e[:, 1:], e[:, :-1], out=counts[:, part, 1:-1])
    out = np.repeat(values, counts.ravel()).reshape(n_signals, 2 * m + 2)
    for i in np.flatnonzero(suspect):
        r = scdt_forward(measure_from_density(GridDensity(t0, t1, x[i])), cfg)
        out[i] = np.concatenate((r.plus.samples, [r.plus.mass], r.minus.samples, [r.minus.mass]))
    return out


def cdt_inverse(c: CdtResult, cfg: TransformConfig) -> DiscreteMeasure:
    """Invert a positive-measure transform by pushing the normalized reference
    forward through the sampled quantile function: one atom of weight
    ``mass / M`` per sample, duplicates merged."""
    if c.samples.size != cfg.n_quantiles:
        raise ValueError(
            f"transform carries {c.samples.size} samples but the config expects "
            f"{cfg.n_quantiles}"
        )
    return pushforward(c.samples, c.mass)


def scdt_inverse(t: ScdtResult, cfg: TransformConfig) -> SignedMeasure:
    """Invert a signed-measure transform part-wise.

    The two reconstructed parts must have disjoint supports (mutual
    singularity); an exact support collision raises the
    :class:`SingularityError` of :class:`SignedMeasure`, and distinct
    supports closer than ``1e-9`` emit a :class:`SingularityWarning`.
    """
    plus, minus = cdt_inverse(t.plus, cfg), cdt_inverse(t.minus, cfg)
    gap = _support_gap(plus.locations, minus.locations)
    s = object.__new__(SignedMeasure)._store(positive_part=plus, negative_part=minus)
    if gap < COLLISION_WARN_GAP:
        warnings.warn(
            f"positive and negative supports are only {gap:.3g} apart; "
            "mutual singularity is numerically borderline",
            SingularityWarning,
            stacklevel=2,
        )
    return s
