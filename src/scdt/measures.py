"""Finite positive and signed measures on the extended real line.

Measures are finite lists of weighted atoms (locations sorted strictly
increasing, ``+-inf`` locations allowed).  Sampled signals convert to signed
measures by midpoint binning; atomless reference measures are given by
continuous strictly-increasing piecewise-linear CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .errors import InvalidReferenceError, RangeError, SingularityError
from .steps import (
    ArrayLike, PiecewiseLinearMap, StepFunction, _Frozen, _geninv_search, _steps, _whole,
)

__all__ = [
    "DiscreteMeasure",
    "SignedMeasure",
    "GridDensity",
    "ReferenceMeasure",
    "cdf",
    "measure_from_density",
    "pushforward",
    "rebin",
    "measure_quantiles",
]

#: Relative slack allowed between a stored total mass and the sum of weights.
MASS_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteMeasure(_Frozen):
    """A finite positive measure given by sorted weighted atoms.

    The zero measure is the empty atom list.  Atoms at ``+-inf`` are
    representable (the extended-real theory needs them) but are rejected by
    grid re-binning and by second-moment metrics.
    """

    locations: np.ndarray
    weights: np.ndarray
    total_mass: Optional[float] = None

    def __post_init__(self) -> None:
        locs = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if locs.ndim != 1 or w.ndim != 1 or locs.size != w.size:
            raise ValueError("locations and weights must be 1-D arrays of equal length")
        if np.any(np.isnan(locs)) or np.any(np.isnan(w)):
            raise ValueError("atoms must not contain NaN")
        if locs.size > 1 and not np.all(locs[1:] > locs[:-1]):
            raise ValueError("atom locations must be strictly increasing (merge duplicates first)")
        if np.any(w <= 0) or np.any(~np.isfinite(w)):
            raise ValueError("atom weights must be finite and positive")
        total = _checked_total(self.total_mass, w)
        self._store(locations=locs, weights=w, total_mass=total)

    @classmethod
    def from_atoms(cls, locations: ArrayLike, weights: ArrayLike) -> "DiscreteMeasure":
        """Build a measure from unsorted atoms: sorts, merges duplicate
        locations by summing weights, and drops zero-weight atoms."""
        locs = np.asarray(locations, dtype=float)
        w = np.asarray(weights, dtype=float)
        if locs.shape != w.shape or locs.ndim != 1:
            raise ValueError("locations and weights must be 1-D arrays of equal length")
        if np.any(w < 0):
            raise ValueError("atom weights must be nonnegative")
        keep = w > 0
        locs, w = locs[keep], w[keep]
        uniq, inverse = np.unique(locs, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inverse, w)
        return cls(uniq, merged)

    @classmethod
    def zero(cls) -> "DiscreteMeasure":
        return cls(np.empty(0), np.empty(0))

    @property
    def is_zero(self) -> bool:
        return self.weights.size == 0

    def scaled(self, factor: float) -> "DiscreteMeasure":
        """The measure with every weight multiplied by ``factor > 0``."""
        if factor <= 0 or not np.isfinite(factor):
            raise ValueError("scale factor must be finite and positive")
        if self.is_zero:
            return DiscreteMeasure.zero()
        with np.errstate(over="ignore"):
            weights = self.weights * factor
        if weights.max() == np.inf:
            raise RangeError(f"scaling the atom weights by {factor} overflows float64")
        return DiscreteMeasure(self.locations, weights)


@dataclass(frozen=True, eq=False)
class SignedMeasure(_Frozen):
    """A signed measure stored as its Jordan decomposition: a pair of
    mutually singular positive measures (disjoint atom supports)."""

    positive_part: DiscreteMeasure
    negative_part: DiscreteMeasure

    def __post_init__(self) -> None:
        _support_gap(self.positive_part.locations, self.negative_part.locations)

    @classmethod
    def zero(cls) -> "SignedMeasure":
        return cls(DiscreteMeasure.zero(), DiscreteMeasure.zero())

    @property
    def total_variation(self) -> float:
        """Total variation norm: positive mass plus negative mass."""
        return self.positive_part.total_mass + self.negative_part.total_mass


@dataclass(frozen=True, eq=False)
class GridDensity(_Frozen):
    """A signed piecewise-constant density on ``N`` equal bins of
    ``[t0, t1]``; ``samples[i]`` is the density value on bin ``i``."""

    t0: float
    t1: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        t0, t1 = float(self.t0), float(self.t1)
        if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
            raise ValueError("need finite t0 < t1")
        _check_span(t0, t1)
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a 1-D array with at least one bin")
        if not np.all(np.isfinite(samples)):
            raise ValueError("density samples must be finite")
        self._store(t0=t0, t1=t1, samples=samples)

    @property
    def n_bins(self) -> int:
        return self.samples.size

    @property
    def bin_width(self) -> float:
        return (self.t1 - self.t0) / self.samples.size

    def bin_centers(self) -> np.ndarray:
        return self.t0 + (np.arange(self.samples.size) + 0.5) * self.bin_width


@dataclass(frozen=True, eq=False)
class ReferenceMeasure(_Frozen):
    """An atomless positive measure with a continuous piecewise-linear CDF,
    strictly increasing on its support ``[xs[0], xs[-1]]`` and constant
    outside.  ``ys`` are the CDF knot values: ``ys[0] = 0`` and
    ``ys[-1]`` equals the total mass."""

    xs: np.ndarray
    ys: np.ndarray
    _cdf: PiecewiseLinearMap = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            cdf = PiecewiseLinearMap(self.xs, self.ys)
        except ValueError as exc:
            raise InvalidReferenceError(f"reference CDF knots: {exc}") from exc
        if not (cdf.slopes > 0).all():
            raise InvalidReferenceError(
                "reference CDF must be strictly increasing on its support "
                "(an atomless measure admits no flat or jumping CDF)"
            )
        if cdf.ys[0] != 0:
            raise InvalidReferenceError("reference CDF must start at 0")
        self._store(xs=cdf.xs, ys=cdf.ys, _cdf=cdf)

    @classmethod
    def uniform(cls, a: float = 0.0, b: float = 1.0, mass: float = 1.0) -> "ReferenceMeasure":
        """The uniform measure of total ``mass`` on ``[a, b]``."""
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InvalidReferenceError("need finite a < b")
        if not (np.isfinite(mass) and mass > 0):
            raise InvalidReferenceError("mass must be finite and positive")
        return cls(np.array([a, b]), np.array([0.0, mass]))

    @property
    def total_mass(self) -> float:
        return float(self.ys[-1])

    @property
    def support(self) -> Tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    def cdf_eval(self, x: ArrayLike) -> Union[float, np.ndarray]:
        """CDF value at ``x``: 0 left of the support, total mass right of it."""
        return self._cdf(np.clip(x, self.xs[0], self.xs[-1]))

    def quantile(self, p: ArrayLike) -> Union[float, np.ndarray]:
        """Exact inverse of the normalized CDF at ``p`` in ``[0, 1]``: the
        preimage of ``p * total_mass`` under the CDF."""
        pa = np.asarray(p, dtype=float)
        if np.any(np.isnan(pa)) or np.any(pa < 0) or np.any(pa > 1):
            raise ValueError("quantile levels must lie in [0, 1]")
        return self._cdf.preimage(pa * self.total_mass)


def cdf(m: DiscreteMeasure) -> StepFunction:
    """The right-continuous CDF ``F(x) = m([-inf, x])`` as a step function.

    An atom at ``-inf`` lifts the head value; an atom at ``+inf`` appears only
    in the value at the point ``+inf``, so ``F(+inf)`` is the stored total
    mass (the value after the last finite atom where the stored mass rounds
    below the summed weights).
    """
    return _steps(m.locations, np.cumsum(m.weights), 0.0, m.total_mass)


def measure_from_density(d: GridDensity) -> SignedMeasure:
    """Convert a sampled density to a signed measure by midpoint binning:
    bin ``i`` contributes an atom at its center with weight
    ``|samples[i]| * bin_width`` to the part matching its sign; zero bins are
    dropped, so the two parts are mutually singular by construction.

    Raises :class:`RangeError` where floating point cannot hold the atoms: a
    weight that underflows to 0 or overflows, colliding bin centres, or a part
    mass that overflows."""
    width = d.bin_width
    # Centre i, bin_centers()[i], is t0 + (i + 0.5) * width rounded twice and non-decreasing
    # in i; two centres can round to one float only if width is within a few ulps of them.
    collide = not width > 4 * np.spacing(abs(d.t0) + 2 * d.n_bins * width)
    collide = collide and not np.all(np.diff(d.bin_centers()[d.samples != 0]) > 0)
    parts = []
    for i in (np.flatnonzero(d.samples > 0), np.flatnonzero(d.samples < 0)):
        w, centres = d.samples[i], i + 0.5
        np.abs(w, out=w)
        centres *= width
        centres += d.t0
        with np.errstate(over="ignore"):
            w *= width
            csum = _running_sum(w)
        parts.append(object.__new__(DiscreteMeasure)._store(
            locations=centres, weights=w, total_mass=float(csum[-1])))
        if w.size:  # for the first measure_quantiles call on the part
            parts[-1].__dict__["_csum"] = csum
    for failed, cause in (
        (collide, "bin centres collide in floating point"),
        (any(np.any(p.weights == 0) for p in parts),
         "a nonzero density value times the bin width underflows to 0"),
        (not all(np.all(np.isfinite(p.weights)) for p in parts),
         "a density value times the bin width overflows"),
        (not all(np.isfinite(p.total_mass) for p in parts), "the total mass of a part overflows"),
    ):
        if failed:
            raise RangeError(f"cannot bin the density: {cause}")
    return object.__new__(SignedMeasure)._store(positive_part=parts[0], negative_part=parts[1])


def pushforward(samples: ArrayLike, mass: float) -> DiscreteMeasure:
    """The empirical push-forward of the normalized reference through a
    non-decreasing quantile-sampled map: one atom of weight ``mass / M`` per
    sample, duplicates merged exactly.  ``mass = 0`` gives the zero measure."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("samples must be a non-empty 1-D array")
    if np.any(np.isnan(arr)):
        raise ValueError("samples must not contain NaN")
    if arr.size > 1 and np.any(arr[1:] < arr[:-1]):
        raise ValueError("samples must be non-decreasing")
    mass = float(mass)
    if not 0 <= mass < np.inf:
        raise ValueError("mass must be finite and nonnegative")
    if mass == 0:
        return DiscreteMeasure.zero()
    starts = np.flatnonzero(np.concatenate(([True], arr[1:] != arr[:-1])))
    weights = np.diff(np.append(starts, arr.size)) * (mass / arr.size)
    for failed, cause in ((mass / arr.size == 0, "underflows to 0"),
                          (not np.all(np.isfinite(weights)), "times a count overflows")):
        if failed:
            raise RangeError(f"cannot push mass {mass} onto {arr.size} samples: mass / M {cause}")
    return object.__new__(DiscreteMeasure)._store(locations=arr[starts], weights=weights,
                                                  total_mass=_checked_total(mass, weights))


def _checked_total(total_mass: Optional[float], w: np.ndarray) -> float:
    """The cumulative sum of ``w``, or ``total_mass`` once checked against their
    sum; :class:`RangeError`, with no warning first, where either is not finite."""
    with np.errstate(over="ignore"):
        # Pairwise summation errs by about log(n) * eps; a cumulative sum
        # by up to n * eps, beyond MASS_RTOL for 1e5 equal weights.
        computed = float(_running_sum(w)[-1] if total_mass is None else np.sum(w))
    total = computed if total_mass is None else float(total_mass)
    if not (np.isfinite(total) and np.isfinite(computed)):
        raise RangeError("the total mass of the atoms overflows float64")
    if abs(total - computed) > MASS_RTOL * max(abs(total), abs(computed), 1.0):
        raise ValueError(f"total_mass {total} does not match the sum of weights {computed}")
    return total


def _running_sum(w: np.ndarray) -> np.ndarray:
    """``[0, *cumsum(w)]``, written once."""
    csum = np.zeros(w.size + 1)
    np.cumsum(w, out=csum[1:])
    return csum


def _check_span(t0: float, t1: float) -> None:
    if t1 - t0 == np.inf:  # t0 < t1 are finite
        raise ValueError(f"the grid span t1 - t0 of [{t0}, {t1}] overflows float64")


def _support_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest gap between entries of two strictly increasing arrays, from one
    search of ``a`` in ``b``; a shared entry raises :class:`SingularityError`."""
    if not a.size or not b.size:
        return np.inf
    idx = np.searchsorted(b, a)
    above = b.take(idx, mode="clip")  # b[-1] < a where idx == b.size
    common = above == a
    if np.any(common):
        raise SingularityError(f"positive and negative parts share {np.count_nonzero(common)} "
                               f"atom location(s), e.g. {a[common][0]}")
    idx -= 1
    below = b.take(idx, mode="clip")  # b[0] >= a where idx == -1
    # Unequal entries of which one is infinite, or whose gap overflows, are infinitely far apart.
    with np.errstate(over="ignore"):
        above -= a
        below -= a
    return float(min(np.abs(above, out=above).min(), np.abs(below, out=below).min()))


def rebin(m: SignedMeasure, t0: float, t1: float, n_bins: int) -> GridDensity:
    """Deposit a signed measure's atoms on ``n_bins`` equal bins of
    ``[t0, t1]`` and return the resulting density (positive minus negative
    mass per bin, divided by the bin width).

    Raises :class:`RangeError` for atoms outside the grid, including
    infinite locations.
    """
    t0, t1 = float(t0), float(t1)
    n_bins = _whole(n_bins, "n_bins")
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1 and n_bins >= 1):
        raise ValueError("need finite t0 < t1 and n_bins >= 1")
    _check_span(t0, t1)
    parts = (m.positive_part, m.negative_part)
    for locs in (part.locations for part in parts if not part.is_zero):
        # Strictly increasing: the ends are the extremes.
        if not (np.isfinite(locs[0]) and np.isfinite(locs[-1])):
            raise RangeError("cannot rebin atoms at +-inf onto a finite grid")
        if locs[0] < t0 or locs[-1] > t1:
            raise RangeError(f"atoms outside the grid [{t0}, {t1}] cannot be rebinned")
    atoms = [(part.locations[None], part.weights) for part in parts]
    return GridDensity(t0, t1, _deposit(atoms, t0, (t1 - t0) / n_bins, n_bins)[0])


def _deposit(parts, t0: float, width: float, n_bins: int) -> np.ndarray:
    """Rows of density on ``n_bins`` bins of ``width`` from ``t0``: per bin, positive
    minus negative weight, over the width.  ``parts`` holds the positive then the
    negative ``(locations, weights)``: a row of locations per density row, checked to
    lie on the grid (the right edge falls in the last bin), and weights shared by every
    row.  Each part is one ``bincount`` over ``row * n_bins + bin``, in atom order."""
    masses = []
    for locs, weights in parts:
        bins = locs - t0
        bins /= width
        bins = np.minimum(bins, n_bins - 1, out=bins).astype(int)
        bins += n_bins * np.arange(len(locs))[:, None]
        weights = np.broadcast_to(weights, bins.shape).ravel()
        size = len(locs) * n_bins
        # An empty index counts in int64 whatever the weights: no rows, or no atoms.
        masses.append(np.bincount(bins.ravel(), weights, size) if bins.size else np.zeros(size))
    density = masses[0]
    density -= masses[1]
    density /= width
    return density.reshape(-1, n_bins)


def measure_quantiles(m: DiscreteMeasure, q: np.ndarray) -> np.ndarray:
    """Values of the generalized inverse CDF of the *normalized* measure at
    quantile levels ``q`` in ``(0, 1)``: the atom location where the
    cumulative weight first exceeds ``q * total``.

    This is the generalized inverse of the CDF (the same search as
    :meth:`StepFunction.geninv_eval`), clamped to the last atom where rounding
    leaves ``q * total`` at or above the summed weights.
    """
    if m.is_zero:
        raise ValueError("the zero measure has no quantile function")
    # The running sum measure_from_density left for the first search; one pop, so one taker.
    csum = m.__dict__.pop("_csum", None)
    csum = _running_sum(m.weights) if csum is None else csum
    out = _geninv_search(csum, m.locations, np.asarray(q, dtype=float) * csum[-1])
    return np.minimum(out, m.locations[-1], out=out)[()]  # a numpy float for a scalar q
