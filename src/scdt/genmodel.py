"""Transform-space laws under reparameterization and the synthetic
three-class signal generator.

A strictly increasing surjection ``g`` acts on a measure by relocating atoms
through ``g^-1`` (so the new CDF is the old one composed with ``g``); in
transform space the same action is simply ``g^-1`` applied to the quantile
samples with masses unchanged.  The signal generator draws affine
reparameterizations of three fixed signed templates and adds Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .measures import (
    DiscreteMeasure,
    GridDensity,
    SignedMeasure,
    _deposit,
    measure_from_density,
    rebin,
)
from .errors import RangeError, ScdtError
from .steps import ArrayLike, PiecewiseLinearMap, _Frozen, _along, _like, _real, _whole
from .transform import CdtResult, ScdtResult

__all__ = [
    "IncreasingReparam",
    "ClassTemplate",
    "GenConfig",
    "LabeledSignals",
    "TEMPLATES",
    "apply_reparam",
    "predict_transform_under_reparam",
    "generate_dataset",
]


@dataclass(frozen=True, eq=False)
class IncreasingReparam(_Frozen):
    """A strictly increasing surjection of the real line with an exact
    inverse, in one of three closed forms (a translation is the affine map
    of slope 1).

    Use the classmethod constructors; ``forward`` realizes ``g`` and
    ``inverse`` realizes ``g^-1`` (which equals the monotone generalized
    inverse ``g^+`` because ``g`` is continuous and strictly increasing).
    Either raises :class:`ValueError` where a point's image leaves float64.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    pwl: Optional[PiecewiseLinearMap] = None

    _KINDS = ("dilation", "affine", "piecewise_linear")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown reparameterization kind {self.kind!r}")
        if self.kind in ("dilation", "affine") and not (np.isfinite(self.a) and self.a > 0):
            raise ValueError("slope must be finite and positive for a strictly increasing map")
        if self.kind == "affine" and not np.isfinite(self.b):
            raise ValueError("offset must be finite")
        if self.kind == "piecewise_linear":
            if self.pwl is None or not np.all(self.pwl.slopes > 0):
                raise ValueError(
                    "piecewise-linear reparameterizations must be strictly increasing"
                )

    @classmethod
    def translation(cls, a: float) -> "IncreasingReparam":
        """``g(x) = x - a``: the transformed measure's atoms move by ``+a``."""
        return cls.affine(1.0, -float(a))

    @classmethod
    def dilation(cls, a: float) -> "IncreasingReparam":
        """``g(x) = x / a`` with ``a > 0``: atom locations scale by ``a``."""
        return cls("dilation", a=float(a))

    @classmethod
    def affine(cls, a: float, b: float) -> "IncreasingReparam":
        """``g(x) = a x + b`` with ``a > 0``."""
        return cls("affine", a=float(a), b=float(b))

    @classmethod
    def piecewise_linear(cls, xs: ArrayLike, ys: ArrayLike) -> "IncreasingReparam":
        """A strictly increasing piecewise-linear map through the given knots,
        extended with its end slopes; the inverse is the map's preimage."""
        return cls("piecewise_linear", pwl=PiecewiseLinearMap(xs, ys))

    def forward(self, x: ArrayLike) -> Union[float, np.ndarray]:
        if self.kind == "piecewise_linear":
            return self.pwl(x)
        xa, dilation = np.asarray(x, dtype=float), self.kind == "dilation"
        return _like(x, _along(-0.0 if dilation else self.b, 0.0, xa, self.a, divide=dilation))

    def inverse(self, y: ArrayLike) -> Union[float, np.ndarray]:
        if self.kind == "piecewise_linear":
            return self.pwl.preimage(y)
        ya, dilation = np.asarray(y, dtype=float), self.kind == "dilation"
        return _like(y, _along(-0.0, 0.0 if dilation else self.b, ya, self.a, divide=not dilation))

    __call__ = forward


def apply_reparam(s: SignedMeasure, g: IncreasingReparam) -> SignedMeasure:
    """The signed measure whose CDF is ``F_s`` composed with ``g``: every atom
    relocates through ``g^-1`` with its weight unchanged, part by part.  Part
    masses are conserved exactly unless rounding in ``g^-1`` collapses
    neighboring atoms, in which case their weights merge first."""

    def move(part: DiscreteMeasure) -> DiscreteMeasure:
        if part.is_zero:
            return DiscreteMeasure.zero()
        return DiscreteMeasure.from_atoms(g.inverse(part.locations), part.weights)

    return SignedMeasure(move(s.positive_part), move(s.negative_part))


def predict_transform_under_reparam(t: ScdtResult, g: IncreasingReparam) -> ScdtResult:
    """The transform of ``apply_reparam(s, g)`` computed directly in transform
    space: ``g^-1`` applied to the quantile samples, masses unchanged."""

    def move(part: CdtResult) -> CdtResult:
        if part.is_zero:
            return part
        return CdtResult(np.asarray(g.inverse(part.samples), dtype=float), part.mass)

    return ScdtResult(move(t.plus), move(t.minus))


# --- signal templates -------------------------------------------------------

#: Geometry of the three class templates.  The Gaussian window sits at the
#: midpoint of the default grid, is truncated at three standard deviations,
#: and the carrier completes three periods across the truncated window; the
#: narrow support keeps every affinely reparameterized copy inside the default
#: grid for the default (a, b) ranges.
WINDOW_CENTER = 2.25
WINDOW_SIGMA = 0.25
WINDOW_HALF_WIDTH = 3 * WINDOW_SIGMA
CARRIER_PERIOD = 2 * WINDOW_HALF_WIDTH / 3


def _window(t: np.ndarray) -> np.ndarray:
    u = t - WINDOW_CENTER
    w = np.exp(-0.5 * (u / WINDOW_SIGMA) ** 2)
    return np.where(np.abs(u) <= WINDOW_HALF_WIDTH, w, 0.0)


def _phase(t: np.ndarray) -> np.ndarray:
    return 2 * np.pi * (t - WINDOW_CENTER) / CARRIER_PERIOD


@dataclass(frozen=True, eq=False)
class ClassTemplate(_Frozen):
    """A named closed-form signed signal template evaluated on a grid."""

    name: str
    generator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.generator(np.asarray(t, dtype=float))


# The sawtooth (width 1) and square (duty 0.5) carriers in their standard closed
# forms: a ramp rising from -1 over each period, and +1 on its first half.
TEMPLATES: Tuple[ClassTemplate, ...] = (
    ClassTemplate("gabor", lambda t: np.cos(_phase(t)) * _window(t)),
    ClassTemplate("sawtooth", lambda t: (np.mod(_phase(t), 2 * np.pi) / np.pi - 1) * _window(t)),
    ClassTemplate(
        "square", lambda t: np.where(np.mod(_phase(t), 2 * np.pi) < np.pi, 1.0, -1.0) * _window(t)
    ),
)


@dataclass(frozen=True, eq=False)
class GenConfig(_Frozen):
    """Configuration of the synthetic dataset: grid, affine-parameter ranges,
    noise level, class sizes, and seed.

    Each signal is a template pushed through a random ``h(t) = a t + b``
    (acting on the measure by atom relocation through ``h^-1``) plus white
    Gaussian noise on the density samples.  Each field is checked in field order
    and stored converted: ``t0``, ``t1``, ``noise_sigma`` as floats, each range as
    a pair of floats, the counts and seed as ints; a refusal names its field.
    """

    t0: float = -0.5
    t1: float = 5.0
    n_grid: int = 256
    a_range: Tuple[float, float] = (0.75, 2.0)
    b_range: Tuple[float, float] = (-0.25, 0.25)
    noise_sigma: float = 0.02
    per_class: Union[int, Tuple[int, ...]] = (167, 167, 166)
    seed: int = 0

    def __post_init__(self) -> None:
        t0, t1 = _real(self.t0, "t0"), _real(self.t1, "t1")
        if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
            raise ValueError("need finite t0 < t1")
        n_grid = _whole(self.n_grid, "n_grid")
        if n_grid < 1:
            raise ValueError("n_grid must be at least 1")
        ranges = {}
        for name in ("a_range", "b_range"):
            pair = getattr(self, name)
            pair = pair.tolist() if isinstance(pair, np.ndarray) else pair
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"{name} must be a two-entry array")
            lo, hi = ranges[name] = (_real(pair[0], name), _real(pair[1], name))
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi and np.isfinite(hi - lo)):
                raise ValueError(f"{name} must be a finite nonempty interval of finite width")
        if ranges["a_range"][0] <= 0:
            raise ValueError("a_range must be positive (strictly increasing reparameterizations)")
        noise_sigma = _real(self.noise_sigma, "noise_sigma")
        if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and nonnegative")
        counts = self.per_class
        if not isinstance(counts, (list, tuple)) and np.ndim(counts) == 0:
            counts = (counts,) * len(TEMPLATES)
        counts = tuple(_whole(c, "per_class") for c in counts)
        if len(counts) != len(TEMPLATES):
            raise ValueError(f"per_class must give one count per class ({len(TEMPLATES)})")
        if any(c < 1 for c in counts):
            raise ValueError("per_class counts must be positive")
        seed = _whole(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative whole number, got {seed}")
        self._store(t0=t0, t1=t1, n_grid=n_grid, **ranges, noise_sigma=noise_sigma,
                    per_class=counts, seed=seed)

    @property
    def n_signals(self) -> int:
        return sum(self.per_class)


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as an int array, refused unless each is a whole number int64 holds."""
    labels = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # a label that int64 cannot hold casts to another
        if labels.dtype.kind not in "biuf" or not np.array_equal(labels.astype(int), labels):
            raise ValueError("labels must be integers")
    return np.asarray(labels, dtype=int)


@dataclass(frozen=True, eq=False)
class LabeledSignals(_Frozen):
    """Labeled signals on one grid ``[t0, t1]`` as arrays: int ``labels`` and
    read-only ``samples``, one density per row.  It reads as the sequence of
    its ``(label, GridDensity)`` pairs."""

    labels: np.ndarray
    t0: float
    t1: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        labels = _integer_labels(self.labels)
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or labels.ndim != 1 or labels.size != samples.shape[0]:
            raise ValueError("samples must be (n_signals, n_bins) with one label per row")
        if 0 in samples.shape:
            raise ValueError("samples must be (n_signals, n_bins) with at least one of each")
        grid = GridDensity(self.t0, self.t1, samples.reshape(-1))  # its grid and sample checks
        self._store(labels=labels, t0=grid.t0, t1=grid.t1, samples=samples)

    def __len__(self) -> int:
        return self.labels.size

    def __getitem__(self, i: int) -> Tuple[int, GridDensity]:
        return int(self.labels[i]), GridDensity(self.t0, self.t1, self.samples[i])


def generate_dataset(cfg: GenConfig) -> LabeledSignals:
    """Generate labeled noisy signals, class by class, deterministically under
    the config seed, as one :class:`LabeledSignals` in generation order.

    Each signal is ``rebin(apply_reparam(template measure, affine(a, b)))``
    plus noise, computed for a whole class at once; a signal whose warped
    atoms merge or leave the grid (or float64) is recomputed on that
    per-signal path, which merges the atoms or raises for it."""
    rng = np.random.default_rng(cfg.seed)
    t0, t1, n = cfg.t0, cfg.t1, cfg.n_grid
    centers = GridDensity(t0, t1, np.zeros(n)).bin_centers()
    samples, start = np.empty((cfg.n_signals, n)), 0
    (a_lo, a_hi), (b_lo, b_hi) = cfg.a_range, cfg.b_range
    for label, template in enumerate(TEMPLATES):
        base = measure_from_density(GridDensity(t0, t1, template(centers)))
        count = cfg.per_class[label]
        a, b, rows = np.empty(count), np.empty(count), samples[start:start + count]
        start += count
        # One signal at a time draws a, b, then its noise: keep that order.  These are the
        # variates of rng.uniform and rng.normal(0.0, sigma), scaled as those scale them.
        for i in range(count):
            a[i], b[i] = rng.random(), rng.random()
            rng.standard_normal(out=rows[i])
        a, b = a_lo + (a_hi - a_lo) * a, b_lo + (b_hi - b_lo) * b
        with np.errstate(over="ignore"):  # noise beyond float64 is refused as not finite
            rows *= cfg.noise_sigma
        rows += 0.0  # 0.0 + sigma * variate, so -0.0 becomes 0.0 as in rng.normal
        for i in np.flatnonzero(~_warp_and_rebin(base, a, b, t0, t1, rows)):
            try:
                warped = apply_reparam(base, IncreasingReparam.affine(a[i], b[i]))
            except ScdtError:
                raise
            except ValueError:  # a warped location leaves float64, so it lies off the grid
                raise RangeError(
                    f"atoms outside the grid [{t0}, {t1}] cannot be rebinned") from None
            rows[i] += rebin(warped, t0, t1, n).samples
    return LabeledSignals(np.repeat(np.arange(len(TEMPLATES)), cfg.per_class), t0, t1, samples)


def _warp_and_rebin(
    base: SignedMeasure, a: np.ndarray, b: np.ndarray, t0: float, t1: float, out: np.ndarray
) -> np.ndarray:
    """Adds ``rebin(apply_reparam(base, IncreasingReparam.affine(a[i], b[i])),
    t0, t1, n).samples`` to row ``i`` of ``out`` wherever row ``i`` of the
    returned mask is True: the warped atoms stay strictly increasing and on
    the grid, so no weights merge and ``rebin``'s deposit adds them as is."""
    pos, neg = base.positive_part, base.negative_part
    locations = np.concatenate((pos.locations, neg.locations))
    with np.errstate(over="ignore"):  # a row that overflows is not exact
        warped = (locations - b[:, None]) / a[:, None]
    ordered = warped[:, np.argsort(locations)]
    exact = np.all(ordered[:, 1:] > ordered[:, :-1], axis=1) & np.all(
        (warped >= t0) & (warped <= t1), axis=1
    )
    n = out.shape[1]
    pos_locs, neg_locs = np.split(warped[exact], [pos.weights.size], axis=1)
    atoms = [(pos_locs, pos.weights), (neg_locs, neg.weights)]
    out[exact] += _deposit(atoms, t0, (t1 - t0) / n, n)
    return exact
