"""Transport distances between measures and the matching transform-space norm.

In one dimension the 2-Wasserstein distance between probability measures is
the L2 distance between quantile functions; positive measures add a
mass-difference term, and signed measures combine the two Jordan parts.  All
four distances come from one overflow-safe kernel on transform samples, so the
transform-space L2 norm reproduces the signed distance bit for bit, which is
what makes transform vectors meaningful features for linear classifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import MetricDomainError
from .measures import DiscreteMeasure, SignedMeasure
from .transform import (
    DEFAULT_N_QUANTILES, PROBABILITY_RTOL, CdtResult, ScdtResult, TransformConfig, cdt_positive,
)

__all__ = ["DistanceReport", "w2", "d_w2", "d_s", "transform_l2"]


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """A distance value and the components it is the Euclidean norm of."""

    value: float
    components: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        value = float(self.value)
        if not (np.isfinite(value) and value >= 0):
            raise ValueError("distance value must be finite and nonnegative")
        if self.components is not None:
            norm = math.hypot(*self.components.values())
            if not math.isclose(value, norm, rel_tol=5e-10):
                raise ValueError(f"value {value} is not the norm {norm} of the components")
        object.__setattr__(self, "value", value)


def _require_finite_atoms(m: DiscreteMeasure, name: str) -> None:
    if not m.is_zero and not np.all(np.isfinite(m.locations)):
        raise MetricDomainError(f"{name} has atoms at +-inf; its second moment is infinite")


def _gaps(c1: CdtResult, c2: CdtResult, weight: float = 1.0) -> Tuple[float, float]:
    """The root mean square gap between two transforms' samples times
    ``weight``, and their mass gap.  The differences are scaled by the power
    of two of their largest magnitude before squaring, so no square
    overflows or underflows; the scaling is exact, so wherever the unscaled
    squares are normal floats the gap is ``weight * sqrt(mean(diff ** 2))``
    bit for bit.  A gap past the largest float raises; one between distinct
    samples below the smallest positive float rounds up to it, never to 0."""
    with np.errstate(over="ignore"):  # a difference that overflows raises below
        d = c1.samples - c2.samples
        big = max(float(d.max()), -float(d.min()))
        # big * 2**-e lies in [1, 2), or below 1 where big is subnormal: 2**-e stays finite.
        e = max(math.frexp(big)[1] - 1, -1022)
        d *= math.ldexp(1.0, -e)
        gap = weight * math.sqrt(np.mean(d * d)) * math.ldexp(1.0, e)
    if gap == math.inf:
        raise MetricDomainError("the quantile gap overflows float64")
    return (max(gap, math.ulp(0.0)) if big > 0 else gap), abs(c1.mass - c2.mass)


def _hypot(x: float, y: float) -> float:
    value = math.hypot(x, y)
    if value == math.inf:
        raise MetricDomainError("the distance overflows float64")
    return value


def w2(nu: DiscreteMeasure, eta: DiscreteMeasure, n_quantiles: int = DEFAULT_N_QUANTILES) -> float:
    """2-Wasserstein distance between probability measures via the midpoint
    quantile rule: ``sqrt(mean_j |Fnu^-1(q_j) - Feta^-1(q_j)|^2)``."""
    for m, name in ((nu, "first argument"), (eta, "second argument")):
        if abs(m.total_mass - 1.0) > PROBABILITY_RTOL:
            raise MetricDomainError(
                f"w2 requires probability measures; {name} has mass {m.total_mass}"
            )
        _require_finite_atoms(m, name)
    cfg = TransformConfig(n_quantiles=n_quantiles)
    return _gaps(cdt_positive(nu, cfg), cdt_positive(eta, cfg))[0]


def d_w2(
    nu: DiscreteMeasure, eta: DiscreteMeasure, n_quantiles: int = DEFAULT_N_QUANTILES
) -> DistanceReport:
    """Distance between finite positive measures: the Wasserstein distance of
    the normalized shapes combined with the total-mass gap.

    The zero measure's quantile samples are all zero (the transform's
    convention), so when exactly one argument is zero the quantile term is the
    L2 norm of the other's normalized quantile function; between two zero
    measures the distance is 0.
    """
    return _d_w2(nu, eta, TransformConfig(n_quantiles=n_quantiles))


def _d_w2(nu: DiscreteMeasure, eta: DiscreteMeasure, cfg: TransformConfig) -> DistanceReport:
    _require_finite_atoms(nu, "first argument")
    _require_finite_atoms(eta, "second argument")
    quantile, mass = _gaps(cdt_positive(nu, cfg), cdt_positive(eta, cfg))
    return DistanceReport(_hypot(quantile, mass), {"quantile": quantile, "mass": mass})


def d_s(
    a: SignedMeasure, b: SignedMeasure, n_quantiles: int = DEFAULT_N_QUANTILES
) -> DistanceReport:
    """Distance between signed measures: the root of the summed squared
    positive-part and negative-part distances."""
    cfg = TransformConfig(n_quantiles=n_quantiles)
    plus = _d_w2(a.positive_part, b.positive_part, cfg).value
    minus = _d_w2(a.negative_part, b.negative_part, cfg).value
    return DistanceReport(_hypot(plus, minus), {"plus": plus, "minus": minus})


def transform_l2(t1: ScdtResult, t2: ScdtResult, cfg: TransformConfig) -> float:
    """Norm of a transform difference in (L2 of the reference x R) squared per
    part: the quantile blocks integrate against the reference mass, the mass
    channels contribute their plain gaps.

    Under a unit-mass reference this equals the signed-measure distance of
    the original measures bit for bit: both come from the same kernel on
    identical floating-point quantile arrays.
    """
    if t1.n_quantiles != t2.n_quantiles or t1.n_quantiles != cfg.n_quantiles:
        raise ValueError("both transforms must live on the config's quantile grid")
    weight = math.sqrt(cfg.reference.total_mass)
    parts = []
    for p1, p2 in ((t1.plus, t2.plus), (t1.minus, t2.minus)):
        if not (np.all(np.isfinite(p1.samples)) and np.all(np.isfinite(p2.samples))):
            raise MetricDomainError("transform samples at +-inf have no finite L2 norm")
        parts.append(_hypot(*_gaps(p1, p2, weight)))
    return _hypot(*parts)
