"""Transport distances between measures and the matching transform-space norm.

In one dimension the 2-Wasserstein distance between probability measures is
the L2 distance between quantile functions; positive measures add a
mass-difference term, and signed measures combine the two Jordan parts.  The
transform-space L2 norm reproduces the signed distance exactly, which is what
makes transform vectors meaningful features for linear classifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import MetricDomainError
from .measures import DiscreteMeasure, SignedMeasure
from .transform import PROBABILITY_RTOL, ScdtResult, TransformConfig, cdt_positive

__all__ = [
    "DistanceReport",
    "w2",
    "d_w2",
    "d_s",
    "transform_l2",
]

DEFAULT_N_QUANTILES = 1024


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """A distance value together with the squared-sum breakdown it came from."""

    value: float
    components: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        value = float(self.value)
        if not (np.isfinite(value) and value >= 0):
            raise ValueError("distance value must be finite and nonnegative")
        if self.components is not None:
            total = sum(c * c for c in self.components.values())
            if not math.isclose(value * value, total, rel_tol=1e-9, abs_tol=1e-15):
                raise ValueError(
                    f"value^2 = {value * value} does not equal the sum of squared "
                    f"components {total}"
                )
        object.__setattr__(self, "value", value)


def _require_finite_atoms(m: DiscreteMeasure, name: str) -> None:
    if not m.is_zero and not np.all(np.isfinite(m.locations)):
        raise MetricDomainError(
            f"{name} has atoms at +-inf; its second moment is infinite"
        )


def _quantile_l2(nu: DiscreteMeasure, eta: DiscreteMeasure, n_quantiles: int) -> float:
    """Root mean square gap between the two measures' transform samples on
    the midpoint grid of ``n_quantiles`` levels."""
    cfg = TransformConfig(n_quantiles=n_quantiles)
    diff = cdt_positive(nu, cfg).samples - cdt_positive(eta, cfg).samples
    return float(np.sqrt(np.mean(diff * diff)))


def w2(nu: DiscreteMeasure, eta: DiscreteMeasure, n_quantiles: int = DEFAULT_N_QUANTILES) -> float:
    """2-Wasserstein distance between probability measures via the midpoint
    quantile rule: ``sqrt(mean_j |Fnu^-1(q_j) - Feta^-1(q_j)|^2)``."""
    for m, name in ((nu, "first argument"), (eta, "second argument")):
        if abs(m.total_mass - 1.0) > PROBABILITY_RTOL:
            raise MetricDomainError(
                f"w2 requires probability measures; {name} has mass {m.total_mass}"
            )
        _require_finite_atoms(m, name)
    return _quantile_l2(nu, eta, n_quantiles)


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
    _require_finite_atoms(nu, "first argument")
    _require_finite_atoms(eta, "second argument")
    quantile_term = _quantile_l2(nu, eta, n_quantiles)
    mass_term = abs(nu.total_mass - eta.total_mass)
    return DistanceReport(
        value=math.hypot(quantile_term, mass_term),
        components={"quantile": quantile_term, "mass": mass_term},
    )


def d_s(
    a: SignedMeasure, b: SignedMeasure, n_quantiles: int = DEFAULT_N_QUANTILES
) -> DistanceReport:
    """Distance between signed measures: the root of the summed squared
    positive-part and negative-part distances."""
    plus = d_w2(a.positive_part, b.positive_part, n_quantiles).value
    minus = d_w2(a.negative_part, b.negative_part, n_quantiles).value
    return DistanceReport(
        value=math.hypot(plus, minus),
        components={"plus": plus, "minus": minus},
    )


def transform_l2(t1: ScdtResult, t2: ScdtResult, cfg: TransformConfig) -> float:
    """Norm of a transform difference in (L2 of the reference x R) squared per
    part: the quantile blocks integrate against the reference mass, the mass
    channels contribute their plain squared gaps.

    For a probability reference this equals the signed-measure distance of the
    original measures (sampled on the same grid, the two are computed from
    identical floating-point quantile arrays).
    """
    if t1.n_quantiles != t2.n_quantiles or t1.n_quantiles != cfg.n_quantiles:
        raise ValueError("both transforms must live on the config's quantile grid")
    ref_mass = cfg.reference.total_mass
    total = 0.0
    for p1, p2 in ((t1.plus, t2.plus), (t1.minus, t2.minus)):
        if not (np.all(np.isfinite(p1.samples)) and np.all(np.isfinite(p2.samples))):
            raise MetricDomainError("transform samples at +-inf have no finite L2 norm")
        diff = p1.samples - p2.samples
        total += ref_mass * float(np.mean(diff * diff))
        total += (p1.mass - p2.mass) ** 2
    return math.sqrt(total)
