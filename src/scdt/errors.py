"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "ScdtError",
    "ParseError",
    "InvalidReferenceError",
    "SingularityError",
    "RangeError",
    "MetricDomainError",
    "SingularityWarning",
]


class ScdtError(ValueError):
    """Base class for all errors raised by this package."""


class ParseError(ScdtError):
    """A file or textual configuration could not be parsed."""


class InvalidReferenceError(ScdtError):
    """A reference-measure specification is not atomless / strictly increasing."""


class SingularityError(ScdtError):
    """Positive and negative parts of a signed measure share support."""


class RangeError(ScdtError):
    """Atoms fall outside the requested grid (including infinite locations), or atoms do not
    fit in floating point: weights that underflow to 0 or overflow (a density's, or mass / M
    on inversion), a density's weight below the smallest normal float, bin centres that
    collide, or a part mass that overflows."""


class MetricDomainError(ScdtError):
    """A distance was requested outside its domain (e.g. w2 of a signed input)."""


class SingularityWarning(UserWarning):
    """Positive and negative supports come numerically close without touching."""
