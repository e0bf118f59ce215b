"""Right-continuous step functions on the extended real line, their monotone
generalized inverses, and continuous piecewise-linear monotone maps.

These are the computational kernel of every transform in the package: CDFs of
discrete measures are step functions, quantile functions are their generalized
inverses, and reparameterizations/reference CDFs are piecewise-linear maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

__all__ = [
    "NEG_INF",
    "POS_INF",
    "StepFunction",
    "PiecewiseLinearMap",
    "compose",
]

#: Sentinels for the two endpoints of the extended real line.  IEEE infinities
#: keep comparisons total and vectorize; arithmetic on them is never performed
#: by this module beyond comparisons and storage.
NEG_INF: float = float("-inf")
POS_INF: float = float("inf")

ArrayLike = Union[float, int, np.ndarray]


def _as_float_array(x: ArrayLike, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} must not contain NaN")
    return arr


def _geninv_search(values: np.ndarray, breakpoints: np.ndarray, y: ArrayLike) -> np.ndarray:
    """``inf{x : F(x) > y}`` for the non-decreasing step function taking
    ``values[0]`` left of ``breakpoints[0]`` and ``values[i]`` from
    ``breakpoints[i-1]`` on: the first value strictly above ``y`` is taken
    from the preceding breakpoint, ``-inf`` before the first and ``+inf``
    when no value exceeds ``y``.

    The one generalized-inverse search of the package, shared by
    :meth:`StepFunction.geninv_eval` and :func:`measure_quantiles`, which the
    batched grid transform replays for the rows its counts cannot settle.
    """
    j = np.searchsorted(values, y, side="right")
    return np.concatenate(([NEG_INF], breakpoints, [POS_INF]))[j]


@dataclass(frozen=True, eq=False)
class StepFunction:
    """A right-continuous non-decreasing step function on ``[-inf, +inf]``.

    ``values[0]`` is taken on ``[-inf, breakpoints[0])``, ``values[i]`` on
    ``[breakpoints[i-1], breakpoints[i])`` and ``values[-1]`` on
    ``[breakpoints[-1], +inf)``.  The function may take a distinct value at
    the single point ``+inf`` (``value_at_pos_inf``), which is how a CDF
    carries the ``F(+inf) = +inf`` convention required for the double
    generalized inverse to be an involution; right-continuity rules out an
    analogous field at ``-inf``.

    Parameters
    ----------
    breakpoints:
        Strictly increasing finite reals (possibly empty).
    values:
        ``len(breakpoints) + 1`` non-decreasing values; ``+-inf`` entries are
        allowed.
    value_at_pos_inf:
        Value at the point ``+inf``, not below ``values[-1]`` (the default).
    """

    breakpoints: np.ndarray
    values: np.ndarray
    value_at_pos_inf: Optional[float] = None

    def __post_init__(self) -> None:
        bp = _as_float_array(self.breakpoints, "breakpoints")
        vals = _as_float_array(self.values, "values")
        if bp.ndim != 1 or vals.ndim != 1:
            raise ValueError("breakpoints and values must be one-dimensional")
        if vals.size != bp.size + 1:
            raise ValueError(
                f"expected {bp.size + 1} values for {bp.size} breakpoints, got {vals.size}"
            )
        if bp.size and not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if bp.size > 1 and not np.all(bp[1:] > bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        vapi = vals[-1] if self.value_at_pos_inf is None else float(self.value_at_pos_inf)
        if np.isnan(vapi):
            raise ValueError("value_at_pos_inf must not be NaN")
        if vals.size > 1 and not np.all(vals[1:] >= vals[:-1]):
            raise ValueError("monotone step function must have non-decreasing values")
        if vapi < vals[-1]:
            raise ValueError("value_at_pos_inf must not fall below the final value")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "value_at_pos_inf", vapi)

    def eval(self, x: ArrayLike) -> Union[float, np.ndarray]:
        """Evaluate at ``x`` (scalar or array; ``+-inf`` allowed)."""
        xa = _as_float_array(x, "x")
        idx = np.searchsorted(self.breakpoints, xa, side="right")
        out = self.values[idx]
        out = np.where(xa == POS_INF, self.value_at_pos_inf, out)
        if np.ndim(x) == 0:
            return float(out)
        return out

    __call__ = eval

    def geninv_eval(self, y: ArrayLike) -> Union[float, np.ndarray]:
        """The monotone generalized inverse ``inf{x : F(x) > y}`` at ``y``.

        Returns ``+inf`` when the superlevel set is empty (``inf of the empty
        set``) and ``-inf`` when it is the whole line.
        """
        out = _geninv_search(self.values, self.breakpoints, _as_float_array(y, "y"))
        if np.ndim(y) == 0:
            return float(out)
        return out

    def geninv(self) -> "StepFunction":
        """Closed-form step representation of the monotone generalized inverse.

        Agrees pointwise with :meth:`geninv_eval` everywhere, and always takes
        the value ``+inf`` at the point ``+inf``.
        """
        thresholds = self.values
        targets = np.concatenate((self.breakpoints, [POS_INF]))
        # A +inf value is only exceeded beyond every finite y: its region is
        # empty on the real line.
        keep = thresholds < POS_INF
        thresholds, targets = thresholds[keep], targets[keep]
        head = NEG_INF
        neg = thresholds == NEG_INF
        if np.any(neg):
            head = targets[neg][-1]
            thresholds, targets = thresholds[~neg], targets[~neg]
        if thresholds.size > 1:
            # Equal consecutive thresholds delimit empty regions; the last
            # target wins.
            last = np.r_[thresholds[1:] > thresholds[:-1], True]
            thresholds, targets = thresholds[last], targets[last]
        return StepFunction(
            thresholds,
            np.concatenate(([head], targets)),
            value_at_pos_inf=POS_INF,
        )


@dataclass(frozen=True, eq=False)
class PiecewiseLinearMap:
    """A continuous non-decreasing piecewise-linear function of a real variable.

    Defined by knots ``(xs, ys)``; beyond the outermost knots the end segments
    extend with their own slopes, so a map whose end slopes are positive is a
    surjection onto the real line.  Knots whose spans or slopes float64
    cannot hold are refused: a span or slope that overflows, or a rising
    segment whose slope underflows to 0.
    """

    xs: np.ndarray
    ys: np.ndarray
    slopes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        xs = _as_float_array(self.xs, "xs")
        ys = _as_float_array(self.ys, "ys")
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise ValueError("xs and ys must be one-dimensional and of equal length")
        if xs.size < 2:
            raise ValueError("at least two knots are required")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("knots must be finite")
        with np.errstate(all="ignore"):
            dx, dy = xs[1:] - xs[:-1], ys[1:] - ys[:-1]
            slopes = dy / dx
        if not (dx > 0).all():
            raise ValueError("knot xs must be strictly increasing")
        if not (dy >= 0).all():
            raise ValueError("knot ys must be non-decreasing")
        if np.isinf(dx).any() or np.isinf(dy).any():
            raise ValueError("a knot span overflows float64")
        if np.isinf(slopes).any():
            raise ValueError("a knot slope overflows float64")
        # A flat segment has slope 0; a rising one only when its slope underflows.
        if np.count_nonzero(slopes) != np.count_nonzero(dy):
            raise ValueError("the slope of a rising segment underflows to 0")
        xs.setflags(write=False)
        ys.setflags(write=False)
        slopes.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "slopes", slopes)

    def __call__(self, x: ArrayLike) -> Union[float, np.ndarray]:
        xa = _as_float_array(x, "x")
        n = self.xs.size
        finite = np.where(np.isfinite(xa), xa, self.xs[0])
        i = np.clip(np.searchsorted(self.xs, finite, side="right") - 1, 0, n - 1)
        s = self.slopes[np.minimum(i, n - 2)]
        out = _along(self.ys[i], self.xs[i], finite, s)
        out = np.where(xa == POS_INF, POS_INF if self.slopes[-1] > 0 else self.ys[-1], out)
        out = np.where(xa == NEG_INF, NEG_INF if self.slopes[0] > 0 else self.ys[0], out)
        if np.ndim(x) == 0:
            return float(out)
        return out

    def preimage(self, y: ArrayLike) -> Union[float, np.ndarray]:
        """``inf{x : f(x) >= y}``, the generalized inverse of the map.

        For a strictly increasing map this is the ordinary inverse (and equals
        the monotone generalized inverse ``inf{x : f(x) > y}`` by continuity);
        knot ordinates are inverted exactly to knot abscissae.  Returns
        ``-inf`` when every ``x`` qualifies and ``+inf`` when none does.
        """
        ya = _as_float_array(y, "y")
        scalar = np.ndim(y) == 0
        ya = np.atleast_1d(ya)
        n = self.xs.size
        j = np.searchsorted(self.ys, ya, side="left")
        out = np.empty(ya.shape, dtype=float)

        lo = j == 0
        hi = j == n
        mid = ~(lo | hi)

        if np.any(lo):
            if self.slopes[0] > 0:
                out[lo] = _along(self.xs[0], self.ys[0], ya[lo], self.slopes[0], divide=True)
            else:
                # Flat to the left: every x at or below the plateau qualifies.
                out[lo] = NEG_INF
        if np.any(hi):
            if self.slopes[-1] > 0:
                out[hi] = _along(self.xs[-1], self.ys[-1], ya[hi], self.slopes[-1], divide=True)
            else:
                out[hi] = POS_INF
        if np.any(mid):
            jm = j[mid]
            seg = jm - 1
            out[mid] = _along(self.xs[seg], self.ys[seg], ya[mid], self.slopes[seg], divide=True)
            hit = ya[mid] == self.ys[jm]
            if np.any(hit):
                vals = out[mid]
                vals[hit] = self.xs[jm[hit]]
                out[mid] = vals
        if scalar:
            return float(out[0])
        return out


def _along(origin, start, t, slope, divide=False):
    """``origin + (t - start) * slope`` (``/ slope`` if ``divide``), the point at
    ``t`` of a segment of a piecewise-linear map or of its extension.  Where a
    term overflows the point is taken from the halved terms, so a finite ``t``
    raises :class:`ValueError` only when the point itself lies outside float64."""
    op = np.divide if divide else np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        out = origin + op(t - start, slope)
        over = ~np.isfinite(out) & np.isfinite(t)
        if np.any(over):
            out = np.where(over, 2 * (origin / 2 + op(t / 2 - start / 2, slope)), out)
    if np.any(~np.isfinite(out) & np.isfinite(t)):
        raise ValueError("an extrapolated end segment overflows float64")
    return out


def compose(f: StepFunction, g: PiecewiseLinearMap) -> StepFunction:
    """Step representation of ``x -> f(g(x))`` for non-decreasing ``g``.

    The breakpoints of the result are the generalized preimages of ``f``'s
    breakpoints under ``g``; breakpoints whose preimage escapes to ``+-inf``
    disappear (their region is empty or swallows the head segment).
    """
    if not isinstance(g, PiecewiseLinearMap):
        raise TypeError("g must be a PiecewiseLinearMap")
    h = np.atleast_1d(np.asarray(g.preimage(f.breakpoints), dtype=float))
    upper = f.values[1:]
    head = f.values[0]
    neg = h == NEG_INF
    if np.any(neg):
        head = upper[neg][-1]
    keep = np.isfinite(h)
    h, upper = h[keep], upper[keep]
    if h.size > 1:
        last = np.r_[h[1:] > h[:-1], True]
        h, upper = h[last], upper[last]
    vapi = f.eval(g(POS_INF))
    return StepFunction(
        h,
        np.concatenate(([head], upper)),
        value_at_pos_inf=vapi,
    )
