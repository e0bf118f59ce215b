"""Right-continuous step functions on the extended real line, their monotone
generalized inverses, and continuous piecewise-linear monotone maps.

These are the computational kernel of every transform in the package: CDFs of
discrete measures are step functions, quantile functions are their generalized
inverses, and reparameterizations/reference CDFs are piecewise-linear maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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


def _whole(value, name: str) -> int:
    """``value`` as an int where it is an int, a numpy integer or a whole float;
    anything else (a bool, a string, a fractional or non-finite float) raises
    :class:`ValueError`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float where it is a number but not a bool (an int beyond
    float64 as the infinity of its sign); anything else raises :class:`ValueError`."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return POS_INF if value > 0 else NEG_INF
    raise ValueError(f"{name}: expected a number, got {value!r}")


def _like(x: ArrayLike, out: np.ndarray) -> Union[float, np.ndarray]:
    """``out`` as a float where the argument ``x`` is a scalar, else ``out`` itself."""
    return float(out) if np.ndim(x) == 0 else out


class _Frozen:
    """Base of every dataclass of the package.  ``_store`` sets its fields past
    the frozen ``__setattr__`` and makes each ndarray among them read-only in
    place, not copied; it does so at construction, on ``object.__new__(cls)``
    for results checked by construction, and on every pickle or copy, which
    carry the fields alone: a cache kept on an object does not survive them."""

    def _store(self, **attrs):
        for value in attrs.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(attrs)
        return self

    def __post_init__(self) -> None:
        self._store(**vars(self))

    def __getstate__(self) -> dict:
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self._store(**state)


def _bracket(values: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values, y, "right") - 1`` for non-empty non-decreasing ``values``.
    ``np.interp`` of the indices searches each key from the last key's bracket (O(1) for
    sorted keys) and, where finite, adds a fraction in ``[0, 1 + 2 eps]``: one comparison
    settles its floor.  Keys it leaves non-finite (a NaN key, a gap whose reciprocal
    overflows, infinite values) are searched."""
    r = np.asarray(np.interp(y, values, np.arange(values.size, dtype=float)))
    with np.errstate(invalid="ignore"):  # a non-finite r casts to garbage, replaced below
        j = r.astype(np.intp)
    j -= values.take(j, mode="clip") > y
    bad = ~np.isfinite(r)
    if bad.any():
        j[bad] = np.searchsorted(values, y[bad], side="right") - 1
    return j


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
    j = _bracket(values, y)  # the breakpoint before the first value above y
    out = np.empty(np.shape(j))
    if breakpoints.size:
        breakpoints.take(j, mode="clip", out=out)
    out[j < 0] = NEG_INF
    out[j == breakpoints.size] = POS_INF
    return out


@dataclass(frozen=True, eq=False)
class StepFunction(_Frozen):
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
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(bp[1:] > bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        vapi = float(vals[-1] if self.value_at_pos_inf is None else self.value_at_pos_inf)
        if np.isnan(vapi):
            raise ValueError("value_at_pos_inf must not be NaN")
        if not np.all(vals[1:] >= vals[:-1]):
            raise ValueError("monotone step function must have non-decreasing values")
        if vapi < vals[-1]:
            raise ValueError("value_at_pos_inf must not fall below the final value")
        self._store(breakpoints=bp, values=vals, value_at_pos_inf=vapi)

    def eval(self, x: ArrayLike) -> Union[float, np.ndarray]:
        """Evaluate at ``x`` (scalar or array; ``+-inf`` allowed)."""
        xa = _as_float_array(x, "x")
        idx = np.searchsorted(self.breakpoints, xa, side="right")
        out = self.values[idx]
        return _like(x, np.where(xa == POS_INF, self.value_at_pos_inf, out))

    __call__ = eval

    def geninv_eval(self, y: ArrayLike) -> Union[float, np.ndarray]:
        """The monotone generalized inverse ``inf{x : F(x) > y}`` at ``y``.

        Returns ``+inf`` when the superlevel set is empty (``inf of the empty
        set``) and ``-inf`` when it is the whole line.
        """
        return _like(y, _geninv_search(self.values, self.breakpoints, _as_float_array(y, "y")))

    def geninv(self) -> "StepFunction":
        """Closed-form step representation of the monotone generalized inverse.

        Agrees pointwise with :meth:`geninv_eval` everywhere, and always takes
        the value ``+inf`` at the point ``+inf``.
        """
        # From y = values[i] on, F first exceeds y at breakpoint i (+inf after the last).
        return _steps(self.values, np.append(self.breakpoints, POS_INF), NEG_INF, POS_INF)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearMap(_Frozen):
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
        self._store(xs=xs, ys=ys, slopes=slopes)

    def __call__(self, x: ArrayLike) -> Union[float, np.ndarray]:
        xa = _as_float_array(x, "x")
        n = self.xs.size
        finite = np.where(np.isfinite(xa), xa, self.xs[0])
        i = np.clip(np.searchsorted(self.xs, finite, side="right") - 1, 0, n - 1)
        s = self.slopes[np.minimum(i, n - 2)]
        out = _along(self.ys[i], self.xs[i], finite, s)
        out = np.where(xa == POS_INF, POS_INF if self.slopes[-1] > 0 else self.ys[-1], out)
        out = np.where(xa == NEG_INF, NEG_INF if self.slopes[0] > 0 else self.ys[0], out)
        return _like(x, out)

    def preimage(self, y: ArrayLike) -> Union[float, np.ndarray]:
        """``inf{x : f(x) >= y}``, the generalized inverse of the map.

        For a strictly increasing map this is the ordinary inverse (and equals
        the monotone generalized inverse ``inf{x : f(x) > y}`` by continuity);
        knot ordinates are inverted exactly to knot abscissae.  Returns
        ``-inf`` when every ``x`` qualifies and ``+inf`` when none does.
        """
        ya = _as_float_array(y, "y")
        n = self.xs.size
        j = np.searchsorted(self.ys, ya, side="left")  # ys[j - 1] < y <= ys[j]
        i = np.clip(j - 1, 0, n - 1)
        s = self.slopes[np.minimum(i, n - 2)]
        # Past a flat end every x qualifies (left) or none does (right): the
        # probe moves to -inf or +inf, which the flat segment keeps there.
        t = np.where(s > 0, ya, np.where(j == 0, NEG_INF, POS_INF))
        out = _along(self.xs[i], self.ys[i], t, s, divide=True)
        hit = (j > 0) & (ya == self.ys.take(j, mode="clip"))
        return _like(y, np.where(hit, self.xs.take(j, mode="clip"), out))


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


def _steps(points, after, head, value_at_pos_inf) -> StepFunction:
    """The step function taking ``head`` left of every point and ``after[i]``
    from ``points[i]`` on, for non-decreasing ``points`` on the extended line.

    Points at ``-inf`` fold into the head value, points at ``+inf`` start an
    empty region and drop, and of equal points the last wins.  The value at
    the point ``+inf`` is ``value_at_pos_inf``, or the final value where that
    rounds below it.
    """
    neg = points == NEG_INF
    if np.any(neg):
        head = after[neg][-1]
    keep = np.isfinite(points)
    points, after = points[keep], after[keep]
    if points.size > 1:
        last = np.r_[points[1:] > points[:-1], True]
        points, after = points[last], after[last]
    values = np.concatenate(([head], after))
    return StepFunction(points, values, max(value_at_pos_inf, float(values[-1])))


def compose(f: StepFunction, g: PiecewiseLinearMap) -> StepFunction:
    """Step representation of ``x -> f(g(x))`` for non-decreasing ``g``.

    The breakpoints of the result are the generalized preimages of ``f``'s
    breakpoints under ``g``; breakpoints whose preimage escapes to ``+-inf``
    disappear (their region is empty or swallows the head segment).
    """
    if not isinstance(g, PiecewiseLinearMap):
        raise TypeError("g must be a PiecewiseLinearMap")
    return _steps(g.preimage(f.breakpoints), f.values[1:], f.values[0], f.eval(g(POS_INF)))
