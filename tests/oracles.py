"""Independent reference implementations used as oracles by the test suite.

Everything here is deliberately written the slow, literal way (linear scans,
brute-force searches, generic LP solvers, a dense p x p Cholesky solve, an
explicitly formed QR basis, an extended-precision Gram solve) so that
agreement with the library is evidence rather than tautology.

Three helpers built on the library live here too, because only the tests use
them: ``cdf`` (a measure's CDF as a step function), ``cdt_probability`` (the
transform of a probability measure) and ``convexity_probe`` (a convex blend
of two reparameterized transforms).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog

from scdt.classify import LdaModel
from scdt.errors import SingularityError
from scdt.genmodel import IncreasingReparam, apply_reparam
from scdt.measures import DiscreteMeasure, SignedMeasure, measure_quantiles
from scdt.steps import StepFunction, _along, _as_float_array, _like, _steps
from scdt.transform import (
    PROBABILITY_RTOL, CdtResult, ScdtResult, TransformConfig, scdt_forward,
)

NEG_INF = float("-inf")
POS_INF = float("inf")


def step_eval_scan(breakpoints, values, value_at_pos_inf, x: float) -> float:
    """Literal right-continuous step evaluation: scan for the interval
    containing ``x``; value ``values[i]`` holds on ``[bp[i-1], bp[i])``."""
    if x == POS_INF:
        return float(value_at_pos_inf)
    i = 0
    for b in breakpoints:
        if x >= b:
            i += 1
        else:
            break
    return float(values[i])


def geninv_scan(breakpoints, values, y: float) -> float:
    """``inf{x : F(x) > y}`` for a monotone step function, from its structure:
    the superlevel set opens at the breakpoint where the first value above
    ``y`` is attained (at ``-inf`` if the head value already exceeds ``y``,
    empty if no value does)."""
    values = list(values)
    if values[0] > y:
        return NEG_INF
    for i in range(1, len(values)):
        if values[i] > y:
            return float(breakpoints[i - 1])
    return POS_INF


def geninv_grid_scan(eval_fn, y: float, grid: np.ndarray) -> float:
    """Brute-force ``inf{x : F(x) > y}`` over an explicit candidate grid
    (``+inf`` if no candidate qualifies).  Used to validate geninv_scan."""
    qualifying = [x for x in grid if eval_fn(x) > y]
    return float(min(qualifying)) if qualifying else POS_INF


def quantile_scan(locations, weights, q: float) -> float:
    """Generalized inverse CDF of the normalized measure at level ``q``:
    the first atom where the cumulative weight exceeds ``q`` times the total,
    clamped to the last atom."""
    total = float(np.sum(weights))
    acc = 0.0
    for loc, w in zip(locations, weights):
        acc += w
        if acc > q * total:
            return float(loc)
    return float(locations[-1])


def cdf_scan(locations, weights, x: float) -> float:
    """Prefix-sum CDF oracle: total weight at locations ``<= x``."""
    return float(sum(w for loc, w in zip(locations, weights) if loc <= x))


def cdf(m: DiscreteMeasure) -> StepFunction:
    """The right-continuous CDF ``F(x) = m([-inf, x])`` as a step function.

    An atom at ``-inf`` lifts the head value; an atom at ``+inf`` appears only
    in the value at the point ``+inf``, so ``F(+inf)`` is the stored total
    mass (the value after the last finite atom where the stored mass rounds
    below the summed weights).
    """
    return _steps(m.locations, np.cumsum(m.weights), 0.0, m.total_mass)


def cdt_probability(nu: DiscreteMeasure, cfg: TransformConfig) -> np.ndarray:
    """Quantile samples of a probability measure: the generalized inverse CDF
    evaluated at the reference's midpoint quantile levels."""
    if abs(nu.total_mass - 1.0) > PROBABILITY_RTOL:
        raise ValueError(
            f"cdt_probability requires a probability measure, got mass {nu.total_mass}"
        )
    return measure_quantiles(nu, cfg.quantiles)


def lp_w2(xs, ps, ys, qs) -> float:
    """2-Wasserstein distance between two small atomic probability measures by
    solving the primal optimal-coupling linear program over all transport
    plans with the given marginals."""
    xs, ps = np.asarray(xs, dtype=float), np.asarray(ps, dtype=float)
    ys, qs = np.asarray(ys, dtype=float), np.asarray(qs, dtype=float)
    n, m = xs.size, ys.size
    cost = ((xs[:, None] - ys[None, :]) ** 2).ravel()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([ps, qs])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"coupling LP failed: {res.message}")
    return float(np.sqrt(res.fun))


def monotone_coupling_w2(xs, ps, ys, qs) -> float:
    """Exact 1-D optimal transport cost via the monotone (north-west corner)
    coupling, an independent cross-check for the LP oracle."""
    xs, ps = list(map(float, xs)), list(map(float, ps))
    ys, qs = list(map(float, ys)), list(map(float, qs))
    i = j = 0
    pi, qj = ps[0], qs[0]
    cost = 0.0
    while True:
        move = min(pi, qj)
        cost += move * (xs[i] - ys[j]) ** 2
        pi -= move
        qj -= move
        if pi <= 1e-15:
            i += 1
            if i == len(xs):
                break
            pi = ps[i]
        if qj <= 1e-15:
            j += 1
            if j == len(ys):
                break
            qj = qs[j]
    return float(np.sqrt(cost))


def d_s_longdouble(a, b, n_quantiles: int) -> np.longdouble:
    """The signed distance ``d_s`` the literal way: the quantile samples of
    each Jordan part by linear scan at the midpoint levels (all zero for a
    zero part), then the root of the summed mean squared sample gaps and
    squared mass gaps of both parts in ``np.longdouble``.  Where that type is
    x87 extended precision its exponent range holds the square of every
    float64, so nothing is scaled."""
    ld = np.longdouble
    levels = (np.arange(n_quantiles) + 0.5) / n_quantiles
    total = ld(0)
    for p, q in ((a.positive_part, b.positive_part), (a.negative_part, b.negative_part)):
        samples = [np.array([0.0 if m.is_zero else quantile_scan(m.locations, m.weights, x)
                             for x in levels], dtype=ld) for m in (p, q)]
        diff = samples[0] - samples[1]
        total += np.mean(diff * diff) + (ld(p.total_mass) - ld(q.total_mass)) ** 2
    return np.sqrt(total)


def lda_primal(X, y, lda_lambda: float) -> LdaModel:
    """Regularized Fisher LDA in the primal: form the p x p within-class
    scatter, add ``lda_lambda * trace / p`` to its diagonal (an absolute
    ridge when the trace is 0), and Cholesky-solve it against the scaled
    class-mean offsets before the small between-class eigenproblem.  The
    offsets are the class means of the rows of X - mu, as in
    :func:`lda_explicit_q`."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    classes = np.unique(y)
    p = X.shape[1]
    mu = X.mean(axis=0)
    scatter = np.zeros((p, p))
    between = np.empty((p, classes.size))
    class_means = np.empty((classes.size, p))
    for k, c in enumerate(classes):
        Xc = X[y == c]
        mc = Xc.mean(axis=0)
        class_means[k] = mc
        centered = Xc - mc
        scatter += centered.T @ centered
        between[:, k] = np.sqrt(Xc.shape[0]) * (Xc - mu).mean(axis=0)
    trace = float(np.trace(scatter))
    lam_eff = lda_lambda * trace / p if trace > 0 else float(lda_lambda)
    scatter[np.diag_indices_from(scatter)] += lam_eff
    solved = cho_solve(cho_factor(scatter, lower=True), between)
    eigvals, eigvecs = np.linalg.eigh(between.T @ solved)
    top = max(float(eigvals[-1]), 0.0)
    order = np.nonzero(eigvals > top * 1e-10)[0][::-1] if top > 0 else np.empty(0, dtype=int)
    projection = (solved @ eigvecs[:, order]) / np.sqrt(eigvals[order])
    return LdaModel(projection, class_means @ projection, classes, lam_eff)


def lda_explicit_q(X, y, lda_lambda: float) -> LdaModel:
    """Regularized Fisher LDA on an explicit orthonormal basis Q of the span of
    the rows of X - mu (``np.linalg.qr((X - mu).T)[0]``, p x min(n, p)): the
    centred rows and the scaled class-mean offsets are multiplied by Q, the
    regularized scatter is solved in that basis and the solution is mapped
    back by Q before the small between-class eigenproblem.  The offsets are
    the class means of the rows of X - mu, so a constant feature gets the
    same offset in every class; the difference of two separately rounded
    means would differ by class, and the solve would amplify that rounding
    along the feature, which has no within-class scatter to damp it."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    classes = np.unique(y)
    n, p = X.shape
    mu = X.mean(axis=0)
    centred = np.empty((n, p))
    between = np.empty((p, classes.size))
    class_means = np.empty((classes.size, p))
    for k, c in enumerate(classes):
        Xc = X[y == c]
        mc = Xc.mean(axis=0)
        class_means[k] = mc
        centred[y == c] = Xc - mc
        between[:, k] = np.sqrt(Xc.shape[0]) * (Xc - mu).mean(axis=0)
    trace = float(np.vdot(centred, centred))
    lam_eff = lda_lambda * trace / p if trace > 0 else float(lda_lambda)
    basis = np.linalg.qr((X - mu).T)[0]
    reduced_rows = centred @ basis
    reduced = reduced_rows.T @ reduced_rows
    reduced[np.diag_indices_from(reduced)] += lam_eff
    solved = basis @ np.linalg.solve(reduced, basis.T @ between)
    eigvals, eigvecs = np.linalg.eigh(between.T @ solved)
    top = max(float(eigvals[-1]), 0.0)
    order = np.nonzero(eigvals > top * 1e-10)[0][::-1] if top > 0 else np.empty(0, dtype=int)
    projection = (solved @ eigvecs[:, order]) / np.sqrt(eigvals[order])
    return LdaModel(projection, class_means @ projection, classes, lam_eff)


def regularization_by_class_loop(X, y, lda_lambda: float) -> float:
    """The ridge of regularized Fisher LDA as a class loop computes it: the
    within-class centred rows are written one class at a time into an n x p
    array, and the ridge is ``lda_lambda * trace / p`` of their scatter (the
    absolute ``lda_lambda`` where the trace is 0)."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    centred = np.empty(X.shape)
    for c in np.unique(y):
        Xc = X[y == c]
        centred[y == c] = Xc - Xc.mean(axis=0)
    trace = float(np.vdot(centred, centred))
    return lda_lambda * trace / X.shape[1] if trace > 0 else float(lda_lambda)


def lda_extended_precision(X, y, lda_lambda: float) -> np.ndarray:
    """The projection of regularized Fisher LDA in ``np.longdouble``, through
    the n x n Gram matrix ``G = C C^T`` of the centred rows C = X - mu: the
    discriminant directions are ``C^T A`` with ``((I - P) G + lam I) A = S``,
    where P averages within each class, ``S[i, k] = 1 / sqrt(n_k)`` on the
    rows of class k and lam is ``lda_lambda`` times the within-class trace
    over p, solved by Gaussian elimination with partial pivoting.
    Only the classes x classes eigenproblem is in float64."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    classes = np.unique(y)
    n, p = X.shape
    ld = np.longdouble
    C = X.astype(ld) - X.astype(ld).mean(axis=0)
    P = np.zeros((n, n), dtype=ld)
    S = np.zeros((n, classes.size), dtype=ld)
    for k, c in enumerate(classes):
        rows = np.nonzero(y == c)[0]
        P[np.ix_(rows, rows)] = ld(1) / ld(rows.size)
        S[rows, k] = ld(1) / np.sqrt(ld(rows.size))
    G = C @ C.T
    trace = sum(np.sum((C[y == c] - C[y == c].mean(axis=0)) ** 2) for c in classes)
    lam_eff = ld(lda_lambda) * trace / ld(p) if trace > 0 else ld(lda_lambda)
    M = (np.eye(n, dtype=ld) - P) @ G + lam_eff * np.eye(n, dtype=ld)
    A = S.copy()
    for j in range(n):
        i = j + int(np.argmax(np.abs(M[j:, j])))
        M[[i, j]], A[[i, j]] = M[[j, i]], A[[j, i]]
        f = M[j + 1 :, j] / M[j, j]
        M[j + 1 :, j:] -= f[:, None] * M[j, j:]
        A[j + 1 :] -= f[:, None] * A[j]
    for j in reversed(range(n)):
        A[j] = (A[j] - M[j, j + 1 :] @ A[j + 1 :]) / M[j, j]
    small = S.T @ G @ A
    eigvals, eigvecs = np.linalg.eigh(((small + small.T) / 2).astype(float))
    top = max(float(eigvals[-1]), 0.0)
    order = np.nonzero(eigvals > top * 1e-10)[0][::-1] if top > 0 else np.empty(0, dtype=int)
    return (C.T @ A @ eigvecs[:, order].astype(ld)) / np.sqrt(eigvals[order].astype(ld))


def holds_subnormal_weight(d) -> bool:
    """Whether some nonzero sample of the density times its bin width, one at a
    time, falls below the smallest normal float."""
    return any(0 < abs(v) * d.bin_width < np.finfo(float).tiny for v in d.samples.tolist())


def measure_from_density_by_masks(d):
    """The two parts of a density's signed measure by boolean-mask gathers
    of ``bin_centers()`` and ``|samples| * bin_width``, each checked by the
    validating ``DiscreteMeasure`` constructor, then screened for a part mass
    that overflows and for parts that share a location (``intersect1d``).
    Any fault raises ``ValueError``, and so does a weight below the smallest
    normal float (``holds_subnormal_weight``)."""
    if holds_subnormal_weight(d):
        raise ValueError("a weight falls below the smallest normal float")
    centers = d.bin_centers()
    w = np.abs(d.samples) * d.bin_width
    parts = [DiscreteMeasure(centers[m], w[m]) for m in (d.samples > 0, d.samples < 0)]
    if not all(np.isfinite(p.total_mass) for p in parts):
        raise ValueError("the total mass of a part overflows")
    if np.intersect1d(parts[0].locations, parts[1].locations).size:
        raise ValueError("the parts share a location")
    return parts


def min_gap_by_neighbours(a, b) -> float:
    """Smallest distance between the finite entries of two sorted arrays
    with no common entry: the nearest entry of ``b`` on either side of each
    finite entry of ``a``."""
    a, b = a[np.isfinite(a)], b[np.isfinite(b)]
    if not a.size or not b.size:
        return np.inf
    idx = np.searchsorted(b, a)
    best = np.inf
    right, left = idx < b.size, idx > 0
    if np.any(right):
        best = min(best, float(np.min(b[idx[right]] - a[right])))
    if np.any(left):
        best = min(best, float(np.min(a[left] - b[idx[left] - 1])))
    return best


def support_gap_brute_force(a, b) -> float:
    """The smallest ``|a_i - b_j|`` over every pair of entries of two sorted
    arrays (``inf`` where either is empty), or the ``SingularityError`` that
    names how many entries they share and the smallest of them as ``a`` holds
    it."""
    shared = a[np.isin(a, b)]
    if shared.size:
        raise SingularityError(f"positive and negative parts share {shared.size} "
                               f"atom location(s), e.g. {shared[0]}")
    if not a.size or not b.size:
        return np.inf
    with np.errstate(over="ignore"):
        return float(np.min(np.abs(np.subtract.outer(a, b))))


def quantiles_by_padded_search(locations, weights, q) -> np.ndarray:
    """The generalized inverse CDF of the normalized measure at levels ``q``:
    the levels times the summed weights are searched in the cumulative
    weights ``[0, *cumsum(weights)]``, the result indexes the locations padded
    to ``[-inf, *locations, +inf]``, and is clamped to the last atom."""
    csum = np.concatenate(([0.0], np.cumsum(weights)))
    j = np.searchsorted(csum, np.asarray(q, dtype=float) * csum[-1], side="right")
    return np.minimum(np.concatenate(([NEG_INF], locations, [POS_INF]))[j], locations[-1])


def scdt_inverse_by_unique(t, cfg):
    """``(positive part, negative part, warning messages)`` of the inverse
    transform: ``np.unique`` merges equal samples into atoms of weight
    ``count * mass / M`` checked by the validating ``DiscreteMeasure``
    constructor, ``np.intersect1d`` finds shared atoms (``SingularityError``)
    and ``min_gap_by_neighbours`` decides the near-collision warning."""
    parts = []
    for c in (t.plus, t.minus):
        if c.samples.size != cfg.n_quantiles:
            raise ValueError(f"transform carries {c.samples.size} samples but the config "
                             f"expects {cfg.n_quantiles}")
        if c.is_zero:
            parts.append(DiscreteMeasure.zero())
            continue
        uniq, counts = np.unique(c.samples, return_counts=True)
        parts.append(DiscreteMeasure(uniq, counts * (c.mass / c.samples.size), total_mass=c.mass))
    overlap = np.intersect1d(parts[0].locations, parts[1].locations, assume_unique=True)
    if overlap.size:
        raise SingularityError(
            f"positive and negative parts share {overlap.size} atom location(s), "
            f"e.g. {overlap[0]}"
        )
    gap = min_gap_by_neighbours(parts[0].locations, parts[1].locations)
    warned = []
    if gap < 1e-9:
        warned.append(f"positive and negative supports are only {gap:.3g} apart; "
                      "mutual singularity is numerically borderline")
    return parts[0], parts[1], warned


def preimage_by_branches(g, y):
    """``inf{x : g(x) >= y}`` for a ``PiecewiseLinearMap`` ``g``, split into three
    branches by the knot ordinate searched: left of every knot (the first
    segment extended, or ``-inf`` past a flat left end), right of every knot
    (the last segment extended, or ``+inf`` past a flat right end), and between
    knots, where a probe equal to a knot ordinate returns that knot's abscissa."""
    ya = _as_float_array(y, "y")
    n = g.xs.size
    j = np.searchsorted(g.ys, ya, side="left")
    out = np.empty(ya.shape, dtype=float)
    lo = j == 0
    hi = j == n
    mid = ~(lo | hi)
    if np.any(lo):
        if g.slopes[0] > 0:
            out[lo] = _along(g.xs[0], g.ys[0], ya[lo], g.slopes[0], divide=True)
        else:
            out[lo] = NEG_INF
    if np.any(hi):
        if g.slopes[-1] > 0:
            out[hi] = _along(g.xs[-1], g.ys[-1], ya[hi], g.slopes[-1], divide=True)
        else:
            out[hi] = POS_INF
    if np.any(mid):
        jm = j[mid]
        out[mid] = np.where(ya[mid] == g.ys[jm], g.xs[jm], _along(
            g.xs[jm - 1], g.ys[jm - 1], ya[mid], g.slopes[jm - 1], divide=True))
    return _like(y, out)


def confusion_by_loop(classes, truth, pred) -> np.ndarray:
    """The (true class, predicted class) counts, one increment per test row
    through a dict from class id to its row and column."""
    out = np.zeros((classes.size, classes.size), dtype=int)
    index = {c: i for i, c in enumerate(classes)}
    for t, q in zip(truth, pred):
        out[index[t], index[q]] += 1
    return out


def pad_2d_by_branch(proj) -> np.ndarray:
    """The first two columns of ``proj``, or all of them followed by zero
    columns up to two."""
    if proj.shape[1] >= 2:
        return proj[:, :2]
    pad = np.zeros((proj.shape[0], 2 - proj.shape[1]))
    return np.hstack([proj, pad])


def convexity_probe(
    nu: SignedMeasure,
    g: IncreasingReparam,
    h: IncreasingReparam,
    alpha: float,
    cfg: TransformConfig,
) -> ScdtResult:
    """The convex combination ``alpha * T(nu o g) + (1 - alpha) * T(nu o h)``
    of two reparameterized transforms.

    For reparameterization families whose inverses form a convex set (affine
    maps in particular) this combination is again the transform of a family
    member — the one generated by the inverse of
    ``alpha * g^-1 + (1 - alpha) * h^-1``.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    tg = scdt_forward(apply_reparam(nu, g), cfg)
    th = scdt_forward(apply_reparam(nu, h), cfg)

    def blend(pg: CdtResult, ph: CdtResult) -> CdtResult:
        return CdtResult(
            alpha * pg.samples + (1.0 - alpha) * ph.samples,
            alpha * pg.mass + (1.0 - alpha) * ph.mass,
        )

    return ScdtResult(blend(tg.plus, th.plus), blend(tg.minus, th.minus))
