"""Independent reference implementations used as oracles by the test suite.

Everything here is deliberately written the slow, literal way (linear scans,
brute-force searches, generic LP solvers, a dense p x p Cholesky solve) so
that agreement with the library is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog

from scdt.classify import LdaModel

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


def lda_primal(X, y, lda_lambda: float) -> LdaModel:
    """Regularized Fisher LDA in the primal: form the p x p within-class
    scatter, add ``lda_lambda * trace / p`` to its diagonal (an absolute
    ridge when the trace is 0), and Cholesky-solve it against the scaled
    class-mean offsets before the small between-class eigenproblem."""
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
        between[:, k] = np.sqrt(Xc.shape[0]) * (mc - mu)
    trace = float(np.trace(scatter))
    lam_eff = lda_lambda * trace / p if trace > 0 else float(lda_lambda)
    scatter[np.diag_indices_from(scatter)] += lam_eff
    solved = cho_solve(cho_factor(scatter, lower=True), between)
    eigvals, eigvecs = np.linalg.eigh(between.T @ solved)
    top = max(float(eigvals[-1]), 0.0)
    order = np.nonzero(eigvals > top * 1e-10)[0][::-1] if top > 0 else np.empty(0, dtype=int)
    projection = (solved @ eigvecs[:, order]) / np.sqrt(eigvals[order])
    return LdaModel(projection, class_means @ projection, classes, lam_eff)
