"""Check that two checkouts of scdt compute bit-identical outputs.

    python3 scripts/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src`` is imported in its own interpreter, which dumps:

- ``run_experiment`` on seeds 0-4 and 97: accuracies, confusion matrices and
  the held-out predicted labels in both feature spaces under
  ``experiment/<seed>``, and the 2-D projections under
  ``experiment/<seed>/projections``, so a change that moves only the last
  bits of the projections shows as exactly those keys;
- ``generate_dataset`` labels and samples on the same seeds, and the three
  class templates on the default grid;
- ``featurize`` rows of both kinds (raw samples and transforms) of those
  datasets;
- ``generate_dataset`` on two configs whose warps cannot be rebinned: atoms
  off the grid and atoms that collapse onto each other (both raise);
- ``scdt_forward`` samples and masses, ``rebin(scdt_inverse(...))``,
  ``d_s`` values and components and ``transform_l2`` on 4e5-bin signed and
  nonnegative densities at M = 2^17;
- ``measure_quantiles`` on measures with atoms at +-inf, at the levels
  0, 1, nextafter(1, 0), 5e-324 and random levels;
- ``w2``, ``d_w2``, ``d_s`` and ``transform_l2`` (under unit-mass and
  mass-2 references) with zero parts;
- ``d_s``, ``d_w2``, ``w2`` and ``transform_l2`` at extreme scales
  (``extreme/*``): a 4-bin pair of signals on ``[-1e200, 1e200]`` and the
  same pair on ``[-1e-300, 1e-300]``, whose distances square outside
  float64, and unit atoms near -1.65e308 and +1.65e308, whose gap
  overflows.  Each runs with warnings raised as errors, and a value of inf
  or 0 is recorded as raising ``ArithmeticError``: between distinct inputs
  a distance must be finite and positive;
- ``scdt_inverse`` with an exact plus/minus collision (the error), a
  near-collision (the warning text and the rebinned density) and a part of
  mass 5e-324 at M = 4, whose mass / M underflows;
- ``d_s`` at two grid sizes on measures that were forward-transformed first
  (under a non-uniform reference), next to ``d_s`` on fresh measures;
- ``fit_lda`` on three-class blobs with more rows than features
  (``n-above-p``), on blobs padded with constant features to fewer rows than
  features (``low-rank-rows``) and on the seed-0 transform features at
  M = 4096 (p = 8194): the held-out predictions, the number of directions and
  the regularization under ``fit_lda/<name>``, and the projection matrix
  under ``fit_lda/<name>/projection``;
- ``ReferenceMeasure.quantile`` at the 1024 midpoint levels and
  ``cdf_eval`` of those quantiles (``reference/*``): the five references of
  the acceptance test, a subnormal (1e-320) and a near-maximal (1e308)
  total mass on ``[0, 1]``, and three references whose knot span or slope
  float64 cannot hold.  Each runs with warnings raised as errors, and
  quantiles that are not finite, or CDF values further than 1e-9 of the
  mass (plus two units in its last place) from ``q * mass``, are recorded as
  raising ``ArithmeticError``;
- ``IncreasingReparam.inverse`` of piecewise-linear warps
  (``reparam/pwl/*``): the 100 warps of the acceptance test's composition
  law at that test's atom locations and knots, and a warp whose first
  segment rises by 1e-320, checked the same way.

Arrays are compared by their bytes, so -0.0 against 0.0 counts as a
difference; for a differing key of float arrays the largest
``|old - new| / max|old|`` is printed too, and the largest over all such
keys at the end.  A case that raises is recorded
by exception type and message, and whether the type is one of the
package's typed errors (``ScdtError``).  One that raises in OLD and succeeds
in NEW, or raises a bare ``ValueError`` in OLD and a typed error in NEW, is
listed as fixed, not as a mismatch.  Exit status 1 means some output
differs.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import tempfile
import warnings

import numpy as np

LARGE_BINS = 400_000
LARGE_M = 2**17
SEEDS = (0, 1, 2, 3, 4, 97)


def _large_density(scdt, rng, signed):
    x = (np.arange(LARGE_BINS) + 0.5) / LARGE_BINS
    noise = rng.standard_normal(LARGE_BINS) if signed else rng.random(LARGE_BINS)
    samples = 0.05 * noise
    for _ in range(rng.integers(3, 7)):
        sign = rng.choice((-1.0, 1.0)) if signed else 1.0
        centre, width = rng.uniform(0.15, 0.85), rng.uniform(0.02, 0.12)
        samples += sign * rng.uniform(0.2, 3.0) * np.exp(-0.5 * ((x - centre) / width) ** 2)
    return scdt.GridDensity(0.0, 1.0, samples)


def _try(fn):
    from scdt.errors import ScdtError

    try:
        return fn()
    except Exception as exc:  # recorded, compared like any other output
        return ("raised", type(exc).__name__, str(exc), isinstance(exc, ScdtError))


def _with_warnings(fn):
    """``fn()`` (or how it raised) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _try(fn)
    return result, [str(w.message) for w in caught]


def _report(r):
    return (r.value, r.components)


def _checked(fn):
    """``_try(fn)`` with warnings raised as errors."""
    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn()
    return _try(run)


def _strict(fn):
    """``_checked(fn)``, with a value of inf or 0 recorded as raising
    ``ArithmeticError``."""
    def positive():
        value = fn()
        if not 0 < value < math.inf:
            raise ArithmeticError(f"distance {value!r} between distinct inputs")
        return value
    return _checked(positive)


def _extreme_pairs(scdt):
    """``name -> (a, b)``: the 4-bin end-atom pair at both extreme scales
    and unit atoms whose gap overflows."""
    def grid(t0, t1, *rows):
        return [scdt.measure_from_density(scdt.GridDensity(t0, t1, np.array(r))) for r in rows]

    pairs = {}
    for name, half_width in (("1e200", 1e200), ("1e-300", 1e-300)):
        d = 2.0 / half_width
        pairs[name] = grid(-half_width, half_width, [d, 0.0, -d, 0.0], [0.0, 0.0, -d, d])
    pairs["overflow"] = (grid(-1.7e308, -1.5e308, [1e-307, 0.0])
                         + grid(1.5e308, 1.7e308, [0.0, 1e-307]))
    return pairs


def _reference_round_trip(scdt, xs, ys):
    """``(quantile(q), cdf_eval(quantile(q)))`` at the 1024 midpoint levels q."""
    ref = scdt.ReferenceMeasure(np.array(xs), np.array(ys))
    q = scdt.TransformConfig(n_quantiles=1024).quantiles
    x = ref.quantile(q)
    back = ref.cdf_eval(x)
    mass = ref.total_mass
    if not (np.all(np.isfinite(x))
            and np.all(np.abs(back - q * mass) <= 1e-9 * mass + 2 * np.spacing(mass))):
        raise ArithmeticError("the CDF of the quantiles misses the midpoint grid")
    return x, back


def _acceptance_warps(rng):
    """``(xs, ys, locations)`` for the 100 warps of the composition-law
    acceptance test and the atom locations it moves through them: the same
    generator calls as its ``random_signed_atoms`` (the signs and weights
    are drawn and dropped), then the warp's knots."""
    for _ in range(100):
        n_plus, n_minus = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        locs = -4.0 + np.cumsum(rng.uniform(0.1, 1.0, n_plus + n_minus))
        rng.permutation(n_plus + n_minus)
        rng.uniform(0.1, 2.0, n_plus)
        rng.uniform(0.1, 2.0, n_minus)
        xs = -5.0 + np.cumsum(rng.uniform(0.5, 3.0, 3))
        ys = -5.0 + np.cumsum(rng.uniform(0.5, 3.0, 3))
        yield xs, ys, locs


def _blobs(scdt, n_per_class, n_constant):
    """Training features of three 2-D blobs plus three noise features and
    ``n_constant`` features that hold 7.0, and the same rows moved by 0.5 to
    predict (the ``test_blobs`` cases of the test suite)."""
    rng = np.random.default_rng(4)
    centres = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    rows = np.vstack([c + 3.0 * rng.standard_normal((n_per_class, 2)) for c in centres])
    labels = np.repeat(np.arange(3), n_per_class)
    noise = np.random.default_rng(5).standard_normal((labels.size, 3))
    rows = np.hstack([rows, noise, np.full((labels.size, n_constant), 7.0)])
    return scdt.classify.FeatureMatrix(rows, labels, "raw_signal"), rows + 0.5


def dump():
    import scdt

    out = {}
    for seed in SEEDS:
        rep = scdt.classify.run_experiment(scdt.GenConfig(), scdt.TransformConfig(), seed=seed)
        # The held-out predictions, refitted on run_experiment's parity split.
        signals = scdt.generate_dataset(scdt.GenConfig(seed=seed))
        held_out = np.arange(len(signals)) % 2 == 1
        predicted = []
        for kind in scdt.classify.FEATURE_KINDS:
            features = scdt.featurize(signals, kind, scdt.TransformConfig())
            model = scdt.classify.fit_lda(features.subset(~held_out))
            predicted.append(model.predict(features.subset(held_out).rows))
        out[f"experiment/{seed}"] = (
            rep.accuracy_signal_space, rep.accuracy_scdt_space,
            rep.confusion_signal, rep.confusion_scdt, *predicted,
        )
        out[f"experiment/{seed}/projections"] = (rep.projections_signal, rep.projections_scdt)

    gen = scdt.GenConfig()
    grid = scdt.GridDensity(gen.t0, gen.t1, np.zeros(gen.n_grid)).bin_centers()
    for template in scdt.TEMPLATES:
        out[f"template/{template.name}"] = template(grid)
    for seed in SEEDS:
        signals = scdt.generate_dataset(scdt.GenConfig(seed=seed))
        out[f"dataset/{seed}"] = (np.array([label for label, _ in signals]),
                                  np.stack([d.samples for _, d in signals]))
        for kind in scdt.classify.FEATURE_KINDS:
            features = scdt.featurize(signals, kind, scdt.TransformConfig())
            out[f"featurize/{kind}/{seed}"] = (features.labels, features.rows)
    edge_configs = {
        "off_grid": dict(a_range=(0.1, 0.1)),
        "collapsing": dict(t0=-3.0, a_range=(1e15, 1e15), b_range=(1e15, 1e15), per_class=1),
    }
    for name, kwargs in edge_configs.items():
        out[f"dataset/{name}"] = _try(lambda: [
            d.samples for _, d in scdt.generate_dataset(scdt.GenConfig(**kwargs))])

    cfg = scdt.TransformConfig(n_quantiles=LARGE_M)
    measures, transforms = [], []
    for k in range(8):
        for signed in (True, False):
            d = _large_density(scdt, np.random.default_rng([k, int(signed)]), signed)
            s = scdt.measure_from_density(d)
            t = scdt.scdt_forward(s, cfg)
            key = f"large/{k}/{'signed' if signed else 'nonnegative'}"
            out[key + "/forward"] = (t.plus.samples, t.plus.mass, t.minus.samples, t.minus.mass)
            out[key + "/rebin_inverse"] = _try(
                lambda: scdt.rebin(scdt.scdt_inverse(t, cfg), d.t0, d.t1, d.n_bins).samples)
            measures.append(s)
            transforms.append(t)
    for i, (a, b) in enumerate(zip(measures, measures[1:])):
        out[f"large/d_s/{i}"] = _report(scdt.d_s(a, b, LARGE_M))
        out[f"large/transform_l2/{i}"] = scdt.transform_l2(transforms[i], transforms[i + 1], cfg)

    rng = np.random.default_rng(0)
    levels = np.concatenate(([0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324], rng.random(60)))
    for k in range(40):
        n = int(rng.integers(1, 8))
        locs = np.sort(rng.normal(size=n))
        ends = [(-np.inf,), (np.inf,), (-np.inf, np.inf)][k % 3]
        locs = np.unique(np.concatenate((locs, ends)))
        w = rng.exponential(size=locs.size) * 10.0 ** rng.integers(-300, 300)
        m = scdt.DiscreteMeasure(locs, w)
        out[f"quantiles/{k}"] = scdt.measure_quantiles(m, levels)

    zero = scdt.DiscreteMeasure.zero()
    parts = [scdt.DiscreteMeasure(np.sort(rng.normal(size=n)), rng.random(n) + 0.1)
             for n in (1, 3, 17, 200)]
    for n_q in (2, 7, 1024):
        for i, p in enumerate(parts):
            out[f"d_w2/{n_q}/{i}/zero_first"] = _report(scdt.d_w2(zero, p, n_q))
            out[f"d_w2/{n_q}/{i}/zero_second"] = _report(scdt.d_w2(p, zero, n_q))
            q = parts[(i + 1) % len(parts)]
            out[f"d_w2/{n_q}/{i}/both"] = _report(scdt.d_w2(p, q, n_q))
            unit = p.scaled(1.0 / p.total_mass)
            out[f"w2/{n_q}/{i}"] = scdt.w2(unit, q.scaled(1.0 / q.total_mass), n_q)
            sa, sb = scdt.SignedMeasure(p, zero), scdt.SignedMeasure(zero, p.scaled(2.0))
            out[f"d_s/{n_q}/{i}"] = _report(scdt.d_s(sa, sb, n_q))
            for mass in (1.0, 2.0):
                tcfg = scdt.TransformConfig(scdt.ReferenceMeasure.uniform(mass=mass), n_q)
                out[f"transform_l2/{n_q}/{i}/ref_mass_{mass:g}"] = scdt.transform_l2(
                    scdt.scdt_forward(sa, tcfg), scdt.scdt_forward(sb, tcfg), tcfg)
        out[f"d_w2/{n_q}/zero_zero"] = _report(scdt.d_w2(zero, zero, n_q))

    for name, (a, b) in _extreme_pairs(scdt).items():
        tcfg = scdt.TransformConfig()
        out[f"extreme/{name}/d_s"] = _strict(lambda: scdt.d_s(a, b).value)
        out[f"extreme/{name}/d_w2"] = _strict(
            lambda: scdt.d_w2(a.positive_part, b.positive_part).value)
        out[f"extreme/{name}/w2"] = _strict(lambda: scdt.w2(a.positive_part, b.positive_part))
        out[f"extreme/{name}/transform_l2"] = _strict(lambda: scdt.transform_l2(
            scdt.scdt_forward(a, tcfg), scdt.scdt_forward(b, tcfg), tcfg))

    def inverse(plus, minus, n_q=8):
        t = scdt.ScdtResult(scdt.CdtResult(*plus), scdt.CdtResult(*minus))
        back = scdt.scdt_inverse(t, scdt.TransformConfig(n_quantiles=n_q))
        return scdt.rebin(back, 0.0, 4.0, 16).samples

    ones = np.ones(8)
    out["inverse/exact_collision"] = _with_warnings(lambda: inverse((ones, 1.0), (ones, 2.0)))
    out["inverse/near_collision"] = _with_warnings(
        lambda: inverse((ones, 1.0), (np.full(8, 1.0 + 5e-10), 2.0)))
    out["inverse/tiny_mass"] = _with_warnings(
        lambda: inverse((np.ones(4), 5e-324), (np.zeros(4), 0.0), n_q=4))

    ref = scdt.ReferenceMeasure(np.array([-1.0, 0.5, 2.0]), np.array([0.0, 0.3, 2.5]))
    for k in range(3):
        pair = []
        for first in (True, False):
            densities = [_large_density(scdt, np.random.default_rng([k, j, 5]), j == 0)
                         for j in range(2)]
            measures = [scdt.measure_from_density(d) for d in densities]
            if first:
                for s in measures:
                    scdt.scdt_forward(s, scdt.TransformConfig(ref, n_quantiles=LARGE_M))
            pair.append(measures)
        for n_q in (LARGE_M, 1024):
            for name, (a, b) in zip(("forward_first", "fresh"), pair):
                out[f"memo/d_s/{k}/{n_q}/{name}"] = _report(scdt.d_s(a, b, n_q))

    references = {
        "acceptance/0": ([0.0, 1.0], [0.0, 1.0]),
        "acceptance/1": ([-2.0, 5.0], [0.0, 1.0]),
        "acceptance/2": ([0.0, 3.0], [0.0, 2.5]),
        "acceptance/3": ([0.0, 0.5, 2.0], [0.0, 0.7, 1.0]),
        "acceptance/4": ([0.0, 1.0, 4.0], [0.0, 1.5, 2.0]),
        "mass_1e-320": ([0.0, 1.0], [0.0, 1e-320]),
        "mass_1e308": ([0.0, 1.0], [0.0, 1e308]),
        "slope_overflow": ([0.0, 1e-300], [0.0, 1e300]),
        "span_overflow": ([-1e308, 1e308], [0.0, 1.0]),
        "slope_underflow": ([0.0, 1e300], [0.0, 1e-300]),
    }
    for name, (xs, ys) in references.items():
        out[f"reference/{name}"] = _checked(lambda: _reference_round_trip(scdt, xs, ys))

    inverses = []
    for xs, ys, locs in _acceptance_warps(np.random.default_rng(13)):
        g = scdt.IncreasingReparam.piecewise_linear(xs, ys)
        inverses.append(g.inverse(np.concatenate((locs, ys, [ys[0] - 1.0, ys[-1] + 1.0]))))
    out["reparam/pwl/acceptance"] = np.concatenate(inverses)

    def subnormal_warp():
        g = scdt.IncreasingReparam.piecewise_linear([0.0, 1.0, 2.0], [0.0, 1e-320, 1.0])
        y = np.array([0.0, 0.25e-320, 0.5e-320, 1e-320, 0.5, 1.0, 2.0])
        x = g.inverse(y)
        if not np.all(np.isfinite(x)):
            raise ArithmeticError("the inverse of a finite value is not finite")
        return x
    out["reparam/pwl/subnormal"] = _checked(subnormal_warp)

    fits = {"n-above-p": _blobs(scdt, 50, 0), "low-rank-rows": _blobs(scdt, 20, 200)}
    signals = scdt.generate_dataset(scdt.GenConfig(seed=0))
    features = scdt.featurize(signals, "scdt", scdt.TransformConfig(n_quantiles=4096))
    held_out = np.arange(len(signals)) % 2 == 1
    fits["transform-4096"] = (features.subset(~held_out), features.subset(held_out).rows)
    for name, (train, test_rows) in fits.items():
        model = scdt.classify.fit_lda(train)
        out[f"fit_lda/{name}"] = (model.predict(test_rows), model.projection.shape[1],
                                  model.regularization)
        out[f"fit_lda/{name}/projection"] = model.projection
    return out


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def _raised(v):
    """The ``_try`` record of an exception, also inside a ``_with_warnings`` pair."""
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], list):
        v = v[0]
    if isinstance(v, tuple) and len(v) == 4 and isinstance(v[0], str) and v[0] == "raised":
        return v
    return None


def _relative_difference(a, b):
    """The largest ``|old - new| / max|old|`` of two outputs made of float
    arrays of equal shapes, else None."""
    a, b = (v if isinstance(v, tuple) else (v,) for v in (a, b))
    try:
        pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
                 for x, y in zip(a, b)]
        if len(a) != len(b) or any(x.shape != y.shape or x.size == 0 for x, y in pairs):
            return None
        return max(np.max(np.abs(x - y)) / np.max(np.abs(x)) for x, y in pairs)
    except (TypeError, ValueError):
        return None


def main(argv):
    if len(argv) == 2 and argv[0] == "--dump":
        with open(argv[1], "wb") as fh:
            pickle.dump(dump(), fh)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, checkout in enumerate(argv):
            path = os.path.join(tmp, f"{i}.pkl")
            env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src")}
            subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path],
                           env=env, check=True)
            with open(path, "rb") as fh:
                results.append(pickle.load(fh))
    old, new = results
    mismatched, fixed = [], []
    for key in sorted(old.keys() | new.keys()):
        was, now = _raised(old.get(key)), _raised(new.get(key))
        if key in new and was and (not now or (not was[3] and now[3])):
            fixed.append(f"{key}: {was[1]}: {was[2]}" + (f" -> {now[1]}: {now[2]}" if now else ""))
        elif key not in old or key not in new or not _same(old[key], new[key]):
            mismatched.append(key)
    print(f"{len(old.keys() | new.keys())} outputs compared; {len(mismatched)} differ; "
          f"{len(fixed)} fixed (raised in OLD only, or a bare ValueError in OLD and a typed "
          "error in NEW)")
    for line in fixed:
        print("  fixed:", line)
    worst = []
    for key in mismatched:
        rel = _relative_difference(old.get(key), new.get(key))
        print("  differs:", key + ("" if rel is None else f" (max relative difference {rel:.3g})"))
        worst += [] if rel is None else [rel]
    if worst:
        print(f"largest relative difference over the differing float outputs: {max(worst):.3g}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
