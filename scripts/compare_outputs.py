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
- ``scdt_forward`` samples and masses, ``rebin(scdt_inverse(...))`` and
  ``d_s`` values and components on 4e5-bin signed and nonnegative densities
  at M = 2^17;
- ``measure_quantiles`` on measures with atoms at +-inf, at the levels
  0, 1, nextafter(1, 0), 5e-324 and random levels;
- ``w2``, ``d_w2`` and ``d_s`` with zero parts;
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
  under ``fit_lda/<name>/projection``.

Arrays are compared by their bytes, so -0.0 against 0.0 counts as a
difference; for a differing key of float arrays the largest
``|old - new| / max|old|`` is printed too.  A case that raises is recorded
by exception type and message, and whether the type is one of the
package's typed errors (``ScdtError``).  One that raises in OLD and succeeds
in NEW, or raises a bare ``ValueError`` in OLD and a typed error in NEW, is
listed as fixed, not as a mismatch.  Exit status 1 means some output
differs.
"""

from __future__ import annotations

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
    measures = []
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
    for i, (a, b) in enumerate(zip(measures, measures[1:])):
        out[f"large/d_s/{i}"] = _report(scdt.d_s(a, b, LARGE_M))

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
            out[f"d_s/{n_q}/{i}"] = _report(scdt.d_s(
                scdt.SignedMeasure(p, zero), scdt.SignedMeasure(zero, p.scaled(2.0)), n_q))
        out[f"d_w2/{n_q}/zero_zero"] = _report(scdt.d_w2(zero, zero, n_q))

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
    """`` (max relative difference ...)`` for two outputs made of float arrays
    of equal shapes, else an empty string."""
    a, b = (v if isinstance(v, tuple) else (v,) for v in (a, b))
    try:
        pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
                 for x, y in zip(a, b)]
        if len(a) != len(b) or any(x.shape != y.shape or x.size == 0 for x, y in pairs):
            return ""
        worst = max(np.max(np.abs(x - y)) / np.max(np.abs(x)) for x, y in pairs)
    except (TypeError, ValueError):
        return ""
    return f" (max relative difference {worst:.3g})"


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
    for key in mismatched:
        print("  differs:", key + _relative_difference(old.get(key), new.get(key)))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
