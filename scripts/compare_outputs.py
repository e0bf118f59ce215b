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
- ``w2``, ``d_w2`` and ``d_s`` with zero parts.

Arrays are compared by their bytes, so -0.0 against 0.0 counts as a
difference; for a differing key of float arrays the largest
``|old - new| / max|old|`` is printed too.  A case that raises is recorded
by exception type and message; one that raises in OLD and succeeds in NEW
is listed as fixed, not as a mismatch.  Exit status 1 means some output
differs.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile

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
    try:
        return fn()
    except Exception as exc:  # recorded, compared like any other output
        return ("raised", type(exc).__name__, str(exc))


def _report(r):
    return (r.value, r.components)


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
    return isinstance(v, tuple) and len(v) == 3 and v[0] == "raised"


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
        if key in old and key in new and _raised(old[key]) and not _raised(new[key]):
            fixed.append(f"{key}: {old[key][1]}: {old[key][2]}")
        elif key not in old or key not in new or not _same(old[key], new[key]):
            mismatched.append(key)
    print(f"{len(old.keys() | new.keys())} outputs compared; {len(mismatched)} differ; "
          f"{len(fixed)} raised in OLD only")
    for line in fixed:
        print("  fixed:", line)
    for key in mismatched:
        print("  differs:", key + _relative_difference(old.get(key), new.get(key)))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
