"""The benchmark workloads.

Each workload builds its inputs from the seed alone, runs one op per call to
``op(i)`` (closed loop, one client) and checks every output with
``check(i, output)``.  Library calls go through module attributes such as
``scdt.measures.measure_from_density`` so that the tracer's rebinding sees
them.  ``gates()`` returns the correctness gates as ``{name: (ok, detail)}``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys

import numpy as np

import scdt
import scdt.cli
import scdt.fileio

#: Signals and quantile grid of ``large_signal``: 4e5 bins (3.2 MB per
#: array) and M = 2^17, so one op's arrays total tens of MB, above the L2
#: cache and far below the L3 cache.
LARGE_BINS = 400_000
LARGE_M = 2**17


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _transform_arrays(t):
    return (t.plus.samples, t.plus.mass, t.minus.samples, t.minus.mass)


def _same_transform(a, b) -> bool:
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(_transform_arrays(a), _transform_arrays(b))
    )


class Experiment:
    """One op is one seed of ``run_experiment`` with default configs."""

    name = "experiment"
    n_seeds = 5

    def __init__(self, seed: int, workdir: str) -> None:
        self.gen = scdt.GenConfig()
        self.cfg = scdt.TransformConfig()
        self.seeds = [seed * self.n_seeds + j for j in range(self.n_seeds)]
        self.accuracies = {}
        self.repeat_mismatches = 0

    def op(self, i):
        s = self.seeds[i % len(self.seeds)]
        return s, scdt.classify.run_experiment(self.gen, self.cfg, seed=s)

    def check(self, i, out) -> None:
        s, report = out
        acc = (report.accuracy_scdt_space, report.accuracy_signal_space)
        if self.accuracies.setdefault(s, acc) != acc:
            self.repeat_mismatches += 1

    def digest(self, out) -> str:
        s, r = out
        return _digest(s, r.accuracy_scdt_space, r.accuracy_signal_space,
                       r.confusion_scdt, r.confusion_signal, r.projections_scdt,
                       r.projections_signal)

    def working_set_bytes(self) -> int:
        """Raw and transform feature matrices plus the p x p within-class
        scatter of the transform features."""
        n, g = self.gen.n_signals, self.gen.n_grid
        p = 2 * self.cfg.n_quantiles + 2
        return 8 * (n * g + n * p + p * p)

    def details(self) -> dict:
        scdt_acc = [a for a, _ in self.accuracies.values()]
        raw_acc = [r for _, r in self.accuracies.values()]
        return {
            "seeds": sorted(self.accuracies),
            "accuracy_scdt": float(np.mean(scdt_acc)),
            "accuracy_raw": float(np.mean(raw_acc)),
        }

    def gates(self) -> dict:
        d = self.details()
        return {
            "accuracy_scdt_mean_ge_0.95": (d["accuracy_scdt"] >= 0.95, d["accuracy_scdt"]),
            "accuracy_raw_mean_le_0.60": (d["accuracy_raw"] <= 0.60, d["accuracy_raw"]),
            "accuracies_identical_across_repeats": (
                self.repeat_mismatches == 0, self.repeat_mismatches),
        }


def _large_density(rng, signed: bool):
    """A sum of 3-6 Gaussian bumps on [0, 1] plus noise in every bin:
    Gaussian noise and random bump signs when ``signed``, uniform noise and
    positive bumps otherwise.  The noise keeps every bin nonzero (one atom
    each) and its decimal form long, so the work per op does not depend on
    the seed."""
    x = (np.arange(LARGE_BINS) + 0.5) / LARGE_BINS
    if signed:
        samples = 0.05 * rng.standard_normal(LARGE_BINS)
    else:
        samples = 0.05 * rng.random(LARGE_BINS)
    for _ in range(rng.integers(3, 7)):
        sign = rng.choice((-1.0, 1.0)) if signed else 1.0
        centre, width = rng.uniform(0.15, 0.85), rng.uniform(0.02, 0.12)
        samples += sign * rng.uniform(0.2, 3.0) * np.exp(-0.5 * ((x - centre) / width) ** 2)
    return scdt.GridDensity(0.0, 1.0, samples)


#: Pairs in the pool that ``large_signal`` cycles through, and the most
#: candidates it probes per sign to fill them.
POOL_PAIRS = 4
MAX_PROBES_PER_SIGN = 64
#: The message of the known inverse failure (ROADMAP item 5): pushforward's
#: M weights of ``mass / M`` do not sum to ``mass`` within 1e-12.
KNOWN_INVERSE_ERROR = "does not match the sum of weights"


class LargeSignal:
    """One op takes a pair of 4e5-bin densities, one signed and one
    nonnegative, each through measure_from_density, scdt_forward,
    scdt_inverse and rebin at M = 2^17, and compares the two with d_s and
    transform_l2.  A pair op, rather than one density per op, keeps the op
    time unimodal: signed densities take about 20 % longer.  Ops cycle
    through a pool of four pairs.

    Set-up fills the pool by probing fresh candidates from
    ``(seed, sign, k)``, k = 0, 1, ..., through forward and inverse.  The
    candidates on which ``scdt_inverse`` raises the known ``total_mass``
    error are counted per sign in the detail record and left out of the
    timed ops, so the count depends on the seed alone and not on how many
    ops a run gets through.  Any other error ends the run."""

    name = "large_signal"
    kinds = ("signed", "nonnegative")

    def __init__(self, seed: int, workdir: str) -> None:
        self.cfg = scdt.TransformConfig(n_quantiles=LARGE_M)
        self.probes = {}
        pools = []
        for kind in self.kinds:
            signed = kind == "signed"
            pool, failures = [], 0
            for k in range(MAX_PROBES_PER_SIGN):
                density = _large_density(np.random.default_rng([seed, int(signed), k]), signed)
                if self._round_trips(density):
                    pool.append(density)
                else:
                    failures += 1
                if len(pool) == POOL_PAIRS:
                    break
            else:
                raise RuntimeError(f"{failures} of {MAX_PROBES_PER_SIGN} {kind} candidates "
                                   "failed the inverse; the pool could not be filled")
            self.probes[kind] = {"probed": k + 1, "inverse_total_mass_errors": failures}
            pools.append(pool)
        self.pool = list(zip(*pools))
        self.pairs = []
        self.mass_errors = []
        self._working_set = 0

    def _round_trips(self, density) -> bool:
        """Whether forward then inverse succeeds on ``density``; False on
        the known ``total_mass`` error, which is the only one caught."""
        t = scdt.transform.scdt_forward(scdt.measures.measure_from_density(density), self.cfg)
        try:
            scdt.transform.scdt_inverse(t, self.cfg)
        except ValueError as exc:
            if KNOWN_INVERSE_ERROR not in str(exc):
                raise
            return False
        return True

    def op(self, i):
        sides = []
        for d in self.pool[i % len(self.pool)]:
            s = scdt.measures.measure_from_density(d)
            t = scdt.transform.scdt_forward(s, self.cfg)
            back = scdt.transform.scdt_inverse(t, self.cfg)
            sides.append((d, s, t, back, scdt.measures.rebin(back, d.t0, d.t1, d.n_bins)))
        (_, sa, ta, *_), (_, sb, tb, *_) = sides
        ds = scdt.metrics.d_s(sa, sb, LARGE_M).value
        l2 = scdt.metrics.transform_l2(ta, tb, self.cfg)
        return sides, ds, l2

    def check(self, i, out) -> None:
        sides, ds, l2 = out
        self.pairs.append((ds, l2))
        if not self._working_set:
            arrays = []
            for d, s, t, back, rebinned in sides:
                arrays += [d.samples, rebinned.samples, *_transform_arrays(t)[::2]]
                for m in (s, back):
                    for part in (m.positive_part, m.negative_part):
                        arrays += [part.locations, part.weights]
            self._working_set = sum(a.nbytes for a in arrays)
        for d, s, t, back, rebinned in sides:
            signed_mass = s.positive_part.total_mass - s.negative_part.total_mass
            got = math.fsum(rebinned.samples) * rebinned.bin_width
            self.mass_errors.append(abs(got - signed_mass) / s.total_variation)

    def digest(self, out) -> str:
        sides, ds, l2 = out
        parts = [sorted(self.probes.items()), ds, l2]
        for d, s, t, back, rebinned in sides:
            parts += [d.samples, *_transform_arrays(t), rebinned.samples]
        return _digest(*parts)

    def working_set_bytes(self) -> int:
        """Arrays one op reads or creates: both densities, their measures'
        atoms, transform samples and rebinned densities."""
        return self._working_set

    def details(self) -> dict:
        worst = max((abs(l2 - ds) / ds for ds, l2 in self.pairs if ds > 0), default=0.0)
        probed = sum(p["probed"] for p in self.probes.values())
        failures = sum(p["inverse_total_mass_errors"] for p in self.probes.values())
        return {
            "inverse_probe": {**self.probes, "fail_ratio": failures / probed},
            "pairs": len(self.pairs),
            "l2_vs_ds_max_rel_error": worst,
            "round_trip_mass_max_rel_error": max(self.mass_errors, default=0.0),
        }

    def gates(self) -> dict:
        bad = sum(1 for ds, l2 in self.pairs if abs(l2 - ds) > 1e-6 * max(ds, 1e-300))
        d = self.details()
        return {
            "transform_l2_equals_d_s_rel_1e-6": (bad == 0 and len(self.pairs) > 0, bad),
            "round_trip_mass_rel_1e-9": (
                d["round_trip_mass_max_rel_error"] <= 1e-9, d["round_trip_mass_max_rel_error"]),
        }


class Cli:
    """One op is one ``python -m scdt.cli`` process, cycling transform,
    inverse (of the transform just written) and distance (to the next
    signal) over 256-bin CSVs of a generated dataset."""

    name = "cli"
    commands = ("transform", "inverse", "distance")
    grid = (-0.5, 5.0, 256)

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        gen = scdt.GenConfig(seed=seed, per_class=(4, 4, 4))
        self.paths = []
        for k, (_, density) in enumerate(scdt.genmodel.generate_dataset(gen)):
            path = os.path.join(workdir, f"signal_{k:02d}.csv")
            scdt.fileio.write_signal_csv(path, density)
            self.paths.append(path)
        self.returncodes = []
        self.mismatches = []

    def argv(self, i):
        command = self.commands[i % 3]
        k = (i // 3) % len(self.paths)
        out = os.path.join(self.workdir, f"out_{k:02d}")
        if command == "transform":
            return ["transform", "--input", self.paths[k], "--output", out + ".json"]
        if command == "inverse":
            # "--grid=" because argparse would read a bare "-0.5,..." as a flag.
            return ["inverse", "--input", out + ".json", "--output", out + ".csv",
                    "--grid=" + ",".join(map(str, self.grid))]
        b = self.paths[(k + 1) % len(self.paths)]
        return ["distance", "--a", self.paths[k], "--b", b]

    def op(self, i):
        argv = self.argv(i)
        proc = subprocess.run([sys.executable, "-m", "scdt.cli", *argv],
                              stdout=subprocess.PIPE, timeout=120)
        return argv, proc.returncode, proc.stdout.decode()

    def op_in_process(self, i):
        """The same op through ``scdt.cli.main`` in this process, for the
        traced run."""
        argv = self.argv(i)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = scdt.cli.main(argv)
        return argv, code, out.getvalue()

    def check(self, i, out) -> None:
        argv, code, stdout = out
        self.returncodes.append(code)
        if code != 0:
            return
        fio = scdt.fileio
        if argv[0] == "transform":
            density = fio.read_signal_csv(argv[2])
            want = scdt.scdt_forward(scdt.measure_from_density(density), scdt.TransformConfig())
            ok = _same_transform(fio.read_transform_json(argv[4])[0], want)
        elif argv[0] == "inverse":
            t, cfg = fio.read_transform_json(argv[2])
            want = scdt.rebin(scdt.scdt_inverse(t, cfg), *self.grid)
            ok = np.array_equal(fio.read_signal_csv(argv[4]).samples, want.samples)
        else:
            sa = scdt.measure_from_density(fio.read_signal_csv(argv[2]))
            sb = scdt.measure_from_density(fio.read_signal_csv(argv[4]))
            ok = stdout.strip() == repr(scdt.d_s(sa, sb).value)
        if not ok:
            self.mismatches.append(" ".join(argv))

    def digest(self, out) -> str:
        argv, code, stdout = out
        with open(argv[4], "rb") as fh:
            written = fh.read()
        inputs = []
        for path in self.paths:
            with open(path, "rb") as fh:
                inputs.append(fh.read())
        return _digest(code, stdout, written, *inputs)

    def working_set_bytes(self) -> int:
        """Input CSVs plus one transform JSON on disk."""
        files = self.paths + [os.path.join(self.workdir, "out_00.json")]
        return sum(os.path.getsize(p) for p in files if os.path.exists(p))

    def details(self) -> dict:
        return {"calls": len(self.returncodes), "mismatches": self.mismatches[:5]}

    def gates(self) -> dict:
        bad_codes = sorted({c for c in self.returncodes if c != 0})
        return {
            "every_exit_code_0": (not bad_codes, bad_codes),
            "outputs_match_in_process": (not self.mismatches, len(self.mismatches)),
        }


WORKLOADS = {w.name: w for w in (Experiment, LargeSignal, Cli)}
