"""Benchmark of the scdt package: one workload per run.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It imports nothing from scdt itself:
every measurement happens in fresh interpreters running ``worker.py`` with
``src`` on ``PYTHONPATH``.  With ``--trace 0`` it sets the workload up three
times in three interpreters (two that stop when ready and the one that then
times ops) and reports the end-to-end metrics; with ``--trace 1`` one
interpreter times ops untraced and then traced and reports the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.

A detail line (environment, gates, failures by exception type, tail sample
counts, per-op inclusive span times) is printed before the last line, which
is the JSON result.  The exit code is 1 when a correctness gate fails and 2
when the run cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
#: Every run must end within 180 s; the watchdog leaves margin for clean-up.
TIME_LIMIT_S = 170
#: Seed reserved for confirming claims; never used while tuning a change.
HELD_OUT_SEED = 97
#: One client, one thread: with two BLAS threads on a 2-vCPU VM shared with
#: other tenants, a stalled vCPU stalls the factorization (one fit_lda took
#: 1.56 s instead of 0.25 s), which buried every other change in noise.
BLAS_THREADS = 1


class Worker:
    """A ``worker.py`` process in its own process group, which a watchdog
    kills, with any CLI process the worker started, at the run's deadline."""

    def __init__(self, args, mode, workdir, deadline, extra=()):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
        src = os.path.abspath("src")
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
               "--workdir", workdir, *extra]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                     start_new_session=True)
        self.watchdog = threading.Timer(max(deadline - time.monotonic(), 0), self._kill)
        self.watchdog.start()

    def _kill(self):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)

    def read(self, tag):
        """The payload of the next stdout line starting with ``tag``."""
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return line[len(tag) + 1:].rstrip("\n")
        raise RuntimeError(f"worker ended before {tag} (exit code {self.finish()})")

    def finish(self):
        self.proc.stdout.close()
        code = self.proc.wait()
        self.watchdog.cancel()
        return code


def tail(times):
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile, samples beyond)``; the maximum when there are ten
    samples or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def measure(args, spec, workdir, deadline):
    ready_s, digests = [], []
    for _ in range(SETUP_SAMPLES - 1):
        worker = Worker(args, "probe", workdir, deadline)
        try:
            digests.append(worker.read("READY"))
            ready_s.append(time.perf_counter() - worker.start)
        finally:
            code = worker.finish()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    worker = Worker(args, "measure", workdir, deadline)
    try:
        digests.append(worker.read("READY"))
        ready_s.append(time.perf_counter() - worker.start)
        result = json.loads(worker.read("RESULT"))
    finally:
        code = worker.finish()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    times = result["times"]
    tail_value, tail_pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(ready_s),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["gates"]["same_seed_same_outputs"] = [len(set(digests)) == 1, digests]
    result["setup_samples_s"] = ready_s
    result["tail"] = {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(times)}
    return values, result, spec["end_to_end"]


def trace(args, spec, workdir, deadline):
    names = [m["name"] for m in spec["per_layer"]]
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    worker = Worker(args, "trace", workdir, deadline,
                    ["--spans", spans, "--per-layer", ",".join(names)])
    try:
        worker.read("READY")
        result = json.loads(worker.read("RESULT"))
    finally:
        code = worker.finish()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    result["spans_file"] = os.path.relpath(spans)
    return result.pop("per_layer"), result, spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join("src", "scdt", "__init__.py")):
        print("error: src/scdt not found; run from the root of a checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        values, result, wanted = (trace if args.trace else measure)(args, spec, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = result.pop("times")
    attempted, failed = len(times), sum(result["errors"].values())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = all(ok for ok, _ in result["gates"].values())
    report = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "fail_ratio": failed / attempted, **result,
    }
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
