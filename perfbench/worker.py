"""One benchmark process: set up one workload in a fresh interpreter, then
either stop (``probe``), time ops untraced (``measure``), or time ops
untraced and then traced (``trace``).

Protocol on stdout: ``READY <digest>`` once set-up and the untimed warm-up op
are done, then, unless probing, ``RESULT <json>``.  The digest covers the
inputs and the warm-up output, so equal seeds must give equal digests.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

def run_loop(workload, op, seconds, first_index, tracer=None):
    """Closed loop with one client: start the next op when the previous one
    has ended and its output is checked, until ``seconds`` have passed."""
    times, errors = [], Counter()
    check_ctx = tracer.suspend if tracer else contextlib.nullcontext
    i = first_index
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        try:
            out = tracer.run_op(i, op, i) if tracer else op(i)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out = None
            errors[type(exc).__name__] += 1
        times.append(time.perf_counter() - start)
        if out is not None:
            with check_ctx():
                workload.check(i, out)
        i += 1
        if time.perf_counter() >= deadline:
            return times, errors, i


def import_times():
    """``cli.import_s``: time of ``import scdt.cli`` in a fresh interpreter;
    ``genmodel.import_s``: cumulative import time of ``scdt.genmodel`` from
    ``-X importtime`` in another one."""
    code = "import time; t = time.perf_counter(); import scdt.cli; print(time.perf_counter() - t)"
    plain = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                           check=True, timeout=120, text=True)
    timed = subprocess.run([sys.executable, "-X", "importtime", "-c", "import scdt.cli"],
                           stderr=subprocess.PIPE, check=True, timeout=120, text=True)
    genmodel_us = next(int(line.split("|")[1]) for line in timed.stderr.splitlines()
                       if line.split("|")[-1].strip() == "scdt.genmodel")
    return {"cli.import_s": float(plain.stdout.strip()), "genmodel.import_s": genmodel_us / 1e6}


def layer_value(name, summary, counters, n_ops):
    """Per-op value of ``<span or layer>.self_s``, ``<span>.calls`` or a
    counter; a layer's self time sums every span in its module."""
    base, _, kind = name.rpartition(".")
    if kind == "self_s":
        if base in tracing.LAYERS:
            total = sum(v for k, v in summary["self_s"].items() if k.startswith(base + "."))
        else:
            total = summary["self_s"].get(base, 0.0)
    elif kind == "calls":
        total = summary["calls"].get(base, 0)
    else:
        total = counters.get(name, 0.0)
    return total / n_ops


#: Spans of the experiment's stages (generate, featurize, fit, predict); they
#: never nest in one another.
STAGES = ("genmodel.generate_dataset", "classify.featurize_raw", "classify.featurize_scdt",
          "classify.fit_lda_raw", "classify.fit_lda_scdt", "classify.predict")


def traced_run(workload, op, seconds, first_index, names, spans_path):
    """Half the time untraced, half traced.  Returns all op times, their
    errors, the per-layer values per op and the inclusive seconds per op of
    every span."""
    untraced, errors, i = run_loop(workload, op, seconds / 2, first_index)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_errors, _ = run_loop(workload, op, seconds / 2, i, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    summary = tracer.summarize()
    n = len(traced)
    values = import_times()
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    values["trace.stage_share"] = sum(summary["incl_s"].get(s, 0.0) for s in STAGES) / sum(traced)
    for name in names:
        if name not in values:
            values[name] = layer_value(name, summary, tracer.counters, n)
    inclusive = {k: v / n for k, v in sorted(summary["incl_s"].items())}
    return untraced + traced, errors + traced_errors, values, inclusive


def _openblas():
    """Version string and thread count of each OpenBLAS loaded here."""
    out = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            try:
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            out.append({"library": os.path.basename(path),
                        "config": config().decode(), "threads": threads()})
            break
    return out


def environment():
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas(),
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, index)
            if not index.startswith("index"):
                continue
            with open(os.path.join(base, "level")) as level, open(os.path.join(base, "type")) as kind, \
                    open(os.path.join(base, "size")) as size:
                env[f"L{level.read().strip()}_{kind.read().strip().lower()}"] = size.read().strip()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="span file written in trace mode")
    parser.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        warm = workload.op(0)
    except Exception as exc:  # the warm-up op fails like any other op
        digest = f"{type(exc).__name__}: {exc}"
    else:
        workload.check(0, warm)
        digest = workload.digest(warm)
    print("READY", digest, flush=True)
    if args.mode == "probe":
        return 0

    in_process = args.mode == "trace" and args.workload == "cli"
    op = workload.op_in_process if in_process else workload.op
    per_layer, inclusive = {}, {}
    if args.mode == "measure":
        times, errors, _ = run_loop(workload, op, args.seconds, 1)
    else:
        times, errors, per_layer, inclusive = traced_run(
            workload, op, args.seconds, 1, args.per_layer.split(","), args.spans)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not in_process else resource.RUSAGE_SELF
    gates = {name: [bool(ok), detail] for name, (ok, detail) in workload.gates().items()}
    gates["no_op_failed"] = [not errors, sum(errors.values())]
    result = {
        "times": times,
        "errors": dict(errors),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "gates": gates,
        "details": workload.details(),
        "working_set_bytes": workload.working_set_bytes(),
        "per_layer": per_layer,
        "inclusive_s_per_op": inclusive,
        "environment": environment(),
    }
    print("RESULT", json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
