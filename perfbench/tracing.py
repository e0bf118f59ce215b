"""Span tracing of the scdt package from outside it.

``Tracer.install`` wraps the public functions of every scdt module, plus a
few named methods, and rebinds each wrapper everywhere the original is
bound: in its own module, in the scdt modules that imported it by name and
on the package itself.  Nested calls therefore get their own spans.  Spans
stay in memory as tuples; ``write_spans`` saves them once the run is over and
``summarize`` turns them into per-layer self times and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("steps", "measures", "transform", "metrics", "genmodel", "classify", "fileio", "cli")

#: Methods traced besides the module functions: (module, class, method, span name).
#: ``__post_init__`` counts one validated object per call.
METHODS = (
    ("measures", "DiscreteMeasure", "__post_init__", "measures.DiscreteMeasure"),
    ("steps", "StepFunction", "geninv_eval", "steps.StepFunction.geninv_eval"),
    ("classify", "LdaModel", "predict", "classify.predict"),
)

_KIND_SUFFIX = {"raw_signal": "raw", "scdt": "scdt"}


def _featurize_name(args, kwargs):
    kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
    return "classify.featurize_" + _KIND_SUFFIX.get(kind, str(kind))


def _fit_lda_name(args, kwargs):
    train = kwargs.get("train", args[0] if args else None)
    kind = getattr(train, "feature_kind", None)
    return "classify.fit_lda_" + _KIND_SUFFIX.get(kind, str(kind))


def _cli_main_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    command = argv[0] if argv else "none"
    return "cli.main_" + command.replace("-", "_")


#: Span names that depend on the arguments of the call.
NAMERS = {
    "classify.featurize": _featurize_name,
    "classify.fit_lda": _fit_lda_name,
    "cli.main": _cli_main_name,
}


def _quantile_bytes(args, kwargs, result):
    """Computed bytes of one ``measure_quantiles`` call: the weights and
    their cumulative sum (n atoms), and the levels, scaled levels, indices,
    clamped indices and gathered samples (M levels), 8 bytes each."""
    measure = kwargs.get("m", args[0] if args else None)
    return 8 * (2 * measure.weights.size + 5 * result.size)


def _file_bytes(args, kwargs, result):
    """Size of the file a fileio reader or writer was given."""
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


#: Counters recorded at a span's end: span name -> (counter suffix, function).
COUNTERS = {
    "measures.measure_quantiles": ("bytes_computed", _quantile_bytes),
    **{f"fileio.{name}": ("bytes", _file_bytes) for name in (
        "write_signal_csv", "read_signal_csv", "write_transform_json", "read_transform_json")},
}


class Tracer:
    """Records ``(span id, parent id, name, start ns, end ns, op index)``."""

    def __init__(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = [0]
        self._next_id = 1
        self._op = -1
        self._undo = []
        self.suspended = False

    # -- spans ------------------------------------------------------------

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id, parent, name, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end, self._op))

    def run_op(self, index, fn, *args):
        """Run one benchmark op under a root span ``bench.op``."""
        self._op = index
        span_id, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._exit(span_id, parent, "bench.op", start)

    @contextlib.contextmanager
    def suspend(self):
        """Record nothing inside the block, e.g. while outputs are checked."""
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False

    def _wrap(self, fn, name):
        namer = NAMERS.get(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            span_name = namer(args, kwargs) if namer else name
            span_id, parent = tracer._enter()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span_id, parent, span_name, start)
            if counter:
                tracer.counters[f"{span_name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; ``uninstall`` restores every original binding."""
        package = importlib.import_module("scdt")
        modules = [importlib.import_module(f"scdt.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for target in [package, *modules]:
            for attr, obj in list(vars(target).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((target, attr, obj))
                    setattr(target, attr, wrappers[obj])
        for layer, cls_name, method, span_name in METHODS:
            cls = getattr(importlib.import_module(f"scdt.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._undo):
            setattr(target, attr, obj)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span_id parent_id name start_ns end_ns op\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summarize(self):
        """Per span name, summed over all ops: self seconds (the span's
        duration minus the part its child spans cover), inclusive seconds
        and calls."""
        child_ns = defaultdict(int)
        for span_id, parent, name, start, end, op in self.spans:
            child_ns[parent] += end - start
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        for span_id, parent, name, start, end, op in self.spans:
            self_s[name] += (end - start - child_ns[span_id]) / 1e9
            incl_s[name] += (end - start) / 1e9
            calls[name] += 1
        return {"self_s": dict(self_s), "incl_s": dict(incl_s), "calls": dict(calls)}
