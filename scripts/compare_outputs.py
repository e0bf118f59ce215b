"""Check that two checkouts of scdt compute bit-identical outputs.

    python3 scripts/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src`` is imported in its own interpreter, which records
every key of the groups listed below (``GROUPS``) into one dump.

Arrays are compared by their bytes, dtype and shape, so -0.0 against 0.0
counts as a difference, and so does a float whose bits differ; for a
differing key of float arrays the largest ``|old - new| / max|old|`` is
printed too, and the largest over all such keys at the end.  A case that
raises is recorded by exception type and message, and whether the type is
one of the package's typed errors (``ScdtError``).  Only a case that raises
a bare ``ValueError`` in OLD and a typed error in NEW is listed as fixed,
not as a mismatch; one that raises in OLD and returns a value in NEW
differs, so a change that drops a check fails the comparison.  A key on one
side only differs.  Exit status 0 means every output is the same, 1 that
some output differs, and 2 a usage error.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import importlib.util
import io
import json
import math
import operator
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np

LARGE_BINS = 400_000
LARGE_M = 2**17
SEEDS = (0, 1, 2, 3, 4, 97)

PLAIN, ERRORS, POSITIVE, WARNINGS = "plain", "warnings as errors", "positive", "warnings"


def _record(call, mode=PLAIN):
    """``call()``, or ``("raised", type name, message, is a ScdtError)``.  ``ERRORS``
    raises warnings as errors; ``POSITIVE`` does too, and records a value of inf or 0 as
    raising ``ArithmeticError``: between distinct inputs a distance must be finite and
    positive.  ``WARNINGS`` records that record and the messages of the warnings given."""
    from scdt.errors import ScdtError

    with warnings.catch_warnings(record=mode == WARNINGS) as caught:
        if mode != PLAIN:
            warnings.simplefilter("always" if mode == WARNINGS else "error")
        try:
            value = call()
            if mode == POSITIVE and not 0 < value < math.inf:
                raise ArithmeticError(f"distance {value!r} between distinct inputs")
        except Exception as exc:  # recorded, compared like any other output
            value = ("raised", type(exc).__name__, str(exc), isinstance(exc, ScdtError))
    return (value, [str(w.message) for w in caught]) if mode == WARNINGS else value


def _large_density(scdt, rng, signed):
    x = (np.arange(LARGE_BINS) + 0.5) / LARGE_BINS
    noise = rng.standard_normal(LARGE_BINS) if signed else rng.random(LARGE_BINS)
    samples = 0.05 * noise
    for _ in range(rng.integers(3, 7)):
        sign = rng.choice((-1.0, 1.0)) if signed else 1.0
        centre, width = rng.uniform(0.15, 0.85), rng.uniform(0.02, 0.12)
        samples += sign * rng.uniform(0.2, 3.0) * np.exp(-0.5 * ((x - centre) / width) ** 2)
    return scdt.GridDensity(0.0, 1.0, samples)


#: The recorded fields of a distance report, a density, a step function and features.
_report = operator.attrgetter("value", "components")
_density = operator.attrgetter("t0", "t1", "samples")
_step = operator.attrgetter("breakpoints", "values", "value_at_pos_inf")
_rows = operator.attrgetter("labels", "rows")


def _default_protocol(scdt, ctx):
    gen = scdt.GenConfig()
    grid = scdt.GridDensity(gen.t0, gen.t1, np.zeros(gen.n_grid)).bin_centers()
    for template in scdt.TEMPLATES:
        # A function, or in older versions an object with a name.
        name = getattr(template, "name", None) or template.__name__
        yield f"template/{name}", PLAIN, lambda: template(grid)
    for seed in SEEDS:
        rep = scdt.classify.run_experiment(scdt.GenConfig(), scdt.TransformConfig(), seed=seed)
        signals = ctx.dataset(seed)
        features = {kind: scdt.featurize(signals, kind, scdt.TransformConfig())
                    for kind in scdt.classify.FEATURE_KINDS}
        held_out = np.arange(len(signals)) % 2 == 1

        def refit(f):  # the held-out predictions, refitted on run_experiment's parity split
            return scdt.classify.fit_lda(f.subset(~held_out)).predict(f.subset(held_out).rows)
        yield f"experiment/{seed}", PLAIN, lambda: (
            rep.accuracy_signal_space, rep.accuracy_scdt_space, rep.confusion_signal,
            rep.confusion_scdt, *map(refit, features.values()))
        yield (f"experiment/{seed}/projections", PLAIN,
               lambda: (rep.projections_signal, rep.projections_scdt))
        yield f"dataset/{seed}", PLAIN, lambda: (np.array([label for label, _ in signals]),
                                                 np.stack([d.samples for _, d in signals]))
        yield (f"dataset/{seed}/view", PLAIN,
               lambda: (signals.labels, signals.t0, signals.t1, signals.samples))
        for kind, f in features.items():
            yield f"featurize/{kind}/{seed}", PLAIN, lambda: _rows(f)
            yield f"featurize/{kind}/{seed}/pairs", PLAIN, lambda: _rows(
                scdt.featurize(list(signals), kind, scdt.TransformConfig()))


def _edge_cases(scdt, ctx):
    yield "experiment/untrained-class", PLAIN, lambda: scdt.classify.run_experiment(
        scdt.GenConfig(per_class=(3, 4, 1), n_grid=32), scdt.TransformConfig(n_quantiles=16))

    def one_bin():
        # Each space keeps one discriminant direction, so the projections are padded,
        # and class 2 is never predicted, so a confusion column stays empty.
        rep = scdt.classify.run_experiment(
            scdt.GenConfig(n_grid=1, per_class=(4, 4, 4), noise_sigma=0.0),
            scdt.TransformConfig(n_quantiles=2))
        return (rep.accuracy_signal_space, rep.accuracy_scdt_space, rep.confusion_signal,
                rep.confusion_scdt, rep.projections_signal, rep.projections_scdt,
                rep.test_labels)
    yield "experiment/one-bin", PLAIN, one_bin
    configs = {
        "off_grid": dict(a_range=(0.1, 0.1)),
        "collapsing": dict(t0=-3.0, a_range=(1e15, 1e15), b_range=(1e15, 1e15), per_class=1),
        "noiseless": dict(noise_sigma=0.0, per_class=5, n_grid=64),
        "integer-ranges": dict(a_range=(1, 2), b_range=(0, 0), per_class=5, n_grid=64, seed=4),
        "loud": dict(noise_sigma=3.0, per_class=5, n_grid=32, seed=9),
        "beyond-float64": dict(a_range=(1e-310, 1e-310), per_class=1),
        # tests/conftest.py MERGING_GEN: every row's warped atoms merge, so every row is
        # replayed through rebin(apply_reparam(...)) and succeeds.
        "merging": dict(a_range=(4.2e13, 4.4e13), b_range=(-1.31e14, -1.29e14),
                        per_class=(2, 2, 2), seed=3),
    }
    for name, kwargs in configs.items():
        mode = ERRORS if name == "beyond-float64" else PLAIN
        yield f"dataset/{name}", mode, lambda: [
            d.samples for _, d in scdt.generate_dataset(scdt.GenConfig(**kwargs))]

    def extreme(scales):
        # Rows of normal weights are counted at M = 2^17 whatever their scale, from
        # just above the smallest normal float to near overflow; a row holding a
        # subnormal weight raises the per-signal RangeError.
        rng = np.random.default_rng(3)
        signals = [(0, scdt.GridDensity(0.0, 64.0, rng.choice((-1.0, 0.0, 1.0), size=64)
                                        * rng.uniform(1.0, 2.0, size=64) * scale))
                   for scale in scales]
        return scdt.featurize(signals, "scdt", scdt.TransformConfig(n_quantiles=LARGE_M)).rows
    for name, scales in (("1e-320", [1e-320] * 4), ("1e300", [1e300] * 4),
                         ("mixed", [1e-320, 1e-305, 1.0, 1e300]),
                         ("tiny-normal", [1e-307, 1e-306, 1e-305, 1e-304])):
        yield f"featurize/extreme/{name}", ERRORS, lambda: extreme(scales)
    # At M = 2 the level past the last, (M + 1/2) / M * total, overflows for these plus parts.
    near_max = [(i, scdt.GridDensity(0.0, 3.0, np.array(row)))
                for i, row in enumerate([[1.5e308, 0.0, -1.0], [1.0, 1.7e308, -2.0]])]
    yield "featurize/extreme/near-max", ERRORS, lambda: scdt.featurize(
        near_max, "scdt", scdt.TransformConfig(n_quantiles=2)).rows
    yield "featurize/extreme/subnormal-weight", ERRORS, lambda: scdt.featurize(
        [(0, scdt.GridDensity(0.0, 0.125, np.array([4.357289704339519e-308])))], "scdt",
        scdt.TransformConfig()).rows
    # Neighbouring bin centres collide: one atom per colliding pair must equal the
    # per-signal transform; next to a row whose atoms collide, featurize raises.
    collide = [(0, scdt.GridDensity(1e16, 1e16 + 8, np.array([1.0, 0, -2, 0, 3, 0, 0, 0]))),
               (1, scdt.GridDensity(1e16, 1e16 + 8, np.array([0.0, 1, 1, 0, 0, 0, 0, 0])))]
    yield "featurize/collide-grid", PLAIN, lambda: tuple(
        _record(lambda: scdt.featurize(signals, "scdt", scdt.TransformConfig()).rows, ERRORS)
        for signals in (collide[:1], collide))


def _overflow(scdt, ctx):
    from scdt.cli import main as cli_main

    def read(path):
        try:
            return _density(scdt.fileio.read_signal_csv(path))
        except ValueError as exc:  # the message names the file: leave its directory out
            raise type(exc)(str(exc).replace(ctx.tmp, "")) from None
    for name, rows in (("t-span", "-1.7e308,1\n0,1\n1.7e308,1\n"),
                       ("bin-edge", "1.7e308,1\n1.79e308,1\n")):
        path = os.path.join(ctx.tmp, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,value\n" + rows)
        yield f"csv/overflow/{name}", ERRORS, lambda: read(path)
    one = scdt.SignedMeasure(scdt.DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                             scdt.DiscreteMeasure.zero())
    yield "grid/span-overflow/density", ERRORS, lambda: _density(
        scdt.GridDensity(-1e308, 1e308, np.array([1.0, 2.0])))
    yield "grid/span-overflow/rebin", ERRORS, lambda: scdt.rebin(one, -1e308, 1e308, 4).samples

    def cli(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(argv)
        return code, err.getvalue().replace(ctx.tmp, "")

    def inverse():
        tj, csv = os.path.join(ctx.tmp, "t.json"), os.path.join(ctx.tmp, "span.csv")
        scdt.fileio.write_transform_json(
            tj, scdt.scdt_forward(one, scdt.TransformConfig(n_quantiles=8)),
            scdt.TransformConfig(n_quantiles=8))
        code, err = cli(["inverse", "--input", tj, "--output", csv, "--grid=-1e308,1e308,4"])
        if not os.path.exists(csv):
            return code, err, None
        with open(csv, encoding="utf-8") as fh:
            return code, err, [line.split(",")[0] for line in fh.read().splitlines()]

    def generate():
        cfg = os.path.join(ctx.tmp, "span.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"t0": -1e308, "t1": 1e308, "per_class": 1, "n_grid": 4}, fh)
        return cli(["generate", "--config", cfg, "--outdir", os.path.join(ctx.tmp, "span")])
    yield "grid/span-overflow/cli-inverse", ERRORS, inverse
    yield "grid/span-overflow/cli-generate", ERRORS, generate
    yield "grid/span-overflow/genconfig", ERRORS, lambda: _state(
        scdt.GenConfig(t0=-1e308, t1=1e308))
    yield "measure/total-overflow", ERRORS, lambda: scdt.DiscreteMeasure(
        np.array([0.0, 1.0]), np.array([1e308, 1e308])).total_mass
    yield "measure/from_atoms/merge-overflow", ERRORS, lambda: scdt.DiscreteMeasure.from_atoms(
        np.array([1.0, 1.0]), np.array([1e308, 1e308])).total_mass
    # The weight, the sample over 8, is subnormal.
    subnormal = scdt.GridDensity(0.0, 0.125, np.array([4.357289704339519e-308]))
    yield "measure/subnormal-weight", ERRORS, lambda: [
        (p.locations, p.weights, p.total_mass)
        for p in operator.attrgetter("positive_part", "negative_part")(
            scdt.measure_from_density(subnormal))]

    # A 400-digit integer, beyond float64, as a transform mass and as a config value.
    long_integer = 10**399

    def long_inverse():
        tj = os.path.join(ctx.tmp, "long.json")
        cfg = scdt.TransformConfig(n_quantiles=8)
        scdt.fileio.write_transform_json(tj, scdt.scdt_forward(one, cfg), cfg)
        with open(tj, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["plus"]["mass"] = long_integer
        with open(tj, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return cli(["inverse", "--input", tj, "--output", os.path.join(ctx.tmp, "long.csv"),
                    "--grid", "0,2,8"])

    def long_generate():
        cfg = os.path.join(ctx.tmp, "long-config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"noise_sigma": long_integer, "per_class": 1, "n_grid": 4}, fh)
        return cli(["generate", "--config", cfg, "--outdir", os.path.join(ctx.tmp, "long")])
    yield "json/long-integer/cli-inverse", ERRORS, long_inverse
    yield "json/long-integer/cli-generate", ERRORS, long_generate


def _large(scdt, ctx):
    cfg = scdt.TransformConfig(n_quantiles=LARGE_M)
    transformed = []
    for k in range(8):
        for signed in (True, False):
            d = _large_density(scdt, np.random.default_rng([k, int(signed)]), signed)
            s = scdt.measure_from_density(d)
            t = scdt.scdt_forward(s, cfg)
            transformed.append((s, t))
            key = f"large/{k}/{'signed' if signed else 'nonnegative'}"
            yield key + "/forward", PLAIN, lambda: (t.plus.samples, t.plus.mass,
                                                    t.minus.samples, t.minus.mass)
            yield key + "/rebin_inverse", PLAIN, lambda: scdt.rebin(
                scdt.scdt_inverse(t, cfg), d.t0, d.t1, d.n_bins).samples
    for i, ((a, ta), (b, tb)) in enumerate(zip(transformed, transformed[1:])):
        yield f"large/d_s/{i}", PLAIN, lambda: _report(scdt.d_s(a, b, LARGE_M))
        yield f"large/transform_l2/{i}", PLAIN, lambda: scdt.transform_l2(ta, tb, cfg)
    # d_s of measures transformed first, under a non-uniform reference, and of fresh ones.
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
                yield f"memo/d_s/{k}/{n_q}/{name}", PLAIN, lambda: _report(scdt.d_s(a, b, n_q))


def _quantiles(scdt, ctx):
    rng = ctx.rng
    levels = np.concatenate(([0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324], rng.random(60),
                             [-0.0, -0.5, 1.5, -np.inf, np.inf, np.nan]))
    for k in range(40):
        locs = np.sort(rng.normal(size=int(rng.integers(1, 8))))
        ends = [(-np.inf,), (np.inf,), (-np.inf, np.inf)][k % 3]
        locs = np.unique(np.concatenate((locs, ends)))
        w = rng.exponential(size=locs.size) * 10.0 ** rng.integers(-300, 300)
        m = scdt.DiscreteMeasure(locs, w)
        yield f"quantiles/{k}", PLAIN, lambda: scdt.measure_quantiles(m, levels)
        yield f"quantiles/{k}/scalar", PLAIN, lambda: [
            (type(v).__name__, float(v))
            for v in (scdt.measure_quantiles(m, x) for x in [*levels[-10:], np.array(0.5)])]
    for k in range(12):
        d = scdt.GridDensity(-1.0, 2.0, rng.choice((-1.0, 0.0, 1.0), size=int(rng.integers(1, 40)))
                             * rng.exponential(size=1) * 10.0 ** rng.integers(-300, 300))
        s = scdt.measure_from_density(d)
        for name, part in (("positive", s.positive_part), ("negative", s.negative_part)):
            # The first search takes the running sum the conversion leaves on the part.
            yield f"quantiles/density/{k}/{name}", PLAIN, lambda: [
                _record(lambda: scdt.measure_quantiles(part, levels)) for _ in range(2)]


def _collisions(scdt, ctx):
    from scdt.measures import _support_gap

    def inverse(plus, minus, n_q):
        t = scdt.ScdtResult(scdt.CdtResult(*plus), scdt.CdtResult(*minus))
        return scdt.scdt_inverse(t, scdt.TransformConfig(n_quantiles=n_q))

    locations = operator.attrgetter("positive_part.locations", "negative_part.locations")
    ones = np.ones(8)
    for name, plus, minus, n_q in (
            ("exact_collision", (ones, 1.0), (ones, 2.0), 8),
            ("near_collision", (ones, 1.0), (np.full(8, 1.0 + 5e-10), 2.0), 8),
            ("tiny_mass", (np.ones(4), 5e-324), (np.zeros(4), 0.0), 4)):
        yield f"inverse/{name}", WARNINGS, lambda: scdt.rebin(
            inverse(plus, minus, n_q), 0.0, 4.0, 16).samples
    rng = np.random.default_rng(17)
    ends = [(), (-np.inf,), (np.inf,), (-np.inf, np.inf)]
    for k in range(48):
        # Half-integer atoms collide now and then, and so do infinite ones; a shift
        # of 1e-10 makes finite near-collisions, one of 0.25 keeps them apart.
        locs = [np.unique(np.concatenate((rng.integers(-12, 12, size=int(n)) * 0.5,
                                          ends[int(rng.integers(0, 4))])))
                for n in rng.integers(1, 20, size=2)]
        locs[1] = locs[1] + (0.0, 1e-10, 0.25)[k % 3]
        parts = [scdt.DiscreteMeasure(x, rng.uniform(0.5, 2.0, size=x.size)) for x in locs]
        n_q = 64
        samples = [np.sort(rng.choice(x, size=n_q)) for x in locs]
        for order, (a, b) in (("plus-minus", (0, 1)), ("minus-plus", (1, 0))):
            key = f"support_gap/{k}/{order}"
            yield key + "/signed", PLAIN, lambda: (scdt.SignedMeasure(parts[a], parts[b]),
                                                   "built")[1]
            yield key + "/gap", PLAIN, lambda: _support_gap(locs[a], locs[b])
            yield key + "/inverse", WARNINGS, lambda: locations(
                inverse((samples[a], 1.0), (samples[b], 2.0), n_q))


def _rebin(scdt, ctx):
    other = scdt.DiscreteMeasure(np.array([0.5, 1.5, 2.5]) + 0.125, np.full(3, 2.0))
    bad = {
        "below-first": [-1.0, 0.5, 1.0], "above-last": [0.5, 1.0, 5.0],
        "neg-inf-first": [-np.inf, 0.5, 1.0], "pos-inf-last": [0.5, 1.0, np.inf],
        "below-and-pos-inf": [-1.0, 0.5, np.inf], "neg-inf-and-above": [-np.inf, 0.5, 5.0],
        "edges": [0.0, 2.0, 4.0],
    }
    for name, locs in bad.items():
        part = scdt.DiscreteMeasure(np.array(locs), np.ones(3))
        shifted = scdt.DiscreteMeasure(np.array(locs) + 0.0625, np.ones(3))
        for side, (plus, minus) in (("positive", (part, other)), ("negative", (other, part)),
                                    ("both", (part, shifted))):
            yield f"rebin/{name}/{side}", ERRORS, lambda: scdt.rebin(
                scdt.SignedMeasure(plus, minus), 0.0, 4.0, 8).samples
    # Mass 1e10 over a bin width of 2.5e-301: the density overflows float64.
    huge = scdt.SignedMeasure(scdt.DiscreteMeasure([1e-301], [1e10]), scdt.DiscreteMeasure.zero())
    yield "rebin/overflow", PLAIN, lambda: scdt.rebin(huge, 0.0, 1e-300, 4).samples
    # Bin counts whose float64 array no address space holds, with an atom on the right edge.
    edge = scdt.SignedMeasure(scdt.DiscreteMeasure([4.0], [1.0]), scdt.DiscreteMeasure.zero())
    for name, n_bins in (("2**60", 2**60), ("2**63-1", 2**63 - 1), ("2**63", 2**63)):
        yield f"rebin/oversize/{name}", ERRORS, lambda: scdt.rebin(edge, 0.0, 4.0, n_bins).samples


def _metrics(scdt, ctx):
    def l2(a, b, cfg):
        return scdt.transform_l2(scdt.scdt_forward(a, cfg), scdt.scdt_forward(b, cfg), cfg)

    rng = ctx.rng
    zero = scdt.DiscreteMeasure.zero()
    parts = [scdt.DiscreteMeasure(np.sort(rng.normal(size=n)), rng.random(n) + 0.1)
             for n in (1, 3, 17, 200)]
    for n_q in (2, 7, 1024):
        for i, p in enumerate(parts):
            q = parts[(i + 1) % len(parts)]
            for name, (a, b) in (("zero_first", (zero, p)), ("zero_second", (p, zero)),
                                 ("both", (p, q))):
                yield f"d_w2/{n_q}/{i}/{name}", PLAIN, lambda: _report(scdt.d_w2(a, b, n_q))
            yield f"w2/{n_q}/{i}", PLAIN, lambda: scdt.w2(
                p.scaled(1.0 / p.total_mass), q.scaled(1.0 / q.total_mass), n_q)
            sa, sb = scdt.SignedMeasure(p, zero), scdt.SignedMeasure(zero, p.scaled(2.0))
            yield f"d_s/{n_q}/{i}", PLAIN, lambda: _report(scdt.d_s(sa, sb, n_q))
            for mass in (1.0, 2.0):
                tcfg = scdt.TransformConfig(scdt.ReferenceMeasure.uniform(mass=mass), n_q)
                yield f"transform_l2/{n_q}/{i}/ref_mass_{mass:g}", PLAIN, lambda: l2(sa, sb, tcfg)
        yield f"d_w2/{n_q}/zero_zero", PLAIN, lambda: _report(scdt.d_w2(zero, zero, n_q))

    def grid(t0, t1, *rows):
        return [scdt.measure_from_density(scdt.GridDensity(t0, t1, np.array(r))) for r in rows]

    pairs = {}
    for name, half_width in (("1e200", 1e200), ("1e-300", 1e-300)):
        d = 2.0 / half_width
        pairs[name] = grid(-half_width, half_width, [d, 0.0, -d, 0.0], [0.0, 0.0, -d, d])
    pairs["overflow"] = (grid(-1.7e308, -1.5e308, [1e-307, 0.0])
                         + grid(1.5e308, 1.7e308, [0.0, 1e-307]))
    tcfg = scdt.TransformConfig()
    for name, (a, b) in pairs.items():
        yield f"extreme/{name}/d_s", POSITIVE, lambda: scdt.d_s(a, b).value
        yield f"extreme/{name}/d_w2", POSITIVE, lambda: scdt.d_w2(
            a.positive_part, b.positive_part).value
        yield f"extreme/{name}/w2", POSITIVE, lambda: scdt.w2(a.positive_part, b.positive_part)
        yield f"extreme/{name}/transform_l2", POSITIVE, lambda: l2(a, b, tcfg)


def _inverses(scdt, ctx):
    def round_trip(xs, ys):
        """``(quantile(q), cdf_eval(quantile(q)))`` at the 1024 midpoint levels q;
        quantiles that are not finite, or CDF values further than 1e-9 of the
        mass (plus two units in its last place) from ``q * mass``, raise."""
        ref = scdt.ReferenceMeasure(np.array(xs), np.array(ys))
        q = scdt.TransformConfig(n_quantiles=1024).quantiles
        x = ref.quantile(q)
        back = ref.cdf_eval(x)
        mass = ref.total_mass
        if not (np.all(np.isfinite(x))
                and np.all(np.abs(back - q * mass) <= 1e-9 * mass + 2 * np.spacing(mass))):
            raise ArithmeticError("the CDF of the quantiles misses the midpoint grid")
        return x, back

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
        yield f"reference/{name}", ERRORS, lambda: round_trip(xs, ys)

    def acceptance():
        # The generator calls of the acceptance test's random_signed_atoms (the signs
        # and weights are drawn and dropped), then the warp's knots.
        rng, inverses = np.random.default_rng(13), []
        for _ in range(100):
            n_plus, n_minus = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            locs = -4.0 + np.cumsum(rng.uniform(0.1, 1.0, n_plus + n_minus))
            rng.permutation(n_plus + n_minus)
            rng.uniform(0.1, 2.0, n_plus)
            rng.uniform(0.1, 2.0, n_minus)
            xs = -5.0 + np.cumsum(rng.uniform(0.5, 3.0, 3))
            ys = -5.0 + np.cumsum(rng.uniform(0.5, 3.0, 3))
            g = scdt.IncreasingReparam.piecewise_linear(xs, ys)
            inverses.append(g.inverse(np.concatenate((locs, ys, [ys[0] - 1.0, ys[-1] + 1.0]))))
        return np.concatenate(inverses)

    def subnormal():
        g = scdt.IncreasingReparam.piecewise_linear([0.0, 1.0, 2.0], [0.0, 1e-320, 1.0])
        x = g.inverse(np.array([0.0, 0.25e-320, 0.5e-320, 1e-320, 0.5, 1.0, 2.0]))
        if not np.all(np.isfinite(x)):
            raise ArithmeticError("the inverse of a finite value is not finite")
        return x
    yield "reparam/pwl/acceptance", PLAIN, acceptance
    yield "reparam/pwl/subnormal", ERRORS, subnormal


def _random_step(scdt, rng):
    """A step function with up to 6 breakpoints, repeated values (plateaus),
    leading -inf and trailing +inf values, and a value at +inf that is the
    last value, one above it or +inf."""
    breakpoints = np.unique(rng.normal(size=int(rng.integers(0, 7)))
                            * 10.0 ** int(rng.integers(-3, 4)))
    values = np.cumsum(rng.choice((0.0, 0.5, 1.0), size=breakpoints.size + 1)) - 1.0
    n_neg, n_pos = (int(n) for n in rng.integers(0, 3, size=2))
    values[:n_neg] = -np.inf
    if n_pos:
        values[-n_pos:] = np.inf
    top = (None, values[-1] + 1.0, np.inf)[int(rng.integers(0, 3))]
    return scdt.StepFunction(breakpoints, values, top)


def _random_map(scdt, rng, flat):
    """A piecewise-linear map on 2-5 knots whose first and/or last segment is
    flat (``flat`` in "", "left", "right", "both")."""
    n = int(rng.integers(2, 6))
    xs = np.cumsum(rng.uniform(0.2, 2.0, n)) - 3.0
    rises = rng.uniform(0.2, 2.0, n - 1)
    if flat in ("left", "both"):
        rises[0] = 0.0
    if flat in ("right", "both"):
        rises[-1] = 0.0
    return scdt.PiecewiseLinearMap(xs, np.concatenate(([0.0], np.cumsum(rises))) - 1.0)


def _cdf(scdt):
    """``scdt.cdf``, or, where the package no longer has it, the ``cdf`` of the
    checkout's own ``tests/oracles.py``."""
    if hasattr(scdt, "cdf"):
        return scdt.cdf
    path = os.path.join(os.path.dirname(scdt.__file__), "..", "..", "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.cdf


def _steps(scdt, ctx):
    cdf = _cdf(scdt)
    rng = np.random.default_rng(21)
    for k in range(60):
        f = _random_step(scdt, rng)
        yield f"steps/geninv/{k}", PLAIN, lambda: (_step(f.geninv()), _step(f.geninv().geninv()))
    for k in range(60):
        flat = ("", "left", "right", "both")[k % 4]
        g = _random_map(scdt, rng, flat)
        f = _random_step(scdt, rng)
        # Breakpoints on g's knot ordinates give equal preimages and exact knot hits.
        bp = np.unique(np.concatenate((f.breakpoints, g.ys[rng.random(g.ys.size) < 0.5])))
        values = np.sort(rng.choice((-np.inf, 0.0, 0.5, 1.0, np.inf), size=bp.size + 1))
        f = scdt.StepFunction(bp, values)
        yield (f"steps/compose/{flat or 'increasing'}/{k}", PLAIN,
               lambda: _step(scdt.compose(f, g)))
    for k in range(40):
        locs = np.sort(rng.normal(size=int(rng.integers(0, 6))))
        ends = [(), (-np.inf,), (np.inf,), (-np.inf, np.inf)][k % 4]
        locs = np.unique(np.concatenate((locs, ends)))
        w = rng.exponential(size=locs.size) * 10.0 ** rng.integers(-300, 300)
        yield f"steps/cdf/{k}", PLAIN, lambda: _step(cdf(scdt.DiscreteMeasure(locs, w)))
    for k in range(20):
        samples = np.sort(rng.choice((-np.inf, 0.0, 1.0, 2.0, np.inf), int(rng.integers(1, 9))))
        mass = float(rng.uniform(0.01, 10.0))
        yield (f"steps/cdf/pushforward/{k}", PLAIN,
               lambda: _step(cdf(scdt.pushforward(samples, mass))))
    # Its weights sum one ulp above its stored mass.
    yield "steps/cdf/pushforward/ulp", PLAIN, lambda: _step(
        cdf(scdt.pushforward(np.array([0.0, 0.0, np.inf]), 0.10794165049342948)))
    probes = np.array([-np.inf, -1e308, -2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324,
                       0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 1e308, np.inf])
    f = scdt.StepFunction(np.array([-1.0, 0.0, 1.0, 2.0]),
                          np.array([-np.inf, 0.0, 0.5, 0.5, np.inf]), np.inf)
    pwl = ([-1.0, 0.0, 2.0], [-1.0, 0.5, 1.5])
    ref = scdt.ReferenceMeasure(np.array([-1.0, 0.5, 2.0]), np.array([0.0, 0.3, 2.5]))
    linear = scdt.PiecewiseLinearMap(*pwl)
    flat = _random_map(scdt, np.random.default_rng(1), "both")
    evaluators = {
        "StepFunction.eval": f.eval,
        "StepFunction.geninv_eval": f.geninv_eval,
        "PiecewiseLinearMap.__call__": linear,
        "PiecewiseLinearMap.__call__/flat": flat,
        "PiecewiseLinearMap.preimage": linear.preimage,
        "PiecewiseLinearMap.preimage/flat": flat.preimage,
        "ReferenceMeasure.cdf_eval": ref.cdf_eval,
        "ReferenceMeasure.quantile": ref.quantile,
    }
    for kind, g in (("dilation", scdt.IncreasingReparam.dilation(0.5)),
                    ("affine", scdt.IncreasingReparam.affine(2.0, -0.5)),
                    ("pwl", scdt.IncreasingReparam.piecewise_linear(*pwl))):
        evaluators[f"IncreasingReparam.forward/{kind}"] = g.forward
        evaluators[f"IncreasingReparam.inverse/{kind}"] = g.inverse
    for name, fn in evaluators.items():
        def typed(p):
            r = fn(p)
            return type(r).__name__, r
        for form, probe in (("scalar", float), ("0-d", np.asarray)):
            yield f"steps/eval/{name}/{form}", PLAIN, lambda: [
                _record(lambda: typed(probe(p))) for p in probes]
        yield f"steps/eval/{name}/list", PLAIN, lambda: fn(probes.tolist())
        yield f"steps/eval/{name}/2-D", PLAIN, lambda: fn(probes.reshape(2, -1))


def _state(obj):
    """Sorted ``vars()`` of a library object: each value, with an array as
    ``(array, flags.writeable)`` and a dataclass as its own state."""
    def value(v):
        if isinstance(v, np.ndarray):
            return v, v.flags.writeable
        if dataclasses.is_dataclass(v):
            return _state(v)
        return tuple(map(value, v)) if isinstance(v, tuple) else v
    return [(k, value(v)) for k, v in sorted(vars(obj).items())]


def _objects(scdt, ctx):
    from scdt.cli import ExperimentConfig

    d = scdt.GridDensity(-1.0, 2.0, np.array([1.0, -2.0, 0.0, 3.0, -0.5, 0.25]))
    cfg = scdt.TransformConfig(scdt.ReferenceMeasure.uniform(-1.0, 2.0, 3.0), n_quantiles=8)
    memo_part = scdt.measure_from_density(d).positive_part
    signals = scdt.generate_dataset(scdt.GenConfig(per_class=2, n_grid=16))
    features = scdt.featurize(signals, "scdt", cfg)
    gen = scdt.GenConfig(per_class=4, n_grid=32)
    objects = {
        "StepFunction": scdt.StepFunction([0.0, 1.0], np.array([-np.inf, 0.5, 1.0])),
        "StepFunction/value-at-inf": scdt.StepFunction(np.array([0.0]), [0, 1], np.inf),
        "PiecewiseLinearMap": scdt.PiecewiseLinearMap(np.array([0.0, 1.0, 3.0]), [0, 0, 2]),
        "DiscreteMeasure": scdt.DiscreteMeasure(np.array([0.0, 1.0]), np.array([2.0, 3.0])),
        "DiscreteMeasure/total": scdt.DiscreteMeasure([0, 1], np.array([2, 3]), 5),
        "GridDensity": scdt.GridDensity(0, 1, [1, -1]),
        "ReferenceMeasure": scdt.ReferenceMeasure(np.array([-1.0, 0.5, 2.0]), [0, 0.3, 2.5]),
        "TransformConfig": cfg,
        "CdtResult": scdt.CdtResult(np.array([0.0, 1.0]), 2),
        "FeatureMatrix": scdt.FeatureMatrix(np.zeros((2, 3)), [0.0, 1.0], "raw_signal"),
        "LabeledSignals": scdt.genmodel.LabeledSignals([0, 1], 0, 1, [[1.0, 2.0], [3, 4]]),
        "GenConfig": scdt.GenConfig(n_grid=16.0, per_class=2, seed=np.int64(3)),
        "generate_dataset": signals,
        "measure_from_density": scdt.measure_from_density(d),
        "pushforward": scdt.pushforward(np.array([0.0, 0.0, 1.0]), 2.0),
        "cdt_positive": scdt.cdt_positive(memo_part, cfg),
        "cdt_positive/measure": memo_part,
        "scdt_inverse": scdt.scdt_inverse(scdt.scdt_forward(scdt.measure_from_density(d), cfg),
                                          cfg),
        "featurize/raw_signal": scdt.featurize(signals, "raw_signal", cfg),
        "featurize/scdt": features,
        "subset": features.subset(np.array([True, False, True, False, True, False])),
        "LdaModel": scdt.classify.fit_lda(features),
        "ExperimentReport": scdt.classify.run_experiment(gen, cfg),
        "DistanceReport": scdt.d_s(scdt.measure_from_density(d), scdt.SignedMeasure.zero(), 8),
        "ExperimentConfig": ExperimentConfig(gen, cfg, 1),
    }
    for site, obj in objects.items():
        yield f"objects/{site}/state", PLAIN, lambda: _state(obj)
        yield f"objects/{site}/copies", PLAIN, lambda: (
            _record(lambda: _state(pickle.loads(pickle.dumps(obj)))),
            _record(lambda: _state(copy.deepcopy(obj))))


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


def _fit_lda(scdt, ctx):
    fits = {"n-above-p": _blobs(scdt, 50, 0), "low-rank-rows": _blobs(scdt, 20, 200)}
    signals = ctx.dataset(0)
    features = scdt.featurize(signals, "scdt", scdt.TransformConfig(n_quantiles=4096))
    held_out = np.arange(len(signals)) % 2 == 1
    fits["transform-4096"] = (features.subset(~held_out), features.subset(held_out).rows)
    for name, (train, test_rows) in fits.items():
        model = scdt.classify.fit_lda(train)
        yield f"fit_lda/{name}", PLAIN, lambda: (model.predict(test_rows),
                                                 model.projection.shape[1], model.regularization)
        yield f"fit_lda/{name}/projection", PLAIN, lambda: model.projection
    # Scatter whose trace underflows to 0, and no scatter with classes 1e160 apart.
    train, test_rows = fits["n-above-p"]
    tiny = scdt.classify.FeatureMatrix(train.rows * 1e-300, train.labels, "raw_signal")
    yield "fit_lda/tiny-scatter", PLAIN, lambda: scdt.classify.fit_lda(tiny).predict(
        test_rows * 1e-300)
    apart = scdt.classify.FeatureMatrix(np.array([[0.0], [0.0], [1e160], [1e160]]),
                                        [0, 0, 1, 1], "raw_signal")
    yield "fit_lda/no-scatter-overflow", ERRORS, lambda: scdt.classify.fit_lda(
        apart).regularization


def _configs(scdt, ctx):
    from scdt.cli import ExperimentConfig, main as cli_main

    refused = {
        "GenConfig/a_range-three-entries": lambda: scdt.GenConfig(a_range=(1, 2, 3)),
        "GenConfig/t0-text": lambda: scdt.GenConfig(t0="x"),
        "GenConfig/t0-bool": lambda: scdt.GenConfig(t0=True),
        "GenConfig/b_range-null": lambda: scdt.GenConfig(b_range=None),
        "ExperimentConfig/lda_lambda-negative": lambda: ExperimentConfig(
            scdt.GenConfig(), scdt.TransformConfig(), -1.0),
    }
    for name, build in refused.items():
        yield f"config/{name}", PLAIN, lambda: _state(build())

    def cli(argv):  # the exit code and the first line of stderr
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(argv)
        return code, err.getvalue().partition("\n")[0]

    # 10**17 float64 entries lie beyond a 47-bit address space: the allocation fails at once.
    oversize = 10**17
    csv, tj = os.path.join(ctx.tmp, "small.csv"), os.path.join(ctx.tmp, "small.json")
    cfg = os.path.join(ctx.tmp, "oversize.json")
    scdt.fileio.write_signal_csv(csv, scdt.GridDensity(0.0, 2.0, np.array([1.0, -1.0, 2.0])))
    cli(["transform", "--input", csv, "--output", tj, "--quantiles", "8"])
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"n_grid": float(oversize), "per_class": 1}, fh)
    commands = {
        "transform-oversize": ["transform", "--input", csv, "--output", tj + ".out",
                               "--quantiles", str(oversize)],
        "inverse-oversize": ["inverse", "--input", tj, "--output", csv + ".out",
                             f"--grid=0,3,{oversize}"],
        "generate-oversize": ["generate", "--config", cfg,
                              "--outdir", os.path.join(ctx.tmp, "oversize")],
        # A grid size beyond int64, which no index can hold.
        "inverse-oversize-int64": ["inverse", "--input", tj, "--output", csv + ".out",
                                   f"--grid=0,3,{2**63}"],
    }
    for name, argv in commands.items():
        yield f"config/cli/{name}", PLAIN, lambda: cli(argv)


def _refused(scdt, ctx):
    one = scdt.SignedMeasure(scdt.DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                             scdt.DiscreteMeasure.zero())
    cfg = scdt.TransformConfig(n_quantiles=8)
    grids = {
        "density": lambda: _density(scdt.GridDensity(0.0, True, np.array([1.0, -2.0]))),
        "rebin": lambda: scdt.rebin(one, 0.0, True, 4).samples,
        "batch": lambda: scdt.scdt_forward_batch(np.array([[1.0, -2.0]]), 0.0, True, cfg),
        "labeled": lambda: _state(scdt.genmodel.LabeledSignals([0], 0.0, True, [[1.0, -2.0]])),
    }
    for name, call in grids.items():
        yield f"grid/bool-bound/{name}", ERRORS, call
    yield "measure/from_atoms/nan-weight", ERRORS, lambda: _state(
        scdt.DiscreteMeasure.from_atoms(np.array([0.0, 1.0]), np.array([1.0, np.nan])))
    train = _blobs(scdt, 10, 0)[0]
    for name, lda_lambda in (("bool", True), ("text", "1")):
        yield f"lda/lambda-{name}", ERRORS, lambda: scdt.classify.fit_lda(
            train, lda_lambda).projection
    yield "cdt/mass-bool", ERRORS, lambda: _state(scdt.CdtResult(np.array([0.0, 1.0]), True))
    yield "pushforward/mass-text", ERRORS, lambda: _state(
        scdt.pushforward(np.array([0.0, 1.0]), "1"))


def _fallback(scdt, ctx):
    """Searches whose keys leave the interpolated bracket non-finite or unsorted."""
    rng = np.random.default_rng(29)
    # The first gaps of the running sum are subnormal: 1 / gap overflows.
    tiny = scdt.DiscreteMeasure(np.arange(4.0), np.array([1e-320, 1e-320, 1.0, 1.0]))
    levels = np.array([2.5e-321, 5e-321, 7.5e-321, 1e-320, 0.25, 0.5, 0.75, 0.999])
    yield "quantiles/subnormal-gap", ERRORS, lambda: scdt.measure_quantiles(tiny, levels)
    m = scdt.DiscreteMeasure(np.sort(rng.normal(size=1000)), rng.random(1000) + 0.1)
    levels = np.array([0.1, np.nan, 0.5, np.nan, 0.9, 1.0, np.nan])
    yield "quantiles/nan-level", ERRORS, lambda: scdt.measure_quantiles(m, levels)
    f = scdt.StepFunction(np.array([-1.0, 0.0, 1.0, 2.0]),
                          np.array([-np.inf, -np.inf, 0.0, np.inf, np.inf]))
    keys = np.array([-np.inf, -1e308, -1.0, 0.0, 0.5, 1e308, np.inf])
    yield "geninv/inf-values-inf-keys", ERRORS, lambda: f.geninv_eval(keys)
    g = scdt.StepFunction(np.sort(rng.normal(size=999)), np.cumsum(rng.random(1000)))
    shuffled = rng.permutation(np.concatenate((g.values, rng.uniform(-1.0, 600.0, 2000))))
    yield "geninv/unsorted-keys", ERRORS, lambda: g.geninv_eval(shuffled)
    # One negative atom 1e-10 above a positive one among 2048 each.
    plus = np.sort(rng.choice(np.arange(4096) * 0.5, size=2048, replace=False))
    minus = np.setdiff1d(np.arange(4096) * 0.5, plus)
    minus[100] = plus[100] + 1e-10
    t = scdt.ScdtResult(scdt.CdtResult(plus, 1.0), scdt.CdtResult(np.sort(minus), 2.0))
    yield "inverse/support-gap-near-collision", WARNINGS, lambda: operator.attrgetter(
        "positive_part.locations", "negative_part.locations")(
            scdt.scdt_inverse(t, scdt.TransformConfig(n_quantiles=2048)))


#: The key groups, run in this order: (key prefixes, generator of (key, mode, call),
#: what the keys record).  A generator takes the package and ``ctx``: a temporary
#: directory, each seed's default-config dataset made once, and the default_rng(0)
#: stream that the quantiles, then the metrics group draw from.
GROUPS = (
    (("template/", "experiment/", "dataset/", "featurize/"), _default_protocol,
     "templates, and run_experiment, its dataset and features on each default seed"),
    (("experiment/", "dataset/", "featurize/"), _edge_cases,
     "configs, scales and grids that fail, stress the pipeline or leave float64"),
    (("csv/overflow/", "grid/span-overflow/", "measure/", "json/"), _overflow,
     "spans, total masses, subnormal weights and JSON integers beyond float64, in arrays, "
     "files and the CLI"),
    (("large/", "memo/d_s/"), _large, "4e5-bin densities at M = 2^17, transformed and compared"),
    (("quantiles/",), _quantiles, "measure_quantiles at edge levels, of atoms and density parts"),
    (("support_gap/", "inverse/"), _collisions, "supports that (nearly) collide, also at +-inf"),
    (("rebin/",), _rebin,
     "rebin of parts lying off [0, 4] or at +-inf at an end atom, of a density that overflows, "
     "and onto bin counts no array can hold"),
    (("d_w2/", "w2/", "d_s/", "transform_l2/", "extreme/"), _metrics,
     "the metrics with zero parts, and where distances or gaps leave float64"),
    (("reference/", "reparam/pwl/"), _inverses, "reference quantiles and inverses of warps"),
    (("steps/",), _steps, "geninv, compose and cdf; each evaluator at extreme probes"),
    (("objects/",), _objects, "the stored state of each dataclass and result site, and copies"),
    (("fit_lda/",), _fit_lda,
     "predictions, rank, regularization and projection of fit_lda, and scatter out of range"),
    (("config/",), _configs,
     "configs the library refuses, and CLI sizes that no array can hold"),
    (("grid/bool-bound/", "measure/from_atoms/", "lda/", "cdt/", "pushforward/"), _refused,
     "a bool grid bound, a NaN weight, a bool or text lda_lambda and mass"),
    (("quantiles/", "geninv/", "inverse/"), _fallback,
     "searches off the bracket's fast path: a subnormal gap, NaN levels, infinite values "
     "and keys, unsorted keys, and supports 1e-10 apart"),
)


def dump():
    import scdt
    import scdt.fileio

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        dataset = functools.cache(lambda seed: scdt.generate_dataset(scdt.GenConfig(seed=seed)))
        ctx = SimpleNamespace(tmp=tmp, rng=np.random.default_rng(0), dataset=dataset)
        for prefixes, keys, _ in GROUPS:
            for key, mode, call in keys(scdt, ctx):
                assert key.startswith(prefixes) and key not in out, key
                out[key] = _record(call, mode)
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
    """The record of an exception, also inside a ``WARNINGS`` pair."""
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


def compare(old, new):
    """``(mismatched keys, fixed lines)`` of two dumps, key by key."""
    mismatched, fixed = [], []
    for key in sorted(old.keys() | new.keys()):
        was, now = _raised(old.get(key)), _raised(new.get(key))
        if was and now and was[1] == "ValueError" and now[3]:
            fixed.append(f"{key}: {was[1]}: {was[2]} -> {now[1]}: {now[2]}")
        elif key not in old or key not in new or not _same(old[key], new[key]):
            mismatched.append(key)
    return mismatched, fixed


def main(argv):
    if len(argv) == 2 and argv[0] == "--dump":
        with open(argv[1], "wb") as fh:
            pickle.dump(dump(), fh)
        return 0
    if len(argv) != 2:
        print(__doc__ + "".join(f"\n  {', '.join(p)}: {d}" for p, _, d in GROUPS), file=sys.stderr)
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
    mismatched, fixed = compare(old, new)
    print(f"{len(old.keys() | new.keys())} outputs compared; {len(mismatched)} differ; "
          f"{len(fixed)} fixed (a bare ValueError in OLD and a typed error in NEW)")
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
