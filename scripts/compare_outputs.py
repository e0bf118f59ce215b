"""Check that two checkouts of scdt compute bit-identical outputs.

    python3 scripts/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src`` is imported in its own interpreter, which dumps:

- ``run_experiment`` on seeds 0-4 and 97: accuracies, confusion matrices and
  the held-out predicted labels in both feature spaces under
  ``experiment/<seed>``, and the 2-D projections under
  ``experiment/<seed>/projections``, so a change that moves only the last
  bits of the projections shows as exactly those keys, and a run whose one
  signal of class 2 falls in the held-out half (``experiment/untrained-class``);
- ``generate_dataset`` labels and samples on the same seeds, read from its
  ``(label, GridDensity)`` pairs (``dataset/<seed>``) and from the arrays of
  the view it returns (``dataset/<seed>/view``: labels, ``t0``, ``t1`` and
  samples; a checkout whose ``generate_dataset`` returns plain pairs builds
  them from the pairs), and the three class templates on the default grid;
- ``featurize`` rows of both kinds (raw samples and transforms) of those
  datasets, passed as returned and as a list of pairs
  (``featurize/<kind>/<seed>/pairs``), and transform rows at M = 2^17 of 64-bin signed densities at
  the scales 1e-320 and 1e300 and of a batch mixing 1e-320, 1e-305, 1 and
  1e300 (``featurize/extreme/*``, warnings raised as errors); the part
  totals of the smaller two scales are too small to count levels against
  at that M, so those rows take the kernel's per-signal replay;
- ``featurize`` on the grid ``[1e16, 1e16 + 8]`` of 8 bins, whose
  neighbouring bin centres collide (``featurize/collide-grid``): a row
  with one atom per colliding pair, which must equal the per-signal
  transform, and that row next to one whose atoms collide, which raises;
- ``read_signal_csv`` of files whose ``t`` span or half-bin edge
  overflows float64 (``csv/overflow/*``), with warnings raised as errors;
- ``generate_dataset`` on two configs whose warps cannot be rebinned: atoms
  off the grid and atoms that collapse onto each other (both raise), on
  three small configs (no noise, integer warp ranges, loud noise), and, with
  warnings raised as errors, on a config whose warped atoms leave float64
  (``dataset/beyond-float64``: ``a = 1e-310``);
- ``scdt_forward`` samples and masses, ``rebin(scdt_inverse(...))``,
  ``d_s`` values and components and ``transform_l2`` on 4e5-bin signed and
  nonnegative densities at M = 2^17;
- ``measure_quantiles`` on measures with atoms at +-inf, at the levels
  0, -0.0, -0.5, 1, 1.5, nextafter(1, 0), 5e-324, +-inf, NaN and random
  levels, at the last ten of those levels and 0.5 one at a time as scalars
  (``quantiles/<k>/scalar``, with the type of each result), and on both parts of small densities through
  ``measure_from_density`` (``quantiles/density/*``), searched twice: the
  first search takes the running sum the conversion leaves on the part;
- the smallest support gap and shared atoms of random parts with +-inf
  atoms, near-collisions and exact collisions (``support_gap/*``), with the
  parts both ways round: ``SignedMeasure`` (built, or how it raised), the
  private ``_support_gap`` value and ``scdt_inverse`` of a transform with
  those atoms (the parts' locations or the error, and the warning text);
- ``rebin`` of signed measures whose multi-atom part lies off the grid or
  at +-inf at its first or last atom, in either part (``rebin/*``), with
  warnings raised as errors;
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
  segment rises by 1e-320, checked the same way;
- the step-function objects (``steps/*``): ``geninv`` and double
  ``geninv`` of random step functions with +-inf values, plateaus (equal
  thresholds) and a value at +inf above the last; ``compose`` of such
  functions with strictly increasing, flat-left, flat-right and flat-both
  maps whose knot ordinates are among the breakpoints; ``cdf`` of measures
  with atoms at +-inf and of ``pushforward([0, 0, inf], 0.10794165049342948)``,
  whose weights sum one ulp above its stored mass.  A step function is
  recorded as (breakpoints, values, value at +inf);
- the evaluators ``StepFunction.eval`` and ``geninv_eval``,
  ``PiecewiseLinearMap.__call__`` and ``preimage``,
  ``IncreasingReparam.forward`` and ``inverse`` (dilation, affine and
  piecewise-linear) and ``ReferenceMeasure.cdf_eval`` and ``quantile``
  (``steps/eval/<evaluator>/<form>``) at probes including +-inf, +-1e308,
  +-5e-324 and -0.0, passed one Python float at a time (each result
  recorded with its type name), as 0-d arrays, as a list and as a 2-D
  array;
- a grid whose span ``t1 - t0`` overflows float64 (``grid/span-overflow/*``):
  ``GridDensity``, ``rebin``, ``scdt inverse --grid=-1e308,1e308,4`` (exit
  code, message and written ``t`` column) and ``scdt generate`` with that
  ``t0, t1``, and a ``DiscreteMeasure`` whose total mass overflows
  (``measure/total-overflow``), each with warnings raised as errors;
- the stored state of one object of each validated constructor, of each
  result the library stores past ``__post_init__``, of ``fit_lda``'s
  ``LdaModel``, ``run_experiment``'s ``ExperimentReport``, ``d_s``'s
  ``DistanceReport`` and the CLI's ``ExperimentConfig``
  (``objects/<site>/state``): the sorted ``vars()`` keys with their values,
  each array with its ``flags.writeable``, and caches such as ``_csum`` and
  ``_memo`` included; and the same state of the object after a pickle round
  trip and after ``copy.deepcopy`` (``objects/<site>/copies``).

Arrays are compared by their bytes, so -0.0 against 0.0 counts as a
difference; for a differing key of float arrays the largest
``|old - new| / max|old|`` is printed too, and the largest over all such
keys at the end.  A case that raises is recorded
by exception type and message, and whether the type is one of the
package's typed errors (``ScdtError``).  Only a case that raises a bare
``ValueError`` in OLD and a typed error in NEW is listed as fixed, not as a
mismatch; one that raises in OLD and returns a value in NEW differs, so a
change that drops a check fails the comparison.  Exit status 1 means some
output differs.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
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


def _extreme_features(scdt, scales):
    """Transform rows at M = 2^17 of signed 64-bin densities on bins of width
    1, one per scale; part totals below about 7e-304 cannot be counted at
    that M, so their rows are replayed through the per-signal transform."""
    rng = np.random.default_rng(3)
    signals = [(0, scdt.GridDensity(0.0, 64.0, rng.choice((-1.0, 0.0, 1.0), size=64)
                                    * rng.uniform(1.0, 2.0, size=64) * scale))
               for scale in scales]
    return scdt.featurize(signals, "scdt", scdt.TransformConfig(n_quantiles=LARGE_M)).rows


def _density(d):
    return d.t0, d.t1, d.samples


def _view_arrays(signals):
    """``(labels, t0, t1, samples)`` of a ``generate_dataset`` result, read
    from its arrays, or from its pairs where it returns a plain list."""
    if isinstance(signals, list):
        first = signals[0][1]
        return (np.array([label for label, _ in signals]), first.t0, first.t1,
                np.stack([d.samples for _, d in signals]))
    return signals.labels, signals.t0, signals.t1, signals.samples


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


def _step(f):
    return f.breakpoints, f.values, f.value_at_pos_inf


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


def _evaluations(fn, probes):
    """``fn`` on each probe as a Python float (result with its type name), on
    the probes as 0-d arrays, as a list and as a 2-D array."""
    def scalar(p):
        r = fn(p)
        return type(r).__name__, r
    return {
        "scalar": [_try(lambda: scalar(float(p))) for p in probes],
        "0-d": [_try(lambda: scalar(np.asarray(p))) for p in probes],
        "list": _try(lambda: fn(probes.tolist())),
        "2-D": _try(lambda: fn(probes.reshape(2, -1))),
    }


def _steps_outputs(scdt):
    """The ``steps/*`` keys of the module docstring."""
    out = {}
    rng = np.random.default_rng(21)
    for k in range(60):
        f = _random_step(scdt, rng)
        out[f"steps/geninv/{k}"] = _try(lambda: (_step(f.geninv()), _step(f.geninv().geninv())))
    for k in range(60):
        flat = ("", "left", "right", "both")[k % 4]
        g = _random_map(scdt, rng, flat)
        f = _random_step(scdt, rng)
        # Breakpoints on g's knot ordinates give equal preimages and exact knot hits.
        bp = np.unique(np.concatenate((f.breakpoints, g.ys[rng.random(g.ys.size) < 0.5])))
        values = np.sort(rng.choice((-np.inf, 0.0, 0.5, 1.0, np.inf), size=bp.size + 1))
        f = scdt.StepFunction(bp, values)
        out[f"steps/compose/{flat or 'increasing'}/{k}"] = _try(lambda: _step(scdt.compose(f, g)))
    for k in range(40):
        locs = np.sort(rng.normal(size=int(rng.integers(0, 6))))
        ends = [(), (-np.inf,), (np.inf,), (-np.inf, np.inf)][k % 4]
        locs = np.unique(np.concatenate((locs, ends)))
        w = rng.exponential(size=locs.size) * 10.0 ** rng.integers(-300, 300)
        out[f"steps/cdf/{k}"] = _try(lambda: _step(scdt.cdf(scdt.DiscreteMeasure(locs, w))))
    for k in range(20):
        samples = np.sort(rng.choice((-np.inf, 0.0, 1.0, 2.0, np.inf), size=int(rng.integers(1, 9))))
        mass = float(rng.uniform(0.01, 10.0))
        out[f"steps/cdf/pushforward/{k}"] = _try(
            lambda: _step(scdt.cdf(scdt.pushforward(samples, mass))))
    out["steps/cdf/pushforward/ulp"] = _step(
        scdt.cdf(scdt.pushforward(np.array([0.0, 0.0, np.inf]), 0.10794165049342948)))

    probes = np.array([-np.inf, -1e308, -2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324,
                       0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 1e308, np.inf])
    f = scdt.StepFunction(np.array([-1.0, 0.0, 1.0, 2.0]),
                          np.array([-np.inf, 0.0, 0.5, 0.5, np.inf]), np.inf)
    pwl = ([-1.0, 0.0, 2.0], [-1.0, 0.5, 1.5])
    ref = scdt.ReferenceMeasure(np.array([-1.0, 0.5, 2.0]), np.array([0.0, 0.3, 2.5]))
    evaluators = {
        "StepFunction.eval": f.eval,
        "StepFunction.geninv_eval": f.geninv_eval,
        "PiecewiseLinearMap.__call__": scdt.PiecewiseLinearMap(*pwl),
        "PiecewiseLinearMap.__call__/flat": _random_map(scdt, np.random.default_rng(1), "both"),
        "PiecewiseLinearMap.preimage": scdt.PiecewiseLinearMap(*pwl).preimage,
        "PiecewiseLinearMap.preimage/flat": _random_map(
            scdt, np.random.default_rng(1), "both").preimage,
        "ReferenceMeasure.cdf_eval": ref.cdf_eval,
        "ReferenceMeasure.quantile": ref.quantile,
    }
    for kind, g in (("dilation", scdt.IncreasingReparam.dilation(0.5)),
                    ("affine", scdt.IncreasingReparam.affine(2.0, -0.5)),
                    ("pwl", scdt.IncreasingReparam.piecewise_linear(*pwl))):
        evaluators[f"IncreasingReparam.forward/{kind}"] = g.forward
        evaluators[f"IncreasingReparam.inverse/{kind}"] = g.inverse
    for name, fn in evaluators.items():
        for form, r in _evaluations(fn, probes).items():
            out[f"steps/eval/{name}/{form}"] = r
    return out


def _span_overflow_outputs(scdt, tmp):
    """The ``grid/span-overflow/*`` and ``measure/total-overflow`` keys."""
    from scdt.cli import main as cli_main

    out = {}
    one = scdt.SignedMeasure(scdt.DiscreteMeasure(np.array([0.0]), np.array([1.0])),
                             scdt.DiscreteMeasure.zero())
    out["grid/span-overflow/density"] = _checked(
        lambda: _density(scdt.GridDensity(-1e308, 1e308, np.array([1.0, 2.0]))))
    out["grid/span-overflow/rebin"] = _checked(lambda: scdt.rebin(one, -1e308, 1e308, 4).samples)

    def cli(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(argv)
        return code, err.getvalue().replace(tmp, "")

    def inverse():
        tj, csv = os.path.join(tmp, "t.json"), os.path.join(tmp, "span.csv")
        scdt.fileio.write_transform_json(
            tj, scdt.scdt_forward(one, scdt.TransformConfig(n_quantiles=8)),
            scdt.TransformConfig(n_quantiles=8))
        code, err = cli(["inverse", "--input", tj, "--output", csv, "--grid=-1e308,1e308,4"])
        t = None
        if os.path.exists(csv):
            with open(csv, encoding="utf-8") as fh:
                t = [line.split(",")[0] for line in fh.read().splitlines()]
        return code, err, t

    def generate():
        cfg = os.path.join(tmp, "span.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"t0": -1e308, "t1": 1e308, "per_class": 1, "n_grid": 4}, fh)
        return cli(["generate", "--config", cfg, "--outdir", os.path.join(tmp, "span")])

    out["grid/span-overflow/cli-inverse"] = _checked(inverse)
    out["grid/span-overflow/cli-generate"] = _checked(generate)
    out["measure/total-overflow"] = _checked(lambda: scdt.DiscreteMeasure(
        np.array([0.0, 1.0]), np.array([1e308, 1e308])).total_mass)
    return out


def _support_gap_outputs(scdt):
    """The ``support_gap/*`` keys of the module docstring."""
    from scdt.measures import _support_gap

    out = {}
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
            out[key + "/signed"] = _try(lambda: (scdt.SignedMeasure(parts[a], parts[b]), "built")[1])
            out[key + "/gap"] = _try(lambda: _support_gap(locs[a], locs[b]))

            def inverse():
                t = scdt.ScdtResult(scdt.CdtResult(samples[a], 1.0), scdt.CdtResult(samples[b], 2.0))
                back = scdt.scdt_inverse(t, scdt.TransformConfig(n_quantiles=n_q))
                return back.positive_part.locations, back.negative_part.locations
            out[key + "/inverse"] = _with_warnings(inverse)
    return out


def _rebin_outputs(scdt):
    """The ``rebin/*`` keys of the module docstring: the grid is [0, 4] in 8 bins."""
    inside = np.array([0.5, 1.5, 2.5])
    bad = {
        "below-first": [-1.0, 0.5, 1.0], "above-last": [0.5, 1.0, 5.0],
        "neg-inf-first": [-np.inf, 0.5, 1.0], "pos-inf-last": [0.5, 1.0, np.inf],
        "below-and-pos-inf": [-1.0, 0.5, np.inf], "neg-inf-and-above": [-np.inf, 0.5, 5.0],
        "edges": [0.0, 2.0, 4.0],
    }
    out = {}
    for name, locs in bad.items():
        part = scdt.DiscreteMeasure(np.array(locs), np.ones(3))
        other = scdt.DiscreteMeasure(inside + 0.125, np.full(3, 2.0))
        for side, (plus, minus) in (("positive", (part, other)), ("negative", (other, part)),
                                    ("both", (part, scdt.DiscreteMeasure(
                                        np.array(locs) + 0.0625, np.ones(3))))):
            out[f"rebin/{name}/{side}"] = _checked(
                lambda: scdt.rebin(scdt.SignedMeasure(plus, minus), 0.0, 4.0, 8).samples)
    return out


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


def _objects_outputs(scdt):
    """``objects/<site>/state``: the stored state of an object of each
    validated constructor, of each result stored past ``__post_init__`` and
    of each result dataclass; ``objects/<site>/copies``: that state after a
    pickle round trip and after ``copy.deepcopy``."""
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
    out = {}
    for site, obj in objects.items():
        out[f"objects/{site}/state"] = _state(obj)
        out[f"objects/{site}/copies"] = (_try(lambda: _state(pickle.loads(pickle.dumps(obj)))),
                                         _try(lambda: _state(copy.deepcopy(obj))))
    return out


def dump():
    import scdt
    import scdt.fileio

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
    out["experiment/untrained-class"] = _try(lambda: scdt.classify.run_experiment(
        scdt.GenConfig(per_class=(3, 4, 1), n_grid=32), scdt.TransformConfig(n_quantiles=16)))

    gen = scdt.GenConfig()
    grid = scdt.GridDensity(gen.t0, gen.t1, np.zeros(gen.n_grid)).bin_centers()
    for template in scdt.TEMPLATES:
        out[f"template/{template.name}"] = template(grid)
    for seed in SEEDS:
        signals = scdt.generate_dataset(scdt.GenConfig(seed=seed))
        out[f"dataset/{seed}"] = (np.array([label for label, _ in signals]),
                                  np.stack([d.samples for _, d in signals]))
        out[f"dataset/{seed}/view"] = _view_arrays(signals)
        for kind in scdt.classify.FEATURE_KINDS:
            features = scdt.featurize(signals, kind, scdt.TransformConfig())
            out[f"featurize/{kind}/{seed}"] = (features.labels, features.rows)
            features = scdt.featurize(list(signals), kind, scdt.TransformConfig())
            out[f"featurize/{kind}/{seed}/pairs"] = (features.labels, features.rows)
    for name, scales in (("1e-320", [1e-320] * 4), ("1e300", [1e300] * 4),
                         ("mixed", [1e-320, 1e-305, 1.0, 1e300])):
        out[f"featurize/extreme/{name}"] = _checked(lambda: _extreme_features(scdt, scales))
    collide_grid = [(0, scdt.GridDensity(1e16, 1e16 + 8, np.array([1.0, 0, -2, 0, 3, 0, 0, 0]))),
                    (1, scdt.GridDensity(1e16, 1e16 + 8, np.array([0.0, 1, 1, 0, 0, 0, 0, 0])))]
    out["featurize/collide-grid"] = tuple(
        _checked(lambda: scdt.featurize(signals, "scdt", scdt.TransformConfig()).rows)
        for signals in (collide_grid[:1], collide_grid))
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in (("t-span", "-1.7e308,1\n0,1\n1.7e308,1\n"),
                           ("bin-edge", "1.7e308,1\n1.79e308,1\n")):
            path = os.path.join(tmp, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("t,value\n" + rows)
            r = _checked(lambda: _density(scdt.fileio.read_signal_csv(path)))
            # The message names the file; its temporary directory is left out.
            out[f"csv/overflow/{name}"] = (r[:2] + (r[2].replace(tmp, ""),) + r[3:]
                                           if _raised(r) else r)
        out.update(_span_overflow_outputs(scdt, tmp))
    edge_configs = {
        "off_grid": dict(a_range=(0.1, 0.1)),
        "collapsing": dict(t0=-3.0, a_range=(1e15, 1e15), b_range=(1e15, 1e15), per_class=1),
        "noiseless": dict(noise_sigma=0.0, per_class=5, n_grid=64),
        "integer-ranges": dict(a_range=(1, 2), b_range=(0, 0), per_class=5, n_grid=64, seed=4),
        "loud": dict(noise_sigma=3.0, per_class=5, n_grid=32, seed=9),
    }
    for name, kwargs in edge_configs.items():
        out[f"dataset/{name}"] = _try(lambda: [
            d.samples for _, d in scdt.generate_dataset(scdt.GenConfig(**kwargs))])
    out["dataset/beyond-float64"] = _checked(lambda: [d.samples for _, d in scdt.generate_dataset(
        scdt.GenConfig(a_range=(1e-310, 1e-310), per_class=1))])

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
    levels = np.concatenate(([0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324], rng.random(60),
                             [-0.0, -0.5, 1.5, -np.inf, np.inf, np.nan]))
    for k in range(40):
        n = int(rng.integers(1, 8))
        locs = np.sort(rng.normal(size=n))
        ends = [(-np.inf,), (np.inf,), (-np.inf, np.inf)][k % 3]
        locs = np.unique(np.concatenate((locs, ends)))
        w = rng.exponential(size=locs.size) * 10.0 ** rng.integers(-300, 300)
        m = scdt.DiscreteMeasure(locs, w)
        out[f"quantiles/{k}"] = scdt.measure_quantiles(m, levels)
        # Scalar and 0-d levels: the type of each result is compared too.
        out[f"quantiles/{k}/scalar"] = [
            (type(v).__name__, float(v))
            for v in (scdt.measure_quantiles(m, x) for x in [*levels[-10:], np.array(0.5)])]
    for k in range(12):
        d = scdt.GridDensity(-1.0, 2.0, rng.choice((-1.0, 0.0, 1.0), size=int(rng.integers(1, 40)))
                             * rng.exponential(size=1) * 10.0 ** rng.integers(-300, 300))
        s = scdt.measure_from_density(d)
        for name, part in (("positive", s.positive_part), ("negative", s.negative_part)):
            out[f"quantiles/density/{k}/{name}"] = [
                _try(lambda: scdt.measure_quantiles(part, levels)) for _ in range(2)]
    out.update(_support_gap_outputs(scdt))
    out.update(_rebin_outputs(scdt))

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

    out.update(_steps_outputs(scdt))
    out.update(_objects_outputs(scdt))

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
        if was and now and was[1] == "ValueError" and now[3]:
            fixed.append(f"{key}: {was[1]}: {was[2]} -> {now[1]}: {now[2]}")
        elif key not in old or key not in new or not _same(old[key], new[key]):
            mismatched.append(key)
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
