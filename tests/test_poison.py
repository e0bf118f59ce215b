"""Poisoned float arguments through the library: each public constructor or
function that takes a float or a float array either gives its documented
result or raises a ``ValueError`` (the ``ScdtError`` the README names) whose
message names the argument.  It never returns a result built from a poison
that it dropped or reinterpreted: a NaN, a bool, a string, ``None``, or an
array of bools, text, complex numbers or objects.

The poisons: NaN, +-inf and a 400-digit int (for an array argument, put into
one of its entries), ``True``, ``"1"`` and ``None`` (the whole argument), the
argument's own values as a bool, text or complex array, its first value as a
0-d array, its values under one more axis (a 2 x 2 array for a scalar), and
an empty array.  Every call runs with warnings as errors."""

from __future__ import annotations

import functools
import math
import re
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdt import (
    CdtResult, DiscreteMeasure, DistanceReport, GenConfig, GridDensity, IncreasingReparam,
    PiecewiseLinearMap, ReferenceMeasure, StepFunction, TransformConfig, measure_from_density,
    pushforward, rebin, scdt_forward_batch,
)
from scdt.classify import FeatureMatrix, fit_lda
from scdt.cli import ExperimentConfig
from scdt.errors import InvalidReferenceError
from scdt.genmodel import LabeledSignals

LONG_INTEGER = 10**400

LOCS, WEIGHTS = np.array([0.0, 1.0, 2.5]), np.array([0.25, 0.5, 0.25])
SAMPLES = np.array([1.0, -2.0, 0.0, 3.0])
ROWS = np.array([[1.0, -2.0, 0.0, 3.0], [0.5, 0.0, -1.0, 2.0]])
QUANTILE_SAMPLES = np.array([0.0, 0.5, 1.0, 2.0])
KNOTS_X, KNOTS_Y = np.array([0.0, 1.0, 3.0]), np.array([0.0, 0.5, 2.0])
STEP_VALUES = np.array([0.0, 0.25, 0.25, 1.0])
PROBES = np.array([-1.0, 0.25, 2.0])


@functools.cache
def _train() -> FeatureMatrix:
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(9, 4)) + np.repeat(np.eye(3, 4) * 5, 3, axis=0)
    return FeatureMatrix(rows, np.repeat([0, 1, 2], 3), "raw_signal")


def _pwl(xs=KNOTS_X, ys=KNOTS_Y):
    return PiecewiseLinearMap(xs, ys)


ONE = DiscreteMeasure(LOCS, WEIGHTS)
SIGNED = measure_from_density(GridDensity(0.0, 4.0, SAMPLES))
CFG = TransformConfig(n_quantiles=4)

#: ``name: (base value, call of the poisoned value, pattern the error must match[, type])``.
#: A pattern names the argument, or the quantity a domain check names for it: the slope
#: of a map for its ``a``, its offset for ``b``, and ``n_bins``, the one grid rule's name
#: for the number of a density's samples.
TARGETS = {
    "DiscreteMeasure.locations": (LOCS, lambda v: DiscreteMeasure(v, WEIGHTS), "locations"),
    "DiscreteMeasure.weights": (WEIGHTS, lambda v: DiscreteMeasure(LOCS, v), "weights"),
    "DiscreteMeasure.total_mass": (1.0, lambda v: DiscreteMeasure(LOCS, WEIGHTS, v),
                                   "total.mass"),
    "from_atoms.locations": (LOCS, lambda v: DiscreteMeasure.from_atoms(v, WEIGHTS), "locations"),
    "from_atoms.weights": (WEIGHTS, lambda v: DiscreteMeasure.from_atoms(LOCS, v), "weights"),
    "scaled.factor": (2.0, lambda v: ONE.scaled(v), "factor"),
    "GridDensity.t0": (0.0, lambda v: GridDensity(v, 4.0, SAMPLES), "t0"),
    "GridDensity.t1": (4.0, lambda v: GridDensity(0.0, v, SAMPLES), "t1"),
    "GridDensity.samples": (SAMPLES, lambda v: GridDensity(0.0, 4.0, v), "samples|n_bins"),
    "ReferenceMeasure.xs": (KNOTS_X, lambda v: ReferenceMeasure(v, KNOTS_Y), r"\bxs\b",
                            InvalidReferenceError),
    "ReferenceMeasure.ys": (KNOTS_Y, lambda v: ReferenceMeasure(KNOTS_X, v), r"\bys\b",
                            InvalidReferenceError),
    "uniform.a": (0.0, lambda v: ReferenceMeasure.uniform(v, 1.0), r"^a: |finite a < b",
                  InvalidReferenceError),
    "uniform.b": (1.0, lambda v: ReferenceMeasure.uniform(0.0, v), r"^b: |finite a < b",
                  InvalidReferenceError),
    "uniform.mass": (1.0, lambda v: ReferenceMeasure.uniform(0.0, 1.0, v), "mass",
                     InvalidReferenceError),
    "ReferenceMeasure.quantile": (np.array([0.0, 0.25, 1.0]), lambda v: ReferenceMeasure(
        KNOTS_X, KNOTS_Y).quantile(v), "quantile levels"),
    "ReferenceMeasure.cdf_eval": (PROBES, lambda v: ReferenceMeasure(
        KNOTS_X, KNOTS_Y).cdf_eval(v), r"\bx\b"),
    "pushforward.samples": (QUANTILE_SAMPLES, lambda v: pushforward(v, 2.0), "samples"),
    "pushforward.mass": (2.0, lambda v: pushforward(QUANTILE_SAMPLES, v), "mass"),
    "rebin.t0": (0.0, lambda v: rebin(SIGNED, v, 4.0, 4), "t0"),
    "rebin.t1": (4.0, lambda v: rebin(SIGNED, 0.0, v, 4), "t1"),
    "CdtResult.samples": (QUANTILE_SAMPLES, lambda v: CdtResult(v, 1.0), "samples"),
    "CdtResult.mass": (1.0, lambda v: CdtResult(QUANTILE_SAMPLES, v), "mass"),
    "scdt_forward_batch.samples": (ROWS, lambda v: scdt_forward_batch(v, 0.0, 4.0, CFG),
                                   "samples"),
    "scdt_forward_batch.t0": (0.0, lambda v: scdt_forward_batch(ROWS, v, 4.0, CFG), "t0"),
    "scdt_forward_batch.t1": (4.0, lambda v: scdt_forward_batch(ROWS, 0.0, v, CFG), "t1"),
    "StepFunction.breakpoints": (KNOTS_X, lambda v: StepFunction(v, STEP_VALUES),
                                 "breakpoints"),
    "StepFunction.values": (STEP_VALUES, lambda v: StepFunction(KNOTS_X, v), "values"),
    "StepFunction.value_at_pos_inf": (2.0, lambda v: StepFunction(KNOTS_X, STEP_VALUES, v),
                                      "value_at_pos_inf"),
    "StepFunction.eval": (PROBES, lambda v: StepFunction(KNOTS_X, STEP_VALUES).eval(v),
                          r"\bx\b"),
    "StepFunction.geninv_eval": (PROBES, lambda v: StepFunction(
        KNOTS_X, STEP_VALUES).geninv_eval(v), r"\by\b"),
    "PiecewiseLinearMap.xs": (KNOTS_X, lambda v: _pwl(xs=v), r"\bxs\b"),
    "PiecewiseLinearMap.ys": (KNOTS_Y, lambda v: _pwl(ys=v), r"\bys\b"),
    "PiecewiseLinearMap.call": (PROBES, lambda v: _pwl()(v), r"\bx\b"),
    "PiecewiseLinearMap.preimage": (PROBES, lambda v: _pwl().preimage(v), r"\by\b"),
    "IncreasingReparam.a": (2.0, lambda v: IncreasingReparam("dilation", a=v), r"^a: |slope"),
    "IncreasingReparam.b": (1.0, lambda v: IncreasingReparam("affine", a=2.0, b=v),
                            r"^b: |offset"),
    "translation.a": (1.0, lambda v: IncreasingReparam.translation(v), r"^a: |offset"),
    "dilation.a": (2.0, lambda v: IncreasingReparam.dilation(v), r"^a: |slope"),
    "affine.a": (2.0, lambda v: IncreasingReparam.affine(v, 1.0), r"^a: |slope"),
    "affine.b": (1.0, lambda v: IncreasingReparam.affine(2.0, v), r"^b: |offset"),
    "piecewise_linear.xs": (KNOTS_X, lambda v: IncreasingReparam.piecewise_linear(v, KNOTS_Y),
                            r"\bxs\b"),
    "dilation.forward": (PROBES, lambda v: IncreasingReparam.dilation(2.0).forward(v), r"\bx\b"),
    "affine.forward": (PROBES, lambda v: IncreasingReparam.affine(2.0, 1.0).forward(v),
                       r"\bx\b"),
    "affine.inverse": (PROBES, lambda v: IncreasingReparam.affine(2.0, 1.0).inverse(v),
                       r"\by\b"),
    "piecewise_linear.inverse": (PROBES, lambda v: IncreasingReparam.piecewise_linear(
        KNOTS_X, KNOTS_Y).inverse(v), r"\by\b"),
    "FeatureMatrix.rows": (ROWS, lambda v: FeatureMatrix(v, [0, 1], "raw_signal"),
                           "feature vectors|rows"),
    "LdaModel.transform": (ROWS, lambda v: fit_lda(_train()).transform(v), "rows"),
    "fit_lda.lda_lambda": (1e-6, lambda v: fit_lda(_train(), v), "lda_lambda"),
    "LabeledSignals.samples": (ROWS, lambda v: LabeledSignals([0, 1], 0.0, 4.0, v), "samples"),
    "LabeledSignals.t0": (0.0, lambda v: LabeledSignals([0, 1], v, 4.0, ROWS), "t0"),
    "DistanceReport.value": (1.0, lambda v: DistanceReport(v), r"\bvalue\b"),
    "GenConfig.noise_sigma": (0.02, lambda v: GenConfig(noise_sigma=v), "noise_sigma"),
    "ExperimentConfig.lda_lambda": (1e-6, lambda v: ExperimentConfig(GenConfig(), CFG, v),
                                    "lda_lambda"),
}

#: The arguments whose documented default is ``None``.
NONE_IS_DEFAULT = {"DiscreteMeasure.total_mass", "StepFunction.value_at_pos_inf"}


def _entry(base, value, i):
    """``value`` for a scalar argument; for an array, its values as a list with one
    entry replaced by ``value``, which numpy reads as it reads the caller's list."""
    if np.ndim(base) == 0:
        return value
    rows = np.array(base, dtype=object)
    rows.flat[i % rows.size] = value
    return rows.tolist()


POISONS = {
    "nan": lambda base, i: _entry(base, math.nan, i),
    "inf": lambda base, i: _entry(base, math.inf, i),
    "-inf": lambda base, i: _entry(base, -math.inf, i),
    "long-int": lambda base, i: _entry(base, LONG_INTEGER, i),
    "true": lambda base, i: True,
    "text": lambda base, i: "1",
    "none": lambda base, i: None,
    "bool-array": lambda base, i: np.atleast_1d(base).astype(bool),
    "text-array": lambda base, i: np.atleast_1d(base).astype(str),
    "complex-array": lambda base, i: np.atleast_1d(base) + 1j,
    "0-d": lambda base, i: np.array(np.ravel(base)[0]),
    "2-d": lambda base, i: np.ones((2, 2)) if np.ndim(base) == 0 else np.asarray(base)[None],
    "empty": lambda base, i: np.empty((0,) + np.shape(base)[1:]),
}


def _real_valued(value) -> bool:
    """Whether ``value`` is real numbers alone: a number that is not a bool (an int beyond
    float64 included, which reads as the infinity of its sign) or an array of them."""
    if isinstance(value, (int, float, np.integer, np.floating)):
        return not isinstance(value, bool) and not (isinstance(value, float) and math.isnan(value))
    if value is None or isinstance(value, str):
        return False
    arr = np.asarray(value)
    return arr.dtype.kind in "iuf" and not np.isnan(arr).any()


@settings(max_examples=600)
@given(target=st.sampled_from(sorted(TARGETS)), poison=st.sampled_from(sorted(POISONS)),
       i=st.integers(0, 7))
# Each of these failed before the one input rule for float arrays and scalars: it gave a
# result, another error than ValueError, a warning first or a message naming another thing.
@example(target="CdtResult.samples", poison="text-array", i=0)
@example(target="scdt_forward_batch.samples", poison="text-array", i=0)
@example(target="DiscreteMeasure.weights", poison="bool-array", i=0)
@example(target="pushforward.samples", poison="bool-array", i=0)
@example(target="GridDensity.samples", poison="complex-array", i=0)
@example(target="DiscreteMeasure.locations", poison="long-int", i=0)
@example(target="IncreasingReparam.a", poison="true", i=0)
@example(target="IncreasingReparam.b", poison="text", i=0)
@example(target="scaled.factor", poison="text", i=0)
@example(target="affine.forward", poison="nan", i=0)
@example(target="affine.inverse", poison="text", i=0)
@example(target="DiscreteMeasure.total_mass", poison="text", i=0)
@example(target="StepFunction.value_at_pos_inf", poison="text", i=0)
@example(target="DistanceReport.value", poison="true", i=0)
@example(target="ReferenceMeasure.cdf_eval", poison="bool-array", i=0)
@example(target="ReferenceMeasure.quantile", poison="true", i=0)
@example(target="LabeledSignals.samples", poison="bool-array", i=0)
@example(target="FeatureMatrix.rows", poison="text-array", i=0)
@example(target="LdaModel.transform", poison="bool-array", i=0)
@example(target="LdaModel.transform", poison="inf", i=0)
@example(target="PiecewiseLinearMap.xs", poison="inf", i=0)
@example(target="DiscreteMeasure.locations", poison="nan", i=0)
def test_poison_is_refused_by_name_or_taken_as_the_number_it_is(target, poison, i):
    base, call, pattern, *error = TARGETS[target]
    value = POISONS[poison](base, i)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except (error or [ValueError])[0] as exc:
            assert re.search(pattern, str(exc)), f"{target} given {poison}: {exc}"
            return
    taken = _real_valued(value) or (value is None and target in NONE_IS_DEFAULT)
    assert taken, f"{target} returned a result for {poison}: {value!r}"


def test_every_base_value_gives_a_result():
    # So a refusal above is the poison's doing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base, call, *_ in TARGETS.values():
            call(base)
