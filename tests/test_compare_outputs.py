"""The comparison rules of ``scripts/compare_outputs.py``, on hand-built dumps."""

import importlib.util
import math
import pathlib
import warnings

import numpy as np
import pytest

from scdt.errors import RangeError

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
co = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(co)


def _raise(exc):
    raise exc


def _warn(message, value=1.0):
    warnings.warn(message, RuntimeWarning)
    return value


@pytest.mark.parametrize(
    "old, new",
    [
        ({"k": -0.0}, {"k": 0.0}),
        ({"k": np.array([-0.0])}, {"k": np.array([0.0])}),
        ({"k": np.array([1.0])}, {"k": np.array([1.0], dtype=np.float32)}),
        ({"k": np.zeros(2)}, {"k": np.zeros((1, 2))}),
        ({"k": 1.0}, {}),
        ({}, {"k": 1.0}),
        ({"k": co._record(lambda: _warn("old text"), co.WARNINGS)},
         {"k": co._record(lambda: _warn("new text"), co.WARNINGS)}),
        ({"k": co._record(lambda: _raise(ValueError("a check")))}, {"k": 1.0}),
    ],
    ids=["negative-zero", "negative-zero-array", "dtype", "shape", "only-old", "only-new",
         "warning-text", "check-dropped"],
)
def test_differs(old, new):
    assert co.compare(old, new) == (["k"], [])


def test_same_bits_are_the_same():
    old = {"k": (np.float64(0.1), [np.arange(3.0)], {"x": -0.0})}
    new = {"k": (0.1, [np.arange(3.0)], {"x": -0.0})}
    assert co.compare(old, new) == ([], [])


def test_bare_value_error_turned_typed_is_fixed():
    old = {"k": co._record(lambda: _raise(ValueError("bare")), co.WARNINGS)}
    new = {"k": co._record(lambda: _raise(RangeError("typed")), co.WARNINGS)}
    assert co.compare(old, new) == ([], ["k: ValueError: bare -> RangeError: typed"])
    # A typed error that turns into another typed error differs.
    assert co.compare(new, {"k": co._record(lambda: _raise(RangeError("other")))})[0] == ["k"]


def test_record_modes():
    assert co._record(lambda: 2.0) == 2.0
    assert co._record(lambda: _raise(RangeError("r"))) == ("raised", "RangeError", "r", True)
    assert co._record(lambda: _warn("w"), co.ERRORS) == ("raised", "RuntimeWarning", "w", False)
    for value in (0.0, math.inf):
        assert co._record(lambda: value, co.POSITIVE) == (
            "raised", "ArithmeticError", f"distance {value!r} between distinct inputs", False)
    assert co._record(lambda: _warn("w", 3.0), co.WARNINGS) == (3.0, ["w"])
