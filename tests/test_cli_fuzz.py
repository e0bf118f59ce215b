"""Hostile files through ``scdt.cli.main``: mutated signal CSVs, transform
JSONs and experiment configs end in an exit code the README lists, and no
exception escapes ``main``.  A number replaced by NaN, ``true``, a string or
a nested list is refused in a signal CSV or a transform JSON (in a CSV,
``1e999`` too), and so are a transform-JSON array of the wrong length, a CSV
row with the wrong number of columns and a non-uniform ``t`` column.

A mutation poisons one number, resizes one array by one entry or damages
the bytes, so no size grows past the base files' (8 bins, 8 or 16
quantiles, 4 signals per class) by more than one, and no example allocates
much."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdt.cli import main
from scdt.fileio import write_signal_csv, write_transform_json
from scdt.measures import GridDensity, ReferenceMeasure, measure_from_density
from scdt.transform import TransformConfig, scdt_forward

#: The exit codes of the README's table.
README_EXIT_CODES = {0, 2, 3, 4, 5}

SAMPLES = [1.0, 2.0, 0.0, -1.0, 0.0, 3.0, -2.0, 1.0]

#: JSON text for the values that do not belong where a number does; inf is
#: written as ``1e999``, which Python's JSON reader and ``float`` read as inf.
POISONS = ["NaN", "1e999", "true", '"x"', "[[1.0]]"]

CONFIG = {
    "t0": -0.5, "t1": 5.0, "n_grid": 16, "a_range": [0.75, 2.0], "b_range": [-0.25, 0.25],
    "noise_sigma": 0.02, "per_class": [4, 4, 4], "seed": 0, "n_quantiles": 16,
    "reference": {"type": "pwl", "x": [0.0, 1.0], "y": [0.0, 1.0]}, "lda_lambda": 1e-6,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    density = GridDensity(0.0, 2.0, np.array(SAMPLES))
    write_signal_csv(root / "base.csv", density)
    cfg = TransformConfig(ReferenceMeasure(np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.7, 1.0])),
                          n_quantiles=8)
    write_transform_json(root / "base.json", scdt_forward(measure_from_density(density), cfg), cfg)
    return root


def _slots(obj, path=()):
    """Paths to the numbers and the arrays of a JSON object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _slots(value, path + (key,))
    elif isinstance(obj, (list, int, float)) and not isinstance(obj, bool):
        yield path


def _lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _replace(obj, path, value):
    _lookup(obj, path[:-1])[path[-1]] = value


@st.composite
def mutated_json(draw, obj):
    """JSON text of ``obj`` with one number poisoned or one array resized;
    returns the text and the poison, or None for a resize."""
    path = draw(st.sampled_from(list(_slots(obj))))
    value = _lookup(obj, path)
    if isinstance(value, list):
        if draw(st.booleans()):
            if draw(st.booleans()):
                value.pop(draw(st.integers(0, len(value) - 1)))
            else:
                value.append(value[-1])
            return json.dumps(obj), None
        path += (draw(st.integers(0, len(value) - 1)),)
    poison = draw(st.sampled_from(POISONS))
    _replace(obj, path, "\0")
    return json.dumps(obj).replace('"\\u0000"', poison), poison


@st.composite
def mutated_csv(draw, text):
    """The CSV text with one cell poisoned, one row given the wrong number
    of columns, or one ``t`` moved off the uniform grid."""
    lines = text.splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    how = draw(st.sampled_from(["poison", "columns", "spacing"]))
    if how == "poison":
        col = draw(st.integers(0, 1))
        cells[col] = draw(st.sampled_from(["nan", "1e999", "true", "x", "[1.0, 2.0]"]))
    elif how == "columns":
        cells = cells[:1] if draw(st.booleans()) else cells + cells[1:]
    else:
        cells[0] = repr(float(cells[0]) + draw(st.sampled_from([-0.25, -0.1, 1e-3, 0.3])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@st.composite
def damaged_bytes(draw, data):
    """``data`` truncated, or with an invalid UTF-8 sequence inserted."""
    cut = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:cut]
    return data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])) + data[cut:]


def _command(kind, path, out, variant):
    if kind == "csv":
        if variant:
            return ["distance", "--a", path, "--b", str(out / "base.csv"), "--quantiles", "16"]
        return ["transform", "--input", path, "--output", str(out / "t.json"),
                "--quantiles", "16"]
    if kind == "transform":
        return ["inverse", "--input", path, "--output", str(out / "o.csv"), "--grid", "0,2,8"]
    if variant:
        return ["classify-demo", "--config", path, "--report", str(out / "r.json"),
                "--plots", str(out / "p.csv")]
    return ["generate", "--config", path, "--outdir", str(out / "signals")]


@settings(max_examples=1000)
@given(data=st.data(), kind=st.sampled_from(["csv", "transform", "config"]),
       damage=st.booleans(), variant=st.booleans())
def test_hostile_files_exit_with_a_listed_code(workdir, data, kind, damage, variant):
    if kind == "csv":
        base = (workdir / "base.csv").read_text()
    elif kind == "transform":
        base = (workdir / "base.json").read_text()
    else:
        base = json.dumps(CONFIG)
    must_refuse = False
    if damage:
        content = data.draw(damaged_bytes(base.encode()))
    else:
        if kind == "csv":
            text, must_refuse = data.draw(mutated_csv(base)), True
        else:
            text, poison = data.draw(mutated_json(json.loads(base)))
            must_refuse = kind == "transform" and poison != "1e999"
        content = text.encode()
    path = workdir / f"hostile.{kind}"
    path.write_bytes(content)
    code = main(_command(kind, str(path), workdir, variant))
    assert code in README_EXIT_CODES
    if must_refuse:
        assert code != 0, content.decode()

