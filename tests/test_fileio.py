"""Serialization round trips and parse-error reporting for the signal CSV,
reference spec, transform JSON, and experiment config formats (the last read
by the CLI module)."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from scdt.cli import read_experiment_config, seed_override_from_env
from scdt.errors import InvalidReferenceError, ParseError
from scdt.fileio import (
    parse_reference,
    read_signal_csv,
    read_transform_json,
    reference_from_dict,
    reference_to_dict,
    write_signal_csv,
    write_transform_json,
)
from scdt.measures import DiscreteMeasure, GridDensity, ReferenceMeasure, SignedMeasure
from scdt.steps import POS_INF
from scdt.transform import CdtResult, ScdtResult, TransformConfig, scdt_forward


class TestSignalCsv:
    def test_round_trip_is_bit_exact_on_dyadic_grid(self, tmp_path):
        rng = np.random.default_rng(0)
        density = GridDensity(-0.5, 1.5, rng.standard_normal(16))
        path = tmp_path / "signal.csv"
        write_signal_csv(path, density)
        back = read_signal_csv(path)
        assert back.t0 == density.t0 and back.t1 == density.t1
        assert np.array_equal(back.samples, density.samples)

    def test_round_trip_general_grid(self, tmp_path):
        rng = np.random.default_rng(1)
        density = GridDensity(-0.5, 5.0, rng.standard_normal(7))
        path = tmp_path / "signal.csv"
        write_signal_csv(path, density)
        back = read_signal_csv(path)
        assert back.t0 == pytest.approx(density.t0, abs=1e-12)
        assert back.t1 == pytest.approx(density.t1, abs=1e-12)
        assert np.array_equal(back.samples, density.samples)

    def test_arbitrary_header_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("time,amplitude\n\n0.0,1.0\n\n1.0,2.0\n")
        back = read_signal_csv(path)
        assert np.array_equal(back.samples, [1.0, 2.0])

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        back = read_signal_csv(path)
        assert back.t0 == -0.25 and back.t1 == 1.25

    @pytest.mark.parametrize(
        "content",
        [
            "t,value\n0.0,1.0\n",  # single data row
            "t,value\n0.0,1.0,9\n1.0,2.0\n",  # three columns
            "t,value\n0.0,1.0\n1.0,oops\n",  # unparseable past the header
            "t,value\n0.0,inf\n1.0,2.0\n",  # non-finite value
            "t,value\n1.0,1.0\n0.0,2.0\n",  # decreasing t
            "t,value\n0.0,1.0\n1.0,2.0\n3.0,3.0\n",  # uneven spacing
        ],
        ids=["short", "columns", "badfloat", "nonfinite", "decreasing", "uneven"],
    )
    def test_malformed_files_raise_parse_error(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ParseError):
            read_signal_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rows, span",
        [
            ("-1.7e308,1\n0,1\n1.7e308,1\n", "[-inf, inf]"),
            ("1.7e308,1\n1.79e308,1\n", "[1.6549999999999998e+308, inf]"),
            ("-8.5e307,1\n0,1\n8.5e307,1\n", "[-1.2749999999999999e+308, 1.2749999999999999e+308]"),
        ],
        ids=["t-span", "bin-edge", "bin-span"],
    )
    def test_span_that_overflows_raises_parse_error(self, tmp_path, rows, span):
        # Each t is finite, but the span, a half-bin edge or the edges' distance is not.
        path = tmp_path / "wide.csv"
        path.write_text("t,value\n" + rows)
        with pytest.raises(ParseError, match=re.escape(f"span {span}, which overflows float64")):
            read_signal_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_signal_csv(tmp_path / "nope.csv")


class TestReferenceSpec:
    def test_uniform_spec(self):
        ref = parse_reference("uniform:0,2")
        assert ref.support == (0.0, 2.0)
        assert ref.total_mass == 1.0

    def test_pwl_spec(self):
        ref = parse_reference("pwl:0,0;1,0.5;3,1")
        assert np.array_equal(ref.xs, [0.0, 1.0, 3.0])
        assert np.array_equal(ref.ys, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "spec",
        [
            "gaussian:0,1",
            "uniform:0",
            "uniform:a,b",
            "pwl:0,0;1",
            "pwl:0,0;1,0.5;0.5,1",  # x not increasing
            "pwl:0,0.5;1,1",  # CDF does not start at zero
            "uniform:2,2",
        ],
    )
    def test_bad_specs_raise_invalid_reference(self, spec):
        with pytest.raises(InvalidReferenceError):
            parse_reference(spec)

    def test_dict_round_trip(self):
        ref = ReferenceMeasure.uniform(2.0, 4.0, mass=2.0)
        back = reference_from_dict(reference_to_dict(ref))
        assert np.array_equal(back.xs, ref.xs)
        assert np.array_equal(back.ys, ref.ys)

    def test_dict_rejects_wrong_shape(self):
        with pytest.raises(ParseError):
            reference_from_dict({"type": "gaussian"})
        with pytest.raises(ParseError):
            reference_from_dict({"type": "pwl", "x": [0, 1]})
        with pytest.raises(ParseError):
            reference_from_dict([0, 1])


class TestTransformJson:
    def make_transform(self, n_quantiles=8):
        s = SignedMeasure(
            DiscreteMeasure(np.array([0.1, 1.0]), np.array([0.5, 0.25])),
            DiscreteMeasure(np.array([2.0]), np.array([1.0 / 3.0])),
        )
        cfg = TransformConfig(n_quantiles=n_quantiles)
        return scdt_forward(s, cfg), cfg

    def test_round_trip_is_bit_exact(self, tmp_path):
        t, cfg = self.make_transform()
        path = tmp_path / "t.json"
        write_transform_json(path, t, cfg)
        back, back_cfg = read_transform_json(path)
        assert back_cfg.n_quantiles == cfg.n_quantiles
        assert np.array_equal(back_cfg.reference.xs, cfg.reference.xs)
        assert np.array_equal(back.plus.samples, t.plus.samples)
        assert np.array_equal(back.minus.samples, t.minus.samples)
        assert back.plus.mass == t.plus.mass
        assert back.minus.mass == t.minus.mass

    def test_infinite_samples_survive_the_trip(self, tmp_path):
        t = ScdtResult(
            CdtResult(np.array([0.0, 1.0, POS_INF, POS_INF]), 1.0),
            CdtResult.zero(4),
        )
        cfg = TransformConfig(n_quantiles=4)
        path = tmp_path / "t.json"
        write_transform_json(path, t, cfg)
        back, _ = read_transform_json(path)
        assert np.array_equal(back.plus.samples, t.plus.samples)

    def tampered(self, tmp_path, mutate):
        t, cfg = self.make_transform()
        path = tmp_path / "t.json"
        write_transform_json(path, t, cfg)
        obj = json.loads(path.read_text())
        mutate(obj)
        path.write_text(json.dumps(obj))
        return path

    def test_version_mismatch(self, tmp_path):
        path = self.tampered(tmp_path, lambda o: o.update(version=99))
        with pytest.raises(ParseError):
            read_transform_json(path)

    def test_boolean_version_rejected(self, tmp_path):
        # JSON true equals 1 in Python; it is not the version number 1.
        path = self.tampered(tmp_path, lambda o: o.update(version=True))
        with pytest.raises(ParseError, match="unsupported version True"):
            read_transform_json(path)

    def test_nan_quantile_level_rejected(self, tmp_path):
        # A NaN level compares False against any tolerance, so the grid
        # check must ask for every level to be close, not for none to be far.
        def mutate(o):
            o["quantiles"][3] = float("nan")

        with pytest.raises(ParseError, match="not the midpoint grid"):
            read_transform_json(self.tampered(tmp_path, mutate))

    def test_non_midpoint_grid(self, tmp_path):
        def mutate(o):
            o["quantiles"][0] = 0.2

        with pytest.raises(ParseError):
            read_transform_json(self.tampered(tmp_path, mutate))

    def test_sample_length_mismatch(self, tmp_path):
        def mutate(o):
            o["plus"]["samples"].append(99.0)

        with pytest.raises(ParseError):
            read_transform_json(self.tampered(tmp_path, mutate))

    def test_decreasing_samples_rejected(self, tmp_path):
        def mutate(o):
            o["plus"]["samples"][0] = 1e9

        with pytest.raises(ParseError):
            read_transform_json(self.tampered(tmp_path, mutate))

    def test_invalid_json_and_wrong_top_level(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_transform_json(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError):
            read_transform_json(path)
        with pytest.raises(ParseError):
            read_transform_json(tmp_path / "missing.json")


class TestExperimentConfig:
    def test_empty_config_gives_protocol_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = read_experiment_config(path)
        assert cfg.gen.per_class == (167, 167, 166)
        assert cfg.transform.n_quantiles == 1024
        assert cfg.transform.reference.support == (0.0, 1.0)

    def test_full_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "t0": -1.0,
                    "t1": 6.0,
                    "n_grid": 128,
                    "a_range": [0.9, 1.1],
                    "b_range": [-0.1, 0.1],
                    "noise_sigma": 0.01,
                    "per_class": [10, 10, 10],
                    "seed": 3,
                    "n_quantiles": 64,
                    "reference": "uniform:0,2",
                    "lda_lambda": 1e-4,
                }
            )
        )
        cfg = read_experiment_config(path)
        assert cfg.gen.n_grid == 128
        assert cfg.gen.a_range == (0.9, 1.1)
        assert cfg.gen.per_class == (10, 10, 10)
        assert cfg.transform.n_quantiles == 64
        assert cfg.transform.reference.support == (0.0, 2.0)
        assert cfg.lda_lambda == 1e-4

    def test_whole_floats_are_integers(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_grid": 16.0, "seed": 7.0, "n_quantiles": 32.0,
                                    "per_class": [2.0, 3, 4.0]}))
        cfg = read_experiment_config(path)
        assert (cfg.gen.n_grid, cfg.gen.seed, cfg.transform.n_quantiles) == (16, 7, 32)
        assert cfg.gen.per_class == (2, 3, 4)
        assert all(type(v) is int for v in (cfg.gen.n_grid, cfg.gen.seed, *cfg.gen.per_class))

    def test_reference_as_dict(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"reference": {"type": "pwl", "x": [0, 1], "y": [0, 1]}}))
        assert read_experiment_config(path).transform.reference.support == (0.0, 1.0)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_qantiles": 64}))
        with pytest.raises(ParseError, match="n_qantiles"):
            read_experiment_config(path)

    @pytest.mark.parametrize(
        "obj",
        [
            {"a_range": [1.0]},
            {"per_class": [0, 5, 5]},
            {"n_quantiles": 1},
            {"t0": 2.0, "t1": 1.0},
        ],
    )
    def test_invalid_values_become_parse_errors(self, tmp_path, obj):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError):
            read_experiment_config(path)


class TestSeedOverride:
    def test_unset_and_empty_mean_none(self):
        assert seed_override_from_env({}) is None
        assert seed_override_from_env({"SCDT_SEED": ""}) is None

    def test_integer_value(self):
        assert seed_override_from_env({"SCDT_SEED": "42"}) == 42
        assert seed_override_from_env({"SCDT_SEED": "-3"}) == -3

    def test_junk_raises(self):
        with pytest.raises(ParseError):
            seed_override_from_env({"SCDT_SEED": "lots"})
