"""End-to-end command-line behavior: round trips, stdout contracts, exit
codes, and the environment seed override."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import scdt
from scdt.cli import ExperimentConfig, main
from scdt.fileio import read_signal_csv, write_signal_csv, write_transform_json
from scdt.measures import GridDensity, ReferenceMeasure
from scdt.transform import CdtResult, ScdtResult, TransformConfig

#: A 400-digit integer, beyond float64: JSON readers take it as an int.
LONG_INTEGER = 10**399


@pytest.fixture
def signal_csv(tmp_path):
    def write(name, samples, t0=0.0, t1=2.0):
        path = tmp_path / name
        write_signal_csv(path, GridDensity(t0, t1, np.asarray(samples, dtype=float)))
        return str(path)

    return write


class TestTransformInverse:
    SAMPLES = [1.0, 2.0, 0.0, -1.0, 0.0, 3.0, -2.0, 1.0]

    def test_round_trip(self, tmp_path, signal_csv):
        src = signal_csv("in.csv", self.SAMPLES)
        tj = str(tmp_path / "t.json")
        out = str(tmp_path / "out.csv")
        assert main(["transform", "--input", src, "--output", tj, "--quantiles", "256"]) == 0
        assert main(["inverse", "--input", tj, "--output", out, "--grid", "0,2,8"]) == 0
        back = read_signal_csv(out)
        assert np.max(np.abs(back.samples - np.array(self.SAMPLES))) <= 0.1

    def test_bad_reference_exit_3(self, tmp_path, signal_csv):
        src = signal_csv("in.csv", self.SAMPLES)
        code = main(
            ["transform", "--input", src, "--output", str(tmp_path / "t.json"),
             "--ref", "gauss:0,1"]
        )
        assert code == 3

    def test_overflowing_reference_slope_exit_3(self, tmp_path, capsys, signal_csv):
        src = signal_csv("in.csv", self.SAMPLES)
        code = main(["transform", "--input", src, "--output", str(tmp_path / "t.json"),
                     "--ref", "pwl:0,0;1e-300,1e300"])
        assert code == 3
        assert "slope overflows" in capsys.readouterr().err

    def test_subnormal_mass_reference_round_trip(self, tmp_path, capsys):
        ref = ReferenceMeasure(np.array([0.0, 1.0]), np.array([0.0, 1e-320]))
        cfg = TransformConfig(ref, n_quantiles=4)
        tj = tmp_path / "t.json"
        write_transform_json(tj, ScdtResult(CdtResult(np.ones(4), 1.0), CdtResult.zero(4)), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inverse", "--input", str(tj), "--output", str(tmp_path / "o.csv"),
                         "--grid", "0,2,4"]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_input_exit_2(self, tmp_path):
        code = main(
            ["transform", "--input", str(tmp_path / "none.csv"),
             "--output", str(tmp_path / "t.json")]
        )
        assert code == 2

    def test_malformed_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n0.0,1.0\n")
        assert main(["transform", "--input", str(bad), "--output", str(tmp_path / "t.json")]) == 2

    def test_bad_grid_spec_exit_2(self, tmp_path, signal_csv):
        src = signal_csv("in.csv", self.SAMPLES)
        tj = str(tmp_path / "t.json")
        main(["transform", "--input", src, "--output", tj])
        assert main(["inverse", "--input", tj, "--output", str(tmp_path / "o.csv"),
                     "--grid", "0,2"]) == 2

    @pytest.mark.parametrize("grid, message", [
        ("0,1,4.5", "--grid must be t0,t1,N, got '0,1,4.5'"),
        ("0,1,0", "need finite t0 < t1 and n_bins >= 1"),
    ], ids=["fractional-N", "zero-N"])
    def test_bad_grid_count_exit_2(self, tmp_path, capsys, signal_csv, grid, message):
        src = signal_csv("in.csv", self.SAMPLES)
        tj = str(tmp_path / "t.json")
        main(["transform", "--input", src, "--output", tj])
        assert main(["inverse", "--input", tj, "--output", str(tmp_path / "o.csv"),
                     f"--grid={grid}"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_out_of_range_grid_exit_4(self, tmp_path, signal_csv):
        src = signal_csv("in.csv", self.SAMPLES)
        tj = str(tmp_path / "t.json")
        main(["transform", "--input", src, "--output", tj])
        assert main(["inverse", "--input", tj, "--output", str(tmp_path / "o.csv"),
                     "--grid", "10,11,4"]) == 4

    @pytest.mark.filterwarnings("error")
    def test_overflowing_density_exit_4(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0.0,1e300\n1.0,0.0\n")
        tj = str(tmp_path / "t.json")
        assert main(["transform", "--input", str(src), "--output", tj]) == 0
        assert main(["inverse", "--input", tj, "--output", str(tmp_path / "o.csv"),
                     "--grid=-1e-300,1e-300,1"]) == 4
        assert "over the bin width 2e-300 overflows" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_overflowing_grid_span_exit_2(self, tmp_path, capsys, signal_csv):
        src = signal_csv("in.csv", self.SAMPLES)
        tj = str(tmp_path / "t.json")
        main(["transform", "--input", src, "--output", tj])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["inverse", "--input", tj, "--output", str(tmp_path / "o.csv"),
                         "--grid=-1e308,1e308,4"]) == 2
        assert "span t1 - t0 of [-1e+308, 1e+308] overflows" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_colliding_parts_exit_4(self, tmp_path):
        cfg = TransformConfig(n_quantiles=4)
        collided = ScdtResult(
            CdtResult(np.ones(4), 1.0), CdtResult(np.ones(4), 1.0)
        )
        tj = tmp_path / "t.json"
        write_transform_json(tj, collided, cfg)
        assert main(["inverse", "--input", str(tj), "--output",
                     str(tmp_path / "o.csv"), "--grid", "0,2,4"]) == 4

    def test_mass_underflow_exit_4(self, tmp_path, capsys):
        tiny = ScdtResult(CdtResult(np.ones(4), 5e-324), CdtResult.zero(4))
        tj = tmp_path / "t.json"
        write_transform_json(tj, tiny, TransformConfig(n_quantiles=4))
        assert main(["inverse", "--input", str(tj), "--output",
                     str(tmp_path / "o.csv"), "--grid", "0,2,4"]) == 4
        assert "mass / M underflows to 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, code, message",
        [("mass", 2, "plus: mass must be finite and nonnegative"),
         ("samples", 4, "cannot rebin atoms at +-inf onto a finite grid")],
        ids=["mass", "last-sample"],
    )
    def test_long_integer_reads_as_inf(self, tmp_path, capsys, signal_csv, field, code, message):
        # As 1e999 does: an infinite mass is refused, an infinite last sample is kept.
        src = signal_csv("in.csv", self.SAMPLES)
        tj = tmp_path / "t.json"
        assert main(["transform", "--input", src, "--output", str(tj), "--quantiles", "8"]) == 0
        obj = json.loads(tj.read_text())
        if field == "mass":
            obj["plus"]["mass"] = LONG_INTEGER
        else:
            obj["plus"]["samples"][-1] = LONG_INTEGER
        tj.write_text(json.dumps(obj))
        assert main(["inverse", "--input", str(tj), "--output",
                     str(tmp_path / "o.csv"), "--grid", "0,2,8"]) == code
        assert message in capsys.readouterr().err

    def test_tampered_version_exit_2(self, tmp_path, signal_csv):
        src = signal_csv("in.csv", self.SAMPLES)
        tj = tmp_path / "t.json"
        main(["transform", "--input", src, "--output", str(tj)])
        obj = json.loads(tj.read_text())
        obj["version"] = 99
        tj.write_text(json.dumps(obj))
        assert main(["inverse", "--input", str(tj), "--output",
                     str(tmp_path / "o.csv"), "--grid", "0,2,8"]) == 2


class TestDistance:
    def test_signed_distance_prints_float(self, capsys, signal_csv):
        a = signal_csv("a.csv", [1.0, 0.0, -1.0, 0.0])
        b = signal_csv("b.csv", [0.0, 1.0, 0.0, -1.0])
        assert main(["distance", "--a", a, "--b", b, "--quantiles", "64"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) > 0.0

    def test_distance_to_self_is_zero(self, capsys, signal_csv):
        a = signal_csv("a.csv", [1.0, 0.0, -1.0, 0.0])
        assert main(["distance", "--a", a, "--b", a]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_symmetry(self, capsys, signal_csv):
        a = signal_csv("a.csv", [1.0, 2.0, -1.0, 0.5])
        b = signal_csv("b.csv", [0.0, 1.0, 1.0, -0.5])
        main(["distance", "--a", a, "--b", b])
        ab = capsys.readouterr().out
        main(["distance", "--a", b, "--b", a])
        ba = capsys.readouterr().out
        assert ab == ba

    def test_w2_requires_nonnegative_exit_5(self, signal_csv):
        a = signal_csv("a.csv", [1.0, 0.0, -1.0, 0.0])
        b = signal_csv("b.csv", [1.0, 1.0, 1.0, 1.0])
        assert main(["distance", "--a", a, "--b", b, "--metric", "w2"]) == 5
        assert main(["distance", "--a", a, "--b", b, "--metric", "dw2"]) == 5

    def test_w2_requires_unit_mass_exit_5(self, signal_csv):
        # Both signals are positive but carry mass 2.
        a = signal_csv("a.csv", [1.0, 1.0, 1.0, 1.0])
        b = signal_csv("b.csv", [2.0, 2.0, 0.0, 0.0])
        assert main(["distance", "--a", a, "--b", b, "--metric", "w2"]) == 5

    def test_dw2_accepts_unnormalized(self, capsys, signal_csv):
        a = signal_csv("a.csv", [1.0, 1.0, 1.0, 1.0])
        b = signal_csv("b.csv", [2.0, 2.0, 0.0, 0.0])
        assert main(["distance", "--a", a, "--b", b, "--metric", "dw2"]) == 0
        assert float(capsys.readouterr().out) > 0.0

    def test_w2_identical_uniform_signals(self, capsys, signal_csv):
        # Density 0.5 on [0,2] integrates to one.
        a = signal_csv("a.csv", [0.5, 0.5, 0.5, 0.5])
        assert main(["distance", "--a", a, "--b", a, "--metric", "w2"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    @pytest.mark.parametrize("half_width", [1e200, 1e-300])
    def test_extreme_scale_pair_prints_the_atom_gap(self, capsys, signal_csv, half_width):
        # Unit-mass positive atoms at opposite ends of four bins, equal
        # negative parts: the distance is the atom gap, 1.5 * half_width.
        d = 2.0 / half_width
        a = signal_csv("a.csv", [d, 0.0, -d, 0.0], -half_width, half_width)
        b = signal_csv("b.csv", [0.0, 0.0, -d, d], -half_width, half_width)
        assert main(["distance", "--a", a, "--b", b]) == 0
        assert math.isclose(float(capsys.readouterr().out), 1.5 * half_width, rel_tol=1e-15)

    @pytest.mark.parametrize("metric", ["ds", "dw2", "w2"])
    def test_sample_gap_overflow_exit_5(self, capsys, signal_csv, metric):
        # Unit-mass atoms near -1.65e308 and +1.65e308: their gap overflows.
        a = signal_csv("a.csv", [1e-307, 0.0], -1.7e308, -1.5e308)
        b = signal_csv("b.csv", [0.0, 1e-307], 1.5e308, 1.7e308)
        assert main(["distance", "--a", a, "--b", b, "--metric", metric]) == 5
        assert "overflows float64" in capsys.readouterr().err


class TestGenerate:
    def config(self, tmp_path, **kw):
        base = {"per_class": [2, 2, 2], "n_grid": 16, "n_quantiles": 16}
        base.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base))
        return str(path)

    def test_writes_labeled_files(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        outdir = tmp_path / "data"
        assert main(["generate", "--config", cfg, "--outdir", str(outdir)]) == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "signal_0000_class0.csv",
            "signal_0001_class0.csv",
            "signal_0002_class1.csv",
            "signal_0003_class1.csv",
            "signal_0004_class2.csv",
            "signal_0005_class2.csv",
        ]
        assert "wrote 6 signals" in capsys.readouterr().err
        first = read_signal_csv(outdir / names[0])
        assert first.samples.shape == (16,)

    def test_seed_env_override_changes_output(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        monkeypatch.delenv("SCDT_SEED", raising=False)
        main(["generate", "--config", cfg, "--outdir", str(tmp_path / "d0")])
        monkeypatch.setenv("SCDT_SEED", "7")
        main(["generate", "--config", cfg, "--outdir", str(tmp_path / "d7")])
        a = read_signal_csv(tmp_path / "d0" / "signal_0000_class0.csv")
        b = read_signal_csv(tmp_path / "d7" / "signal_0000_class0.csv")
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "config",
        [
            {"a_range": [0.1, 0.1]},
            {"t0": -3.0, "a_range": [1e15, 1e15], "b_range": [1e15, 1e15], "per_class": 1},
        ],
        ids=["atoms-off-the-grid", "atoms-collapse"],
    )
    def test_unrepresentable_warps_exit_4(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(path), "--outdir", str(tmp_path / "d")]) == 4

    def test_overflowing_grid_span_exit_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path, t0=-1e308, t1=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", "--config", cfg, "--outdir", str(tmp_path / "d")]) == 2
        assert "span t1 - t0 of [-1e+308, 1e+308] overflows" in capsys.readouterr().err

    def test_bad_seed_env_exit_2(self, tmp_path, monkeypatch):
        cfg = self.config(tmp_path)
        monkeypatch.setenv("SCDT_SEED", "many")
        assert main(["generate", "--config", cfg, "--outdir", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("command", ["generate", "classify-demo"])
    def test_negative_seed_exit_2_before_generating(self, tmp_path, capsys, monkeypatch,
                                                    command):
        outputs = (["--outdir", str(tmp_path / "d")] if command == "generate" else
                   ["--report", str(tmp_path / "r.json"), "--plots", str(tmp_path / "p.csv")])
        monkeypatch.delenv("SCDT_SEED", raising=False)
        cfg = self.config(tmp_path, seed=-1)
        assert main([command, "--config", cfg, *outputs]) == 2
        assert f"{cfg}: seed must be a nonnegative whole number, got -1" in capsys.readouterr().err
        monkeypatch.setenv("SCDT_SEED", "-1")
        assert main([command, "--config", self.config(tmp_path), *outputs]) == 2
        err = capsys.readouterr().err
        assert "seed must be a nonnegative whole number, got -1" in err
        assert "SCDT_SEED" in err
        assert not any(tmp_path.glob("[drp]*"))

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"noise_sigma": LONG_INTEGER}, "noise_sigma must be finite and nonnegative"),
            ({"a_range": [0.75, LONG_INTEGER]},
             "a_range must be a finite nonempty interval of finite width"),
            ({"t0": -LONG_INTEGER}, "need finite t0 < t1"),
            ({"seed": LONG_INTEGER}, "seed must be an integer, got inf"),
        ],
        ids=["noise_sigma", "a_range-entry", "t0-negative", "seed"],
    )
    def test_long_integer_reads_as_inf_exit_2(self, tmp_path, capsys, override, message):
        # As 1e999 does: no config value may be infinite.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_class": 2, "n_grid": 16, **override}))
        assert main(["generate", "--config", str(cfg), "--outdir", str(tmp_path / "d")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = self.config(tmp_path, extra_knob=1)
        assert main(["generate", "--config", cfg, "--outdir", str(tmp_path / "d")]) == 2


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["generate", "classify-demo"])
    @pytest.mark.parametrize(
        "override",
        [{"n_grid": 1e999}, {"seed": 1e999}, {"n_quantiles": 1e999}, {"per_class": [2, 1e999, 2]}],
        ids=["n_grid", "seed", "n_quantiles", "per_class"],
    )
    def test_overflowing_integer_key_exit_2(self, tmp_path, capsys, command, override):
        # 1e999 reads as inf, which int() cannot convert.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_class": [2, 2, 2], "n_grid": 16, "n_quantiles": 16,
                                   **override}).replace("Infinity", "1e999"))
        outputs = (["--outdir", str(tmp_path / "d")] if command == "generate" else
                   ["--report", str(tmp_path / "r.json"), "--plots", str(tmp_path / "p.csv")])
        assert main([command, "--config", str(cfg), *outputs]) == 2
        key = next(iter(override))
        assert f"{key} must be an integer, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "classify-demo"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"t0": True}, "t0: expected a number, got True"),
            ({"t1": True}, "t1: expected a number, got True"),
            ({"noise_sigma": True}, "noise_sigma: expected a number, got True"),
            ({"n_grid": True}, "n_grid must be an integer, got True"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"n_quantiles": True}, "n_quantiles must be an integer, got True"),
            ({"per_class": True}, "per_class must be an integer, got True"),
            ({"per_class": [2, True, 2]}, "per_class must be an integer, got True"),
            ({"lda_lambda": "NaN"}, "lda_lambda must be finite and positive, got nan"),
            ({"lda_lambda": "1e999"}, "lda_lambda must be finite and positive, got inf"),
            ({"lda_lambda": -1.0}, "lda_lambda must be finite and positive, got -1.0"),
        ],
        ids=["t0", "t1", "noise_sigma", "n_grid", "seed", "n_quantiles", "per_class",
             "per_class-entry", "lda_lambda-nan", "lda_lambda-inf", "lda_lambda-negative"],
    )
    def test_boolean_and_bad_lda_lambda_exit_2(self, tmp_path, capsys, command, override,
                                                message):
        # JSON true is not a number; "NaN" and "1e999" are written bare, as JSON readers take them.
        text = json.dumps({"per_class": [2, 2, 2], "n_grid": 16, "n_quantiles": 16, **override})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace('"NaN"', "NaN").replace('"1e999"', "1e999"))
        outputs = (["--outdir", str(tmp_path / "d")] if command == "generate" else
                   ["--report", str(tmp_path / "r.json"), "--plots", str(tmp_path / "p.csv")])
        assert main([command, "--config", str(cfg), *outputs]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["generate", "classify-demo"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"n_grid": 16.9}, "n_grid must be an integer, got 16.9"),
            ({"seed": "7"}, "seed must be an integer, got '7'"),
            ({"n_quantiles": 16.5}, "n_quantiles must be an integer, got 16.5"),
            ({"per_class": 2.5}, "per_class must be an integer, got 2.5"),
            ({"per_class": [2, "2", 2]}, "per_class must be an integer, got '2'"),
            ({"n_grid": [16]}, "n_grid must be an integer, got [16]"),
            ({"seed": None}, "seed must be an integer, got None"),
        ],
        ids=["n_grid-fraction", "seed-string", "n_quantiles-fraction", "per_class-fraction",
             "per_class-entry-string", "n_grid-list", "seed-null"],
    )
    def test_non_whole_integer_key_exit_2(self, tmp_path, capsys, command, override, message):
        # int() would run 16.9 as 16 and "7" as 7.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_class": [2, 2, 2], "n_grid": 16, "n_quantiles": 16,
                                   **override}))
        outputs = (["--outdir", str(tmp_path / "d")] if command == "generate" else
                   ["--report", str(tmp_path / "r.json"), "--plots", str(tmp_path / "p.csv")])
        assert main([command, "--config", str(cfg), *outputs]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_first_bad_key_is_named_whatever_the_hash_seed(self, tmp_path):
        # GenConfig checks n_grid before per_class and seed; the reader must convert the
        # keys in that order too, not in the order hash randomization gives a set.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": 16.5, "seed": 2.5, "per_class": 1.5}))
        src = os.path.dirname(os.path.dirname(scdt.__file__))
        args = [sys.executable, "-m", "scdt.cli", "generate", "--config", str(cfg),
                "--outdir", str(tmp_path / "d")]
        for hash_seed in range(8):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(hash_seed)}
            out = subprocess.run(args, env=env, capture_output=True, text=True)
            assert out.returncode == 2
            assert "n_grid must be an integer, got 16.5" in out.stderr, hash_seed


class TestClassifyDemo:
    def test_demo_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCDT_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"per_class": [4, 4, 4], "n_grid": 32, "noise_sigma": 0.0,
                 "n_quantiles": 32}
            )
        )
        report = tmp_path / "report.json"
        plots = tmp_path / "plots.csv"
        code = main(
            ["classify-demo", "--config", str(cfg), "--report", str(report),
             "--plots", str(plots)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy raw_signal" in out and "accuracy scdt" in out
        payload = json.loads(report.read_text())
        assert 0.0 <= payload["accuracy_scdt_space"] <= 1.0
        lines = plots.read_text().splitlines()
        n_test = payload["n_test"]
        assert lines[0] == "space,class,u,v"
        assert len(lines) == 1 + 2 * n_test
        space, label, u, v = lines[1].split(",")
        assert space == "raw_signal"
        float(u), float(v), int(label)

    def test_deterministic_report(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SCDT_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_class": [4, 4, 4], "n_grid": 16, "n_quantiles": 16}))
        paths = []
        for tag in ("x", "y"):
            report = tmp_path / f"report_{tag}.json"
            plots = tmp_path / f"plots_{tag}.csv"
            assert main(["classify-demo", "--config", str(cfg), "--report", str(report),
                         "--plots", str(plots)]) == 0
            paths.append((report, plots))
        assert paths[0][0].read_text() == paths[1][0].read_text()
        assert paths[0][1].read_text() == paths[1][1].read_text()

    def test_nonpositive_lda_lambda_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCDT_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_class": [4, 4, 4], "n_grid": 16, "n_quantiles": 16,
                                   "lda_lambda": 0.0}))
        code = main(["classify-demo", "--config", str(cfg), "--report",
                     str(tmp_path / "report.json"), "--plots", str(tmp_path / "plots.csv")])
        assert code == 2
        assert "lda_lambda must be finite and positive" in capsys.readouterr().err

    def test_class_without_training_signal_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SCDT_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_class": [3, 4, 1], "n_grid": 32, "n_quantiles": 16}))
        code = main(["classify-demo", "--config", str(cfg), "--report",
                     str(tmp_path / "report.json"), "--plots", str(tmp_path / "plots.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: class 2 has no training signal" in captured.err
        assert captured.out == "" and not (tmp_path / "report.json").exists()


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["transform", "--input", "x.csv"])
        assert err.value.code == 2


#: Values of lda_lambda that an experiment config and fit_lda both refuse.
BAD_LDA_LAMBDAS = [-1.0, 0.0, math.nan, math.inf, "1e-6", True]


class TestLibraryConfigs:
    @pytest.mark.parametrize("lda_lambda", BAD_LDA_LAMBDAS)
    def test_experiment_config_refuses_bad_lda_lambda(self, lda_lambda):
        with pytest.raises(ValueError, match="lda_lambda"):
            ExperimentConfig(scdt.GenConfig(), TransformConfig(), lda_lambda)

    def test_fit_lda_refuses_the_same_lda_lambda(self):
        train = scdt.FeatureMatrix(np.array([[0.0], [1.0], [5.0], [6.0]]), [0, 0, 1, 1],
                                   "raw_signal")
        for lda_lambda in BAD_LDA_LAMBDAS:
            with pytest.raises(ValueError, match="lda_lambda"):
                scdt.fit_lda(train, lda_lambda)


#: A size no array can hold: 10**17 float64 entries lie beyond a 47-bit address space,
#: so the allocation fails at once.
OVERSIZE = 10**17


class TestOversize:
    def test_flag_size_no_array_can_hold_exit_2(self, tmp_path, capsys, signal_csv):
        src, tj = signal_csv("in.csv", [1.0, 2.0, 0.0, -1.0]), str(tmp_path / "t.json")
        assert main(["transform", "--input", src, "--output", tj, "--quantiles", "8"]) == 0
        for argv in (["transform", "--input", src, "--output", str(tmp_path / "o.json"),
                      "--quantiles", str(OVERSIZE)],
                     ["inverse", "--input", tj, "--output", str(tmp_path / "o.csv"),
                      f"--grid=0,3,{OVERSIZE}"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not any(tmp_path.glob("o.*"))

    @pytest.mark.parametrize("n", [2**63, 10**30], ids=["beyond-int64", "1e30"])
    def test_grid_size_no_index_can_hold_exit_2(self, tmp_path, capsys, signal_csv, n):
        src, tj = signal_csv("in.csv", [1.0, 2.0, 0.0, -1.0]), str(tmp_path / "t.json")
        assert main(["transform", "--input", src, "--output", tj, "--quantiles", "8"]) == 0
        out = str(tmp_path / "o.csv")
        assert main(["inverse", "--input", tj, "--output", out, f"--grid=0,3,{n}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: n_bins {n} is more bins than any array can hold\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["n_grid", "n_quantiles"])
    def test_config_size_no_array_can_hold_exit_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"per_class": 1, "n_grid": 4, "n_quantiles": 4,
                                   key: float(OVERSIZE)}))
        assert main(["generate", "--config", str(cfg), "--outdir", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()
