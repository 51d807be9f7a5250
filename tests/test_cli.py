import csv
import json
import math
import os
import re
import stat
import threading

import pytest

import numpy as np

from bottleneck_lab import asymptotic, dynamics, optimize, periodic, signals
from bottleneck_lab.cli import _beats_benchmark, _open_output, main
from bottleneck_lab.signals import SystemParams, signal_from_dict

CONSTANT_SIG = {"kind": "constant", "level": 1.0, "period": 1.0}
TWO_LEVEL_SIG = {
    "kind": "piecewise_constant",
    "breakpoints": [0.0, 1.0, 2.0],
    "levels": [0.0, 2.0],
    "periodic": True,
}
SMOOTH_SIG = {
    "kind": "clipped_sinusoid_sum",
    "mean": 1.0,
    "terms": [{"amplitude": 0.5, "omega": 6.283185307179586, "phase": 0.0}],
}


def write_json(path, data):
    path.write_text(json.dumps(data, indent=1))
    return str(path)


class TestSimulate:
    def test_constant_signal_reaches_steady_state(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": CONSTANT_SIG,
            "lambda": 1.0,
            "x0": 0.0,
            "horizon": 20.0,
            "out": str(tmp_path / "traj.csv"),
        })
        assert main(["simulate", "--config", cfg]) == 0
        with open(tmp_path / "traj.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert abs(float(rows[-1]["x"]) - 0.5) <= 1e-6

    def test_zero_signal_pure_decay(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": {"kind": "constant", "level": 0.0, "period": 1.0},
            "lambda": 2.0,
            "x0": 1.0,
            "horizon": 3.0,
            "out": str(tmp_path / "traj.csv"),
        })
        assert main(["simulate", "--config", cfg]) == 0
        with open(tmp_path / "traj.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["x"]) == pytest.approx(math.exp(-6.0), abs=1e-10)

    def test_numeric_overshoot_exits_1(self, tmp_path, monkeypatch, capsys):
        # The step cap keeps numeric states within rounding of [0, 1]; with
        # no overshoot tolerated the guard fires, and the run is a violation.
        monkeypatch.setattr(dynamics, "OVERSHOOT_TOL", 0.0)
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": SMOOTH_SIG, "lambda": 3.0, "x0": 1.0, "horizon": 1.0,
            "out": str(tmp_path / "traj.csv")})
        assert main(["simulate", "--config", cfg]) == 1
        assert "numeric state left [0, 1]" in capsys.readouterr().err

    def test_signal_file_flag(self, tmp_path):
        sig = write_json(tmp_path / "sig.json", CONSTANT_SIG)
        out = tmp_path / "t.csv"
        code = main(["simulate", "--signal", sig, "--lambda", "1.0",
                     "--horizon", "1.0", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_malformed_config_is_line_anchored(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"signal": {},\n "lambda": 1.0,\n')
        assert main(["simulate", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3:1" in err

    def test_unreadable_json_files_exit_2_naming_path_and_reason(self, tmp_path, capsys):
        # One reader serves the config and a signal file: a syntax error is
        # anchored at path:line:col, anything else names the path and why.
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "constant",\n "level": }')
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"kind": "constant", "level": 1.0, "name": "\xe9"}')
        missing = tmp_path / "missing.json"
        gone, undecodable = "No such file or directory", "codec can't decode byte 0xe9"
        for argv, want, reason in (
                (["--config", str(missing)], f"error: cannot read {missing}: ", gone),
                (["--signal", str(missing)], f"error: simulate: cannot read {missing}: ", gone),
                (["--signal", str(bad)], f"error: simulate: {bad}:2:11: ", "Expecting value"),
                (["--config", str(latin)], f"error: cannot read {latin}: ", undecodable),
                (["--signal", str(latin)], f"error: simulate: cannot read {latin}: ",
                 undecodable)):
            assert main(["simulate", *argv, "--lambda", "1.0", "--horizon", "1.0"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(want) and reason in err and err.count("\n") == 1, err

    def test_step_sets_the_spacing_or_refines_the_scan(self, tmp_path):
        def times(signal, step=None):
            cfg = {"signal": signal, "lambda": 1.0, "horizon": 1.0, "out": str(tmp_path / "t.csv")}
            if step is not None:
                cfg["step"] = step
            assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 0
            with open(tmp_path / "t.csv") as fh:
                return [float(row["t"]) for row in csv.DictReader(fh)]

        assert times(CONSTANT_SIG, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
        # a start and six Gauss nodes per step, and the end
        step = dynamics.default_step(signal_from_dict(SMOOTH_SIG), SystemParams(lam=1.0))
        assert len(times(SMOOTH_SIG)) == 7 * math.ceil(1.0 / step) + 1
        assert len(times(SMOOTH_SIG, step / 2)) == 7 * math.ceil(2.0 / step) + 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": CONSTANT_SIG, "lambda": 1.0, "horizon": 1.0, "bogus": 1,
        })
        assert main(["simulate", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"signal": CONSTANT_SIG, "lambda": 1.0})
        assert main(["simulate", "--config", cfg]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_bad_signal_payload(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": {"kind": "constant", "level": -1.0},
            "lambda": 1.0,
            "horizon": 1.0,
        })
        assert main(["simulate", "--config", cfg]) == 2
        assert "non-negative" in capsys.readouterr().err


class TestPeriodicCommand:
    def test_json_report(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": TWO_LEVEL_SIG,
            "lambda": 1.0,
            "out": str(tmp_path / "rep.json"),
        })
        assert main(["periodic", "--config", cfg]) == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["sigma_bar"] == 1.0
        assert rep["w_sigma"] < rep["w_const"]
        assert rep["residuals"]["gap_identity"] <= 1e-8

    @pytest.mark.parametrize("signal, expected", [
        pytest.param(TWO_LEVEL_SIG, None, id="exact"),
        pytest.param(SMOOTH_SIG, dynamics.default_step(signal_from_dict(SMOOTH_SIG),
                                                       SystemParams(lam=3.0)), id="smooth"),
    ])
    def test_grid_step_is_the_step_used(self, tmp_path, signal, expected):
        # The numeric path's default step; null where the walk is exact.
        cfg = {"signal": signal, "lambda": 3.0, "out": str(tmp_path / "rep.json")}
        assert main(["periodic", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 0
        assert json.loads((tmp_path / "rep.json").read_text())["grid_step"] == expected

    def test_step_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": SMOOTH_SIG, "lambda": 3.0, "step": 2e-4, "out": str(tmp_path / "rep.json"),
        })
        assert main(["periodic", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: unknown key(s) for 'periodic': ['step']")
        assert not (tmp_path / "rep.json").exists()

    def test_overflowing_rate_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": {"kind": "constant", "level": 1.7e308}, "lambda": 1e308,
            "out": str(tmp_path / "rep.json"),
        })
        assert main(["periodic", "--config", cfg]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_period_integral_exits_2(self, tmp_path, capsys, fmt):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": {"kind": "piecewise_constant", "breakpoints": [0.0, 1e300, 1.7e308],
                       "levels": [1.0, 2.0]},
            "lambda": 1.0, "format": fmt, "out": str(tmp_path / f"rep.{fmt}"),
        })
        assert main(["periodic", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            "error: a period integral overflows double precision")
        assert not (tmp_path / f"rep.{fmt}").exists()

    def test_csv_report(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": TWO_LEVEL_SIG,
            "lambda": 1.0,
            "format": "csv",
            "out": str(tmp_path / "rep.csv"),
        })
        assert main(["periodic", "--config", cfg]) == 0
        with open(tmp_path / "rep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["gap"]) > 0.0


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "seed": 0, "n_signals": 40, "n_asymptotic": 10, "out": str(out),
        })
        assert main(["verify", "--config", cfg]) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        assert sum(rep["residual_histogram"]["counts"]) == 3 * 40
        assert rep["max_residuals"]["gap_identity"] <= 1e-8

    def test_tolerance_is_load_bearing(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "seed": 0, "n_signals": 40, "n_asymptotic": 5, "out": str(out),
        })
        code = main(["verify", "--config", cfg, "--tolerance", "1e-17"])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["passed"] is False
        assert rep["failures"]
        # every failing case carries its signal for replay
        assert all("signal" in f and "lam" in f for f in rep["failures"])

    def test_replay_is_bit_for_bit(self, tmp_path):
        # run a small suite at a failing tolerance, then replay the first
        # serialized case twice and compare outputs byte for byte
        out = tmp_path / "report.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "seed": 3, "n_signals": 10, "n_asymptotic": 2, "out": str(out),
        })
        main(["verify", "--config", cfg, "--tolerance", "1e-17"])
        failing = json.loads(out.read_text())["failures"][0]
        replay_cfg = write_json(tmp_path / "replay.json", {
            "cases": [{"signal": failing["signal"], "lam": failing["lam"]}],
            "out": str(tmp_path / "replay1.json"),
        })
        assert main(["verify", "--config", replay_cfg, "--tolerance", "1e-17"]) == 1
        replay_cfg2 = write_json(tmp_path / "replay2.json", {
            "cases": [{"signal": failing["signal"], "lam": failing["lam"]}],
            "out": str(tmp_path / "replay2out.json"),
        })
        assert main(["verify", "--config", replay_cfg2, "--tolerance", "1e-17"]) == 1
        b1 = (tmp_path / "replay1.json").read_bytes()
        b2 = (tmp_path / "replay2out.json").read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize("signal", [
        SMOOTH_SIG,
        {**TWO_LEVEL_SIG, "periodic": False},
    ])
    def test_case_that_is_not_periodic_piecewise_exits_2(self, tmp_path, capsys, signal):
        out = tmp_path / "rep.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "cases": [{"signal": TWO_LEVEL_SIG, "lam": 1.0}, {"signal": signal, "lam": 1.0}],
            "out": str(out),
        })
        assert main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cases[1] must be a periodic piecewise_constant signal")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_signals", "n_asymptotic"])
    def test_negative_count_exits_2(self, tmp_path, capsys, key):
        out = tmp_path / "rep.json"
        cfg = write_json(tmp_path / "cfg.json", {"seed": 0, key: -3, "out": str(out)})
        assert main(["verify", "--config", cfg]) == 2
        assert f"{key} must be non-negative, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_seed_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cfg = write_json(tmp_path / f"cfg_{name}", {
                "seed": 11, "n_signals": 15, "n_asymptotic": 5, "out": str(out),
            })
            assert main(["verify", "--config", cfg]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestAsymptoticCommand:
    def test_table_and_estimates(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": TWO_LEVEL_SIG,
            "lambda": 1.0,
            "x0": 0.0,
            "tau_max": 200.0,
            "n_checkpoints": 16,
            "out": str(out),
        })
        assert main(["asymptotic", "--config", cfg]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert {"tau", "mean_input", "mean_state", "lhs", "rhs", "slack"} <= set(rows[0])
        assert all(float(r["slack"]) >= -1e-9 for r in rows)


    @pytest.mark.parametrize("signal", [
        TWO_LEVEL_SIG,
        {"kind": "clipped_sinusoid_sum", "mean": 1.0,
         "terms": [{"amplitude": 0.5, "omega": 1.0}, {"amplitude": 0.5, "omega": 2 ** 0.5}]},
    ])
    def test_one_forward_pass_per_run(self, tmp_path, monkeypatch, signal):
        calls = []

        def counted(walk):
            def wrapper(*args, **kwargs):
                calls.append(walk.__name__)
                return walk(*args, **kwargs)
            return wrapper

        for name in ("exact_pass", "smooth_pass"):
            monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": signal, "lambda": 1.0, "tau_max": 50.0, "out": str(tmp_path / "t.csv"),
        })
        assert main(["asymptotic", "--config", cfg]) == 0
        assert len(calls) == 1

    def test_periodic_clipped_sum_needs_no_period_mean(self, tmp_path, monkeypatch):
        # The certificates' reference is the pass's final running mean, so no
        # clip-point search over the period runs.
        def refuse(signal):
            raise AssertionError("mean_over_period called")

        for module in (signals, periodic):
            monkeypatch.setattr(module, "mean_over_period", refuse, raising=False)
        clipped = {"kind": "clipped_sinusoid_sum", "mean": 1.0,
                   "terms": [{"amplitude": 1.5, "omega": 6.283185307179586}]}
        cfg = write_json(tmp_path / "cfg.json", {"signal": clipped, "lambda": 1.0,
                                                 "tau_max": 50.0, "out": str(tmp_path / "t.csv")})
        assert main(["asymptotic", "--config", cfg]) == 0

    @pytest.mark.parametrize("config", [
        {"signal": {"kind": "constant", "level": 1e300}, "lambda": 1.0, "tau_max": 1e10},
        {"signal": {"kind": "piecewise_constant", "breakpoints": [0, 1],
                    "levels": [5.333599740784907e+117], "periodic": False},
         "lambda": 1.0458543718017758e+221},
    ], ids=["int_sigma_past_float_max", "int_x_subnormal"])
    def test_unrepresentable_running_integrals_exit_2(self, tmp_path, capsys, config):
        # RuntimeWarnings are errors here, as in CI: the run exits 2 with one
        # message and writes no table.
        out = tmp_path / "t.csv"
        cfg = write_json(tmp_path / "cfg.json", {**config, "out": str(out)})
        assert main(["asymptotic", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "nan" not in err
        assert not out.exists()

    def test_stdout_gets_the_same_bytes_as_a_file(self, tmp_path, capsys):
        base = {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "tau_max": 20.0, "n_checkpoints": 8}
        cfg = write_json(tmp_path / "cfg.json", {**base, "out": str(tmp_path / "t.csv")})
        assert main(["asymptotic", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["asymptotic", "--config", cfg, "--out", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "t.csv").read_text()


    @pytest.mark.parametrize("config", [
        {"signal": {"kind": "constant", "level": 0.0}, "lambda": 100.0, "x0": 1.0},
        {"signal": {"kind": "constant", "level": 0.0}, "lambda": 1.0, "x0": 1.0},
        {"signal": {"kind": "piecewise_constant", "breakpoints": [0.0, 1.0], "levels": [0.0]},
         "lambda": 5.0, "x0": 1.0},
        # x0 = x* = s / (lam + s): the margin is rounding, below 0
        {"signal": {"kind": "constant", "level": 2.0}, "lambda": 1.0, "x0": 2.0 / 3.0},
    ])
    def test_inputs_that_meet_the_bound_exit_0(self, tmp_path, capsys, config):
        # The long-run w of each is the bound; a start above the orbit adds
        # a transient of about 1/tau to w_est at any lam.
        cfg = write_json(tmp_path / "cfg.json", {**config, "out": str(tmp_path / "t.csv")})
        assert main(["asymptotic", "--config", cfg]) == 0
        summary = re.fullmatch(
            r"sigma_bar_est = \S+, w_est = \S+, bound = \S+, margin = (\S+) \(slack (\S+)\)\n",
            capsys.readouterr().err)
        margin, slack = (float(v) for v in summary.groups())
        assert margin + slack >= 0.0


class TestOptimizeCommand:
    def test_single_segment_family_gap_zero(self, tmp_path):
        out = tmp_path / "res.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "piecewise_free", "period": 2.0, "n_segments": 1},
            "lambda": 1.0,
            "mean": 1.0,
            "resolution": 5,
            "n_starts": 1,
            "out": str(out),
            "log": str(tmp_path / "log.csv"),
        })
        assert main(["optimize", "--config", cfg]) == 0
        res = json.loads(out.read_text())
        assert abs(res["best"]["optimality_gap"]) <= 1e-12
        assert res["max_excess_over_benchmark"] <= 1e-9
        with open(tmp_path / "log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == res["evaluations_total"]

    def test_bang_bang_skewed_regime(self, tmp_path):
        out = tmp_path / "res.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "bang_bang", "period": 0.2},
            "lambda": 10.0,
            "mean": 0.1,
            "resolution": 5,
            "n_starts": 2,
            "seed": 5,
            "out": str(out),
        })
        assert main(["optimize", "--config", cfg]) == 0
        res = json.loads(out.read_text())
        assert res["best"]["optimality_gap"] >= -1e-9
        assert res["max_excess_over_benchmark"] <= 1e-9

    @pytest.mark.parametrize("family", [
        {"kind": "piecewise_free", "n_segments": 3}, {"kind": "bang_bang"},
    ])
    @pytest.mark.parametrize("lam, mean", [(1e-300, 1.0), (1.0, 1e-310)])
    def test_overflowed_step_length_ends_capped(self, tmp_path, capsys, family, lam, mean):
        # t = 1 / size overflows at these starts: the free family recursed
        # without end (exit 1), BangBang warned and read NaN as converged.
        out = tmp_path / "res.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "family": family, "lambda": lam, "mean": mean, "resolution": 4, "n_starts": 2,
            "out": str(out),
        })
        assert main(["optimize", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        descents = json.loads(out.read_text())["descents"]
        assert descents[0]["capped"] and descents[0]["evaluations"] == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family, name", [
        ({"kind": "piecewise_free", "period": 1.0, "n_segments": 2}, "PiecewiseConstantFree"),
        ({"kind": "bang_bang", "period": 1.0}, "BangBang"),
    ])
    def test_overflowing_mean_exits_2_before_writing(self, tmp_path, capsys, family, name):
        # n_segments * mean, or mean / duty, overflows to inf: the grid is
        # refused before numpy warns about it, so stderr is the error line.
        cfg = write_json(tmp_path / "cfg.json", {
            "family": family, "lambda": 1.0, "mean": 1e308,
            "out": str(tmp_path / "res.json"), "log": str(tmp_path / "log.csv"),
        })
        assert main(["optimize", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: averaged output is not finite at mean 1e+308 on " + name)
        assert err.count("\n") == 1
        assert not (tmp_path / "res.json").exists()
        assert not (tmp_path / "log.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mean_whose_projection_sums_overflow_stays_on_the_mean(self, tmp_path):
        # Two levels of up to 1e308 sum past float max; the projection
        # scales them down first, so every logged point has the mean.
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "piecewise_free", "period": 1.0, "n_segments": 2},
            "lambda": 1.0, "mean": 5e307, "resolution": 4,
            "out": str(tmp_path / "res.json"), "log": str(tmp_path / "log.csv"),
        })
        assert main(["optimize", "--config", cfg]) == 0
        with open(tmp_path / "log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == json.loads((tmp_path / "res.json").read_text())["evaluations_total"]
        for row in rows:
            mean = float(row["level_1"]) / 2 + float(row["level_2"]) / 2
            assert abs(mean - 5e307) <= 1e-12 * 5e307

    def test_excess_gate_is_relative_below_a_unit_benchmark(self):
        family = optimize.BangBang(period=1.0)
        log = optimize.EvaluationLog(family, 1e-300, 1e-300)
        log.extend([[1e-300, 1e-300, 0.5]], [1e-300], [1e-300])
        assert not _beats_benchmark(log)
        # an excess of the benchmark's own size, 1e-300, is far below 1e-9
        log.extend([[0.0, 2e-300, 0.5]], [1e-300], [2e-300])
        assert _beats_benchmark(log)
        # above a unit benchmark the tolerance stays absolute
        log = optimize.EvaluationLog(family, 4.0, 2.0)
        log.extend([[4.0, 4.0, 0.5]], [4.0], [2.0 + 5e-10])
        assert not _beats_benchmark(log)
        log.extend([[4.0, 4.0, 0.5]], [4.0], [2.0 + 2e-9])
        assert _beats_benchmark(log)

    @pytest.mark.parametrize("family, mean, seed", [
        # the configs CI runs twice to compare bytes
        ({"kind": "bang_bang", "period": 2.0}, 1.0, 42),
        ({"kind": "piecewise_free", "period": 2.0, "n_segments": 4}, 1.0, 42),
        ({"kind": "bang_bang", "period": 2.0}, 0.0, 0),
        ({"kind": "piecewise_free", "period": 2.0, "n_segments": 4}, 0.0, 0),
    ])
    def test_honest_search_passes_the_gate(self, tmp_path, family, mean, seed):
        out = tmp_path / "res.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "family": family, "lambda": 1.0, "mean": mean, "resolution": 9,
            "n_starts": 3, "seed": seed, "out": str(out), "log": str(tmp_path / "log.csv"),
        })
        assert main(["optimize", "--config", cfg]) == 0
        res = json.loads(out.read_text())
        parts = res["grid"]["evaluations"] + sum(d["evaluations"] for d in res["descents"])
        with open(tmp_path / "log.csv") as fh:
            assert sum(1 for _ in fh) - 1 == res["evaluations_total"] == parts

    @pytest.mark.parametrize("key, value, message", [
        ("n_starts", -2, "n_starts must be non-negative, got -2"),
        ("max_evals", 0, "max_evals must be at least 1, got 0"),
    ])
    def test_search_counts_validated(self, tmp_path, capsys, key, value, message):
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "bang_bang"}, "lambda": 1.0, "mean": 1.0, key: value,
            "out": str(tmp_path / "res.json"),
        })
        assert main(["optimize", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res.json").exists()

    def test_unknown_family_kind(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "triangle", "period": 1.0},
            "lambda": 1.0,
            "mean": 1.0,
        })
        assert main(["optimize", "--config", cfg]) == 2
        assert "family kind" in capsys.readouterr().err


class TestNonNumericConfig:
    @pytest.mark.parametrize("command, cfg, key", [
        ("asymptotic", {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "x0": "abc"}, "x0"),
        ("asymptotic", {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "n_checkpoints": "8x"},
         "n_checkpoints"),
        ("optimize", {"family": {"kind": "bang_bang"}, "lambda": 1.0, "mean": "x"}, "mean"),
        ("optimize", {"family": {"kind": "bang_bang"}, "lambda": 1.0, "mean": 1.0,
                      "resolution": "many"}, "resolution"),
        ("optimize", {"family": {"kind": "piecewise_free", "n_segments": [2]},
                      "lambda": 1.0, "mean": 1.0}, "n_segments"),
        ("simulate", {"signal": CONSTANT_SIG, "lambda": 1.0, "horizon": 1.0, "step": "fine"},
         "step"),
        ("periodic", {"signal": CONSTANT_SIG, "lambda": 1.0, "step": {}}, "step"),  # unknown key
        ("verify", {"seed": "zero"}, "seed"),
        ("simulate", {"signal": {"kind": "constant", "level": "high"}, "lambda": 1.0,
                      "horizon": 1.0}, "level"),
    ])
    def test_exits_2_and_names_the_key(self, tmp_path, capsys, command, cfg, key):
        path = write_json(tmp_path / "cfg.json", {**cfg, "out": str(tmp_path / "out")})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists()


BANG_BANG_OPTIMIZE = {"family": {"kind": "bang_bang"}, "lambda": 1.0, "mean": 1.0,
                      "resolution": 3, "n_starts": 1}


class TestIntegerConfig:
    @pytest.mark.parametrize("command, cfg", [
        ("verify", {"seed": -1, "n_signals": 2}),
        ("optimize", {**BANG_BANG_OPTIMIZE, "seed": -3}),
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, cfg):
        path = write_json(tmp_path / "cfg.json", {**cfg, "out": str(tmp_path / "out")})
        assert main([command, "--config", path]) == 2
        assert "error: seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--seed", "-1", "--out", str(out)]) == 2
        assert "error: seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, key", [
        ("optimize", {**BANG_BANG_OPTIMIZE, "resolution": 4.9}, "resolution"),
        ("optimize", {**BANG_BANG_OPTIMIZE, "n_starts": True}, "n_starts"),
        ("optimize", {**BANG_BANG_OPTIMIZE,
                      "family": {"kind": "piecewise_free", "n_segments": 2.5}}, "n_segments"),
        ("verify", {"seed": 1.5, "n_signals": 2}, "seed"),
        ("verify", {"seed": 1, "n_signals": True}, "n_signals"),
        ("verify", {"n_signals": 2, "n_asymptotic": float("inf")}, "n_asymptotic"),
        ("asymptotic", {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "n_checkpoints": 8.5},
         "n_checkpoints"),
    ])
    def test_non_integer_exits_2_and_names_the_key(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        # json.dumps writes inf as Infinity, which json.load reads back
        path.write_text(json.dumps({**cfg, "out": str(tmp_path / "out")}))
        assert main([command, "--config", str(path)]) == 2
        assert f"error: {key} must be int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_the_integer(self, tmp_path):
        outs = []
        for name, cfg in (("int", {"seed": 2, "n_signals": 3, "n_asymptotic": 1}),
                          ("float", {"seed": 2.0, "n_signals": 3.0, "n_asymptotic": 1.0})):
            path = write_json(tmp_path / f"{name}.json", {**cfg, "out": str(tmp_path / name)})
            assert main(["verify", "--config", path]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["seed"] == 2

    @pytest.mark.parametrize("key", ["n_signals", "n_asymptotic"])
    def test_count_too_large_for_the_rows_exits_2(self, tmp_path, capsys, key):
        # numpy refuses a (1e18, 20) array before allocating anything
        path = write_json(tmp_path / "cfg.json", {key: 10**18, "out": str(tmp_path / "out")})
        assert main(["verify", "--config", path]) == 2
        assert f"error: verify: {key} = {10**18} cases do not fit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Each byte count overflows int64, so numpy refuses the size before
    # allocating anything.
    @pytest.mark.parametrize("command, cfg, key", [
        ("asymptotic", {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "n_checkpoints": 2**62},
         "n_checkpoints"),
        ("optimize", {**BANG_BANG_OPTIMIZE, "resolution": 1000,
                      "family": {"kind": "piecewise_free", "n_segments": 30}}, "resolution"),
        ("optimize", {**BANG_BANG_OPTIMIZE, "resolution": 2**62}, "resolution"),
        ("simulate", {"signal": CONSTANT_SIG, "lambda": 1.0, "horizon": 1e300, "step": 1e-300},
         "step"),
        ("simulate", {"signal": CONSTANT_SIG, "lambda": 1.0, "horizon": 1e6, "step": 1e-12},
         "step"),
        ("simulate", {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "horizon": 1e300}, "horizon"),
        ("simulate", {"signal": SMOOTH_SIG, "lambda": 3.0, "horizon": 1e300}, "horizon"),
        ("simulate", {"signal": SMOOTH_SIG, "lambda": 3.0, "horizon": 1.0, "step": 1e-300},
         "step"),
        ("optimize", {**BANG_BANG_OPTIMIZE, "n_starts": 2**62}, "n_starts"),
    ])
    def test_size_too_large_exits_2_and_names_the_key(self, tmp_path, capsys, command, cfg, key):
        out, log = tmp_path / "out", tmp_path / "log"
        extra = {"log": str(log)} if command == "optimize" else {}
        path = write_json(tmp_path / "cfg.json", {**cfg, "out": str(out), **extra})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}: ") and key in err.split(" = ")[0]
        assert err.endswith(" do not fit in memory\n") and "Traceback" not in err
        assert not out.exists() and not log.exists()

    def test_smooth_simulate_counts_every_step_and_node(self, tmp_path, capsys):
        # Aperiodic smooth inflow with no step: the bound counts the default
        # steps, 0.1 / max sigma = 0.1 / 2.1 here, 2.1e14 of them to t = 1e13,
        # and the 7 rows each that simulate keeps.
        quasi = {"kind": "clipped_sinusoid_sum", "mean": 1.0,
                 "terms": [{"amplitude": 0.6, "omega": 1.0},
                           {"amplitude": 0.5, "omega": 1.4142135623730951, "phase": 0.3}]}
        out = tmp_path / "out"
        path = write_json(tmp_path / "cfg.json",
                          {"signal": quasi, "lambda": 1.0, "horizon": 1e13, "out": str(out)})
        assert main(["simulate", "--config", path]) == 2
        assert capsys.readouterr().err == ("error: simulate: 7 ceil(horizon / min(step, "
                                           "default_step)) = 1.47e+15 rows do not fit in "
                                           "memory\n")
        assert not out.exists()



class TestBooleanConfig:
    """A boolean is no number: float keys, signal numbers and `periodic`."""

    @pytest.mark.parametrize("command, cfg, key", [
        ("periodic", {"signal": TWO_LEVEL_SIG, "lambda": True}, "lambda"),
        ("asymptotic", {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "x0": True}, "x0"),
        ("asymptotic", {"signal": TWO_LEVEL_SIG, "lambda": 1.0, "tau_max": True}, "tau_max"),
        ("optimize", {**BANG_BANG_OPTIMIZE, "mean": True}, "mean"),
        ("optimize", {**BANG_BANG_OPTIMIZE, "family": {"kind": "bang_bang", "period": True}},
         "period"),
        ("verify", {"n_signals": 2, "tolerance": True}, "tolerance"),
    ])
    def test_boolean_float_key_exits_2(self, tmp_path, capsys, command, cfg, key):
        path = write_json(tmp_path / "cfg.json", {**cfg, "out": str(tmp_path / "out")})
        assert main([command, "--config", path]) == 2
        assert f"error: {key} must be float, got True" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("signal", [
        {**TWO_LEVEL_SIG, "levels": [0.0, True]},
        {**TWO_LEVEL_SIG, "breakpoints": [0.0, 1.0, True]},
        {"kind": "sampled", "step": True, "values": [1.0, 0.0]},
        {"kind": "constant", "level": True},
    ])
    def test_boolean_signal_number_exits_2(self, tmp_path, capsys, signal):
        path = write_json(tmp_path / "cfg.json",
                          {"signal": signal, "lambda": 1.0, "out": str(tmp_path / "out")})
        assert main(["periodic", "--config", path]) == 2
        assert "must be a number, got True" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("signal", [
        {**TWO_LEVEL_SIG, "periodic": "false"},
        {"kind": "sampled", "step": 0.5, "values": [1.0, 0.0], "periodic": "false"},
    ])
    def test_non_boolean_periodic_exits_2(self, tmp_path, capsys, signal):
        path = write_json(tmp_path / "cfg.json",
                          {"signal": signal, "lambda": 1.0, "out": str(tmp_path / "out")})
        assert main(["asymptotic", "--config", path]) == 2
        assert "periodic must be a boolean, got 'false'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

class TestNonListConfig:
    @pytest.mark.parametrize("command, cfg, key", [
        ("periodic", {"signal": {**TWO_LEVEL_SIG, "breakpoints": 5}, "lambda": 1.0},
         "breakpoints"),
        ("periodic", {"signal": {**TWO_LEVEL_SIG, "levels": 2.0}, "lambda": 1.0}, "levels"),
        ("simulate", {"signal": {"kind": "clipped_sinusoid_sum", "mean": 1.0, "terms": 3},
                      "lambda": 1.0, "horizon": 1.0}, "terms"),
        ("simulate", {"signal": {"kind": "sampled", "step": 0.5, "values": None},
                      "lambda": 1.0, "horizon": 1.0}, "values"),
        ("verify", {"cases": 5}, "cases"),
    ])
    def test_exits_2_and_names_the_key(self, tmp_path, capsys, command, cfg, key):
        path = write_json(tmp_path / "cfg.json", {**cfg, "out": str(tmp_path / "out")})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be a list" in err
        assert not (tmp_path / "out").exists()

    def test_term_that_is_not_a_mapping(self, tmp_path, capsys):
        path = write_json(tmp_path / "cfg.json", {
            "signal": {"kind": "clipped_sinusoid_sum", "mean": 1.0, "terms": [1.0]},
            "lambda": 1.0, "horizon": 1.0,
        })
        assert main(["simulate", "--config", path]) == 2
        assert "terms[0] must be a mapping" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_flag_overrides_config(self, tmp_path):
        # config says lambda 5, flag forces lambda 1: steady state 0.5
        cfg = write_json(tmp_path / "cfg.json", {
            "signal": CONSTANT_SIG,
            "lambda": 5.0,
            "horizon": 20.0,
            "out": str(tmp_path / "t.csv"),
        })
        assert main(["simulate", "--config", cfg, "--lambda", "1.0"]) == 0
        with open(tmp_path / "t.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert abs(float(rows[-1]["x"]) - 0.5) <= 1e-6

    def test_flag_not_applicable_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "seed": 0, "n_signals": 5, "n_asymptotic": 2,
        })
        assert main(["verify", "--config", cfg, "--horizon", "5.0"]) == 2
        assert "not applicable" in capsys.readouterr().err

    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        import argparse

        from bottleneck_lab import cli

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "bottleneck-lab":     # not the subcommand parsers
                built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        try:
            sim = write_json(tmp_path / "sim.json", {
                "signal": CONSTANT_SIG, "lambda": 1.0, "horizon": 1.0,
                "out": str(tmp_path / "t.csv")})
            per = write_json(tmp_path / "per.json", {
                "signal": CONSTANT_SIG, "lambda": 1.0, "out": str(tmp_path / "r.json")})
            assert main(["simulate", "--config", sim]) == 0
            assert main(["periodic", "--config", per]) == 0
            assert built == [1]
            with pytest.raises(SystemExit) as exc:      # usage errors still exit 2
                main(["simulate", "--no-such-flag"])
            assert exc.value.code == 2
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert "bottleneck-lab" in capsys.readouterr().out
            assert built == [1]
        finally:
            cli._build_parser.cache_clear()


class TestOverflowedDecay:
    """Level 2 at lambda = 1e300 on pieces of 1e9: r h overflows, a full decay."""

    SIG = {"kind": "piecewise_constant", "breakpoints": [0, 1e9], "levels": [2.0],
           "periodic": False}

    def test_simulate_is_finite_and_at_the_closed_form(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = write_json(tmp_path / "cfg.json", {"signal": self.SIG, "lambda": 1e300,
                                                 "horizon": 10, "out": str(out)})
        assert main(["simulate", "--config", cfg]) == 0
        with open(out) as fh:
            rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        assert len(rows) == 1001 and rows[0]["cumulative_x"] == 0.0
        x_inf = 2.0 / (1e300 + 2.0)
        for row in rows[1:]:
            assert row["x"] == x_inf
            # int_0^t x = x_inf (t - 1 / r), and x_inf / r underflows
            assert row["cumulative_x"] == pytest.approx(x_inf * row["t"], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("repeats", [False, True])
    def test_asymptotic_exits_0_with_finite_columns(self, tmp_path, capsys, repeats):
        out = tmp_path / "t.csv"
        cfg = write_json(tmp_path / "cfg.json", {"signal": {**self.SIG, "periodic": repeats},
                                                 "lambda": 1e300, "tau_max": 10,
                                                 "out": str(out)})
        assert main(["asymptotic", "--config", cfg]) == 0
        assert "nan" not in capsys.readouterr().err
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert "nan" not in out.read_text()
        for row in rows:
            # lam <x>_tau = lam x_inf (1 - 1 / (r tau)) = 2 to rounding
            assert float(row["lhs"]) == pytest.approx(2.0, rel=1e-15)
            assert float(row["slack"]) >= -asymptotic.CERTIFICATE_TOL

    @pytest.mark.parametrize("command, config, code", [
        ("optimize", {"family": {"kind": "piecewise_free", "period": 1e300, "n_segments": 2},
                      "lambda": 1e10, "mean": 1.0, "resolution": 4, "n_starts": 2}, 0),
        ("optimize", {"family": {"kind": "bang_bang", "period": 1e300}, "lambda": 1e300,
                      "mean": 1e300, "resolution": 4, "n_starts": 2}, 2),
        ("asymptotic", {"signal": {"kind": "piecewise_constant", "breakpoints": [0, 1],
                                   "levels": [1], "periodic": False},
                        "lambda": 1.0, "tau_max": 1e308}, 0),
    ])
    def test_overflowed_products_warn_nothing(self, tmp_path, capsys, command, config, code):
        # RuntimeWarnings are errors here, as in CI: each run keeps the exit
        # code it has with warnings off.
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "cfg.json", {**config, "out": str(out)})
        assert main([command, "--config", cfg]) == code
        assert "nan" not in capsys.readouterr().err
        assert code or "nan" not in out.read_text().lower()


class TestGatesAtLargeScale:
    """Both gates floor their allowance at a rounding bound of what they compare."""

    U = 2.0 ** -53

    def test_optimize_one_ulp_excess_exits_0(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "bang_bang"}, "lambda": 12772253065.987864,
            "mean": 24231146.47637637, "resolution": 6, "n_starts": 2, "seed": 11,
            "out": str(tmp_path / "res.json")})
        assert main(["optimize", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        res = json.loads((tmp_path / "res.json").read_text())
        assert res["max_excess_over_benchmark"] > 1e-9     # above the old allowance

    @pytest.mark.parametrize("family, k", [
        (optimize.BangBang(period=1.0), 2),
        (optimize.PiecewiseConstantFree(period=1.0, n_segments=20), 20),
    ])
    def test_optimize_excess_above_the_rounding_bound_fires(self, family, k):
        benchmark = 24185000.0
        allowance = (4 * k + 8) * self.U * benchmark
        # (the output moves in ulps of B, an eighth of the allowance or less)
        for factor, fires in ((0.9, False), (1.1, True)):
            log = optimize.EvaluationLog(family, 1.0, benchmark)
            log.extend([[0.0] * len(family.coordinate_names)], [1.0],
                       [benchmark + factor * allowance])
            assert _beats_benchmark(log) is fires

    def test_optimize_nan_output_fires(self):
        log = optimize.EvaluationLog(optimize.BangBang(period=1.0), 1.0, 0.5)
        log.extend([[1.0, 1.0, 0.5]], [1.0], [math.nan])
        assert _beats_benchmark(log)

    CONSTANT = {"signal": {"kind": "constant", "level": 1e300}, "lambda": 1e300}

    def test_asymptotic_one_ulp_slack_exits_0(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = write_json(tmp_path / "cfg.json", {**self.CONSTANT, "out": str(out)})
        assert main(["asymptotic", "--config", cfg]) == 0
        with open(out) as fh:
            assert min(float(row["slack"]) for row in csv.DictReader(fh)) < -1e-9

    @pytest.mark.parametrize("factor, code", [(0.99, 0), (1.01, 1), (math.nan, 1)])
    def test_asymptotic_slack_past_the_rounding_bound_fires(self, tmp_path, monkeypatch,
                                                            factor, code):
        # The certificate gate allows 16 u of the magnitude of the
        # inequality's terms: lhs, rhs without its correction, the correction.
        public = asymptotic.finite_horizon_certificates

        def shifted(params, ra):
            c = public(params, ra)
            scale = c.lhs + (c.rhs - c.correction) + np.abs(c.correction)
            return c._replace(slack=-factor * np.maximum(1e-9, 16 * self.U * scale))

        monkeypatch.setattr(asymptotic, "finite_horizon_certificates", shifted)
        cfg = write_json(tmp_path / "cfg.json", {**self.CONSTANT,
                                                 "out": str(tmp_path / "t.csv")})
        assert main(["asymptotic", "--config", cfg]) == code


class TestTinyPeriods:
    """Periods where 1 - a of the one-period map is far below double precision."""

    NS_SIG = {"kind": "piecewise_constant", "breakpoints": [0.0, 4e-10, 1e-9],
              "levels": [2.0, 0.5], "periodic": True}
    PS_SIG = {"kind": "piecewise_constant", "breakpoints": [0.0, 5e-13, 1e-12],
              "levels": [1e-5, 0.0], "periodic": True}

    def test_optimize_never_beats_the_benchmark(self, tmp_path):
        out = tmp_path / "res.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "bang_bang", "period": 1e-9},
            "lambda": 1.0, "mean": 1.1, "out": str(out),
        })
        assert main(["optimize", "--config", cfg]) == 0
        assert json.loads(out.read_text())["max_excess_over_benchmark"] <= 1e-9

    @pytest.mark.parametrize("command, cfg", [
        ("periodic", {"signal": PS_SIG, "lambda": 1e-9}),
        ("optimize", {"family": {"kind": "piecewise_free", "period": 1e-12, "n_segments": 2},
                      "lambda": 1e-9, "mean": 5e-6}),
    ])
    def test_runs_at_a_picosecond_period(self, tmp_path, command, cfg):
        cfg = write_json(tmp_path / "cfg.json", {**cfg, "out": str(tmp_path / "out.json")})
        assert main([command, "--config", cfg]) == 0

    def test_verify_reports_no_residual_or_benchmark_failure(self, tmp_path):
        # The true gap is about 5e-21 (40-digit quadrature), below the
        # suite's 1e-10 gap floor, so the gap-positivity failure is genuine.
        out = tmp_path / "rep.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "cases": [{"signal": self.NS_SIG, "lam": 1.0}], "out": str(out),
        })
        assert main(["verify", "--config", cfg]) == 1
        [case] = json.loads(out.read_text())["failures"]
        assert any("not strictly positive" in f for f in case["failures"])
        assert not [f for f in case["failures"] if "residual" in f or "benchmark" in f]



class TestOutputFiles:
    """Outputs are rewritten in place: no O_TRUNC on open, cut at the end."""

    @pytest.fixture
    def run(self, tmp_path):
        sig = write_json(tmp_path / "sig.json", TWO_LEVEL_SIG)

        def simulate(out, horizon=2.0):
            return main(["simulate", "--signal", sig, "--lambda", "1.0",
                         "--horizon", repr(horizon), "--out", str(out)])
        return simulate

    @pytest.fixture
    def fresh(self, tmp_path, run):
        """Bytes of a short run written to a path that did not exist."""
        assert run(tmp_path / "fresh.csv") == 0
        return (tmp_path / "fresh.csv").read_bytes()

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path, run, fresh):
        out = tmp_path / "out.csv"
        assert run(out, horizon=50.0) == 0
        assert out.stat().st_size > len(fresh)
        for _ in range(2):
            assert run(out) == 0
            assert out.read_bytes() == fresh

    def test_symlink_stays_a_link_and_its_target_is_rewritten(self, tmp_path, run, fresh):
        target, out = tmp_path / "target.csv", tmp_path / "out.csv"
        target.write_text("old\n" * 10_000)
        out.symlink_to(target)
        assert run(out) == 0
        assert out.is_symlink()
        assert target.read_bytes() == fresh

    def test_hard_link_sees_the_new_bytes(self, tmp_path, run, fresh):
        out, other = tmp_path / "out.csv", tmp_path / "other.csv"
        assert run(out, horizon=50.0) == 0
        os.link(out, other)
        assert run(out) == 0
        assert other.read_bytes() == fresh

    def test_mode_is_kept(self, tmp_path, run, fresh):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        out.chmod(0o600)
        assert run(out) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes() == fresh

    def test_dev_null_is_not_truncated(self, run):
        assert run(os.devnull) == 0

    def test_fifo_drained_by_a_reader(self, tmp_path, run, fresh):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(fifo) == 0
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert got == [fresh]

    def test_exception_mid_write_leaves_no_stale_tail(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("old\n" * 10_000)
        with pytest.raises(RuntimeError):
            with _open_output(str(out)) as fh:
                fh.write("new\n")
                raise RuntimeError("interrupted")
        assert out.read_text() == "new\n"

    def test_missing_directory_exits_2(self, tmp_path, run, capsys):
        assert run(tmp_path / "missing" / "out.csv") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_no_output_is_opened_with_o_trunc(self, tmp_path, monkeypatch):
        # Reopening a truncated file can stall on ext4 (auto_da_alloc), so
        # the open flags, not a timing, pin the fast path.
        flags = {}
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            flags[os.fspath(path)] = flag
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        out, log = str(tmp_path / "res.json"), str(tmp_path / "log.csv")
        cfg = write_json(tmp_path / "cfg.json", {
            "family": {"kind": "bang_bang", "period": 2.0}, "lambda": 1.0, "mean": 1.0,
            "resolution": 5, "n_starts": 1, "out": out, "log": log,
        })
        for _ in range(2):
            assert main(["optimize", "--config", cfg]) == 0
        assert set(flags) >= {out, log}
        assert not any(flag & os.O_TRUNC for flag in flags.values())
