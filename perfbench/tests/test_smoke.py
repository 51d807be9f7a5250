"""Smoke test of the benchmark itself, at tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]


def _run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), "--seconds", "0.2", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return json.loads(lines[-1]), detail


def _units(metrics: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, detail = _result(_run("--workload", workload, "--seed", "5", "--trace", trace,
                                  "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["end_to_end"]["error_rate"] == {"value": 0.0, "unit": "fraction"}
    expected = _units(SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "1":
        assert detail["trace"]["counts_repeat"] is True
        assert detail["trace"]["missing_functions"] == []


def test_injected_failure_counts_in_error_rate():
    result, detail = _result(_run("--workload", "verify", "--seed", "5", "--trace", "0",
                                  "--size", "tiny", "--inject-failure"))
    rounds = detail["untraced_rounds"]
    assert result["correct"] is False
    assert result["failed"] == rounds  # the injected invocation, once per round
    assert detail["end_to_end"]["error_rate"]["value"] == pytest.approx(
        rounds / result["attempted"])
    [replay] = detail["failures"]
    assert replay["kind"] == "injected_failure"
    from bottleneck_lab import cli
    assert cli.main([replay["command"], "--config", replay["config_path"]]) == 1


def test_missing_function_is_reported_absent(monkeypatch):
    import tracing
    from bottleneck_lab import periodic

    monkeypatch.delattr(periodic, "period_states")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "periodic.period_states" in tracer.missing
    extra = {"bytes_out": 0, "asymptotic_ops": 0, "untraced_wall_s": 1.0, "traced_wall_s": 1.0}
    metrics = tracing.per_layer_metrics([tracer.finish_round({})], tracer.missing, extra)
    assert metrics["periodic.period_states.busy_s"]["absent"] is True
    assert metrics["periodic.period_states.periods"]["value"] is None
    assert metrics["periodic.gap_report.calls"]["value"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "search", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
