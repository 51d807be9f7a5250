"""Invocation lists of the benchmark workloads, generated from a seed.

A workload is a fixed list of `bottleneck-lab` invocations: a command and
the JSON config it reads. Parameters are drawn by stratified sampling (one
draw per equal-width stratum of each range, in random order), and the mix of
invocation kinds is fixed, so two seeds give different inputs but nearly the
same amount of work. The package only ever sees the generated configs.

Workloads and why they were chosen:

* search: `optimize` runs, each writing its result JSON and evaluation-log
  CSV. Time goes to the evaluation loop, the mean projection and the
  closed-form period kernel; `dynamics` and `signals` are never called.
* verify: many small `verify` runs with distinct seeds. Per-call overhead
  regime: closed-form reports, one-period maps and short exact walks of
  about 1e2 segments per call.
* longrun: `asymptotic` on tiny-period piecewise inflow (long exact walk),
  `asymptotic` on quasi-periodic sinusoid sums (smooth path on aperiodic
  input) and `periodic` on stiff smooth inflow at lambda = 1e4. Time goes
  to `dynamics` and `signals.evaluate_array`; `optimize` is never called.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("search", "verify", "longrun")
SIZES = ("full", "tiny")

STIFF_LAMBDA = 1e4
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Invocation counts and per-invocation sizes. The kind counts are chosen so
# that the median and the tail percentile of the op latencies fall inside
# one kind's latency band rather than on the boundary between two kinds.
# Rounds of `verify` and `longrun` take about a second, so that a run holds
# a few dozen of them: tiny-period walks cover 2.5e4 periods, and stiff
# periods are just above 1e-2, the shortest at which the step is 0.01/lambda.
_SIZES = {
    "full": {
        "search": {"free": 18, "bang": 12, "free_resolution": 8, "free_starts": 2,
                   "bang_resolution": 40, "bang_starts": 3},
        "verify": {"ops": 40, "n_signals": 100, "n_asymptotic": 20},
        "longrun": {"tiny": 3, "quasi": 13, "stiff": 13, "tiny_periods": 2.5e4,
                    "quasi_steps": (1.25e4, 1.75e4), "stiff_period": (0.0105, 0.015)},
    },
    "tiny": {
        "search": {"free": 1, "bang": 2, "free_resolution": 3, "free_starts": 1,
                   "bang_resolution": 5, "bang_starts": 1},
        "verify": {"ops": 3, "n_signals": 5, "n_asymptotic": 2},
        "longrun": {"tiny": 1, "quasi": 1, "stiff": 1, "tiny_periods": 1e3,
                    "quasi_steps": (2e3, 3e3), "stiff_period": (0.01, 0.012)},
    },
}


@dataclass(frozen=True)
class Invocation:
    """One `bottleneck-lab <command> --config <config_path>` call."""

    index: int
    command: str
    kind: str
    config: dict
    config_path: str

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", self.config_path]

    @property
    def outputs(self) -> list[str]:
        return [self.config[k] for k in ("out", "log") if k in self.config]


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws on [0, 1), one in each stratum [i/n, (i+1)/n), in random order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def _uniform(u, lo: float, hi: float):
    return lo + (hi - lo) * u


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _search(rng, size) -> list[tuple[str, str, dict]]:
    ops = []
    for kind, n in (("free", size["free"]), ("bang", size["bang"])):
        lams = _log_uniform(_strata(rng, n), 0.1, 10.0)
        means = _log_uniform(_strata(rng, n), 0.1, 10.0)
        for lam, mean in zip(lams.tolist(), means.tolist()):
            if kind == "free":
                family = {"kind": "piecewise_free", "period": 2.0 / lam, "n_segments": 4}
                resolution, starts = size["free_resolution"], size["free_starts"]
            else:
                family = {"kind": "bang_bang", "period": 2.0 / lam}
                resolution, starts = size["bang_resolution"], size["bang_starts"]
            ops.append(("optimize", kind, {
                "family": family, "lambda": lam, "mean": mean,
                "resolution": resolution, "n_starts": starts, "seed": _seed(rng),
            }))
    return ops


def _verify(rng, size) -> list[tuple[str, str, dict]]:
    seeds: list[int] = []
    while len(seeds) < size["ops"]:
        s = _seed(rng)
        if s not in seeds:
            seeds.append(s)
    return [("verify", "verify", {"seed": s, "n_signals": size["n_signals"],
                                  "n_asymptotic": size["n_asymptotic"]})
            for s in seeds]


def _tiny_period_ops(rng, size) -> list[tuple[str, str, dict]]:
    n = size["tiny"]
    lams = _uniform(_strata(rng, n), 8.0, 12.0)
    periods = 1e-3 * _log_uniform(_strata(rng, n), 0.8, 1.25)
    segments = rng.permutation([2 + i % 2 for i in range(n)])
    ops = []
    for lam, period, k in zip(lams.tolist(), periods.tolist(), segments.tolist()):
        widths = rng.uniform(0.2, 1.0, size=k)
        breakpoints = np.concatenate(([0.0], np.cumsum(widths)))
        breakpoints = (breakpoints * (period / breakpoints[-1])).tolist()
        breakpoints[-1] = period
        levels = rng.uniform(0.0, 5.0, size=k).tolist()
        ops.append(("asymptotic", "tiny_period", {
            "signal": {"kind": "piecewise_constant", "breakpoints": breakpoints,
                       "levels": levels, "periodic": True},
            "lambda": lam,
            "tau_max": size["tiny_periods"] * period,
        }))
    return ops


def _sinusoid_terms(rng, mean: float, ratio: float, omegas) -> list[dict]:
    """Terms whose amplitudes sum to ratio * mean (clipping active when > 1)."""
    weights = rng.uniform(0.5, 1.0, size=len(omegas))
    amps = ratio * mean * weights / weights.sum()
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(omegas))
    return [{"amplitude": a, "omega": w, "phase": p}
            for a, w, p in zip(amps.tolist(), omegas, phases.tolist())]


def _quasi_ops(rng, size) -> list[tuple[str, str, dict]]:
    n = size["quasi"]
    lams = _log_uniform(_strata(rng, n), 1.0, 3.0)
    means = _uniform(_strata(rng, n), 0.5, 2.0)
    ratios = _uniform(_strata(rng, n), 0.5, 1.5)
    steps = _uniform(_strata(rng, n), *size["quasi_steps"])
    ops = []
    for i, (lam, mean, ratio, n_steps) in enumerate(
            zip(lams.tolist(), means.tolist(), ratios.tolist(), steps.tolist())):
        base = float(_log_uniform(rng.uniform(), 0.5, 2.0))
        omegas = [base, base * math.sqrt(2.0), base * GOLDEN][: 2 + i % 2]
        terms = _sinusoid_terms(rng, mean, ratio, omegas)
        # Horizon sized to about n_steps integration steps at the package's
        # documented step rule, so every quasi-periodic op costs about the same.
        peak = mean + sum(abs(t["amplitude"]) for t in terms)
        step = min(0.01 / lam, 0.01 / (1.0 + peak))
        ops.append(("asymptotic", "quasi_periodic", {
            "signal": {"kind": "clipped_sinusoid_sum", "mean": mean, "terms": terms},
            "lambda": lam,
            "tau_max": n_steps * step,
        }))
    return ops


def _stiff_ops(rng, size) -> list[tuple[str, str, dict]]:
    n = size["stiff"]
    periods = _uniform(_strata(rng, n), *size["stiff_period"])
    means = _uniform(_strata(rng, n), 0.5, 5.0)
    ratios = _uniform(_strata(rng, n), 0.3, 1.5)
    ops = []
    for i, (period, mean, ratio) in enumerate(
            zip(periods.tolist(), means.tolist(), ratios.tolist())):
        base = 2.0 * math.pi / period
        omegas = [base, 2.0 * base][: 1 + i % 2]
        ops.append(("periodic", "stiff", {
            "signal": {"kind": "clipped_sinusoid_sum", "mean": mean,
                       "terms": _sinusoid_terms(rng, mean, ratio, omegas)},
            "lambda": STIFF_LAMBDA,
        }))
    return ops


def _longrun(rng, size) -> list[tuple[str, str, dict]]:
    ops = _tiny_period_ops(rng, size) + _quasi_ops(rng, size) + _stiff_ops(rng, size)
    return [ops[i] for i in rng.permutation(len(ops))]


_GENERATORS = {"search": _search, "verify": _verify, "longrun": _longrun}


def generate(workload: str, seed: int, size: str, work_dir: str,
             inject_failure: bool = False) -> list[Invocation]:
    """The workload's invocation list; output and config paths under work_dir.

    `inject_failure` appends `verify` at tolerance 1e-17, documented to exit
    1, so that a test can see the failure counted.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _GENERATORS[workload](rng, _SIZES[size][workload])
    if inject_failure:
        ops.append(("verify", "injected_failure",
                    {"seed": 0, "n_signals": 20, "n_asymptotic": 0, "tolerance": 1e-17}))
    invocations = []
    for index, (command, kind, config) in enumerate(ops):
        stem = os.path.join(work_dir, f"op{index:03d}-{kind}")
        config = dict(config)
        if command == "asymptotic":
            config["out"] = stem + ".csv"
        else:
            config["out"] = stem + ".out.json"
        if command == "optimize":
            config["log"] = stem + ".log.csv"
        invocations.append(Invocation(index, command, kind, config, stem + ".config.json"))
    return invocations


def write_configs(invocations: list[Invocation]) -> None:
    for inv in invocations:
        with open(inv.config_path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=1, sort_keys=True)
