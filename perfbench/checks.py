"""Correctness checks of invocation outputs, each reported with its margin.

Every check is a gate with a signed margin: the distance from the value to
the gate, non-negative when the gate holds. Gates mirror the command's own
acceptance rules, and where an independent reference exists the output is
also compared against it:

* the closed form lam s / (lam + s) of constant inflow (`optimize`
  benchmark, `periodic` w_const, the `asymptotic` long-run bound);
* an exact piecewise-constant reference computed here for tiny-period
  `asymptotic` runs (input integral and periodic-orbit average);
* the exact input integral of unclipped sinusoid sums, within the
  trapezoid error bound at the documented step;
* a fine-tolerance scipy Radau integration for stiff `periodic` runs.

Nothing here imports bottleneck_lab: the references are independent code.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

# Gates of the commands themselves.
VERIFY_RESIDUAL_TOL = 1e-8
OPTIMIZE_EXCESS_TOL = 1e-9
CERTIFICATE_TOL = 1e-9
BENCHMARK_EXCESS_TOL = 1e-9

# Tolerances of this benchmark's own comparisons.
CLOSED_FORM_RTOL = 1e-14        # same formula evaluated twice: rounding only
SMOOTH_RESIDUAL_TOL = 1e-6      # identity residuals on the numeric path
EXACT_INPUT_RTOL = 1e-9         # running input mean on piecewise inflow
ORACLE_RTOL = 1e-8              # stiff w_sigma against the Radau oracle
ORACLE_SOLVER_RTOL = 1e-9
ORACLE_SOLVER_ATOL = 1e-13

_SUMMARY = re.compile(
    r"sigma_bar_est = (?P<sigma_bar_est>\S+), w_est = (?P<w_est>\S+), "
    r"bound = (?P<bound>\S+), margin = (?P<margin>\S+) \(slack (?P<slack>[^)]+)\)"
)


@dataclass
class CheckResult:
    """Gate outcomes of one invocation: margins by gate, and what failed."""

    margins: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def gate(self, name: str, margin: float) -> None:
        """Record a gate that holds when margin >= 0 (NaN never holds)."""
        margin = float(margin)
        self.margins[name] = margin
        if not margin >= 0.0:
            self.failures.append(f"{name}: margin {margin!r}")

    def require(self, name: str, condition: bool, detail: str) -> None:
        if not condition:
            self.failures.append(f"{name}: {detail}")


def _closed_form_margin(value: float, lam: float, s: float) -> float:
    """Margin of value against lam s / (lam + s), the constant-inflow output."""
    ref = 0.0 if s == 0.0 else lam * s / (lam + s)
    return CLOSED_FORM_RTOL * max(1.0, abs(ref)) - abs(value - ref)


def check(inv, rc, stderr: str) -> CheckResult:
    """All gates of one finished invocation (outputs read from disk)."""
    result = CheckResult()
    if rc != 0:
        result.failures.append(f"exit status {rc!r}, expected 0: {stderr.strip()[-500:]}")
        return result
    try:
        _CHECKS[inv.command](inv, stderr, result)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return result


def _check_verify(inv, stderr, result: CheckResult) -> None:
    with open(inv.config["out"], encoding="utf-8") as fh:
        report = json.load(fh)
    result.require("verify.passed", report["passed"] is True and not report["failures"],
                   f"{len(report['failures'])} failing case(s)")
    worst = max(report["max_residuals"].values())
    result.gate("verify.max_residual", VERIFY_RESIDUAL_TOL - worst)


def _check_optimize(inv, stderr, result: CheckResult) -> None:
    cfg = inv.config
    with open(cfg["out"], encoding="utf-8") as fh:
        payload = json.load(fh)
    result.gate("optimize.max_excess",
                OPTIMIZE_EXCESS_TOL - payload["max_excess_over_benchmark"])
    result.gate("optimize.benchmark_closed_form",
                _closed_form_margin(payload["benchmark_w"], cfg["lambda"], cfg["mean"]))
    with open(cfg["log"], encoding="utf-8", newline="") as fh:
        rows = sum(1 for _ in fh) - 1
    total = payload["evaluations_total"]
    result.require("optimize.log_rows", rows == total,
                   f"log has {rows} rows, evaluations_total is {total}")
    parts = payload["grid"]["evaluations"] + sum(d["evaluations"] for d in payload["descents"])
    result.require("optimize.evaluation_count", parts == total,
                   f"grid + descents = {parts}, evaluations_total is {total}")


def _read_table(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def _check_asymptotic(inv, stderr, result: CheckResult) -> None:
    cfg = inv.config
    lam = cfg["lambda"]
    table = _read_table(cfg["out"])
    result.gate("asymptotic.certificate_slack", table["slack"].min() + CERTIFICATE_TOL)
    match = _SUMMARY.search(stderr)
    if match is None:
        result.failures.append("asymptotic: no bound summary on stderr")
        return
    summary = {k: float(v) for k, v in match.groupdict().items()}
    result.gate("asymptotic.longrun_bound", summary["margin"] + summary["slack"])
    result.gate("asymptotic.bound_closed_form",
                _closed_form_margin(summary["bound"], lam, summary["sigma_bar_est"]))

    signal = cfg["signal"]
    if signal["kind"] == "piecewise_constant":
        _compare_piecewise_reference(signal, lam, cfg.get("x0", 0.0), table, result)
    elif sum(abs(t["amplitude"]) for t in signal["terms"]) <= signal["mean"]:
        _compare_sinusoid_reference(signal, lam, table, result)


def _compare_sinusoid_reference(signal, lam, table, result: CheckResult) -> None:
    """Running input mean of an unclipped sinusoid sum against its exact integral.

    Allowed error: the composite trapezoid bound h^2 max|sigma''| / 12 at the
    package's documented default step h = min(0.01/lam, 0.01/(1 + max sigma)).
    """
    terms = signal["terms"]
    taus = table["tau"]
    exact = signal["mean"] + sum(
        t["amplitude"] * (math.cos(t["phase"]) - np.cos(t["omega"] * taus + t["phase"]))
        / (t["omega"] * taus)
        for t in terms)
    peak = signal["mean"] + sum(abs(t["amplitude"]) for t in terms)
    step = min(0.01 / lam, 0.01 / (1.0 + peak))
    curvature = sum(abs(t["amplitude"]) * t["omega"] ** 2 for t in terms)
    allowed = step * step * curvature / 12.0 + 1e-12
    result.gate("asymptotic.sinusoid_input_mean",
                allowed - np.abs(table["mean_input"] - exact).max())


def _piecewise_orbit(levels, widths, lam):
    """Start state and average of the periodic orbit, by per-segment closed form."""
    rates = lam + levels
    targets = levels / rates
    decay = np.exp(-rates * widths)
    a, b = 1.0, 0.0
    for target, d in zip(targets, decay):
        a, b = a * d, target + (b - target) * d
    x = b / (1.0 - a)
    start, integral = x, 0.0
    for target, rate, width, d in zip(targets, rates, widths, decay):
        integral += target * width + (x - target) * (1.0 - d) / rate
        x = target + (x - target) * d
    return start, integral / widths.sum()


def _compare_piecewise_reference(signal, lam, x0, table, result: CheckResult) -> None:
    breakpoints = np.asarray(signal["breakpoints"], dtype=float)
    levels = np.asarray(signal["levels"], dtype=float)
    widths = np.diff(breakpoints)
    period = breakpoints[-1]
    taus = table["tau"]
    cycles = np.floor(taus / period)
    rest = taus - cycles * period
    partial = np.array([np.sum(levels * np.clip(r - breakpoints[:-1], 0.0, widths))
                        for r in rest])
    exact_input = (cycles * np.sum(levels * widths) + partial) / taus
    scale = max(1.0, float(levels.max()))
    result.gate("asymptotic.piecewise_input_mean",
                EXACT_INPUT_RTOL * scale - np.abs(table["mean_input"] - exact_input).max())

    orbit_start, orbit_mean = _piecewise_orbit(levels, widths, lam)
    tau = taus[-1]
    # Two solutions' running means differ by at most |dx0| / (lam tau); the
    # orbit's own running mean is within period / tau of its period average.
    allowed = abs(x0 - orbit_start) / (lam * tau) + period / tau + 1e-9
    result.gate("asymptotic.orbit_mean",
                allowed - abs(table["mean_state"][-1] - orbit_mean))


def _check_periodic(inv, stderr, result: CheckResult) -> None:
    cfg = inv.config
    lam = cfg["lambda"]
    with open(cfg["out"], encoding="utf-8") as fh:
        report = json.load(fh)
    result.gate("periodic.benchmark",
                report["w_const"] + BENCHMARK_EXCESS_TOL - report["w_sigma"])
    result.gate("periodic.gap_nonnegative", report["gap"])
    result.gate("periodic.residuals", SMOOTH_RESIDUAL_TOL - max(report["residuals"].values()))
    result.gate("periodic.w_const_closed_form",
                _closed_form_margin(report["w_const"], lam, report["sigma_bar"]))
    oracle = radau_periodic_output(cfg["signal"], lam)
    result.gate("periodic.radau_oracle",
                ORACLE_RTOL * max(1.0, abs(oracle)) - abs(report["w_sigma"] - oracle))


def radau_periodic_output(signal: dict, lam: float) -> float:
    """Averaged output of the periodic orbit of a periodic sinusoid sum, by Radau.

    The first period from the constant-inflow state lets the transient decay
    (by e^{-lam T}, far below rounding for stiff lam); the second period
    integrates x over the orbit.
    """
    from scipy.integrate import solve_ivp

    mean = signal["mean"]
    terms = [(t["amplitude"], t["omega"], t.get("phase", 0.0)) for t in signal["terms"]]
    period = 2.0 * math.pi / min(w for _, w, _ in terms)

    def sigma(t):
        s = mean + sum(a * math.sin(w * t + p) for a, w, p in terms)
        return s if s > 0.0 else 0.0

    def rhs(t, y):
        s = sigma(t)
        return [s * (1.0 - y[0]) - lam * y[0], y[0]]

    def jac(t, y):
        return [[-(lam + sigma(t)), 0.0], [1.0, 0.0]]

    n_settle = max(1, math.ceil(40.0 / (lam * period)))
    x = mean / (lam + mean)
    for _ in range(n_settle + 1):
        sol = solve_ivp(rhs, (0.0, period), [x, 0.0], method="Radau", jac=jac,
                        rtol=ORACLE_SOLVER_RTOL, atol=ORACLE_SOLVER_ATOL)
        if not sol.success:
            raise ValueError(f"Radau oracle failed: {sol.message}")
        x = float(sol.y[0, -1])
    return lam * float(sol.y[1, -1]) / period


_CHECKS = {
    "verify": _check_verify,
    "optimize": _check_optimize,
    "asymptotic": _check_asymptotic,
    "periodic": _check_periodic,
}
