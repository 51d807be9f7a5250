"""Randomized verification suites over generated periodic inflows.

One seeded generator drives everything, so a failing case can be replayed
bit-for-bit from its serialized signal. The periodic suite checks, per
signal: the identity residuals of the gap report, the benchmark inequality
w[sigma] <= w[mean] plus strict gap positivity for genuinely two-valued
signals, and the geometric contraction of the one-period map observed over
20 periods. The asymptotic suite checks the solution-independence bound and
the finite-horizon certificates on the same kind of signals. Each suite
runs all its cases at once, as padded rows (`signals._pad_rows`);
`check_periodic_case` and `check_asymptotic_case` are its one-row form.

"Genuinely two-valued" is interpreted numerically: two level values
separated by at least DISTINCT_LEVEL_SEPARATION, each holding at least 1%
of the period. Almost-everywhere equality cannot be probed by finite
arithmetic, so levels closer than the separation threshold are treated as
equal for the strictness check (and only for that check).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import asymptotic, dynamics, periodic
from .signals import (
    NonPeriodicSignalError,
    PiecewiseConstant,
    SignalError,
    SystemParams,
    _pad_rows,
    mean_over_period,
    signal_to_dict,
)

__all__ = [
    "SuiteTolerances",
    "VerificationReport",
    "random_piecewise_signal",
    "random_system",
    "has_distinct_levels",
    "check_periodic_case",
    "check_asymptotic_case",
    "run_verification",
]

DISTINCT_LEVEL_SEPARATION = 0.1
DISTINCT_MIN_DUTY = 0.01
EQUALITY_GAP_CUTOFF = 1e-12

LEVEL_RANGE = (0.0, 5.0)
DURATION_RANGE = (0.05, 1.0)
LAMBDA_RANGE = (0.1, 10.0)

CONTRACTION_PERIODS = 20
INDEPENDENCE_TAU = 100.0
CERTIFICATE_TAUS = np.geomspace(1.0, INDEPENDENCE_TAU, 16)   # last entry is exactly tau


@dataclass(frozen=True)
class SuiteTolerances:
    identity_residual: float = 1e-8   # gap identity and both moment identities
    benchmark_excess: float = 1e-9    # w[sigma] - w[mean] allowed overshoot
    contraction: float = 1e-10        # slack on |x(nT) - x_p(0)| <= a^n |dx0|
    gap_floor: float = 1e-10          # strict positivity floor for distinct levels
    independence: float = 1e-10       # slack on the 1/(lam tau) bound
    certificate: float = 1e-9         # allowed negative certificate slack


@dataclass
class VerificationReport:
    seed: int
    n_periodic: int
    n_asymptotic: int
    tolerances: SuiteTolerances
    max_residuals: dict = field(default_factory=dict)
    histogram_bins: list = field(default_factory=list)
    histogram_counts: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_periodic": self.n_periodic,
            "n_asymptotic": self.n_asymptotic,
            "tolerances": {
                "identity_residual": self.tolerances.identity_residual,
                "benchmark_excess": self.tolerances.benchmark_excess,
                "contraction": self.tolerances.contraction,
                "gap_floor": self.tolerances.gap_floor,
                "independence": self.tolerances.independence,
                "certificate": self.tolerances.certificate,
            },
            "max_residuals": self.max_residuals,
            "residual_histogram": {
                "log10_bin_edges": self.histogram_bins,
                "counts": self.histogram_counts,
            },
            "failures": self.failures,
            "passed": self.passed,
        }


def random_piecewise_signal(rng: np.random.Generator, max_segments: int = 20) -> PiecewiseConstant:
    """Random periodic piecewise-constant inflow: up to `max_segments`
    segments, levels uniform in [0, 5], durations uniform in [0.05, 1]."""
    n = int(rng.integers(1, max_segments + 1))
    levels = rng.uniform(*LEVEL_RANGE, size=n)
    durations = rng.uniform(*DURATION_RANGE, size=n)
    breakpoints = np.concatenate(([0.0], np.cumsum(durations)))
    return PiecewiseConstant(tuple(breakpoints.tolist()), tuple(levels.tolist()), periodic=True)


def random_system(rng: np.random.Generator) -> SystemParams:
    """lam log-uniform on [0.1, 10]."""
    lo, hi = np.log10(LAMBDA_RANGE[0]), np.log10(LAMBDA_RANGE[1])
    return SystemParams(lam=float(10.0 ** rng.uniform(lo, hi)))


def has_distinct_levels(
    signal: PiecewiseConstant,
    separation: float = DISTINCT_LEVEL_SEPARATION,
    min_duty: float = DISTINCT_MIN_DUTY,
) -> bool:
    """True when two level values at least `separation` apart each hold at
    least `min_duty` of the period (aggregating repeated values)."""
    total: dict[float, float] = {}
    for level, dt in zip(signal.levels, signal.durations):
        total[level] = total.get(level, 0.0) + dt
    period = signal.duration
    heavy = [lvl for lvl, dt in total.items() if dt >= min_duty * period]
    heavy.sort()
    return bool(heavy) and heavy[-1] - heavy[0] >= separation


def _all_levels_equal(signal: PiecewiseConstant, tol: float = 1e-4) -> bool:
    return max(signal.levels) - min(signal.levels) <= tol


def _report_failures(signal: PiecewiseConstant, report: periodic.PeriodicReport,
                     tol: SuiteTolerances) -> list[str]:
    failures = []
    if report.residual_gap > tol.identity_residual:
        failures.append(f"gap identity residual {report.residual_gap:.3e}")
    if report.residual_m1 > tol.identity_residual:
        failures.append(f"first moment residual {report.residual_m1:.3e}")
    if report.residual_m2 > tol.identity_residual:
        failures.append(f"second moment residual {report.residual_m2:.3e}")
    if report.w_sigma > report.w_const + tol.benchmark_excess:
        failures.append(
            f"output {report.w_sigma!r} exceeds benchmark {report.w_const!r}"
        )
    if report.gap < 0.0:
        failures.append(f"negative gap {report.gap!r}")
    if has_distinct_levels(signal) and report.gap <= tol.gap_floor:
        failures.append(f"gap {report.gap!r} not strictly positive for two-valued signal")
    if report.gap < EQUALITY_GAP_CUTOFF and not _all_levels_equal(signal):
        failures.append(
            f"vanishing gap {report.gap!r} for a signal with unequal levels"
        )
    return failures


def _case_rows(cases):
    """Padded rows (levels, breakpoints, periodic) and lam of the cases.

    Both suites check periodic piecewise-constant inflow only; cases[i] of
    any other kind raises SignalError, an aperiodic one its
    NonPeriodicSignalError.
    """
    for i, (signal, _) in enumerate(cases):
        if not isinstance(signal, PiecewiseConstant):
            raise SignalError(f"cases[{i}] must be a periodic piecewise_constant signal, "
                              f"got {signal_to_dict(signal)['kind']}")
        if not signal.periodic:
            raise NonPeriodicSignalError(
                f"cases[{i}] must be a periodic piecewise_constant signal, got an aperiodic one")
    levels, breakpoints, periodic_rows = _pad_rows([signal for signal, _ in cases])
    return levels, breakpoints, periodic_rows, np.array([params.lam for _, params in cases])


def _periodic_checks(cases, tol: SuiteTolerances):
    """Periodic-regime checks of all cases at once: (reports, failures per case).

    One period kernel serves the reports and the one-period maps; the
    contraction is observed by one row walk from both starts.
    """
    if not cases:
        return [], []
    levels, breakpoints, _, lam = _case_rows(cases)
    kernel = periodic._PeriodRows(levels, np.diff(breakpoints, axis=1), lam, moments=True)
    reports = periodic._closed_form_reports(kernel)
    maps = [periodic.PoincareMap(rate=rate, b=b)
            for rate, b in zip(kernel.rate.tolist(), kernel.b.tolist())]
    x_p0 = np.array([pm.fixed_point for pm in maps])
    decay = np.cumprod(np.tile([pm.a for pm in maps], (CONTRACTION_PERIODS, 1)), axis=0)
    starts = np.array([[0.0], [1.0]])
    states = periodic._period_states_rows(kernel, starts, CONTRACTION_PERIODS)[1:]
    distance = np.abs(states - x_p0)                                # (period, start, case)
    limit = decay[:, None, :] * np.abs(starts - x_p0) + tol.contraction
    violated = distance > limit
    first = violated.argmax(axis=0).tolist()          # (start, case): first violation
    failures = []
    for i, ((signal, _), report) in enumerate(zip(cases, reports)):
        found = _report_failures(signal, report, tol)
        for j, x0 in enumerate(starts[:, 0].tolist()):
            n = first[j][i]
            if violated[n, j, i]:
                found.append(
                    f"contraction violated at period {n + 1} from x0={x0}: "
                    f"|x - x_p| = {distance[n, j, i]:.3e} > "
                    f"a^n dx0 + tol = {limit[n, j, i]:.3e}"
                )
        failures.append(found)
    return reports, failures


def _asymptotic_checks(cases, tol: SuiteTolerances) -> list[list[str]]:
    """Solution-independence and certificate checks of all cases at once.

    One exact row pass per start, recorded at CERTIFICATE_TAUS; its last
    horizon is INDEPENDENCE_TAU, so the independence check reads the same
    two passes.
    """
    if not cases:
        return []
    levels, breakpoints, periodic_rows, lam = _case_rows(cases)
    starts = (0.0, 1.0)
    passes = [dynamics._exact_rows(levels, breakpoints, periodic_rows, lam,
                                   np.full(len(cases), x0), CERTIFICATE_TAUS)
              for x0 in starts]
    avg_diff = np.abs(passes[0][1][:, -1] - passes[1][1][:, -1]) / INDEPENDENCE_TAU
    bound = abs(starts[0] - starts[1]) / (lam * INDEPENDENCE_TAU)
    sigma_bar = np.array([mean_over_period(signal) for signal, _ in cases])
    x_star = sigma_bar / (lam + sigma_bar)
    worst = []
    for x0, (states, cum_x, cum_s) in zip(starts, passes):
        lhs, rhs, _ = asymptotic._certificate_terms(
            lam[:, None], x_star[:, None], x0, CERTIFICATE_TAUS, states, cum_x, cum_s)
        worst.append((rhs - lhs).min(axis=1))
    failures = []
    for i in range(len(cases)):
        found = []
        if avg_diff[i] > bound[i] + tol.independence:
            found.append(
                f"independence bound violated: {avg_diff[i].item()!r} > {bound[i].item()!r}"
            )
        for x0, slack in zip(starts, worst):
            if slack[i] < -tol.certificate:
                found.append(f"certificate slack {slack[i]:.3e} from x0={x0}")
        failures.append(found)
    return failures


def check_periodic_case(
    signal: PiecewiseConstant,
    params: SystemParams,
    tol: SuiteTolerances,
) -> tuple[periodic.PeriodicReport, list[str]]:
    """All periodic-regime checks for one signal; returns (report, failures).

    The identity residuals of the gap report, the benchmark inequality and
    the gap's sign and strictness, and the contraction of the one-period
    map observed over CONTRACTION_PERIODS periods from x0 = 0 and 1.
    """
    [report], [failures] = _periodic_checks([(signal, params)], tol)
    return report, failures


def check_asymptotic_case(
    signal: PiecewiseConstant,
    params: SystemParams,
    tol: SuiteTolerances,
) -> list[str]:
    """Solution-independence and certificate checks for one periodic signal."""
    return _asymptotic_checks([(signal, params)], tol)[0]


_HIST_EDGES = list(range(-18, 1))  # log10 residual buckets


def run_verification(
    n_periodic: int = 500,
    seed: int = 0,
    tolerances: SuiteTolerances | None = None,
    n_asymptotic: int = 100,
    cases: list[tuple[PiecewiseConstant, SystemParams]] | None = None,
) -> VerificationReport:
    """Run both randomized suites; `cases` replaces generation for replay."""
    tol = tolerances or SuiteTolerances()
    rng = np.random.default_rng(seed)
    report = VerificationReport(
        seed=seed,
        n_periodic=n_periodic if cases is None else len(cases),
        n_asymptotic=n_asymptotic if cases is None else len(cases),
        tolerances=tol,
    )

    if cases is None:
        periodic_cases = [
            (random_piecewise_signal(rng), random_system(rng))
            for _ in range(n_periodic)
        ]
        asymptotic_cases = [
            (random_piecewise_signal(rng), random_system(rng))
            for _ in range(n_asymptotic)
        ]
    else:
        periodic_cases = list(cases)
        asymptotic_cases = list(cases)

    residuals = []
    max_res = {"gap_identity": 0.0, "moment_1": 0.0, "moment_2": 0.0}
    reports, periodic_failures = _periodic_checks(periodic_cases, tol)
    asymptotic_failures = _asymptotic_checks(asymptotic_cases, tol)
    for rep in reports:
        residuals.extend((rep.residual_gap, rep.residual_m1, rep.residual_m2))
        max_res["gap_identity"] = max(max_res["gap_identity"], rep.residual_gap)
        max_res["moment_1"] = max(max_res["moment_1"], rep.residual_m1)
        max_res["moment_2"] = max(max_res["moment_2"], rep.residual_m2)
    for suite, suite_cases, suite_failures in (
        ("periodic", periodic_cases, periodic_failures),
        ("asymptotic", asymptotic_cases, asymptotic_failures),
    ):
        for (signal, params), failures in zip(suite_cases, suite_failures):
            if failures:
                report.failures.append({
                    "suite": suite,
                    "signal": signal_to_dict(signal),
                    "lam": params.lam,
                    "failures": failures,
                })

    log10 = np.log10(np.maximum(np.asarray(residuals), 1e-300))
    log10 = np.clip(log10, _HIST_EDGES[0], _HIST_EDGES[-1])
    counts, _ = np.histogram(log10, bins=_HIST_EDGES)
    report.max_residuals = max_res
    report.histogram_bins = _HIST_EDGES
    report.histogram_counts = [int(c) for c in counts]
    return report
