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
Generated cases are drawn straight into rows; only a failure builds a signal.

"Genuinely two-valued" is interpreted numerically: two level values
separated by at least DISTINCT_LEVEL_SEPARATION, each holding at least 1%
of the period. Almost-everywhere equality cannot be probed by finite
arithmetic, so levels closer than the separation threshold are treated as
equal for the strictness check (and only for that check).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import asymptotic, dynamics, periodic
from .signals import (
    NonPeriodicSignalError,
    PiecewiseConstant,
    SignalError,
    SystemParams,
    _pad_rows,
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
_LOG_LAMBDA_RANGE = (np.log10(LAMBDA_RANGE[0]), np.log10(LAMBDA_RANGE[1]))
MAX_SEGMENTS = 20

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
            "tolerances": asdict(self.tolerances),
            "max_residuals": self.max_residuals,
            "residual_histogram": {
                "log10_bin_edges": self.histogram_bins,
                "counts": self.histogram_counts,
            },
            "failures": self.failures,
            "passed": self.passed,
        }


def _draw_segments(rng: np.random.Generator, max_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and durations of one random signal: a case's draws before its lam."""
    n = int(rng.integers(1, max_segments + 1))
    return rng.uniform(*LEVEL_RANGE, size=n), rng.uniform(*DURATION_RANGE, size=n)


def _draw_lam(rng: np.random.Generator) -> float:
    return float(10.0 ** rng.uniform(*_LOG_LAMBDA_RANGE))


def random_piecewise_signal(rng: np.random.Generator,
                            max_segments: int = MAX_SEGMENTS) -> PiecewiseConstant:
    """Random periodic piecewise-constant inflow: up to `max_segments`
    segments, levels uniform in [0, 5], durations uniform in [0.05, 1]."""
    levels, durations = _draw_segments(rng, max_segments)
    breakpoints = np.concatenate(([0.0], np.cumsum(durations)))
    return PiecewiseConstant(tuple(breakpoints.tolist()), tuple(levels.tolist()), periodic=True)


def random_system(rng: np.random.Generator) -> SystemParams:
    """lam log-uniform on [0.1, 10]."""
    return SystemParams(lam=_draw_lam(rng))


class _Rows(NamedTuple):
    """Cases as padded rows (`signals._pad_rows`), each row's segment count, and lam."""

    levels: np.ndarray
    breakpoints: np.ndarray
    counts: np.ndarray
    lam: np.ndarray

    def signal(self, i: int) -> PiecewiseConstant:
        k = self.counts[i]
        return PiecewiseConstant(tuple(self.breakpoints[i, :k + 1].tolist()),
                                 tuple(self.levels[i, :k].tolist()))


def _random_rows(rng: np.random.Generator, count: int) -> _Rows:
    """`count` cases, drawn as `random_piecewise_signal` then `random_system`
    draw them, straight into rows. One cumsum of the widths gives the
    breakpoints, so a zero-width pad lands exactly on the period."""
    levels, widths = np.zeros((2, count, MAX_SEGMENTS))
    counts, lam = [], []
    for i in range(count):
        row_levels, row_widths = _draw_segments(rng, MAX_SEGMENTS)
        counts.append(len(row_levels))
        levels[i, :counts[-1]], widths[i, :counts[-1]] = row_levels, row_widths
        lam.append(_draw_lam(rng))
    k = max(counts, default=0)
    breakpoints = np.zeros((count, k + 1))
    np.cumsum(widths[:, :k], axis=1, out=breakpoints[:, 1:])
    return _Rows(levels[:, :k], breakpoints, np.array(counts, dtype=np.intp), np.array(lam))


def _case_rows(cases) -> _Rows:
    """The cases as rows. Both suites check periodic piecewise-constant inflow
    only; cases[i] of any other kind raises SignalError, an aperiodic one its
    NonPeriodicSignalError."""
    for i, (signal, _) in enumerate(cases):
        if not isinstance(signal, PiecewiseConstant):
            raise SignalError(f"cases[{i}] must be a periodic piecewise_constant signal, "
                              f"got {signal_to_dict(signal)['kind']}")
        if not signal.periodic:
            raise NonPeriodicSignalError(
                f"cases[{i}] must be a periodic piecewise_constant signal, got an aperiodic one")
    if not cases:
        return _random_rows(None, 0)     # no draws for no cases
    levels, breakpoints, _ = _pad_rows([signal for signal, _ in cases])
    return _Rows(levels, breakpoints, np.array([len(signal.levels) for signal, _ in cases]),
                 np.array([params.lam for _, params in cases]))


def _level_checks(levels, breakpoints, counts, separation: float = DISTINCT_LEVEL_SEPARATION,
                  min_duty: float = DISTINCT_MIN_DUTY) -> tuple[np.ndarray, np.ndarray]:
    """`has_distinct_levels` of each row of `_Rows`, and whether its levels lie
    within 1e-4. A stable sort puts equal levels together in segment order and
    pads (+inf) last; a scan sums each level's widths in that order, as a dict
    of levels does (`np.add.reduceat` sums runs of over eight pairwise)."""
    padded = np.where(np.arange(levels.shape[1]) < counts[:, None], levels, np.inf)
    order = np.argsort(padded, axis=1, kind="stable")
    level = np.take_along_axis(padded, order, axis=1)
    total = np.take_along_axis(np.diff(breakpoints, axis=1), order, axis=1)
    real, same = level < np.inf, level[:, 1:] == level[:, :-1]
    for j in np.flatnonzero((same & real[:, 1:]).any(axis=0)).tolist():
        total[:, j + 1] += np.where(same[:, j], total[:, j], 0.0)
    last = np.append(~same, np.ones((len(level), 1), dtype=bool), axis=1)   # a level's last
    heavy = last & real & (total >= min_duty * breakpoints[:, -1:])
    spread = (np.where(heavy, level, -np.inf).max(axis=1)
              - np.where(heavy, level, np.inf).min(axis=1))
    return spread >= separation, level[np.arange(len(level)), counts - 1] - level[:, 0] <= 1e-4


def has_distinct_levels(signal: PiecewiseConstant, separation: float = DISTINCT_LEVEL_SEPARATION,
                        min_duty: float = DISTINCT_MIN_DUTY) -> bool:
    """True when two level values at least `separation` apart each hold at
    least `min_duty` of the period (aggregating repeated values)."""
    levels, breakpoints, _ = _pad_rows([signal])
    return bool(_level_checks(levels, breakpoints, np.array([len(signal.levels)]),
                              separation, min_duty)[0][0])


def _report_failures(report: periodic.PeriodicReport, distinct: bool, all_equal: bool,
                     tol: SuiteTolerances) -> list[str]:
    failures = []
    if report.residual_gap > tol.identity_residual:
        failures.append(f"gap identity residual {report.residual_gap:.3e}")
    if report.residual_m1 > tol.identity_residual:
        failures.append(f"first moment residual {report.residual_m1:.3e}")
    if report.residual_m2 > tol.identity_residual:
        failures.append(f"second moment residual {report.residual_m2:.3e}")
    if report.w_sigma > report.w_const + tol.benchmark_excess:
        failures.append(f"output {report.w_sigma!r} exceeds benchmark {report.w_const!r}")
    if report.gap < 0.0:
        failures.append(f"negative gap {report.gap!r}")
    if distinct and report.gap <= tol.gap_floor:
        failures.append(f"gap {report.gap!r} not strictly positive for two-valued signal")
    if report.gap < EQUALITY_GAP_CUTOFF and not all_equal:
        failures.append(f"vanishing gap {report.gap!r} for a signal with unequal levels")
    return failures


def _periodic_checks(rows: _Rows, tol: SuiteTolerances):
    """Periodic-regime checks of all rows at once: (reports, failures per case).

    One period kernel serves the reports and the one-period maps; the
    contraction is observed by walking each row's composed period map from
    both starts.
    """
    if not len(rows.lam):
        return [], []
    kernel = periodic._PeriodRows(rows.levels, np.diff(rows.breakpoints, axis=1), rows.lam,
                                  moments=True)
    reports = periodic._reports(kernel)
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
    distinct, all_equal = (v.tolist() for v in _level_checks(*rows[:3]))
    failures = []
    for i, report in enumerate(reports):
        found = _report_failures(report, distinct[i], all_equal[i], tol)
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


def _asymptotic_checks(rows: _Rows, tol: SuiteTolerances) -> list[list[str]]:
    """Solution-independence and certificate checks of all rows at once.

    One exact row pass per start, recorded at CERTIFICATE_TAUS; its last
    horizon is INDEPENDENCE_TAU, so the independence check reads the same
    two passes.
    """
    if not len(rows.lam):
        return []
    levels, breakpoints, _, lam = rows
    starts = (0.0, 1.0)
    passes = [dynamics._exact_rows(levels, breakpoints, np.ones(len(lam), dtype=bool), lam,
                                   np.full(len(lam), x0), CERTIFICATE_TAUS)
              for x0 in starts]
    avg_diff = np.abs(passes[0][1][:, -1] - passes[1][1][:, -1]) / INDEPENDENCE_TAU
    bound = abs(starts[0] - starts[1]) / (lam * INDEPENDENCE_TAU)
    # Period means, summed segment by segment as mean_over_period sums them.
    sigma_bar = np.cumsum(levels * np.diff(breakpoints), axis=1)[:, -1] / breakpoints[:, -1]
    x_star = sigma_bar / (lam + sigma_bar)
    worst = []
    for x0, (states, cum_x, cum_s) in zip(starts, passes):
        lhs, rhs, _ = asymptotic._certificate_terms(
            lam[:, None], x_star[:, None], x0, CERTIFICATE_TAUS, states, cum_x, cum_s)
        worst.append((rhs - lhs).min(axis=1))
    failures = []
    for i in range(len(lam)):
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


def check_periodic_case(signal: PiecewiseConstant, params: SystemParams,
                        tol: SuiteTolerances) -> tuple[periodic.PeriodicReport, list[str]]:
    """All periodic-regime checks for one signal; returns (report, failures).

    The identity residuals of the gap report, the benchmark inequality and
    the gap's sign and strictness, and the contraction of the one-period
    map observed over CONTRACTION_PERIODS periods from x0 = 0 and 1.
    """
    [report], [failures] = _periodic_checks(_case_rows([(signal, params)]), tol)
    return report, failures


def check_asymptotic_case(signal: PiecewiseConstant, params: SystemParams,
                          tol: SuiteTolerances) -> list[str]:
    """Solution-independence and certificate checks for one periodic signal."""
    return _asymptotic_checks(_case_rows([(signal, params)]), tol)[0]


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

    periodic_rows = _random_rows(rng, n_periodic) if cases is None else _case_rows(cases)
    asymptotic_rows = _random_rows(rng, n_asymptotic) if cases is None else periodic_rows

    residuals = []
    max_res = {"gap_identity": 0.0, "moment_1": 0.0, "moment_2": 0.0}
    reports, periodic_failures = _periodic_checks(periodic_rows, tol)
    asymptotic_failures = _asymptotic_checks(asymptotic_rows, tol)
    for rep in reports:
        residuals.extend((rep.residual_gap, rep.residual_m1, rep.residual_m2))
        max_res["gap_identity"] = max(max_res["gap_identity"], rep.residual_gap)
        max_res["moment_1"] = max(max_res["moment_1"], rep.residual_m1)
        max_res["moment_2"] = max(max_res["moment_2"], rep.residual_m2)
    for suite, rows, suite_failures in (
        ("periodic", periodic_rows, periodic_failures),
        ("asymptotic", asymptotic_rows, asymptotic_failures),
    ):
        for i, failures in enumerate(suite_failures):
            if failures:
                report.failures.append({
                    "suite": suite,
                    "signal": signal_to_dict(rows.signal(i)),
                    "lam": rows.lam[i].item(),
                    "failures": failures,
                })

    log10 = np.log10(np.maximum(np.asarray(residuals), 1e-300))
    log10 = np.clip(log10, _HIST_EDGES[0], _HIST_EDGES[-1])
    counts, _ = np.histogram(log10, bins=_HIST_EDGES)
    report.max_residuals = max_res
    report.histogram_bins = _HIST_EDGES
    report.histogram_counts = [int(c) for c in counts]
    return report
