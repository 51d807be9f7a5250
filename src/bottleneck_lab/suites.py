"""Randomized verification suites over generated periodic inflows.

One seeded generator drives everything, so a failing case can be replayed
bit-for-bit from its serialized signal. The periodic suite checks, per
signal: the identity residuals of the gap report, the benchmark inequality
w[sigma] <= w[mean] plus strict gap positivity for genuinely two-valued
signals, and the geometric contraction of the one-period map observed over
20 periods. The asymptotic suite checks the solution-independence bound and
the finite-horizon certificates on the same kind of signals. Each suite
runs all its cases at once, as padded rows (`signals._pad_rows`), and its
results are columns; failure texts are formatted for failing rows only.
`check_periodic_case` and `check_asymptotic_case` are its one-row form.
Generated cases are drawn straight into rows, two generator calls per case;
only a failure builds a signal.

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


def random_piecewise_signal(rng: np.random.Generator,
                            max_segments: int = MAX_SEGMENTS) -> PiecewiseConstant:
    """Random periodic piecewise-constant inflow: up to `max_segments`
    segments, levels uniform in [0, 5], durations uniform in [0.05, 1]."""
    n = int(rng.integers(1, max_segments + 1))
    levels, durations = rng.uniform(*LEVEL_RANGE, size=n), rng.uniform(*DURATION_RANGE, size=n)
    breakpoints = np.concatenate(([0.0], np.cumsum(durations)))
    return PiecewiseConstant(tuple(breakpoints.tolist()), tuple(levels.tolist()), periodic=True)


def random_system(rng: np.random.Generator) -> SystemParams:
    """lam log-uniform on [0.1, 10]."""
    return SystemParams(lam=float(10.0 ** rng.uniform(*_LOG_LAMBDA_RANGE)))


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


def _uniform(u: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """Unit draws scaled as `Generator.uniform` scales its own."""
    return bounds[0] + (bounds[1] - bounds[0]) * u


def _random_rows(rng: np.random.Generator, count: int) -> _Rows:
    """`count` cases, drawn as `random_piecewise_signal` then `random_system`
    draw them, straight into rows: per case the count n, then 2n + 1 doubles
    (levels, durations, lam's exponent) as one `random`, scaled afterwards.
    lam is a Python-float pow per case (a vectorised 10 ** u changes its bits).
    One cumsum of the widths gives the breakpoints, so a zero-width pad lands
    exactly on the period."""
    u = np.zeros((count, 2 * MAX_SEGMENTS + 1))      # no garbage to scale past a row's draws
    counts = np.empty(count, dtype=np.intp)
    for i in range(count):
        counts[i] = n = rng.integers(1, MAX_SEGMENTS + 1)
        rng.random(out=u[i, :2 * n + 1])
    k = counts.max(initial=0)
    real = np.arange(k) < counts[:, None]
    levels = np.where(real, _uniform(u[:, :k], LEVEL_RANGE), 0.0)
    widths = np.take_along_axis(u, counts[:, None] + np.arange(k), axis=1)
    breakpoints = np.zeros((count, k + 1))
    np.cumsum(np.where(real, _uniform(widths, DURATION_RANGE), 0.0), axis=1,
              out=breakpoints[:, 1:])
    exponent = _uniform(u[np.arange(count), 2 * counts], _LOG_LAMBDA_RANGE)
    return _Rows(levels, breakpoints, counts, np.array([10.0 ** v for v in exponent.tolist()]))


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
    """Per row of `_Rows`: whether two level values at least `separation` apart
    each hold at least `min_duty` of the period (a repeated value's widths
    summed), and whether its levels lie within 1e-4. A stable sort puts equal
    levels together in segment order and pads (+inf) last; a scan sums each
    level's widths in that order, as a dict of levels does (`np.add.reduceat`
    sums runs of over eight pairwise)."""
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


def _failing(checks: np.ndarray, texts) -> dict[int, list[str]]:
    """{row: failure texts} of the rows that fail any of `checks`, a (check,
    row) mask, in row order; `texts(i)` formats every check's text for row i."""
    return {i: [text for text, failed in zip(texts(i), checks[:, i].tolist()) if failed]
            for i in np.flatnonzero(checks.any(axis=0)).tolist()}


def _periodic_checks(rows: _Rows, tol: SuiteTolerances):
    """Periodic-regime checks of all rows at once: the report columns
    (`periodic._report_columns`) and the failing rows' failures (`_failing`).
    One period kernel serves the reports and the one-period maps; the
    contraction is observed by walking each row's composed period map from
    both starts."""
    if not len(rows.lam):
        return np.empty((8, 0)), {}
    kernel = periodic._PeriodRows(rows.levels, np.diff(rows.breakpoints, axis=1), rows.lam,
                                  moments=True)
    columns = periodic._report_columns(kernel)
    a, _, x_p0 = periodic._map_columns(kernel.rate, kernel.b)
    decay = np.cumprod(np.tile(a, (CONTRACTION_PERIODS, 1)), axis=0)
    starts = np.array([[0.0], [1.0]])
    states = periodic._period_states_rows(kernel, starts, CONTRACTION_PERIODS)[1:]
    distance = np.abs(states - x_p0)                                # (period, start, case)
    limit = decay[:, None, :] * np.abs(starts - x_p0) + tol.contraction
    violated = distance > limit
    first = violated.argmax(axis=0)                   # (start, case): first violation
    distinct, all_equal = _level_checks(*rows[:3])
    _, _, w_sigma, w_const, gap = columns[:5]
    checks = np.array([
        *(columns[5:] > tol.identity_residual),
        w_sigma > w_const + tol.benchmark_excess,
        gap < 0.0,
        distinct & (gap <= tol.gap_floor),
        (gap < EQUALITY_GAP_CUTOFF) & ~all_equal,
        *violated.any(axis=0),
    ])

    def texts(i):
        _, _, w_sigma, w_const, gap, *residuals = columns[:, i].tolist()
        return [
            *(f"{name} residual {value:.3e}" for name, value in
              zip(("gap identity", "first moment", "second moment"), residuals)),
            f"output {w_sigma!r} exceeds benchmark {w_const!r}",
            f"negative gap {gap!r}",
            f"gap {gap!r} not strictly positive for two-valued signal",
            f"vanishing gap {gap!r} for a signal with unequal levels",
            *(f"contraction violated at period {n + 1} from x0={x0}: "
              f"|x - x_p| = {distance[n, j, i]:.3e} > a^n dx0 + tol = {limit[n, j, i]:.3e}"
              for j, (x0, n) in enumerate(zip(starts[:, 0].tolist(), first[:, i].tolist()))),
        ]
    return columns, _failing(checks, texts)


def _asymptotic_checks(rows: _Rows, tol: SuiteTolerances) -> dict[int, list[str]]:
    """Solution-independence and certificate checks of all rows at once: the
    failing rows' failures (`_failing`). One exact pass over the rows tiled
    twice, from x0 = 0 in the first half and 1 in the second, recorded at
    CERTIFICATE_TAUS; its last horizon is INDEPENDENCE_TAU, so the
    independence check reads the same pass. No row's bits depend on its
    batch, so each half is that start's own pass."""
    n = len(rows.lam)
    if not n:
        return {}
    levels, breakpoints, _, lam = (np.concatenate((v, v)) for v in rows)
    starts = np.repeat([0.0, 1.0], n)
    states, cum_x, cum_s = dynamics._exact_rows(levels, breakpoints, np.ones(2 * n, dtype=bool),
                                                lam, starts, CERTIFICATE_TAUS)
    avg_diff = np.abs(cum_x[:n, -1] - cum_x[n:, -1]) / INDEPENDENCE_TAU
    bound = 1.0 / (rows.lam * INDEPENDENCE_TAU)       # |dx0| = 1
    # The reference of `asymptotic`: x* at each pass's final running mean inflow.
    s = cum_s[:, -1] / INDEPENDENCE_TAU
    x_star = s / (lam + s)
    lhs, rhs, _ = asymptotic._certificate_terms(lam[:, None], x_star[:, None], starts[:, None],
                                                CERTIFICATE_TAUS, states, cum_x, cum_s)
    slack = (rhs - lhs).min(axis=1).reshape(2, n)     # (start, case)
    checks = np.array([avg_diff > bound + tol.independence, *(slack < -tol.certificate)])

    def texts(i):
        return [f"independence bound violated: {avg_diff[i].item()!r} > {bound[i].item()!r}",
                *(f"certificate slack {s:.3e} from x0={x0}"
                  for x0, s in zip((0.0, 1.0), slack[:, i].tolist()))]
    return _failing(checks, texts)


def check_periodic_case(signal: PiecewiseConstant, params: SystemParams,
                        tol: SuiteTolerances) -> tuple[periodic.PeriodicReport, list[str]]:
    """All periodic-regime checks for one signal; returns (report, failures).

    The identity residuals of the gap report, the benchmark inequality and
    the gap's sign and strictness, and the contraction of the one-period
    map observed over CONTRACTION_PERIODS periods from x0 = 0 and 1.
    """
    columns, failures = _periodic_checks(_case_rows([(signal, params)]), tol)
    return periodic.PeriodicReport(*columns[:, 0].tolist()), failures.get(0, [])


def check_asymptotic_case(signal: PiecewiseConstant, params: SystemParams,
                          tol: SuiteTolerances) -> list[str]:
    """Solution-independence and certificate checks for one periodic signal."""
    return _asymptotic_checks(_case_rows([(signal, params)]), tol).get(0, [])


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

    columns, periodic_failures = _periodic_checks(periodic_rows, tol)
    asymptotic_failures = _asymptotic_checks(asymptotic_rows, tol)
    residuals = columns[5:]                           # gap identity, moment 1, moment 2
    # fmax from 0 skips NaN, as a running Python max from 0 does
    max_res = {name: np.fmax.reduce(column, initial=0.0).item()
               for name, column in zip(("gap_identity", "moment_1", "moment_2"), residuals)}
    for suite, rows, suite_failures in (
        ("periodic", periodic_rows, periodic_failures),
        ("asymptotic", asymptotic_rows, asymptotic_failures),
    ):
        for i, failures in suite_failures.items():
            report.failures.append({
                "suite": suite,
                "signal": signal_to_dict(rows.signal(i)),
                "lam": rows.lam[i].item(),
                "failures": failures,
            })

    log10 = np.log10(np.maximum(residuals, 1e-300))
    log10 = np.clip(log10, _HIST_EDGES[0], _HIST_EDGES[-1])
    counts, _ = np.histogram(log10, bins=_HIST_EDGES)
    report.max_residuals = max_res
    report.histogram_bins = _HIST_EDGES
    report.histogram_counts = [int(c) for c in counts]
    return report
