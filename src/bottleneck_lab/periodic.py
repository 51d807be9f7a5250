"""Periodic steady states and averaged throughput.

For a T-periodic inflow the one-period flow map of the model is affine,
x(T) = a x(0) + b with 0 < a < 1, so every solution converges to the
unique periodic solution x_p with x_p(0) = b / (1 - a). The long-run
time-averaged output is then

    w[sigma] = lam * (1/T) int_0^T x_p(t) dt,

and the central quantitative fact checked here is the shortfall identity

    w[const sigma_bar] - w[sigma]
        = (1/T) int_0^T (x_p(t) - x_star)^2 (lam + sigma(t)) dt  >=  0,

with sigma_bar the period-mean inflow and x_star = sigma_bar/(lam+sigma_bar).
The right-hand side (the "gap") vanishes only for constant inflow, which is
why constant inflow maximizes averaged output at fixed mean. Two moment
identities feed the same bookkeeping:

    (1/T) int (lam + sigma) x_p   = sigma_bar,
    (1/T) int (lam + sigma) x_p^2 = sigma_bar - w[sigma].

On piecewise-constant inflow every integral above has a per-segment closed
form (x_p is a known exponential on each segment), so the reported residuals
measure rounding only. All of them read one scalar kernel for the period,
`dynamics._PeriodJump`: the map's exponent R = int_0^T (lam + sigma), its
offset b, the fixed point x_p(0) = b / (1 - a) with 1 - a = -expm1(-R)
(never 1 - e^{-R} by subtraction, which loses every digit once R is below
double precision, as at nanosecond periods), and the per-segment integral
weights. Only `output_for_level_rows`, the search's batch of candidate
waveforms, restates the same formulas over numpy columns. On smooth inflow
the integrals fall back to trapezoid sums over the numeric grid and the
residual tolerance is correspondingly looser (about 1e-5 at default grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .signals import (
    ClippedSinusoidSum,
    InputSignal,
    PiecewiseConstant,
    QuadratureSpec,
    SignalError,
    SystemParams,
    evaluate_array,
    mean_over_period,
    require_period,
    signal_to_dict,
)

__all__ = [
    "PoincareMap",
    "PeriodicReport",
    "poincare_map",
    "periodic_solution",
    "constant_benchmark",
    "gap_report",
    "period_states",
    "output_for_levels",
    "output_for_level_rows",
    "report_to_json_dict",
    "reports_to_csv",
    "REPORT_CSV_HEADER",
]

_MAP_TOL = 1e-12

# Negative gap values above this floor are rounding dust and are clamped to 0;
# anything more negative indicates a real bug and raises.
_GAP_FLOOR = -1e-12


@dataclass(frozen=True)
class PoincareMap:
    """One-period affine state map x(T) = a x(0) + b.

    rate is the decay exponent R = int_0^T (lam + sigma) > 0, and
    a = e^{-R} is a strict contraction; b is the image of x(0) = 0. The
    map sends [0, 1] into itself, so b >= 0 and a + b <= 1. 1 - a is
    taken as -expm1(-R), so the fixed point keeps full relative precision
    when the contraction is weak.
    """

    rate: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rate < math.inf):
            raise SignalError(f"decay exponent must be positive and finite: rate={self.rate}")
        one_minus_a = -math.expm1(-self.rate)
        if self.b < -_MAP_TOL or self.b > one_minus_a + _MAP_TOL:
            raise SignalError(f"offset out of range: a={self.a}, b={self.b}")
        # Absorb sub-ulp rounding so the fixed point stays inside [0, 1].
        object.__setattr__(self, "b", min(max(self.b, 0.0), one_minus_a))

    @property
    def a(self) -> float:
        return math.exp(-self.rate)

    @property
    def fixed_point(self) -> float:
        return self.b / -math.expm1(-self.rate)


@dataclass(frozen=True)
class PeriodicReport:
    """All averaged quantities and identity residuals for one periodic run.

    sigma_bar     period-mean inflow
    x_star        sigma_bar / (lam + sigma_bar)
    w_sigma       averaged output of the periodic solution
    w_const       lam * x_star, the constant-inflow benchmark at the same mean
    gap           quadratic shortfall integral (>= 0)
    residual_gap  |w_const - w_sigma - gap|
    residual_m1   |(1/T) int (lam+sigma) x_p   - sigma_bar|
    residual_m2   |(1/T) int (lam+sigma) x_p^2 - (sigma_bar - w_sigma)|
    """

    sigma_bar: float
    x_star: float
    w_sigma: float
    w_const: float
    gap: float
    residual_gap: float
    residual_m1: float
    residual_m2: float


def _is_smooth(signal: InputSignal) -> bool:
    return isinstance(signal, ClippedSinusoidSum)


# ---------------------------------------------------------------------------
# Poincare map and periodic solution
# ---------------------------------------------------------------------------

def poincare_map(
    signal: InputSignal,
    params: SystemParams,
    grid: QuadratureSpec | None = None,
) -> PoincareMap:
    """Build the one-period map x(T) = a x(0) + b.

    On piecewise-constant inflow both R and b come from the closed-form
    period kernel. On smooth inflow b is the numeric image of x(0) = 0 and
    R the trapezoid integral of lam + sigma on the same grid. a is never
    taken as the image spread Phi(1) - Phi(0): that subtraction cancels to
    zero once the contraction is stronger than double precision.
    """
    period = require_period(signal)
    step = dynamics.numeric_step(signal, params, grid)
    if step is None:
        kernel = dynamics._PeriodJump(signal.levels, signal.durations, params.lam)
        return PoincareMap(rate=kernel.rate, b=kernel.b)
    b = float(dynamics.smooth_pass(signal, params, 0.0, np.asarray([period]), step)[0][0])
    n = max(2, math.ceil(period / step))
    ts = np.linspace(0.0, period, n + 1)
    rate = float(np.trapezoid(params.lam + evaluate_array(signal, ts), ts))
    return PoincareMap(rate=rate, b=b)


def periodic_solution(
    signal: InputSignal,
    params: SystemParams,
    grid: QuadratureSpec | None = None,
) -> dynamics.Trajectory:
    """One period of the unique periodic solution, starting at its fixed point."""
    period = require_period(signal)
    x_p0 = poincare_map(signal, params, grid).fixed_point
    return dynamics.simulate(signal, params, x_p0, period, grid)


def constant_benchmark(sigma_bar: float, params: SystemParams) -> float:
    """Averaged output of constant inflow at rate sigma_bar: lam s / (lam + s)."""
    if sigma_bar < 0.0:
        raise dynamics.DomainError(f"mean inflow must be non-negative, got {sigma_bar}")
    if sigma_bar == 0.0:
        return 0.0
    return params.lam * sigma_bar / (params.lam + sigma_bar)


# ---------------------------------------------------------------------------
# Closed-form period integrals (piecewise-constant inflow)
# ---------------------------------------------------------------------------

def output_for_levels(levels, durations, lam: float) -> float:
    """Averaged output for one period given segment levels and durations.

    Low-overhead kernel used by the waveform-search module, which evaluates
    it many thousands of times; plain floats, no signal objects.
    """
    return lam * dynamics._PeriodJump(levels, durations, lam).i_p / sum(durations)


def output_for_level_rows(levels, durations, lam: float) -> np.ndarray:
    """Row-wise output_for_levels over an (N, k) array of candidate waveforms.

    `durations` is (N, k) or broadcasts to it. The same formulas as the
    scalar kernel (1 - a from expm1, integral weights h phi(r h)), run
    column by column (k passes of length N); results agree with it to
    rounding (numpy's expm1 may differ in the last bit from the C
    library's).
    """
    levels = np.asarray(levels, dtype=float)
    c = np.ascontiguousarray(levels.T)
    h = np.ascontiguousarray(np.broadcast_to(durations, levels.shape).T)
    r = lam + c
    rh = r * h
    x_inf = c / r
    g = -np.expm1(-rh)
    w = h * np.divide(g, rh, out=np.ones_like(g), where=rh > 0.0)   # h phi(r h)
    d = 1.0 - g
    b = np.zeros(levels.shape[0])
    for j in range(c.shape[0]):
        b = x_inf[j] * g[j] + b * d[j]
    x = b / np.maximum(-np.expm1(-rh.sum(axis=0)), math.ulp(0.0))
    total = np.zeros(levels.shape[0])
    for j in range(c.shape[0]):
        delta = x - x_inf[j]
        total += x_inf[j] * h[j] + delta * w[j]
        x = x_inf[j] + delta * d[j]
    return lam * total / h.sum(axis=0)


def _closed_form_report(levels, durations, lam: float) -> PeriodicReport:
    kernel = dynamics._PeriodJump(levels, durations, lam)
    period = math.fsum(durations)
    sigma_bar = kernel.sigma_int / period
    x_star = sigma_bar / (lam + sigma_bar) if sigma_bar > 0.0 else 0.0
    w_const = lam * x_star

    x = kernel.x_p
    m1 = 0.0        # int (lam+sigma) x_p
    m2 = 0.0        # int (lam+sigma) x_p^2
    gap_int = 0.0   # int (lam+sigma) (x_p - x_star)^2
    for x_inf, g, _, r, h in kernel.segments:
        delta = x - x_inf
        dev = x_inf - x_star
        half_g2 = 0.5 * g * (2.0 - g)   # (1 - e^{-2 r h}) / 2
        m1 += r * x_inf * h + delta * g
        m2 += r * x_inf * x_inf * h + 2.0 * x_inf * delta * g + delta * delta * half_g2
        gap_int += r * dev * dev * h + 2.0 * dev * delta * g + delta * delta * half_g2
        x = x_inf + delta * (1.0 - g)

    w_sigma = lam * kernel.i_p / period
    gap = gap_int / period
    if gap < 0.0:
        if gap < _GAP_FLOOR:
            raise AssertionError(f"gap integral went negative: {gap}")
        gap = 0.0
    return PeriodicReport(
        sigma_bar=sigma_bar,
        x_star=x_star,
        w_sigma=w_sigma,
        w_const=w_const,
        gap=gap,
        residual_gap=abs(w_const - w_sigma - gap),
        residual_m1=abs(m1 / period - sigma_bar),
        residual_m2=abs(m2 / period - (sigma_bar - w_sigma)),
    )


def _quadrature_report(
    signal: InputSignal, params: SystemParams, grid: QuadratureSpec | None
) -> PeriodicReport:
    lam = params.lam
    period = require_period(signal)
    sigma_bar = mean_over_period(signal, grid)
    x_star = sigma_bar / (lam + sigma_bar) if sigma_bar > 0.0 else 0.0
    w_const = lam * x_star

    traj = periodic_solution(signal, params, grid)
    ts = traj.times
    xp = traj.states
    sig = evaluate_array(signal, ts)
    rate = lam + sig
    w_sigma = lam * float(traj.cumulative_x[-1]) / period
    m1 = float(np.trapezoid(rate * xp, ts)) / period
    m2 = float(np.trapezoid(rate * xp * xp, ts)) / period
    dev = xp - x_star
    gap = float(np.trapezoid(rate * dev * dev, ts)) / period
    return PeriodicReport(
        sigma_bar=sigma_bar,
        x_star=x_star,
        w_sigma=w_sigma,
        w_const=w_const,
        gap=gap,
        residual_gap=abs(w_const - w_sigma - gap),
        residual_m1=abs(m1 - sigma_bar),
        residual_m2=abs(m2 - (sigma_bar - w_sigma)),
    )


def gap_report(
    signal: InputSignal,
    params: SystemParams,
    grid: QuadratureSpec | None = None,
) -> PeriodicReport:
    """Full periodic report: averages, benchmark, gap, identity residuals.

    The gap and both moment integrals are evaluated independently of the
    averaged-output bookkeeping, so the residuals are genuine consistency
    checks, not algebraic rearrangements of each other.
    """
    if _is_smooth(signal):
        return _quadrature_report(signal, params, grid)
    require_period(signal)
    return _closed_form_report(signal.levels, signal.durations, params.lam)


def period_states(
    signal: InputSignal,
    params: SystemParams,
    x0: float,
    n_periods: int,
) -> np.ndarray:
    """x at times 0, T, 2T, ..., n_periods*T by repeated exact propagation.

    Piecewise-constant inflow only; used to observe the geometric approach
    to the periodic orbit without going through the affine map itself.
    """
    require_period(signal)
    kernel = dynamics._PeriodJump(signal.levels, signal.durations, params.lam)
    steps = [(x_inf, 1.0 - g) for x_inf, g, _, _, _ in kernel.segments]
    out = np.empty(n_periods + 1)
    x = dynamics._check_occupancy(x0)
    out[0] = x
    for n in range(1, n_periods + 1):
        for x_inf, d in steps:
            x = x_inf + (x - x_inf) * d
        out[n] = x
    return out


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

REPORT_CSV_HEADER = (
    "lam,period,sigma_bar,x_star,w_sigma,w_const,gap,"
    "residual_gap,residual_m1,residual_m2"
)


def reports_to_csv(rows, fh) -> None:
    """Write one CSV row per (signal, params, report) experiment."""
    fh.write(REPORT_CSV_HEADER + "\n")
    for signal, params, report in rows:
        period = require_period(signal)
        fh.write(
            f"{params.lam!r},{period!r},{report.sigma_bar!r},{report.x_star!r},"
            f"{report.w_sigma!r},{report.w_const!r},{report.gap!r},"
            f"{report.residual_gap!r},{report.residual_m1!r},{report.residual_m2!r}\n"
        )


def report_to_json_dict(
    signal: InputSignal,
    params: SystemParams,
    report: PeriodicReport,
    grid_step: float | None = None,
) -> dict:
    """JSON form of a report with provenance (inflow description, lam, grid)."""
    return {
        "lam": params.lam,
        "signal": signal_to_dict(signal),
        "period": require_period(signal),
        "grid_step": grid_step,
        "sigma_bar": report.sigma_bar,
        "x_star": report.x_star,
        "w_sigma": report.w_sigma,
        "w_const": report.w_const,
        "gap": report.gap,
        "residuals": {
            "gap_identity": report.residual_gap,
            "moment_1": report.residual_m1,
            "moment_2": report.residual_m2,
        },
    }

