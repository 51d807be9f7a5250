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
measure rounding only. All of them read one period kernel over padded
(N, k) rows of levels and durations, `_PeriodRows`: the map's exponent
R = int_0^T (lam + sigma), its offset b, the fixed point x_p(0) = b / (1 - a)
with 1 - a = -expm1(-R) (never 1 - e^{-R} by subtraction, which loses every
digit once R is below double precision, as at nanosecond periods), the
per-segment integral weights and, on request, the moment integrals or the
gradient of w in the levels and durations. Reports, one-period maps, the
search's candidate waveforms and the verification suites are rows of it.
On smooth inflow one scan of the period from 0 (`_smooth_period`) gives the
map, the orbit and sigma at the Gauss nodes of every step; int sigma, and so
sigma_bar, is exact, and every other integral is the Gauss sum on those
nodes, so the residuals stay at rounding level there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import dynamics
from .signals import (
    InputSignal,
    QuadratureSpec,
    SignalError,
    SystemParams,
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
    period kernel; on smooth inflow both come from one scan (`_smooth_period`).
    """
    period = require_period(signal)
    step = dynamics.numeric_step(signal, params, grid)
    if step is None:
        kernel = _PeriodRows([signal.levels], [signal.durations], params.lam)
        return PoincareMap(rate=float(kernel.rate[0]), b=float(kernel.b[0]))
    return _smooth_period(signal, params, period, step)[0]


def periodic_solution(
    signal: InputSignal,
    params: SystemParams,
    grid: QuadratureSpec | None = None,
) -> dynamics.Trajectory:
    """One period of the unique periodic solution, starting at its fixed point."""
    period = require_period(signal)
    step = dynamics.numeric_step(signal, params, grid)
    if step is None:
        x_p0 = poincare_map(signal, params).fixed_point
        return dynamics.simulate(signal, params, x_p0, period, grid)
    return _smooth_period(signal, params, period, step, dense=True)[1]


def _smooth_period(signal, params: SystemParams, period: float, step: float, dense=False):
    """One scan over [0, T] from x(0) = 0: (map, orbit, scan). b is its end
    state, R = lam T + its exact integral of sigma: not the step factors'
    product, which underflows once R > 745, nor its -log, which loses
    precision when r h is tiny. The orbit is x + p x_p, at T or (`dense`) at
    every step boundary and node."""
    scan = dynamics._smooth_scan(signal, params.lam, 0.0, [period], step, dense)
    pmap = PoincareMap(rate=params.lam * period + float(scan.int_sigma[-1]), b=float(scan.x[-1]))
    x_p = pmap.fixed_point
    states = dynamics._clamp(scan.x + scan.p * x_p)
    return pmap, dynamics.Trajectory(scan.t, states, scan.int_x + scan.int_p * x_p), scan


def constant_benchmark(sigma_bar: float, params: SystemParams) -> float:
    """Averaged output of constant inflow at rate sigma_bar: lam s / (lam + s),
    or lam (s / (lam + s)) where lam s overflows; SignalError if lam + s does."""
    if sigma_bar < 0.0:
        raise dynamics.DomainError(f"mean inflow must be non-negative, got {sigma_bar}")
    if sigma_bar == 0.0:
        return 0.0
    lam = params.lam
    if not math.isfinite(lam + sigma_bar):
        raise SignalError(f"lam + mean inflow overflows: lam={lam!r}, mean={sigma_bar!r}")
    product = lam * sigma_bar
    if math.isfinite(product):
        return product / (lam + sigma_bar)
    return lam * (sigma_bar / (lam + sigma_bar))


# ---------------------------------------------------------------------------
# Closed-form period integrals (piecewise-constant inflow)
# ---------------------------------------------------------------------------

def _segment_columns(*columns):
    """Iterate (k, N) columns by segment; one row as Python floats, which run
    the same IEEE operations as length-1 columns without numpy's call cost."""
    if columns[0].shape[1] == 1:
        return zip(*(col[:, 0].tolist() for col in columns))
    return zip(*columns)


class _PeriodRows(dynamics._Segments):
    """One period of each row: the period kernel of the reports, maps and search.

    Over one period the flow is x -> a x + b with a = e^{-R}, R = sum r h
    (`rate`); b is summed as b <- x_inf g + b d, which does not cancel when
    g is small, and 1 - a = -expm1(-R), so x_p = b / (1 - a), the periodic
    orbit's start, keeps full relative precision however weak the
    contraction. Also `i_p` = int_0^T x_p and `period` = T; with `moments`,
    `s` = int_0^T sigma, `x_star` and the integrals of (lam + sigma) times
    x_p (`m1`), x_p^2 (`m2`) and (x_p - x_star)^2 (`gap`); with `gradient`,
    `dw_dc` and `dw_dh`, the gradient of w = lam i_p / T in each row's levels
    and durations. Sums and recurrences run in segment order, so no row
    depends on the batch or its padding.
    """

    def __init__(self, levels, durations, lam, moments: bool = False,
                 gradient: bool = False) -> None:
        super().__init__(levels, durations, lam)
        c, h, r, x_inf, g, d, w = self.c, self.h, self.r, self.x_inf, self.g, self.d, self.w
        n = c.shape[1]
        b = rate = 0.0
        b_start = []        # b at each segment start, for the gradient
        for x_inf_j, g_j, d_j, rh_j in _segment_columns(x_inf, g, d, self.rh):
            if gradient:
                b_start.append(b)
            b = x_inf_j * g_j + b * d_j
            rate += rh_j
        self.b, self.rate = np.reshape(b, n), np.reshape(rate, n)
        # x_p; R is 0 only when every r h underflows, and then b is 0 too.
        one_minus_a = np.maximum(-np.expm1(-self.rate), math.ulp(0.0))
        x = x_p = self.b / one_minus_a
        x, i_p, period = (x.item() if n == 1 else x), 0.0, 0.0
        delta = []          # x_p(segment start) - x_inf, per segment, for moments and gradient
        for x_inf_j, h_j, w_j, d_j in _segment_columns(x_inf, h, w, d):
            dx = x - x_inf_j
            i_p += x_inf_j * h_j + dx * w_j
            period += h_j
            x = x_inf_j + dx * d_j
            if moments or gradient:
                delta.append(dx)
        self.i_p, self.period = np.reshape(i_p, n), np.reshape(period, n)
        if gradient:
            self._adjoint(x_p, one_minus_a, delta, b_start)
        if moments:
            delta = np.reshape(delta, c.shape)
            self.s = np.cumsum(c * h, axis=0)[-1]
            sigma_bar = self.s / self.period
            self.x_star = x_star = sigma_bar / (self.lam + sigma_bar)
            dev = x_inf - x_star
            half_g2 = 0.5 * g * (2.0 - g)   # (1 - e^{-2 r h}) / 2
            self.m1 = np.cumsum(r * x_inf * h + delta * g, axis=0)[-1]
            self.m2 = np.cumsum(r * x_inf * x_inf * h + 2.0 * x_inf * delta * g
                                + delta * delta * half_g2, axis=0)[-1]
            self.gap = np.cumsum(r * dev * dev * h + 2.0 * dev * delta * g
                                 + delta * delta * half_g2, axis=0)[-1]

    def _adjoint(self, x_p, one_minus_a, delta, b_start) -> None:
        """`dw_dc` and `dw_dh` by one reverse sweep of the value path, for
        i_p / T and then times lam. `after` is the adjoint of the state after
        a segment; `tail`, the product of the later d, carries that of b_k
        back through b <- x_inf g + b d. Segments keep their terms without
        the adjoints of b_k and R (a_*) and per unit of b_k's (b_*), as both
        come from x_p = b_k / (1 - e^{-R}) after the sweep. Chain rules:
        dg = d d(r h) = -dd, dw/dh = d, dw/dc = -h^2 psi(r h), dx_inf/dc = lam / r^2.
        """
        n = self.c.shape[1]
        lam = self.lam.item() if n == 1 else self.lam
        ibar = 1.0 / self.period                        # d(i_p / T) / d i_p
        tbar = -(ibar * self.i_p) / self.period         # d(i_p / T) / dT
        ibar, tbar = (ibar.item(), tbar.item()) if n == 1 else (ibar, tbar)
        after, tail = 0.0, 1.0
        a_c, b_c, a_h, b_h = [], [], [], []
        # psi(z) = (1 - (1 + z) e^{-z}) / z^2 = (g / z - d) / z, and below
        # z = 0.02, where that cancels, its series
        z, s = np.maximum(self.rh, 0.02), np.minimum(self.rh, 0.02)
        series = np.polyval([1 / 5760, -1 / 840, 1 / 144, -1 / 30, 1 / 8, -1 / 3, 0.5], s)
        psi = np.where(self.rh < 0.02, series, (self.g / z - self.d) / z)
        segments = list(_segment_columns(self.h, self.r, self.x_inf, self.g, self.d, self.w,
                                         psi))[::-1]
        for (h, r, x_inf, g, d, w, psi), dx, b0 in zip(segments, delta[::-1], b_start[::-1]):
            slope = lam / r / r                         # dx_inf / dc
            a_c.append((ibar * (h - w) + after * g) * slope - after * dx * d * h
                       - ibar * dx * h * h * psi)
            b_c.append(tail * (g * slope + (x_inf - b0) * d * h))
            a_h.append(ibar * x_inf + tbar - after * dx * d * r + ibar * dx * d)
            b_h.append(tail * (x_inf - b0) * d * r)
            after = ibar * w + after * d
            tail = tail * d
        # `after` is now the adjoint of x_p
        bbar = after / one_minus_a
        rbar = -bbar * x_p * np.exp(-self.rate)
        bbar, rbar = (bbar.item(), rbar.item()) if n == 1 else (bbar, rbar)
        self.dw_dc = np.reshape([lam * (a + bbar * b + rbar * seg[0])
                                 for a, b, seg in zip(a_c, b_c, segments)][::-1], self.c.shape).T
        self.dw_dh = np.reshape([lam * (a + bbar * b + rbar * seg[1])
                                 for a, b, seg in zip(a_h, b_h, segments)][::-1], self.c.shape).T


def output_for_levels(levels, durations, lam: float) -> float:
    """Averaged output for one period given segment levels and durations."""
    return float(output_for_level_rows([levels], [durations], lam)[0])


def output_for_level_rows(levels, durations, lam: float) -> np.ndarray:
    """Averaged output of each row of an (N, k) array of candidate waveforms.

    `durations` is (N, k) or broadcasts to it.
    """
    kernel = _PeriodRows(levels, durations, lam)
    return lam * kernel.i_p / kernel.period


def _reports(sums) -> list[PeriodicReport]:
    """One report per row of period integrals: a `_PeriodRows` built with
    `moments`, or the Gauss sums of a smooth `gap_report`."""
    lam, period, x_star = sums.lam, sums.period, sums.x_star
    sigma_bar = sums.s / period
    w_const = lam * x_star
    w_sigma = lam * sums.i_p / period
    gap = sums.gap / period
    if np.any(gap < _GAP_FLOOR):
        raise AssertionError(f"gap integral went negative: {gap.min()}")
    gap = np.where(gap < 0.0, 0.0, gap)
    columns = (
        sigma_bar, x_star, w_sigma, w_const, gap,
        np.abs(w_const - w_sigma - gap),
        np.abs(sums.m1 / period - sigma_bar),
        np.abs(sums.m2 / period - (sigma_bar - w_sigma)),
    )
    return [PeriodicReport(*row) for row in zip(*(v.tolist() for v in columns))]


def gap_report(
    signal: InputSignal,
    params: SystemParams,
    grid: QuadratureSpec | None = None,
) -> PeriodicReport:
    """Full periodic report: averages, benchmark, gap, identity residuals.

    The gap and both moment integrals are evaluated independently of the
    averaged-output bookkeeping, so the residuals are genuine consistency
    checks, not algebraic rearrangements of each other. On smooth inflow
    they are Gauss sums over the nodes of the one scan of the period, and
    sigma_bar is its exact int sigma.
    """
    period = require_period(signal)
    step = dynamics.numeric_step(signal, params, grid)
    if step is None:
        kernel = _PeriodRows([signal.levels], [signal.durations], params.lam, moments=True)
        return _reports(kernel)[0]
    _, traj, scan = _smooth_period(signal, params, period, step, dense=True)
    lam, xp, s = params.lam, traj.states, scan.int_sigma[-1:]
    x_star = (s / period) / (lam + s / period)
    rate_w = (lam + scan.sigma) * scan.weight          # Gauss weights, 0 at step boundaries
    dev = xp - x_star
    m1, m2, gap = (np.dot(rate_w, y)[None] for y in (xp, xp * xp, dev * dev))
    return _reports(SimpleNamespace(lam=lam, period=period, s=s, x_star=x_star,
                                    i_p=traj.cumulative_x[-1:], m1=m1, m2=m2, gap=gap))[0]


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
    kernel = _PeriodRows([signal.levels], [signal.durations], params.lam)
    return _period_states_rows(kernel, dynamics._check_occupancy(x0), n_periods)[:, 0]


def _period_states_rows(kernel: _PeriodRows, x0, n_periods: int) -> np.ndarray:
    """x at 0, T, ..., n_periods*T for every row of `kernel`, from x0.

    x0 broadcasts against the rows, so starts of shape (2, 1) walk two
    starts per row at once. A step-by-step walk, one column pass x <- d x + x_inf g
    per segment per period, never the period map: it is what the
    contraction check observes. Returns an (n_periods + 1,) + broadcast
    shape array.
    """
    steps = list(_segment_columns(kernel.d, kernel.x_inf * kernel.g))
    out = np.empty((n_periods + 1,) + np.broadcast(x0, kernel.b).shape)
    out[0] = x0
    x = out[0].item() if out[0].size == 1 else out[0].copy()
    for n in range(1, n_periods + 1):
        for d, b in steps:
            x = x * d + b
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

