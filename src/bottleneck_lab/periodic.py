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
(N, k) rows of levels and durations, `_PeriodRows`: the exact path's prefix
tables of the segment maps (`dynamics._SegmentTables`), with the map's
exponent R = int_0^T (lam + sigma), its offset b, the fixed point
x_p(0) = b / (1 - a) with 1 - a = -expm1(-R) (never 1 - e^{-R} by
subtraction, which loses every digit once R is below double precision, as
at nanosecond periods), the orbit's deviations and I_p = int_0^T x_p, and
on request the moment integrals or the gradient of w in the levels and
durations. Reports, one-period maps, the contraction walk, the search's
candidate waveforms and the verification suites are rows of it.
On smooth inflow one chunked scan of the period from 0 gives the map and,
summed about x_star (`gap_report`), every period integral as a Gauss sum on
the nodes of its steps; int sigma, and so sigma_bar, is exact, so the
residuals stay at rounding level there too. The scan forms x_star itself,
from its own int sigma, so no separate search for the clip points of the
period runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import dynamics
from .signals import (
    InputSignal,
    SignalError,
    SystemParams,
    require_period,
    signal_to_dict,
)

__all__ = [
    "PoincareMap",
    "PeriodicReport",
    "poincare_map",
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

# Segments per block of `output_for_level_rows`.
_BLOCK_VALUES = 1 << 12


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
        object.__setattr__(self, "b", _map_columns([self.rate], [self.b])[1].item())

    @property
    def a(self) -> float:
        return math.exp(-self.rate)

    @property
    def fixed_point(self) -> float:
        return self.b / -math.expm1(-self.rate)


def _map_columns(rate, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, x_p) of rows of one-period maps, as `PoincareMap` checks and
    clamps them: the first row with rate outside (0, inf), or b outside
    [0, 1 - a] by more than _MAP_TOL, raises SignalError, and sub-ulp rounding
    is absorbed. a and 1 - a are each row's math.exp and math.expm1."""
    rate, b = np.asarray(rate, dtype=float), np.asarray(b, dtype=float)
    valid = (0.0 < rate) & (rate < math.inf)
    rates = np.where(valid, rate, math.nan).tolist()     # math.expm1(-rate) overflows below -709
    one_minus_a = np.array([-math.expm1(-r) for r in rates])
    bad = ~valid | (b < -_MAP_TOL) | (b > one_minus_a + _MAP_TOL)
    if bad.any():
        i = int(bad.argmax())
        if not valid[i]:
            raise SignalError(f"decay exponent must be positive and finite: rate={rate[i].item()}")
        raise SignalError(f"offset out of range: a={math.exp(-rates[i])}, b={b[i].item()}")
    b = np.where(0.0 > b, 0.0, b)       # min(max(b, 0.0), 1 - a), in Python's comparison order
    b = np.where(one_minus_a < b, one_minus_a, b)
    return np.array([math.exp(-r) for r in rates]), b, b / one_minus_a


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
# Poincare map
# ---------------------------------------------------------------------------

def poincare_map(signal: InputSignal, params: SystemParams) -> PoincareMap:
    """Build the one-period map x(T) = a x(0) + b.

    On piecewise-constant inflow both R and b come from the closed-form
    period kernel. On smooth inflow b is the end state of one scan of the
    period from 0 and R = lam T + its exact int sigma, not the step factors'
    product, which underflows once R > 745, nor its -log.
    """
    period = require_period(signal)
    step = dynamics.numeric_step(signal, params)
    if step is None:
        kernel = _PeriodRows([signal.levels], [signal.durations], params.lam)
        return PoincareMap(rate=float(kernel.rate[0]), b=float(kernel.b[0]))
    scan = dynamics._smooth_scan(signal, params.lam, 0.0, [period], step)
    return PoincareMap(rate=params.lam * period + float(scan.int_sigma[0]), b=float(scan.x[0]))


def constant_benchmark(sigma_bar: float, params: SystemParams) -> float:
    """Averaged output of constant inflow at rate sigma_bar: lam s / (lam + s)
    where lam s is a finite normal number; else a (b / (lam + s)), a and b the
    smaller and larger of lam and s, whose quotient lies in [1/2, 1], so an
    overflowed or underflowed lam s costs nothing; SignalError if lam + s
    overflows."""
    if sigma_bar < 0.0:
        raise dynamics.DomainError(f"mean inflow must be non-negative, got {sigma_bar}")
    if sigma_bar == 0.0:
        return 0.0
    lam = params.lam
    if not math.isfinite(lam + sigma_bar):
        raise SignalError(f"lam + mean inflow overflows: lam={lam!r}, mean={sigma_bar!r}")
    product = lam * sigma_bar
    if sys.float_info.min <= product < math.inf:
        return product / (lam + sigma_bar)
    small, large = sorted((lam, sigma_bar))
    return small * (large / (lam + sigma_bar))


# ---------------------------------------------------------------------------
# Closed-form period integrals (piecewise-constant inflow)
# ---------------------------------------------------------------------------

class _PeriodRows(dynamics._SegmentTables):
    """One period of each row: the period kernel of the reports, maps and search.

    The period map (`rate`, `b`), the orbit's start `x_p`, its deviations
    `delta` and `i_p` = int_0^T x_p are the segment tables'. With `moments`,
    also `s` = int_0^T sigma, `x_star` and the integrals of (lam + sigma)
    times x_p (`m1`), x_p^2 (`m2`) and (x_p - x_star)^2 (`gap`); with
    `gradient`, `dw_dc` and `dw_dh`, the gradient of w = lam i_p / T in each
    row's levels and durations. The moments are summed in segment order
    (`cumsum`), and no value of a row depends on its batch or its padding.
    """

    def __init__(self, levels, durations, lam, moments: bool = False,
                 gradient: bool = False) -> None:
        super().__init__(levels, durations, lam)
        if gradient:
            self._adjoint()
        if moments:
            c, h, r, x_inf, g, delta = self.c, self.h, self.r, self.x_inf, self.g, self.delta
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

    def _adjoint(self) -> None:
        """`dw_dc` and `dw_dh` by reverse-mode differentiation of the value
        path, for i_p / T and then times lam. From the row's end back, the
        adjoint of the state after a segment obeys after <- d after + w / T,
        and the product of the later d carries b's back through
        b <- x_inf g + b d (`carry`): one `_affine_prefix` over each row's
        segments reversed in place (padding stays at the end), whose full
        prefix is x_p's adjoint, and x_p = b / (1 - e^{-R}) gives b's and R's.
        m gathers the terms that dc and dh share. Chain rules: dg = d d(r h) = -dd,
        dw/dh = d, dw/dc = -h^2 psi(r h), dx_inf/dc = lam / r^2.
        """
        h, r, x_inf, g, d, w, delta = self.h, self.r, self.x_inf, self.g, self.d, self.w, self.delta
        ibar = 1.0 / self.period                        # d(i_p / T) / d i_p
        tbar = -(ibar * self.i_p) / self.period         # d(i_p / T) / dT
        rev = read = slice(None, None, -1)
        if self.padded:     # each row reversed before its padding (an involution)
            k, n = h.shape
            last, at = self.end // n, np.arange(k)[:, None]
            rev = np.where(at < last, last - 1 - at, at), np.arange(n)
            read = np.where(at < last, last - 1 - at, 0), rev[1]    # nothing follows the end
        A, B = dynamics._affine_prefix(d[rev], ibar * w[rev])
        bbar = B.take(self.end) / np.maximum(self.one_minus_a, math.ulp(0.0))
        rbar = -bbar * self.x_p * np.exp(-self.rate)
        carry, after = bbar * A[:-1][read], B[:-1][read]
        # psi(z) = (1 - (1 + z) e^{-z}) / z^2 = (g / z - d) / z, and below
        # z = 0.02, where that cancels, its series
        z = np.maximum(self.rh, 0.02)
        psi, small = (g / z - d) / z, self.rh < 0.02
        if small.any():
            s = self.rh[small]
            psi[small] = 0.5 + s * (-1 / 3 + s * (1 / 8 + s * (-1 / 30 + s * (
                1 / 144 + s * (-1 / 840 + s / 5760)))))
        slope = self.lam / r / r                        # dx_inf / dc
        dd = delta * d
        m = carry * (x_inf - self.Q[:-1]) * d - after * dd + rbar
        self.dw_dh = (self.lam * (ibar * (x_inf + dd) + tbar + r * m)).T
        self.dw_dc = (self.lam * ((ibar * (h - w) + (after + carry) * g) * slope
                                  + h * (m - ibar * delta * h * psi))).T


def output_for_levels(levels, durations, lam: float) -> float:
    """Averaged output for one period given segment levels and durations."""
    return float(output_for_level_rows([levels], [durations], lam)[0])


def output_for_level_rows(levels, durations, lam: float) -> np.ndarray:
    """Averaged output of each row of an (N, k) array of candidate waveforms.

    `durations` is (N, k) or broadcasts to it. Rows run in blocks of
    _BLOCK_VALUES segments, whose small temporaries the allocator reuses; a
    4096 x 4 grid in one block faulted in a megabyte of fresh pages a call.
    """
    levels = np.asarray(levels, dtype=float)
    durations = np.broadcast_to(durations, levels.shape)
    rows = max(1, _BLOCK_VALUES // max(1, levels.shape[1]))
    out = np.empty(len(levels))
    for i in range(0, len(levels), rows):
        kernel = _PeriodRows(levels[i:i + rows], durations[i:i + rows], lam)
        with np.errstate(over="ignore"):    # an overflowed w reads inf
            out[i:i + rows] = lam * kernel.i_p / kernel.period
    return out


def _report_columns(sums) -> np.ndarray:
    """The `PeriodicReport` fields of each row of period integrals, as an
    (8, N) array in field order: a `_PeriodRows` built with `moments`, or
    the Gauss sums of a smooth `gap_report`."""
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
    return np.array(columns)


def gap_report(signal: InputSignal, params: SystemParams) -> PeriodicReport:
    """Full periodic report: averages, benchmark, gap, identity residuals.

    The gap and both moment integrals are evaluated independently of the
    averaged-output bookkeeping, so the residuals are genuine consistency
    checks, not algebraic rearrangements of each other. On smooth inflow
    one scan of the period from 0 gives x_p = b / (1 - a), which keeps its
    digits where x(T) - c from a start at c would not, and the `_Scan.sums`
    about c = x_star: the scan centers each chunk at the x* of its own exact
    int sigma so far and ends at the period's, the same operations on the
    same values as x_star here (the unclipped mean, far from it on clipped
    inflow, would cancel as 0 does). The orbit is c + u + p (x_p - c) at the
    nodes, so m1, m2 and the gap add terms of the deviations' size, and the
    gap is the sum of (u + p (x_p - c))^2 alone.
    A period integral past float max raises SignalError.
    """
    period = require_period(signal)
    step = dynamics.numeric_step(signal, params)
    if step is None:
        with np.errstate(over="ignore", invalid="ignore"):     # an overflow raises below
            sums = _PeriodRows([signal.levels], [signal.durations], params.lam, moments=True)
    else:
        lam = params.lam
        scan = dynamics._smooth_scan(signal, lam, 0.0, [period], step, sums=True)
        s = scan.int_sigma
        rate = lam * period + float(s[0])
        x_p = PoincareMap(rate=rate, b=float(scan.x[0])).fixed_point
        x_star = (s / period) / (lam + s / period)      # the scan's final center, bit for bit
        n, u, p, uu, up, pp = scan.sums
        delta = x_p - x_star
        v, vv = u + delta * p, uu + delta * (2.0 * up + delta * pp)
        sums = SimpleNamespace(lam=lam, period=period, rate=rate, s=s, x_star=x_star,
                               i_p=scan.int_x + scan.int_p * x_p, m1=x_star * n + v,
                               m2=x_star * (x_star * n + 2.0 * v) + vv, gap=vv)
    with np.errstate(over="ignore", invalid="ignore"):
        columns, rate = _report_columns(sums)[:, 0], float(np.max(sums.rate))
    if not (math.isfinite(rate) and np.isfinite(columns).all()):
        raise SignalError(f"a period integral overflows double precision: "
                          f"int_0^T (lam + sigma) dt = {rate!r} at lam={params.lam!r}")
    return PeriodicReport(*columns.tolist())


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
    starts per row at once. Each period is one step of the composed map
    x <- P[end] x + Q[end], whose factor is the product of the segments'
    e^{-r h}, never the closed form e^{-R} that the contraction check
    compares against. Returns an (n_periods + 1,) + broadcast shape array.
    """
    a, b = kernel.P.take(kernel.end), kernel.b
    out = np.empty((n_periods + 1,) + np.broadcast(x0, b).shape)
    out[0] = x0
    for n in range(1, n_periods + 1):
        out[n] = out[n - 1] * a + b
    return out


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

REPORT_CSV_HEADER = ",".join(("lam", "period", *(f.name for f in fields(PeriodicReport))))


def reports_to_csv(rows, fh) -> None:
    """Write one CSV row per (signal, params, report) experiment."""
    fh.write(REPORT_CSV_HEADER + "\n")
    table = np.array([(params.lam, require_period(signal), *astuple(report))
                      for signal, params, report in rows], dtype=np.float64)
    dynamics._write_rows(fh, *table.reshape(-1, REPORT_CSV_HEADER.count(",") + 1).T)


def report_to_json_dict(
    signal: InputSignal,
    params: SystemParams,
    report: PeriodicReport,
    grid_step: float | None = None,
) -> dict:
    """JSON form of a report with provenance (inflow description, lam, step used)."""
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

