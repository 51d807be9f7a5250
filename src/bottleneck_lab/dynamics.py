"""Forward solution of x'(t) = sigma(t) (1 - x(t)) - lam x(t).

Every step of either integration path is an affine map x -> A x + B of
the state, so both paths compose affine maps rather than step through
them one at a time in Python.

* Piecewise-constant inflow (`PiecewiseConstant`, which is also what
  `Constant` and `Sampled` return) is propagated exactly. On a segment
  with level c the equation is linear with constant coefficients,
  attractor x_inf = c / (lam + c) and rate r = lam + c, so

      x(t0 + h) = x_inf + (x(t0) - x_inf) e^{-r h},
      int_{t0}^{t0+h} x = x_inf h + (x(t0) - x_inf) h phi(r h),

  with phi(z) = (1 - e^{-z}) / z and phi(0) = 1. Nothing is walked: each
  record time is a closed form of the period map (whole cycles), prefix
  tables of the segment maps (whole segments) and one partial step,
  vectorized over rows of signals, records and segments (`_exact_rows`).
  Trajectories and running integrals are exact up to rounding, which is
  what makes the identity residuals downstream meaningful.

* Smooth inflow (clipped sinusoid sums) uses classical fourth-order
  one-step integration on a fixed grid. Because the right-hand side is
  affine in x, each step reduces to x <- A_i x + B_i with A, B computed
  vectorized from the inflow samples. One chunked prefix scan of those maps
  (`_smooth_scan`) steps the smooth path for `smooth_pass`, `simulate` and
  the periodic module. It carries the state and its slope in x0, so one
  scan from 0 gives every start's solution, and takes the running integrals
  of x and sigma as trapezoid sums on the same nodes.

States live in [0, 1] by the model's premise. The numeric path clamps
overshoots below OVERSHOOT_TOL (pure rounding) and aborts on anything
larger, or on a state that is not finite, so an unstable step size fails
loudly instead of being smoothed over.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .signals import (
    ClippedSinusoidSum,
    InputSignal,
    PiecewiseConstant,
    QuadratureSpec,
    SignalError,
    SystemParams,
    _pad_rows,
    _segment_index,
    evaluate_array,
    max_level,
    period_of,
)

__all__ = [
    "DomainError",
    "StepSizeError",
    "Trajectory",
    "simulate",
    "default_step",
    "numeric_step",
    "exact_pass",
    "smooth_pass",
    "trajectory_to_csv",
    "OVERSHOOT_TOL",
]

# Overshoot beyond [0, 1] below this is attributed to rounding and clamped;
# anything larger aborts the run.
OVERSHOOT_TOL = 1e-12

# Dense recording default: about this many rows per simulate() call.
_RECORD_POINTS = 1000


class DomainError(ValueError):
    """An input left the model's domain (occupancy outside [0, 1], bad range)."""


class StepSizeError(RuntimeError):
    """The numeric stepper produced an overshoot too large to be rounding."""


@dataclass(frozen=True)
class Trajectory:
    """A sampled solution x(t) with its running integral.

    times         strictly increasing grid, times[0] is the start
    states        occupancy x(t_i), each in [0, 1]
    cumulative_x  int_{times[0]}^{t_i} x(s) ds, non-decreasing, starts at 0
    """

    times: np.ndarray
    states: np.ndarray
    cumulative_x: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        object.__setattr__(self, "cumulative_x", np.asarray(self.cumulative_x, dtype=float))

    @property
    def final_state(self) -> float:
        return float(self.states[-1])

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def _check_occupancy(x0: float) -> float:
    x0 = float(x0)
    if not (0.0 <= x0 <= 1.0):
        raise DomainError(f"occupancy must lie in [0, 1], got {x0}")
    return x0


def default_step(signal: InputSignal, params: SystemParams) -> float:
    """Fixed step for the numeric path, resolving the fastest time constant.

    min(0.01 / lam, 0.01 / (1 + max sigma), T / 1e4) with the period term
    dropped for aperiodic signals.
    """
    candidates = [0.01 / params.lam, 0.01 / (1.0 + max_level(signal))]
    period = period_of(signal)
    if period is not None:
        candidates.append(period / 1e4)
    return min(candidates)


def numeric_step(
    signal: InputSignal, params: SystemParams, grid: QuadratureSpec | None = None
) -> float | None:
    """Step the numeric path takes on this input: `grid.step`, else `default_step`.

    None for piecewise-constant input, which is propagated exactly.
    """
    if not isinstance(signal, ClippedSinusoidSum):
        return None
    return (grid or QuadratureSpec()).resolve(default_step(signal, params))


# ---------------------------------------------------------------------------
# Exact path: closed form at every record time, rows of signals at once
# ---------------------------------------------------------------------------

# Tables of cycles after the first are built for at most this many entries,
# segments x (row, cycle) pairs, at a time (8 MB per table).
_BLOCK_ENTRIES = 1 << 20


class _Segments:
    """Per-segment terms of an (N, k) batch of levels c and durations h.

    Padding segments (`signals._pad_rows`: level 0, width 0) are exact
    identity maps. A finite level whose rate overflows raises SignalError,
    as x_inf would silently read 0. As (k, N) columns: r = lam + c, x_inf = c / r,
    g = 1 - e^{-r h} = -expm1(-r h), d = e^{-r h} and w = h phi(r h), with
    phi(z) = (1 - e^{-z}) / z and phi(0) = 1. `lam` is a scalar or per row.
    d is never 1 - g, whose absolute error of 1e-16 would spoil long decays.
    """

    def __init__(self, levels, durations, lam) -> None:
        levels = np.asarray(levels, dtype=float)
        self.c = c = np.ascontiguousarray(levels.T)
        self.h = h = np.ascontiguousarray(np.broadcast_to(durations, levels.shape).T)
        self.lam = lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):
            self.r = r = lam + c
        if not np.isfinite(r).all() and (np.isinf(r) & np.isfinite(c)).any():
            raise SignalError(f"lam + level overflows: lam={float(np.max(lam))!r}, "
                              f"level={float(c.max())!r}")
        self.rh = rh = r * h
        self.x_inf = c / r
        self.g = g = -np.expm1(-rh)
        self.w = h * np.divide(g, rh, out=np.ones_like(g), where=rh > 0.0)
        self.d = np.exp(-rh)


class _SegmentTables(_Segments):
    """Segments with (k + 1, N) tables at the segment starts, from the row's
    start: the state P x0 + Q (`_affine_prefix` of the maps x -> d x + x_inf g),
    int x = U + V x0 and int sigma = S. Entry i reads segments 0..i-1 of its
    own column only, so no padding leaks into a row's first k + 1 entries.
    """

    def __init__(self, levels, durations, lam) -> None:
        super().__init__(levels, durations, lam)
        n = self.c.shape[1]

        def at_starts(prefix, first=0.0):
            return np.concatenate((np.full((1, n), first), prefix))

        P, Q = _affine_prefix(self.d.copy(), self.x_inf * self.g)
        self.P, self.Q = P, Q = at_starts(P, 1.0), at_starts(Q)
        self.U = at_starts(np.cumsum(self.x_inf * self.h + (Q[:-1] - self.x_inf) * self.w, axis=0))
        self.V = at_starts(np.cumsum(P[:-1] * self.w, axis=0))
        self.S = at_starts(np.cumsum(self.c * self.h, axis=0))


def _exact_rows(levels, breakpoints, periodic, lam, x0, record_times):
    """Exact states and running integrals of x and sigma at the record times.

    Rows are padded signals (`signals._pad_rows`) with one lam and one x0
    each; `record_times` is (M,), shared by the rows, or (N, M). Returns
    (states, cumulative_x, cumulative_sigma), each (N, M). Time t lies in
    segment i of cycle c (`signals._segment_index`; aperiodic rows have
    c = 0). Cycle 0's tables give the period map x -> a x + b, a = e^{-R},
    its fixed point x_p = b / (1 - a), 1 - a = -expm1(-R), the orbit's
    integral I_p and the slope p of int_0^T x in x0: cycle c starts at
    x_p + (x0 - x_p) a^c with int x = c I_p + p (x0 - x_p)(1 - a^c)/(1 - a)
    and int sigma = c S. Tables carry that to segment i, one partial step
    to t. Cycle c > 0 spans the differences of its boundary sums (c-1)*T + T,
    c*T + t_i, so each (row, cycle) pair met gets tables of those widths.
    """
    lam, x0 = np.asarray(lam, dtype=float), np.asarray(x0, dtype=float)
    cycle, seg = _segment_index(breakpoints, periodic, record_times)
    first = _SegmentTables(levels, np.diff(breakpoints, axis=1), lam)
    end = np.count_nonzero(first.h > 0.0, axis=0), np.arange(len(levels))   # period ends
    rate = np.cumsum(first.rh, axis=0)[-1]
    one_minus_a = -np.expm1(-rate)
    # R is 0 only when every r h underflows, and then b is 0 too.
    x_p = first.Q[end] / np.maximum(one_minus_a, math.ulp(0.0))
    p = first.V[end]
    i_p = first.U[end] + p * x_p

    c, i = cycle.ravel(), seg.ravel()
    row = np.repeat(np.arange(len(levels)), cycle.shape[1])
    t = np.broadcast_to(record_times, cycle.shape).ravel()
    delta = (x0 - x_p)[row]
    ratio = np.divide(-np.expm1(-c * rate[row]), one_minus_a[row], out=c.copy(),
                      where=one_minus_a[row] > 0.0)
    start_x = np.where(c > 0, x_p[row] + delta * np.exp(-c * rate[row]), x0[row])
    start_ix = c * i_p[row] + p[row] * delta * ratio
    start_is = c * first.S[end][row]
    out = np.empty((3, c.size))

    def finish(tab, bounds, col, e):     # entries e, by column col of the tables
        ie, x_c = i[e], start_x[e]
        x = tab.P[ie, col] * x_c + tab.Q[ie, col]
        int_x = start_ix[e] + tab.U[ie, col] + tab.V[ie, col] * x_c
        span = t[e] - bounds[col, ie]
        x_inf = tab.x_inf[ie, col]
        rs = tab.r[ie, col] * span
        g = -np.expm1(-rs)
        w = span * np.divide(g, rs, out=np.ones_like(g), where=rs > 0.0)   # s phi(r s)
        out[0, e] = np.clip(x_inf + (x - x_inf) * np.exp(-rs), 0.0, 1.0)
        out[1, e] = int_x + x_inf * span + (x - x_inf) * w
        out[2, e] = start_is[e] + tab.S[ie, col] + tab.c[ie, col] * span

    e = np.flatnonzero(c == 0)
    finish(first, breakpoints, row[e], e)
    # Later pairs are runs of equal (row, cycle): one per cycle met when
    # the record times are sorted.
    later = np.flatnonzero(c > 0)
    opens = np.ones(later.size, dtype=bool)
    opens[1:] = (row[later[1:]] != row[later[:-1]]) | (c[later[1:]] != c[later[:-1]])
    starts = np.append(np.flatnonzero(opens), later.size)
    chunk = max(1, _BLOCK_ENTRIES // (levels.shape[1] + 1))
    for j in range(0, starts.size - 1, chunk):
        run = slice(starts[j], starts[min(j + chunk, starts.size - 1)])
        e, pair = later[run], np.cumsum(opens[run]) - 1
        prow, pcycle = row[e][opens[run]], c[e][opens[run]][:, None]
        period = breakpoints[prow, -1:]
        bounds = np.concatenate(((pcycle - 1) * period + period,
                                 pcycle * period + breakpoints[prow, 1:]), axis=1)
        finish(_SegmentTables(levels[prow], np.diff(bounds, axis=1), lam[prow]), bounds, pair, e)
    return tuple(a.reshape(cycle.shape) for a in out)


def exact_pass(
    signal: PiecewiseConstant,
    params: SystemParams,
    x0: float,
    record_times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate exactly, recording at the given times.

    Returns (states, cumulative_x, cumulative_sigma) aligned with
    `record_times`, which must be non-decreasing and non-negative. Every
    entry is a closed form of its own record time (`_exact_rows` on one
    row), so no error accumulates along the record list.
    """
    record_times = np.asarray(record_times, dtype=float)
    if record_times.size and record_times[0] < 0.0:
        raise DomainError("record times must be non-negative")
    rows = _exact_rows(*_pad_rows([signal]), [params.lam], [_check_occupancy(x0)], record_times)
    return tuple(a[0] for a in rows)


# ---------------------------------------------------------------------------
# Numeric path: affine one-step coefficients from inflow samples
# ---------------------------------------------------------------------------

# Steps per vectorized chunk of a smooth scan. Its few dozen working arrays
# (about 0.6 MB) stay in cache: on a 2-vCPU AMD EPYC VM, 2^11 ran the
# benchmark's smooth ops faster than 2^10 or 2^16, and within 15% of the
# fastest, 2^12, at a lower peak RSS.
_CHUNK_STEPS = 1 << 11


def _affine_step_coeffs(s0, sm, s1, lam: float, h):
    """Coefficients (A, B) of one classical 4th-order step x <- A x + B.

    s0, sm, s1 are sigma at the step start, midpoint and end. Works on
    scalars or arrays, h too. Derived by propagating k = u + v x through the
    four stage evaluations of the affine right-hand side f = sigma - (lam+sigma) x.
    """
    r0 = lam + s0
    rm = lam + sm
    r1 = lam + s1
    u1 = s0
    v1 = -r0
    u2 = sm - 0.5 * h * rm * u1
    v2 = -rm * (1.0 + 0.5 * h * v1)
    u3 = sm - 0.5 * h * rm * u2
    v3 = -rm * (1.0 + 0.5 * h * v2)
    u4 = s1 - h * r1 * u3
    v4 = -r1 * (1.0 + h * v3)
    B = (h / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
    A = 1.0 + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    return A, B


def _affine_prefix(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix compositions of the maps x <- A[i] x + B[i], in place.

    Works along the first axis, so 2-D (k, N) input composes N columns at
    once. Returns (P, Q) with x_{i+1} = P[i] x_0 + Q[i], by Hillis-Steele
    doubling: after the pass with offset d, entry i holds the composition
    of steps i-2d+1 .. i, so log2(n) passes cover every prefix.
    """
    P, Q = A, B
    d = 1
    while d < len(P):
        Q[d:] += P[d:] * Q[:-d]
        P[d:] *= P[:-d]
        d *= 2
    return P, Q


# `_smooth_scan` at its kept nodes: the state x from x0, its slope p in x0
# (the product of the step factors), sigma and their running integrals from 0.
_Scan = namedtuple("_Scan", "t x p sigma int_x int_p int_sigma")


def _clip_states(xs: np.ndarray, t: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Clamp states to [0, 1]; StepSizeError, naming the time t[i] and step h[i],
    for a state off by OVERSHOOT_TOL or more or not finite."""
    bad = ~((xs > -OVERSHOOT_TOL) & (xs < 1.0 + OVERSHOOT_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        over = max(-xs[i], xs[i] - 1.0)
        raise StepSizeError(
            f"state left [0, 1] by {over:.3e} at t={t[i]:.6g}; "
            f"reduce the integration step (h={h[i]:.3e})"
        )
    return np.clip(xs, 0.0, 1.0)


def _smooth_scan(signal: InputSignal, lam: float, x0: float, record_times, step: float,
                 dense: bool = False) -> _Scan:
    """The one RK4 integrator: a chunked prefix scan from t = 0 through the record times.

    Each gap between record times (from 0) takes max(1, ceil(gap / step))
    equal steps, a repeated record time none. sigma is evaluated once at
    each node and midpoint; `_affine_prefix` composes the steps' maps one
    chunk of at most _CHUNK_STEPS at a time, carrying x and p. Integrals are
    trapezoid sums. Returns values at the record times or, with `dense`, at
    every node; unless `dense`, memory is bounded by _CHUNK_STEPS.
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    ends = np.fmax.accumulate(np.concatenate(([0.0], np.asarray(record_times, dtype=float))))
    gaps = np.diff(ends)
    with np.errstate(over="ignore"):
        counts = np.where(gaps > 0.0, np.maximum(1.0, np.ceil(gaps / step)), 0.0)
    if not counts.sum() < 2.0 ** 63:    # the int64 node index would wrap
        raise DomainError(f"step {step!r} needs {counts.sum():.3g} steps to reach "
                          f"t={float(ends[-1])!r}, more than int64 holds")
    counts = counts.astype(np.int64)
    first = np.concatenate(([0], np.cumsum(counts)))           # node index of each end
    widths = np.append(np.divide(gaps, counts, out=np.zeros_like(gaps), where=counts > 0), 0.0)
    n = int(first[-1])
    keep = np.arange(n + 1) if dense else first[1:]
    out = np.empty((7, keep.size))
    x, p, carry = x0, 1.0, np.zeros((3, 1))
    # With no step at all, one empty chunk still records the start node.
    for i0 in range(0, max(n, 1), _CHUNK_STEPS):
        i1 = min(i0 + _CHUNK_STEPS, n)
        node = np.arange(i0, i1 + 1)
        k = np.searchsorted(first, node, side="right") - 1
        j, h = node - first[k], widths[k]
        samples = np.empty(2 * node.size - 1)
        samples[0::2] = t = ends[k] + j * h
        samples[1::2] = ends[k[:-1]] + (j[:-1] + 0.5) * h[:-1]
        sig = evaluate_array(signal, samples)
        s, h = sig[0::2], h[:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            A, B = _affine_step_coeffs(s[:-1], sig[1::2], s[1:], lam, h)
            P, Q = _affine_prefix(A, B)
            xs = P * x + Q
        ys = np.vstack((t, np.r_[x, _clip_states(xs, t[1:], h)], np.r_[p, P * p], s))
        steps = np.cumsum(0.5 * h * (ys[1:, :-1] + ys[1:, 1:]), axis=1)
        ints = np.concatenate((carry, carry + steps), axis=1)
        lo, hi = np.searchsorted(keep, [i0, i1 + 1])
        at = keep[lo:hi] - i0
        out[:4, lo:hi], out[4:, lo:hi] = ys[:, at], ints[:, at]
        x, p, carry = ys[1, -1], ys[2, -1], ints[:, -1:]
    return _Scan(*out)


def smooth_pass(
    signal: InputSignal,
    params: SystemParams,
    x0: float,
    record_times: np.ndarray,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numeric counterpart of exact_pass for smooth inflow.

    Each interval between consecutive record times is integrated with a
    locally uniform step no larger than `step`, in one `_smooth_scan`.
    """
    scan = _smooth_scan(signal, params.lam, _check_occupancy(x0), record_times, step)
    return scan.x, scan.int_x, scan.int_sigma


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def _merge_record_grid(pw: PiecewiseConstant, horizon: float, record_step: float) -> np.ndarray:
    """Union of segment boundaries and a uniform grid on [0, horizon].

    Boundaries are the sums c*T + t_i that `signals._segment_index` reads;
    every cycle with c*T < horizon is among the ceil(horizon / T) + 1 rows
    of the table.
    """
    n = max(1, round(horizon / record_step))
    uniform = np.linspace(0.0, horizon, n + 1)
    bounds = np.asarray(pw.breakpoints[1:])
    if pw.periodic:
        cycles = np.arange(math.ceil(horizon / pw.duration) + 1)
        bounds = np.add.outer(cycles * pw.duration, bounds).ravel()
    return np.union1d(uniform, bounds[bounds < horizon])


def simulate(
    signal: InputSignal,
    params: SystemParams,
    x0: float,
    horizon: float,
    grid: QuadratureSpec | None = None,
) -> Trajectory:
    """Solve the model forward on [0, horizon] from occupancy x0.

    Piecewise-constant inflow is propagated exactly through the union of
    segment boundaries and recording grid points; smooth inflow uses the
    fixed-step numeric integrator (step from `numeric_step`).
    """
    x0 = _check_occupancy(x0)
    if horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    grid = grid or QuadratureSpec()

    step = numeric_step(signal, params, grid)
    if step is not None:
        scan = _smooth_scan(signal, params.lam, x0, [horizon], step, dense=True)
        return Trajectory(scan.t, scan.x, scan.int_x)

    record_step = grid.resolve(horizon / _RECORD_POINTS)
    times = _merge_record_grid(signal, horizon, record_step)
    states, cum_x, _ = exact_pass(signal, params, x0, times)
    return Trajectory(times, states, cum_x)


def trajectory_to_csv(traj: Trajectory, signal: InputSignal, fh) -> None:
    """Write t, x, sigma, cumulative_x rows with full double round-trip formatting."""
    fh.write("t,x,sigma,cumulative_x\n")
    sigma = evaluate_array(signal, traj.times).tolist()
    for t, x, s, c in zip(traj.times.tolist(), traj.states.tolist(), sigma,
                          traj.cumulative_x.tolist()):
        fh.write(f"{t!r},{x!r},{s!r},{c!r}\n")
