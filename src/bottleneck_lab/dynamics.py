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

  with phi(z) = (1 - e^{-z}) / z and phi(0) = 1. An event walk chains
  these across segment boundaries and requested grid points. On a
  periodic signal it jumps the whole cycles before the next record time
  through the one-period map x -> a x + b of `_PeriodJump`, the one
  closed-form period kernel, which `periodic` reads too. Trajectories and
  running integrals are exact up to rounding, which is what makes the
  identity residuals downstream meaningful.

* Smooth inflow (clipped sinusoid sums) uses classical fourth-order
  one-step integration on a fixed grid. Because the right-hand side is
  affine in x, each step reduces to x <- A_i x + B_i with A, B computed
  vectorized from the inflow samples, and a prefix scan composes them
  (`_affine_prefix`). Running integrals of x and sigma are trapezoid sums
  on the same grid.

States live in [0, 1] by the model's premise. The numeric path clamps
overshoots below OVERSHOOT_TOL (pure rounding) and aborts on anything
larger, or on a state that is not finite, so an unstable step size fails
loudly instead of being smoothed over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import (
    ClippedSinusoidSum,
    InputSignal,
    PiecewiseConstant,
    QuadratureSpec,
    SystemParams,
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
# Exact path: event walk over constant segments, whole periods in closed form
# ---------------------------------------------------------------------------

class _PeriodJump:
    """One period of piecewise-constant inflow, levels c and durations h.

    The walk's cycle jumps and every closed-form quantity of `periodic`
    read this kernel. Per segment r = lam + c, x_inf = c / r,
    g = 1 - e^{-r h} and w = int_0^h e^{-r s} ds = h phi(r h). Over one
    period the flow is x -> a x + b with a = e^{-R}, R = sum r h; b is
    summed as b <- x_inf g + b (1 - g), which does not cancel when g is
    small, and 1 - a = -expm1(-R), so x_p = b / (1 - a), the periodic
    orbit's start, keeps full relative precision however weak the
    contraction. The period integral of x has slope p in the start state;
    I_p is the periodic orbit's and S that of sigma. From x at a cycle
    start, m cycles later

        x_m     = x_p + (x - x_p) a^m,
        int x   = m I_p + p (x - x_p) (1 - a^m) / (1 - a),
        int sig = m S,

    where (1 - a^m) / (1 - a) is m when R underflows to 0.
    """

    # Slots and hand-written lazy properties, not functools.cached_property:
    # before Python 3.12 its first read takes a lock, which costs the search
    # loop's output_for_levels about a quarter of its time.
    __slots__ = ("segments", "rate", "sigma_int", "b", "one_minus_a", "x_p", "_i_p", "_p")

    def __init__(self, levels, durations, lam: float) -> None:
        segments = []   # (x_inf, g, w, r, h) per segment
        rate = sigma_int = b = 0.0
        for c, h in zip(levels, durations):
            r = lam + c
            rh = r * h
            g = -math.expm1(-rh)
            x_inf = c / r
            segments.append((x_inf, g, h * (g / rh) if rh else h, r, h))
            rate += rh
            sigma_int += c * h
            b = x_inf * g + b * (1.0 - g)
        self.segments, self.rate, self.sigma_int, self.b = segments, rate, sigma_int, b
        self.one_minus_a = -math.expm1(-rate)
        # R is 0 only when every r h underflows, and then b is 0 too.
        self.x_p = b / self.one_minus_a if rate else 0.0
        self._i_p = self._p = None

    @property
    def i_p(self) -> float:
        """int_0^T x_p, the period integral of the periodic orbit."""
        if self._i_p is None:
            x = self.x_p
            total = 0.0
            for x_inf, g, w, _, h in self.segments:
                delta = x - x_inf
                total += x_inf * h + delta * w
                x = x_inf + delta * (1.0 - g)
            self._i_p = total
        return self._i_p

    @property
    def p(self) -> float:
        """d int_0^T x / d x(0)."""
        if self._p is None:
            slope = 1.0     # d x(segment start) / d x(0)
            total = 0.0
            for _, g, w, _, _ in self.segments:
                total += slope * w
                slope *= 1.0 - g
            self._p = total
        return self._p

    def advance(self, x: float, m: int) -> tuple[float, float, float]:
        """(x_m, int x, int sigma) over m whole cycles from x at a cycle start."""
        decay = math.exp(-m * self.rate)
        delta = x - self.x_p
        ratio = -math.expm1(-m * self.rate) / self.one_minus_a if self.rate else m
        int_x = m * self.i_p + self.p * delta * ratio
        return min(max(self.x_p + delta * decay, 0.0), 1.0), int_x, m * self.sigma_int


def _whole_cycles(cycle: int, period: float, target: float) -> int:
    """Most cycles m from the start of `cycle` whose walk end (cycle+m-1)*T + T <= target."""
    m = max(0, math.floor(target / period) - cycle)
    while m > 0 and (cycle + m - 1) * period + period > target:
        m -= 1
    while (cycle + m) * period + period <= target:
        m += 1
    return m


def exact_pass(
    signal: PiecewiseConstant,
    params: SystemParams,
    x0: float,
    record_times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate exactly, recording at the given times.

    Returns (states, cumulative_x, cumulative_sigma) aligned with
    `record_times`, which must be non-decreasing and non-negative. The walk
    splits at every segment boundary and every record time, so all three
    outputs are closed-form exact. On a periodic signal, when the walk sits
    at a cycle start and at least two whole cycles end before the next
    record time, it jumps over them in closed form (`_PeriodJump`); a
    single cycle is walked, since building the jump costs as much.
    """
    record_times = np.asarray(record_times, dtype=float)
    if record_times.size and record_times[0] < 0.0:
        raise DomainError("record times must be non-negative")
    x = _check_occupancy(x0)
    lam = params.lam

    bps = signal.breakpoints
    lvls = signal.levels
    n_seg = len(lvls)
    period = signal.duration

    out_x = np.empty(record_times.size)
    out_ix = np.empty(record_times.size)
    out_is = np.empty(record_times.size)

    t = 0.0
    cum_x = 0.0
    cum_s = 0.0
    cycle = 0
    seg = 0
    # True while the walk sits exactly at the start of `cycle`; seg == 0
    # alone does not say so, since a record time can fall inside segment 0.
    at_cycle_start = signal.periodic
    jump = None
    k = 0
    n_rec = record_times.size
    # Record anything scheduled at t = 0 before stepping.
    while k < n_rec and record_times[k] <= t:
        out_x[k], out_ix[k], out_is[k] = x, cum_x, cum_s
        k += 1

    while k < n_rec:
        target = record_times[k]
        if at_cycle_start:
            m = _whole_cycles(cycle, period, target)
            if m >= 2:
                if jump is None:
                    jump = _PeriodJump(lvls, signal.durations, lam)
                x, dx, ds = jump.advance(x, m)
                cum_x += dx
                cum_s += ds
                cycle += m
                t = (cycle - 1) * period + period
                while k < n_rec and record_times[k] <= t:
                    out_x[k], out_ix[k], out_is[k] = x, cum_x, cum_s
                    k += 1
                continue
        if signal.periodic:
            boundary = cycle * period + bps[seg + 1]
        elif seg < n_seg - 1:
            boundary = bps[seg + 1]
        else:
            boundary = math.inf  # last level held beyond the final breakpoint
        t_next = boundary if boundary < target else target
        level = lvls[seg]
        h = t_next - t
        if h > 0.0:
            r = lam + level
            rh = r * h
            x_inf = level / r
            g = -math.expm1(-rh)
            delta = x - x_inf
            cum_x += x_inf * h + delta * (h * (g / rh) if rh else h)  # w = h phi(r h)
            cum_s += level * h
            x = x_inf + delta * (1.0 - g)
            if x < 0.0:
                x = 0.0
            elif x > 1.0:
                x = 1.0
            t = t_next
        at_cycle_start = False
        if boundary <= target:
            seg += 1
            if seg == n_seg:
                if signal.periodic:
                    seg = 0
                    cycle += 1
                    at_cycle_start = True
                else:
                    seg = n_seg - 1  # hold last level
        while k < n_rec and record_times[k] <= t:
            out_x[k], out_ix[k], out_is[k] = x, cum_x, cum_s
            k += 1
    return out_x, out_ix, out_is


# ---------------------------------------------------------------------------
# Numeric path: affine one-step coefficients from inflow samples
# ---------------------------------------------------------------------------

# Steps per vectorized chunk of a smooth block; bounds the working arrays
# of very long blocks (a few MB) while keeping the numpy calls large.
_CHUNK_STEPS = 1 << 16


def _affine_step_coeffs(s0, sm, s1, lam: float, h: float):
    """Coefficients (A, B) of one classical 4th-order step x <- A x + B.

    s0, sm, s1 are sigma at the step start, midpoint and end. Works on
    scalars or arrays. Derived by propagating k = u + v x through the four
    stage evaluations of the affine right-hand side f = sigma - (lam+sigma) x.
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

    Returns (P, Q) with x_{i+1} = P[i] x_0 + Q[i], by Hillis-Steele
    doubling: after the pass with offset d, entry i holds the composition
    of steps i-2d+1 .. i, so log2(n) passes cover every prefix.
    """
    P, Q = A, B
    d = 1
    while d < P.size:
        Q[d:] += P[d:] * Q[:-d]
        P[d:] *= P[:-d]
        d *= 2
    return P, Q


def _smooth_block(
    signal: InputSignal,
    lam: float,
    x0: float,
    t0: float,
    t1: float,
    n_steps: int,
    states_out: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Integrate [t0, t1] in n_steps fixed steps; returns (x1, int_x, int_sigma).

    When states_out is given it receives the n_steps+1 states on the grid.
    The steps' affine maps are composed by a prefix scan, one chunk of at
    most _CHUNK_STEPS steps at a time. A state that leaves [0, 1] by
    OVERSHOOT_TOL or more, or is not finite (an unstable step can overflow
    the products), raises StepSizeError; smaller overshoots are rounding
    and are clamped.
    """
    h = (t1 - t0) / n_steps
    x = x0
    cum_x = 0.0
    cum_s = 0.0
    if states_out is not None:
        states_out[0] = x
    for j0 in range(0, n_steps, _CHUNK_STEPS):
        j1 = min(j0 + _CHUNK_STEPS, n_steps)
        sig = evaluate_array(signal, t0 + 0.5 * h * np.arange(2 * j0, 2 * j1 + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            A, B = _affine_step_coeffs(sig[0:-2:2], sig[1:-1:2], sig[2::2], lam, h)
            P, Q = _affine_prefix(A, B)
            xs = P * x + Q
        bad = ~((xs > -OVERSHOOT_TOL) & (xs < 1.0 + OVERSHOOT_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            over = max(-xs[i], xs[i] - 1.0)
            raise StepSizeError(
                f"state left [0, 1] by {over:.3e} at t={t0 + (j0 + i + 1) * h:.6g}; "
                f"reduce the integration step (h={h:.3e})"
            )
        np.clip(xs, 0.0, 1.0, out=xs)
        s = sig[0::2]
        cum_x += h * (0.5 * (x + xs[-1]) + xs[:-1].sum())
        cum_s += h * (0.5 * (s[0] + s[-1]) + s[1:-1].sum())
        x = float(xs[-1])
        if states_out is not None:
            states_out[j0 + 1:j1 + 1] = xs
    return x, cum_x, cum_s


def smooth_pass(
    signal: InputSignal,
    params: SystemParams,
    x0: float,
    record_times: np.ndarray,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numeric counterpart of exact_pass for smooth inflow.

    Each interval between consecutive record times is integrated with a
    locally uniform step no larger than `step`.
    """
    record_times = np.asarray(record_times, dtype=float)
    x = _check_occupancy(x0)
    out_x = np.empty(record_times.size)
    out_ix = np.empty(record_times.size)
    out_is = np.empty(record_times.size)
    t = 0.0
    cum_x = 0.0
    cum_s = 0.0
    for k, target in enumerate(record_times):
        gap = target - t
        if gap > 0.0:
            n = max(1, math.ceil(gap / step))
            x, dx, ds = _smooth_block(signal, params.lam, x, t, target, n)
            cum_x += dx
            cum_s += ds
            t = target
        out_x[k], out_ix[k], out_is[k] = x, cum_x, cum_s
    return out_x, out_ix, out_is


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def _merge_record_grid(pw: PiecewiseConstant, horizon: float, record_step: float) -> np.ndarray:
    """Union of segment boundaries and a uniform grid on [0, horizon].

    Boundaries are the walk's own sums c*T + t_i; every cycle with
    c*T < horizon is among the ceil(horizon / T) + 1 rows of the table.
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
        n = max(1, math.ceil(horizon / step))
        times = np.linspace(0.0, horizon, n + 1)
        states = np.empty(n + 1)
        x_end, _, _ = _smooth_block(signal, params.lam, x0, 0.0, horizon, n, states)
        widths = np.diff(times)
        cumulative = np.concatenate(
            ([0.0], np.cumsum(0.5 * widths * (states[:-1] + states[1:])))
        )
        return Trajectory(times, states, cumulative)

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
