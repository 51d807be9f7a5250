"""Forward solution of x'(t) = sigma(t) (1 - x(t)) - lam x(t).

Two integration paths, one per waveform kind:

* Piecewise-constant inflow (`PiecewiseConstant`, which is also what
  `Constant` and `Sampled` return) is propagated exactly. On a segment
  with level c the equation is linear with constant coefficients,
  attractor x_inf = c / (lam + c) and rate r = lam + c, so

      x(t0 + h) = x_inf + (x(t0) - x_inf) e^{-r h},
      int_{t0}^{t0+h} x = x_inf h + (x(t0) - x_inf) (1 - e^{-r h}) / r.

  Chaining these across segment boundaries and requested grid points gives
  trajectories and running integrals that are exact up to rounding, which
  is what makes the identity residuals downstream meaningful.

* Smooth inflow (clipped sinusoid sums) uses classical fourth-order
  one-step integration on a fixed grid. Because the right-hand side is
  affine in x, each step reduces to x <- A x + B with A, B computed
  vectorized from the inflow samples; the sequential part is a trivial
  recurrence. Running integrals of x and sigma accumulate by trapezoid
  on the same grid.

States live in [0, 1] by the model's premise. The numeric stepper clamps
overshoots below OVERSHOOT_TOL (pure rounding) and aborts on anything
larger, so an unstable step size fails loudly instead of being smoothed
over.
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
    "average_x",
    "default_step",
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


# ---------------------------------------------------------------------------
# Exact path: event walk over constant segments
# ---------------------------------------------------------------------------

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
    outputs are closed-form exact.
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
    k = 0
    n_rec = record_times.size
    # Record anything scheduled at t = 0 before stepping.
    while k < n_rec and record_times[k] <= t:
        out_x[k], out_ix[k], out_is[k] = x, cum_x, cum_s
        k += 1

    while k < n_rec:
        if signal.periodic:
            boundary = cycle * period + bps[seg + 1]
        elif seg < n_seg - 1:
            boundary = bps[seg + 1]
        else:
            boundary = math.inf  # last level held beyond the final breakpoint
        target = record_times[k]
        t_next = boundary if boundary < target else target
        level = lvls[seg]
        h = t_next - t
        if h > 0.0:
            r = lam + level
            x_inf = level / r
            g = -math.expm1(-r * h)
            delta = x - x_inf
            cum_x += x_inf * h + delta * g / r
            cum_s += level * h
            x = x_inf + delta * (1.0 - g)
            if x < 0.0:
                x = 0.0
            elif x > 1.0:
                x = 1.0
            t = t_next
        if boundary <= target:
            seg += 1
            if seg == n_seg:
                if signal.periodic:
                    seg = 0
                    cycle += 1
                else:
                    seg = n_seg - 1  # hold last level
        while k < n_rec and record_times[k] <= t:
            out_x[k], out_ix[k], out_is[k] = x, cum_x, cum_s
            k += 1
    return out_x, out_ix, out_is


# ---------------------------------------------------------------------------
# Numeric path: affine one-step coefficients from inflow samples
# ---------------------------------------------------------------------------

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
    """
    h = (t1 - t0) / n_steps
    half_grid = t0 + 0.5 * h * np.arange(2 * n_steps + 1)
    sig = evaluate_array(signal, half_grid)
    A, B = _affine_step_coeffs(sig[0:-2:2], sig[1:-1:2], sig[2::2], lam, h)
    A = A.tolist()
    B = B.tolist()
    svals = sig[0::2].tolist()

    x = x0
    cum_x = 0.0
    cum_s = 0.0
    if states_out is not None:
        states_out[0] = x
    for i in range(n_steps):
        x_new = A[i] * x + B[i]
        if x_new < 0.0 or x_new > 1.0:
            over = -x_new if x_new < 0.0 else x_new - 1.0
            if over >= OVERSHOOT_TOL:
                raise StepSizeError(
                    f"state left [0, 1] by {over:.3e} at t={t0 + (i + 1) * h:.6g}; "
                    f"reduce the integration step (h={h:.3e})"
                )
            x_new = 0.0 if x_new < 0.0 else 1.0
        cum_x += 0.5 * h * (x + x_new)
        cum_s += 0.5 * h * (svals[i] + svals[i + 1])
        x = x_new
        if states_out is not None:
            states_out[i + 1] = x
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
    """Union of segment boundaries and a uniform grid on [0, horizon]."""
    n = max(1, round(horizon / record_step))
    uniform = np.linspace(0.0, horizon, n + 1)
    bounds = []
    if pw.periodic:
        period = pw.duration
        cycle = 0
        while cycle * period < horizon:
            base = cycle * period
            for b in pw.breakpoints[1:]:
                tb = base + b
                if tb < horizon:
                    bounds.append(tb)
            cycle += 1
    else:
        bounds = [b for b in pw.breakpoints[1:] if b < horizon]
    grid = np.union1d(uniform, np.asarray(bounds))
    return grid


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
    fixed-step numeric integrator (step from `grid` or `default_step`).
    """
    x0 = _check_occupancy(x0)
    if horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    grid = grid or QuadratureSpec()

    if isinstance(signal, ClippedSinusoidSum):
        step = grid.resolve(default_step(signal, params))
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


def average_x(traj: Trajectory, t_from: float, t_to: float) -> float:
    """Time average of x over [t_from, t_to] from the stored running integral.

    Exact at grid times; between samples the integral is completed by
    trapezoid on linearly interpolated states.
    """
    lo, hi = traj.span
    if not (t_from < t_to):
        raise DomainError(f"need t_from < t_to, got [{t_from}, {t_to}]")
    if t_from < lo or t_to > hi:
        raise DomainError(
            f"range [{t_from}, {t_to}] outside trajectory span [{lo}, {hi}]"
        )

    def cum_at(t: float) -> float:
        idx = int(np.searchsorted(traj.times, t, side="left"))
        if idx < traj.times.size and traj.times[idx] == t:
            return float(traj.cumulative_x[idx])
        i = idx - 1
        t0, t1 = traj.times[i], traj.times[i + 1]
        x0, x1 = traj.states[i], traj.states[i + 1]
        xt = x0 + (x1 - x0) * (t - t0) / (t1 - t0)
        return float(traj.cumulative_x[i] + 0.5 * (t - t0) * (x0 + xt))

    value = (cum_at(t_to) - cum_at(t_from)) / (t_to - t_from)
    # The mean of states in [0,1] is in [0,1]; shave rounding dust.
    return min(1.0, max(0.0, value))


def trajectory_to_csv(traj: Trajectory, signal: InputSignal, fh) -> None:
    """Write t, x, sigma, cumulative_x rows with full double round-trip formatting."""
    fh.write("t,x,sigma,cumulative_x\n")
    sigma = evaluate_array(signal, traj.times).tolist()
    for t, x, s, c in zip(traj.times.tolist(), traj.states.tolist(), sigma,
                          traj.cumulative_x.tolist()):
        fh.write(f"{t!r},{x!r},{s!r},{c!r}\n")
