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

  with phi(z) = (1 - e^{-z}) / z and phi(0) = 1. One core, the prefix
  tables of these maps over padded rows (`_SegmentTables`, which the
  periodic module's kernel extends), gives every exact result. Nothing is
  walked: each record time is a closed form of the period map (whole
  cycles), the tables (whole segments) and one partial step, vectorized
  over rows of signals, records and segments (`_exact_rows`). Trajectories
  and running integrals are exact up to rounding, which is what makes the
  identity residuals downstream meaningful.

* Smooth inflow (clipped sinusoid sums) is integrated numerically, on
  steps split at every clip point of sigma = max(0, f), so that sigma is
  smooth on each step. On a step [a, a + h] the equation is scalar and
  linear, so its solution is one exponential integral (the Magnus series
  stops at its first term):

      x(a + u h) = e^{-lam h u - S(u)} x(a)
                   + h e^{-S(u)} int_0^u e^{-lam h (u - s)} G(s) ds,

  with S(u) = int_a^{a+uh} sigma in closed form and G = sigma e^S. G is
  interpolated at six Gauss-Legendre nodes and the stiff kernel is
  integrated exactly against the interpolant (exponential quadrature), so
  the decay is exact and only the smooth G is approximated. The same
  fitted weights give the state at each node and at the step end, each an
  affine map of x(a). One chunked prefix scan of the end maps
  (`_smooth_scan`) steps the smooth path for `smooth_pass`, `simulate` and
  the periodic module; it carries the state and its slope in x0, so one
  scan from 0 gives every start's solution. int sigma is exact; int x, int
  p and a report's sums are Gauss sums of node states, which only `simulate` keeps.

  The step is set by accuracy: `default_step` is
  min(0.1/omega_max, 0.1/max sigma, 1/lam), and each gap between record
  times is split into equal steps no larger than it. The 1/lam term keeps
  lam h <= 1, where the six fitted end weights are positive (they turn
  negative past lam h of about 8). The other two keep the interpolated
  forcing accurate to rounding at the nodes too: a node state is the
  interpolant integrated over only part of the step, so it errs by O(h^7),
  not the O(h^13) of the step end, and at ten times the default step a
  state near 1 overshoots it by up to 1e-7. The periodic and asymptotic
  modules always take it (`numeric_step`); a `step` given to `simulate` or
  `smooth_pass` can only refine it.

States live in [0, 1] by the model's premise. The numeric path keeps them
there up to rounding and clamps that rounding (`_clamp`); a larger
excursion raises StepSizeError.
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
    SignalError,
    SystemParams,
    _cut_at_clip_points,
    _pad_rows,
    _segment_index,
    _unclipped,
    _unclipped_integral,
    evaluate_array,
    max_frequency,
    max_level,
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

# Numeric-path states off [0, 1] by less than this are rounding and clamped
# (`_clamp`); anything larger aborts the run.
OVERSHOOT_TOL = 1e-12

# Dense recording default: about this many rows per simulate() call.
_RECORD_POINTS = 1000


class DomainError(ValueError):
    """An input left the model's domain (occupancy outside [0, 1], bad range)."""


class StepSizeError(RuntimeError):
    """The numeric path produced a state off [0, 1] by more than rounding."""


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


def _check_occupancy(x0: float) -> float:
    x0 = float(x0)
    if not (0.0 <= x0 <= 1.0):
        raise DomainError(f"occupancy must lie in [0, 1], got {x0}")
    return x0


def default_step(signal: InputSignal, params: SystemParams) -> float:
    """Step of the numeric path, set by accuracy: min(0.1/omega_max, 0.1/max sigma, 1/lam).

    It is also the largest step the path takes. A step resolves
    a tenth of a radian of the fastest term and moves int sigma by at most
    0.1, where six nodes interpolate the forcing to rounding at the nodes as
    well as at the step end; the 1/lam term keeps lam h <= 1, where the
    fitted weights are positive.
    """
    return _step_bound(signal, params.lam)


def _step_bound(signal: InputSignal, lam: float) -> float:
    """`default_step` by lam: min(0.1 / rate, 1 / lam), rate = max(omega_max, max sigma)."""
    rate = max_level(signal)
    if isinstance(signal, ClippedSinusoidSum):
        rate = max(rate, max_frequency(signal))
    return min(0.1 / rate, 1.0 / lam) if rate > 0.0 else 1.0 / lam


def numeric_step(signal: InputSignal, params: SystemParams) -> float | None:
    """Step the numeric path takes on this input, `default_step` (further
    cut at clip points); None for piecewise-constant input, which is
    propagated exactly.
    """
    return default_step(signal, params) if isinstance(signal, ClippedSinusoidSum) else None


# ---------------------------------------------------------------------------
# Exact path: closed form at every record time, rows of signals at once
# ---------------------------------------------------------------------------

class _SegmentTables:
    """The one exact propagation core: one period of each row of an (N, k)
    batch of levels c and durations h, composed from the segment maps
    x -> d x + x_inf g.

    Per segment, as (k, N) columns: r = lam + c (`lam` a scalar or per row;
    a finite level whose rate overflows raises SignalError, as x_inf would
    silently read 0), x_inf = c / r, g = 1 - e^{-r h} = -expm1(-r h),
    d = e^{-r h} (never 1 - g, whose absolute error of 1e-16 would spoil long
    decays) and w = h phi(r h), phi(z) = (1 - e^{-z}) / z, phi(0) = 1
    (`_decay`: an r h past float max is a full decay, d = 0 and w = 1 / r).
    Padding segments (`signals._pad_rows`: level 0, width 0) are identity
    maps after the row's end, its last segment of positive width (`end`, a
    flat index into the (k + 1, N) tables).

    P, Q: from x0 at the row's start, the state at each segment start is
    P x0 + Q (`_affine_prefix`, whose entry i reads segments 0..i-1 of its
    own column only, so no row depends on its batch). Read at the end: the
    period map x -> a x + b, a = e^{-R}, R = sum r h (`rate`), b = Q[end];
    x_p = b / (1 - a) with 1 - a = -expm1(-R) (`one_minus_a`), so x_p keeps
    full relative precision however weak the contraction; the orbit's
    deviations `delta` = P x_p + Q - x_inf at the segment starts; and, by
    `_prefix_sums`, R, `period` = T and `i_p` = int_0^T x_p = sum x_inf h + delta w.
    """

    def __init__(self, levels, durations, lam) -> None:
        levels = np.asarray(levels, dtype=float)
        self.c = c = np.ascontiguousarray(levels.T)
        self.h = h = np.empty_like(c)
        h.T[...] = durations
        self.lam = lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):
            self.r = r = lam + c
            if not np.isfinite(r).all() and (np.isinf(r) & np.isfinite(c)).any():
                raise SignalError(f"lam + level overflows: lam={float(np.max(lam))!r}, "
                                  f"level={float(c.max())!r}")
            self.rh, self.g, self.w = rh, g, w = _decay(r, h)
        self.x_inf = x_inf = c / r
        self.d = d = np.exp(-rh)
        self.P, self.Q = P, Q = _affine_prefix(d, x_inf * g)
        k, n = c.shape
        self.padded = not h[-1].all()
        last = np.max((h > 0.0) * np.arange(1, k + 1)[:, None], axis=0) if self.padded else k
        self.end = end = last * n + np.arange(n)
        self.b = Q.take(end)
        self.rate, self.period = _prefix_sums(rh).take(end), _prefix_sums(h).take(end)
        self.one_minus_a = -np.expm1(-self.rate)
        # R is 0 only when every r h underflows, and then b is 0 too.
        self.x_p = x_p = self.b / np.maximum(self.one_minus_a, math.ulp(0.0))
        self.delta = delta = P[:-1] * x_p + Q[:-1] - x_inf
        self.i_p = _prefix_sums(x_inf * h + delta * w).take(end)


def _decay(r, h):
    """(r h, g, w) of segments of rate r and width h (see `_SegmentTables`);
    an r h that overflows, with overflow ignored, is a full decay."""
    rh = r * h
    g = -np.expm1(-rh)
    w = h * np.divide(g, rh, out=np.ones_like(g), where=rh > 0.0)
    return rh, g, np.divide(1.0, r, out=w, where=np.isinf(rh))


def _exact_rows(levels, breakpoints, periodic, lam, x0, record_times):
    """Exact states and running integrals of x and sigma at the record times.

    Rows are padded signals (`signals._pad_rows`) with one lam and one x0
    each; `record_times` is (M,), shared by the rows, or (N, M). Returns
    (states, cumulative_x, cumulative_sigma), each (N, M). Time t lies in
    segment i of cycle c at the exact phase t - c*T (`signals._segment_index`;
    aperiodic rows have c = 0 and phase t, where the whole-cycle terms are 0
    even if R overflowed), and every cycle has the nominal
    widths, so one set of first-cycle tables (`_SegmentTables`, with
    int x = U + V x0 and int sigma = S at the segment starts) serves every
    record. With the period map x -> a x + b, its fixed point x_p, the
    orbit's integral I_p and the slope p = V[end] of int_0^T x in x0, cycle c
    starts at x_p + (x0 - x_p) a^c with int x = c I_p + p (x0 - x_p)(1 - a^c)/(1 - a)
    and int sigma = c S. The tables carry that to segment i, and one partial
    step of phase - t_i to t.
    """
    lam, x0 = np.asarray(lam, dtype=float), np.asarray(x0, dtype=float)
    cycle, seg, phase = _segment_index(breakpoints, periodic, record_times)
    tab = _SegmentTables(levels, np.diff(breakpoints, axis=1), lam)
    U, V, S = np.zeros((3,) + tab.P.shape)
    np.cumsum(tab.x_inf * tab.h + (tab.Q[:-1] - tab.x_inf) * tab.w, axis=0, out=U[1:])
    np.cumsum(tab.P[:-1] * tab.w, axis=0, out=V[1:])
    np.cumsum(tab.c * tab.h, axis=0, out=S[1:])

    c, i = cycle.ravel(), seg.ravel()
    row = np.repeat(np.arange(len(levels)), cycle.shape[1])
    x_p, rate, one_minus_a = tab.x_p[row], tab.rate[row], tab.one_minus_a[row]
    delta = x0[row] - x_p
    span = phase.ravel() - breakpoints[row, i]
    with np.errstate(over="ignore"):    # c R is 0 in the first cycle, where R may be inf
        cr = np.multiply(c, rate, out=np.zeros_like(c), where=c > 0)
        rs, _, w = _decay(tab.r[i, row], span)
    ratio = np.divide(-np.expm1(-cr), one_minus_a, out=c.copy(), where=one_minus_a > 0.0)
    start_x = np.where(c > 0, x_p + delta * np.exp(-cr), x0[row])
    x = tab.P[i, row] * start_x + tab.Q[i, row]
    int_x = c * tab.i_p[row] + V.take(tab.end)[row] * delta * ratio + U[i, row] + V[i, row] * start_x
    x_inf = tab.x_inf[i, row]
    with np.errstate(over="ignore"):    # an int sigma past float max reads inf; callers reject it
        int_sigma = c * S.take(tab.end)[row] + S[i, row] + tab.c[i, row] * span
    out = (np.clip(x_inf + (x - x_inf) * np.exp(-rs), 0.0, 1.0),
           int_x + x_inf * span + (x - x_inf) * w, int_sigma)
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
# Numeric path: exact decay, exponentially fitted Gauss-Legendre forcing
# ---------------------------------------------------------------------------

# Steps per vectorized chunk of a smooth scan; memory is bounded by it.
_CHUNK_STEPS = 1 << 11


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]: Newton
    steps on P_m from cos(pi (i - 1/4) / (m + 1/2)), and weights
    1 / ((1 - x^2) P_m'(x)^2) at the nodes x on [-1, 1].

    numpy.polynomial.legendre.leggauss gives the same rule, but importing
    numpy.polynomial adds about 1.2 MB of resident memory and 4 ms to every
    process that imports this module, the CLI's too."""
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(8):
        p0, p1 = np.ones_like(x), x         # P_m and P_m' by the three-term recurrence
        for n in range(2, m + 1):
            p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
        slope = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)


# Gauss-Legendre nodes c_j and weights b_j on [0, 1]. States are formed at
# the points u_i: the six nodes, then the step end.
_NODES, _WEIGHTS = _gauss_legendre(6)
_POINTS = np.append(_NODES, 1.0)

# Terms of the fitted weights' series in z = lam h <= 1; the first term
# left out is below 1/20! = 4e-19 of the weights' scale.
_SERIES_TERMS = 20


def _fitted_moments() -> np.ndarray:
    """M[k, i, j] = int_0^{u_i} (u_i - s)^k / k! l_j(s) ds, l_j the Lagrange
    basis on the nodes, by a 16-point Gauss rule (exact to degree 31; these
    are of degree k + 5). sum_k (-z)^k M[k, i, j] = int_0^{u_i} e^{-z (u_i - s)} l_j(s) ds,
    and M[0, 6] holds the weights b_j."""
    y, v = _gauss_legendre(16)
    s = _POINTS[:, None] * y
    basis = np.ones(s.shape + _NODES.shape)
    for j, c in enumerate(_NODES):
        for other in np.delete(_NODES, j):
            basis[..., j] *= (s - other) / (c - other)
    k = np.arange(_SERIES_TERMS)[:, None, None]
    factorial = np.cumprod(np.maximum(k, 1), axis=0)
    kernel = (_POINTS[:, None] - s) ** k / factorial * (_POINTS[:, None] * v)
    return np.einsum("kiq,iqj->kij", kernel, basis)


_MOMENTS = _fitted_moments()

# Steps per block of the weight gather in `_fitted_integrals`, whose
# (block, 6, 7) copy of the weights stays small.
_GATHER_BLOCK = 256


def _fitted_integrals(G: np.ndarray, z: np.ndarray) -> np.ndarray:
    """int_0^{u_i} e^{-z (u_i - s)} p(s) ds for each step, p the polynomial
    through its node values G: (n, 7) from (n, 6). Steps of one z, as the
    steps of one record gap, share one weight set sum_k (-z)^k M[k]."""
    values, which = np.unique(z, return_inverse=True)
    weights = np.einsum("uk,kij->uji", np.power(-values[:, None], np.arange(_SERIES_TERMS)),
                        _MOMENTS)
    out = np.empty((len(G), _POINTS.size))
    for i in range(0, len(G), _GATHER_BLOCK):
        rows = slice(i, i + _GATHER_BLOCK)
        np.einsum("nj,nji->ni", G[rows], weights[which[rows]], out=out[rows])
    return out


def _fitted_steps(signal: ClippedSinusoidSum, lam: float, tb: np.ndarray, z: np.ndarray):
    """Affine maps of the steps between the boundaries `tb`, with no clip point inside a step.

    On a step [a, a + h], with S(u) = int_a^{a+uh} sigma and z = lam h,

        x(a + u h) = e^{-z u - S(u)} x(a) + h e^{-S(u)} int_0^u e^{-z (u - s)} G(s) ds,

    G = sigma e^S. S is exact (`signals._unclipped_integral`; 0 on a clipped
    step). G is interpolated at the nodes and the kernel integrated exactly
    against the interpolant, so x(a + u_i h) = decay_i x(a) + drive_i at the
    nodes and the end. `z` is lam h as the scan means it, equal for the
    steps of one record gap (`tb` rounds their widths apart). Returns (h,
    decay, drive, sigma at the nodes, S at the points); decay and drive are
    (n, 7).
    """
    a, h = tb[:-1, None], np.diff(tb)[:, None]
    S = _unclipped_integral(signal, a, h * _POINTS)
    opened = S[:, -1:] > 0.0                    # sigma = f > 0 inside the step
    S *= opened
    sigma = _unclipped(signal, a + h * _NODES)
    np.maximum(sigma, 0.0, out=sigma)
    sigma *= opened
    G = np.exp(S[:, :-1])
    G *= sigma
    drive = _fitted_integrals(G, z)
    del G
    decay = np.negative(S)
    np.exp(decay, out=decay)
    drive *= decay
    drive *= h
    rate = (lam * h) * _POINTS
    decay *= np.exp(np.negative(rate, out=rate), out=rate)
    return h[:, 0], decay, drive, sigma, S


def _affine_prefix(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix compositions of the maps x <- A[i] x + B[i] along the first axis.

    (k, N) input composes N columns at once. Returns (P, Q), one entry
    longer than A, with x_i = P[i] x_0 + Q[i] (entry 0 is the identity), by
    Hillis-Steele doubling: after the pass with offset d, entry i holds the
    composition of steps i-2d .. i-1, so log2(k) passes cover every prefix,
    and how entry i is grouped depends on i alone.
    """
    P, Q = np.empty((2, len(A) + 1) + np.shape(A)[1:])
    P[0], P[1:], Q[0], Q[1:] = 1.0, A, 0.0, B
    p, q, d = P[1:], Q[1:], 1
    while d < len(p):
        q[d:] += p[d:] * q[:-d]
        p[d:] *= p[:-d]
        d *= 2
    return P, Q


def _prefix_sums(X: np.ndarray) -> np.ndarray:
    """The sums of X[:i] along the first axis, one entry longer than X,
    grouped as `_affine_prefix` groups the maps x <- x + X[i]."""
    S = np.empty((len(X) + 1,) + X.shape[1:])
    S[0], S[1:] = 0.0, X
    s, d = S[1:], 1
    while d < len(s):
        s[d:] += s[:-d]
        d *= 2
    return S


# `_smooth_scan` at its record times: x from x0, its slope p in x0, their
# running integrals and sigma's from 0, and the Gauss sums of (lam + sigma)
# h b_j times 1, u, p, u^2, u p, p^2, u = x + p (c - x0) - c, about the
# scan's final center c = m / (lam + m), m = int_0^t sigma / t at its end.
_Scan = namedtuple("_Scan", "x p int_x int_p int_sigma sums")


def _clamp(states: np.ndarray) -> np.ndarray:
    """Numeric-path states clamped to [0, 1]. The step cap keeps them there
    up to rounding; a state off by OVERSHOOT_TOL or more, or not finite,
    raises StepSizeError."""
    lo, hi = states.min(initial=0.0), states.max(initial=1.0)
    if not (lo > -OVERSHOOT_TOL and hi < 1.0 + OVERSHOOT_TOL):
        raise StepSizeError(f"a numeric state left [0, 1] by {max(-lo, hi - 1.0):.3e}")
    return np.clip(states, 0.0, 1.0)


def _smooth_scan(signal: ClippedSinusoidSum, lam: float, x0: float, record_times,
                 step: float, dense: bool = False, sums: bool = False):
    """The one numeric integrator: a chunked prefix scan from t = 0 through the record times.

    Each gap between record times (from 0) takes max(1, ceil(gap / h))
    equal steps, h = min(step, `default_step`), and a repeated record time
    none; clip points split steps further (`signals._cut_at_clip_points`).
    `_fitted_steps` gives each step's map and `_affine_prefix` composes them
    one chunk of at most _CHUNK_STEPS base steps at a time, carrying x and p.
    int sigma is exact; int x and int p are Gauss sums of the node states.
    States are clamped to [0, 1], which acts at rounding level only. Returns
    a `_Scan` at the record times, with `sums` its Gauss sums, so memory is
    bounded by _CHUNK_STEPS; or, with `dense`, the (3, 7 n + 1) columns t, x
    and int x at every step boundary and node, in time order. Each chunk
    sums about the running x* of its own end (`_scan_chunk`), and the totals
    so far move to it exactly (`_recentered`), so they end about the x* of
    the scan's exact int sigma, as a period report wants them.
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    step = min(step, _step_bound(signal, lam))
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
    records, out, pieces = first[1:], np.zeros((5, gaps.size)), []
    x, p, carry, center, totals = x0, 1.0, np.zeros(3), 0.0, np.zeros(6)
    # With no step at all, one empty chunk still records the start node.
    for i0 in range(0, max(n, 1), _CHUNK_STEPS):
        i1 = min(i0 + _CHUNK_STEPS, n)
        node = np.arange(i0, i1 + 1)
        k = np.searchsorted(first, node, side="right") - 1
        base = ends[k] + (node - first[k]) * widths[k]
        tb = _cut_at_clip_points(signal, base)
        at = np.searchsorted(tb, base)
        z = lam * np.diff(tb)
        whole = np.diff(at) == 1                    # base steps that no clip point cut
        z[at[:-1][whole]] = lam * widths[k[:-1][whole]]
        del node, k, base, whole
        xb, pb, ints, piece = _scan_chunk(signal, lam, tb, z, x, p, carry, dense, x0, sums)
        lo, hi = np.searchsorted(records, [i0, i1 + 1])
        kept = at[records[lo:hi] - i0]
        out[:, lo:hi] = (xb[kept], pb[kept], *ints[:, kept])
        if dense:
            pieces.append(piece)
        elif sums:
            if i0:
                totals = _recentered(totals, piece[0] - center)
            center = piece[0]
            totals += piece[1]
        x, p, carry, t_end = xb[-1], pb[-1], ints[:, -1].copy(), tb[-1]
        del tb, at, z, xb, pb, ints, piece     # before the next chunk's arrays exist
    if dense:
        return np.column_stack(pieces + [np.array([t_end, x, carry[0]])])
    return _Scan(*out, totals if sums else None)


def _recentered(sums: np.ndarray, shift: float) -> np.ndarray:
    """`_Scan.sums` about c moved to c + shift, exactly in real arithmetic:
    each node's u moves by shift (p - 1). Python floats, so an overflow
    reads inf, and a NaN shift NaN, with no warning."""
    n, u, p, uu, up, pp = sums.tolist()
    return np.array((n, u + shift * (p - n), p,
                     uu + 2.0 * shift * (up - u) + shift * shift * (pp - 2.0 * p + n),
                     up + shift * (pp - p), pp))


def _scan_chunk(signal: ClippedSinusoidSum, lam: float, tb: np.ndarray, z: np.ndarray,
                x: float, p: float, carry: np.ndarray, dense: bool, x0: float, sums: bool):
    """One chunk of `_smooth_scan`, from x, p and the running integrals
    `carry` at tb[0]: the states, slopes and (3, n + 1) running integrals at
    the boundaries `tb`, and the (3, 7 n) `dense` columns of each step's
    start and nodes, or with `sums` the chunk's center c = m / (lam + m),
    m = int_0^t sigma / t at its end t = tb[-1], and its `_Scan.sums` about c."""
    h, decay, drive, sigma, S = _fitted_steps(signal, lam, tb, z)
    P, Q = _affine_prefix(decay[:, -1], drive[:, -1])
    xb = _clamp(P * x + Q)
    pb = P * p
    # The Gauss sum of a step's node states is alpha x(a) + beta.
    alpha, beta = h * (decay[:, :-1] @ _WEIGHTS), h * (drive[:, :-1] @ _WEIGHTS)
    ints = np.empty((3, tb.size))
    ints[:, 0] = carry
    np.cumsum(np.vstack((alpha * xb[:-1] + beta, alpha * pb[:-1], S[:, -1])),
              axis=1, out=ints[:, 1:])
    ints[:, 1:] += carry[:, None]
    if not (dense or sums):
        return xb, pb, ints, None
    nodes = _clamp(decay[:, :-1] * xb[:-1, None] + drive[:, :-1])
    if dense:
        piece = np.empty((3, len(h), 1 + _NODES.size))
        piece[:, :, 0] = tb[:-1], xb[:-1], ints[0, :-1]
        # the node times and states, and int_a^{a + c_i h} of their interpolant
        piece[:, :, 1:] = (tb[:-1, None] + h[:, None] * _NODES, nodes,
                           ints[0, :-1, None] + h[:, None] * (nodes @ _MOMENTS[0, :-1].T))
        return xb, pb, ints, piece.reshape(3, -1)
    m = float(ints[2, -1]) / float(tb[-1])
    center = m / (lam + m)
    slope = decay[:, :-1] * pb[:-1, None]
    u = nodes + slope * (center - x0) - center
    W = (lam + sigma) * (h[:, None] * _WEIGHTS)
    terms = np.array((W, W * u, W * slope, W * u * u, W * u * slope, W * slope * slope))
    return xb, pb, ints, (center, terms.reshape(6, -1).sum(axis=1))      # pairwise sums


def smooth_pass(
    signal: InputSignal,
    params: SystemParams,
    x0: float,
    record_times: np.ndarray,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numeric counterpart of exact_pass for smooth inflow.

    Each interval between consecutive record times is split into equal
    steps no larger than `step` (nor than `default_step`), and
    those at the clip points of sigma, in one `_smooth_scan`.
    """
    scan = _smooth_scan(signal, params.lam, _check_occupancy(x0), record_times, step)
    return scan.x, scan.int_x, scan.int_sigma


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def _merge_record_grid(pw: PiecewiseConstant, horizon: float, record_step: float) -> np.ndarray:
    """Union of segment boundaries and a uniform grid on [0, horizon].

    Each boundary c*T + t_i is the first double that `signals._segment_index`
    places in the segment starting there. The rounded sum is within an ulp
    of it, so one step up (where the sum is placed in the segment before)
    and one step down (where the double below is not) find it. Every cycle
    with c*T < horizon is among the ceil(horizon / T) + 1 rows of the table.
    """
    n = max(1, round(horizon / record_step))
    uniform = np.linspace(0.0, horizon, n + 1)
    bounds = np.asarray(pw.breakpoints[1:])
    if pw.periodic:
        cycles = np.arange(math.ceil(horizon / pw.duration) + 1)
        bounds = np.add.outer(cycles * pw.duration, bounds)
        rows = _pad_rows([pw])[1:]

        def early(t):       # placed before the segment that starts at its boundary
            cycle, _, phase = _segment_index(*rows, t.reshape(1, -1))
            return ((cycle.reshape(t.shape) == cycles[:, None])
                    & (phase.reshape(t.shape) < pw.breakpoints[1:]))

        bounds = np.where(early(bounds), np.nextafter(bounds, math.inf), bounds)
        below = np.nextafter(bounds, -math.inf)
        bounds = np.where(early(below), bounds, below).ravel()
    return np.union1d(uniform, bounds[bounds < horizon])


def simulate(
    signal: InputSignal,
    params: SystemParams,
    x0: float,
    horizon: float,
    step: float | None = None,
) -> Trajectory:
    """Solve the model forward on [0, horizon] from occupancy x0.

    Piecewise-constant inflow is propagated exactly through the union of
    segment boundaries and a recording grid of spacing `step` (default
    horizon / 1000); smooth inflow is recorded at every step and node of
    the numeric path, whose step is `default_step` or a smaller `step`.
    """
    x0 = _check_occupancy(x0)
    if horizon <= 0.0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if step is not None and not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    default = numeric_step(signal, params)
    if default is not None:
        return Trajectory(*_smooth_scan(signal, params.lam, x0, [horizon], step or default,
                                        dense=True))

    times = _merge_record_grid(signal, horizon, step or horizon / _RECORD_POINTS)
    states, cum_x, _ = exact_pass(signal, params, x0, times)
    return Trajectory(times, states, cum_x)


_CSV_CHUNK = 512     # rows per CSV chunk: the writer's temporaries scale with this


def _write_rows(fh, *columns, memo: list | None = None,
                order: np.ndarray | None = None) -> None:
    """Write the rows of the equal-length float `columns` to the text file `fh`,
    one line each: every CSV table goes through here. A field is the
    round-trip `repr` of its float; each chunk formats every distinct bit
    pattern in it once (so -0.0 and 0.0 stay apart) and gathers the strings
    into place. It takes those it shares with the chunk before from `memo[0]`,
    that chunk's (sorted bit patterns, texts), and leaves its own there: a
    caller writing one table in several calls passes each the same list.
    With the integer array `order`, the rows are formatted once each and the
    lines written are rows order[0], order[1], ..., a chunk at a time."""
    memo = memo or [None]
    lines = []
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        table = np.array([c[start:start + _CSV_CHUNK] for c in columns], dtype=np.float64)
        bits, inverse = np.unique(table.view(np.int64).ravel(), return_inverse=True)
        if memo[0] is None:
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        else:
            at = np.searchsorted(memo[0][0], bits)
            new = memo[0][0].take(at, mode="clip") != bits
            text = memo[0][1].take(at, mode="clip")
            text[new] = list(map(repr, bits[new].view(np.float64).tolist()))
        memo[0] = bits, text
        fields = text[inverse].reshape(table.shape).tolist()
        if order is None:
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
        else:
            lines += map(",".join, zip(*fields))
    if order is not None:
        lines = np.array(lines, dtype=object)
        for start in range(0, len(order), _CSV_CHUNK):
            fh.write("\n".join(lines[order[start:start + _CSV_CHUNK]].tolist()) + "\n")


def trajectory_to_csv(traj: Trajectory, signal: InputSignal, fh) -> None:
    """Write t, x, sigma, cumulative_x rows with full double round-trip formatting."""
    fh.write("t,x,sigma,cumulative_x\n")
    _write_rows(fh, traj.times, traj.states, evaluate_array(signal, traj.times),
                traj.cumulative_x)
