"""Long-run averages for inflows that need not be periodic.

For a general locally integrable inflow, the mean inflow and averaged
output are defined through limit-superior running averages,

    sigma_bar = limsup (1/tau) int_0^tau sigma,
    w         = lam * limsup (1/tau) int_0^tau x,

and the bound w <= lam sigma_bar / (lam + sigma_bar) still holds. A limsup
is not computable from finite data; this module estimates it by the maximum
of running means over the tail half of a logarithmically spaced checkpoint
grid, and reports that window explicitly. The bound check's slack is
proven, not a heuristic transient allowance: with s the running mean inflow
at the checkpoint tau* where the estimate of w is attained and
x* = s / (lam + s), the certificate below gives
lam <x>_tau* - B(s) <= correction(tau*), and B increases in s, so the
margin B(sigma_bar_est) - w_est is at least -max(0, correction(tau*)), less
the quadrature error bound on the numeric path and, for rounding,
CERTIFICATE_TOL or a bound relative to the terms compared (`_allowance`).

The finite-horizon certificate is the pre-limit form of the bound: for any
horizon tau and any reference occupancy x_star,

    lam (1/tau) int_0^tau x  <=  (1-x_star)^2 (1/tau) int_0^tau sigma
                                 + lam x_star^2
                                 + (2 x_star - 1)(x(tau) - x(0))/tau
                                 - (x(tau)^2 - x(0)^2)/(2 tau),

with slack equal to the non-negative integral (1/tau) int (x - x_star)^2
(lam + sigma). It must hold at every horizon, not just in the limit, and
its correction terms decay like 1/tau.

The choice of solution does not matter in the limit: two solutions differ
by a homogeneous solution, so their running averages differ by at most
|x1(0) - x2(0)| / (lam tau).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .signals import (
    ClippedSinusoidSum,
    InputSignal,
    SystemParams,
    max_frequency,
    max_level,
    period_of,
)
from .periodic import constant_benchmark

__all__ = [
    "RunningAverages",
    "BoundCheck",
    "Certificates",
    "IndependenceCheck",
    "running_averages",
    "longrun_bound_check",
    "finite_horizon_certificates",
    "solution_independence_check",
    "default_tau_max",
    "quadrature_slack",
    "averages_to_csv",
]

DEFAULT_CHECKPOINTS = 64
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True)
class RunningAverages:
    """One forward pass recorded at increasing horizons, with its running means.

    taus              increasing horizon grid
    x0                initial occupancy of the pass
    states            x(tau) per horizon
    cumulative_x      int_0^tau x per horizon
    cumulative_input  int_0^tau sigma per horizon
    window_start      index where the tail-max estimation window begins
    sigma_bar_est     tail-max estimate of the limsup mean inflow
    w_est             lam times the tail-max estimate of the limsup mean state
    """

    taus: np.ndarray
    x0: float
    states: np.ndarray
    cumulative_x: np.ndarray
    cumulative_input: np.ndarray
    window_start: int
    sigma_bar_est: float
    w_est: float

    @property
    def mean_input(self) -> np.ndarray:
        """(1/tau) int_0^tau sigma per horizon."""
        return self.cumulative_input / self.taus

    @property
    def mean_state(self) -> np.ndarray:
        """(1/tau) int_0^tau x per horizon, each in [0, 1]."""
        return self.cumulative_x / self.taus


@dataclass(frozen=True)
class BoundCheck:
    """Long-run output bound at estimated mean inflow, with estimator slack."""

    sigma_bar_est: float
    w_est: float
    bound: float
    margin: float
    slack: float
    violated: bool


# The pre-limit inequality as columns, one entry per horizon: tau, lhs, rhs,
# slack = rhs - lhs (>= 0 up to rounding) and correction, the two 1/tau terms
# alone, for decay-rate studies.
Certificates = namedtuple("Certificates", "tau lhs rhs slack correction")


@dataclass(frozen=True)
class IndependenceCheck:
    """Running-average discrepancy of two starts against the 1/(lam tau) bound."""

    x0_a: float
    x0_b: float
    tau: float
    avg_diff: float
    bound: float


def _pass(signal, params, x0, times):
    step = dynamics.numeric_step(signal, params)
    if step is not None:
        return dynamics.smooth_pass(signal, params, x0, times, step)
    return dynamics.exact_pass(signal, params, x0, times)


def default_tau_max(signal: InputSignal, params: SystemParams) -> float:
    """Horizon making the 1/(lam tau) transient at most 1e-3, and at least
    100 periods for signals with an intrinsic period."""
    tau = 1000.0 / params.lam
    period = period_of(signal)
    if period is not None:
        tau = max(tau, 100.0 * period)
    return tau


# Stirling numbers S(7, k), k = 1..7: d^7/dt^7 exp(c (e^{w t} - 1)) at 0 is
# w^7 sum_k S(7, k) c^k.
_STIRLING_7 = (1, 63, 301, 350, 140, 21, 1)


def quadrature_slack(signal: InputSignal, params: SystemParams) -> float:
    """Bound on the numeric path's error in lam (1/tau) int_0^tau x, at any tau.

    Zero on piecewise-constant inflow, where the running integrals are
    closed-form exact. Every pass of this module takes steps of at most
    h = `dynamics.default_step`, on which the six-node interpolant of
    G = sigma e^S errs by at most eps_G = 6!/12! h^6 max|G^(6)|. Since
    |sigma^(k)| <= s w^k (s = max sigma, w = omega_max), G^(6) = (e^S)^(7)
    is bounded by e^{s h} sum_k S(7, k) s^k w^(7-k). Each step adds at most
    h eps_G to the state, and the step maps contract by e^{-lam h}, so
    states stay within h eps_G / (1 - e^{-lam h}) <= eps_G (1/lam + h), node
    states within h eps_G more, and lam (1/tau) int x within
    eps_G (1 + 2 lam h). Rounding is not included.
    """
    if not isinstance(signal, ClippedSinusoidSum):
        return 0.0
    h = dynamics.default_step(signal, params)
    s_h, w_h = max_level(signal) * h, max_frequency(signal) * h
    g6_h7 = math.exp(s_h) * sum(c * s_h ** k * w_h ** (7 - k)
                                for k, c in enumerate(_STIRLING_7, start=1))
    eps_g = math.factorial(6) / math.factorial(12) * g6_h7 / h
    return eps_g * (1.0 + 2.0 * params.lam * h)


def running_averages(signal: InputSignal, params: SystemParams, x0: float, tau_max: float,
                     n_checkpoints: int = DEFAULT_CHECKPOINTS) -> RunningAverages:
    """Single forward pass recording running means at n_checkpoints
    log-spaced horizons on [tau_max/1000, tau_max].

    The limsup estimates are the maxima of the running means over the last
    half of the checkpoint list (tail-max). The bound check and the
    certificates read the returned pass instead of walking again. A nonzero
    running integral below the least normal double has lost its digits, so
    where the checks could misread it, it raises DomainError instead.
    """
    if tau_max <= 0.0:
        raise dynamics.DomainError(f"tau_max must be positive, got {tau_max}")
    if n_checkpoints < 2:
        raise dynamics.DomainError("need at least two checkpoints")
    checkpoints = np.geomspace(tau_max / 1000.0, tau_max, n_checkpoints)
    x0 = dynamics._check_occupancy(x0)
    states, cum_x, cum_s = _pass(signal, params, x0, checkpoints)
    # A nonzero integral below the least normal double may err by up to half
    # its value. The gates read lam X / tau and S / tau; below their floor
    # CERTIFICATE_TOL that error cannot turn them.
    cum = np.array((cum_x, cum_s))
    with np.errstate(over="ignore"):
        read = np.array((params.lam * (cum_x / checkpoints), cum_s / checkpoints))
    lost = ((0.0 < cum) & (cum < np.finfo(float).tiny) & (read >= CERTIFICATE_TOL)).any(axis=0)
    if lost.any():
        j = lost.nonzero()[0][-1]
        raise dynamics.DomainError(
            f"the running integrals underflow double precision by tau = "
            f"{float(checkpoints[j])!r}: int_0^tau x = {float(cum_x[j])!r}, "
            f"int_0^tau sigma = {float(cum_s[j])!r}")
    window_start = checkpoints.size // 2
    sigma_bar_est = float(np.max((cum_s / checkpoints)[window_start:]))
    w_est = params.lam * float(np.max((cum_x / checkpoints)[window_start:]))
    return RunningAverages(
        taus=checkpoints,
        x0=x0,
        states=states,
        cumulative_x=cum_x,
        cumulative_input=cum_s,
        window_start=window_start,
        sigma_bar_est=sigma_bar_est,
        w_est=w_est,
    )


def longrun_bound_check(signal: InputSignal, params: SystemParams,
                        ra: RunningAverages) -> BoundCheck:
    """Compare the estimated w of `ra` with the benchmark at its estimated mean inflow.

    A violation is flagged only when the margin is more negative than the
    slack max(0, correction(tau*)) + quadrature bound + `_allowance`, which
    bounds the margin from below (module docstring), or is NaN: tau* is the
    checkpoint where w_est is attained, and the certificate's correction
    there uses x* = s / (lam + s), s the running mean inflow at tau*.
    """
    lam = params.lam
    j = ra.window_start + int(np.argmax(ra.mean_state[ra.window_start:]))
    s = float(ra.cumulative_input[j] / ra.taus[j])
    correction = _certificate_terms(lam, s / (lam + s), ra.x0, ra.taus[j], ra.states[j],
                                    ra.cumulative_x[j], ra.cumulative_input[j])[2]
    bound = constant_benchmark(ra.sigma_bar_est, params)
    margin = bound - ra.w_est
    slack = (max(0.0, float(correction)) + quadrature_slack(signal, params)
             + float(_allowance(bound, ra.w_est)))
    return BoundCheck(
        sigma_bar_est=ra.sigma_bar_est,
        w_est=ra.w_est,
        bound=bound,
        margin=margin,
        slack=slack,
        violated=not margin >= -slack,
    )


def finite_horizon_certificates(params: SystemParams, ra: RunningAverages) -> Certificates:
    """The pre-limit inequality at the horizons of `ra`: `_certificate_terms`'
    arrays as `Certificates` columns, with no per-horizon objects.

    The reference is x_star = s / (lam + s), s the final running mean
    inflow of the pass, for every input. The inequality holds for any
    x_star, so the choice only sets how tight the certificates are, and
    the pass already holds s.
    """
    lam = params.lam
    s = float(ra.cumulative_input[-1] / ra.taus[-1])
    lhs, rhs, correction = _certificate_terms(
        lam, s / (lam + s), ra.x0, ra.taus, ra.states, ra.cumulative_x, ra.cumulative_input)
    return Certificates(ra.taus, lhs, rhs, rhs - lhs, correction)


def _allowance(*terms):
    """CERTIFICATE_TOL, or where larger 16 u (u = 2^-53) of the summed
    magnitudes of the terms a gate compares, elementwise. With X and S from
    the pass to 8 u, a certificate's slack rounds by at most 14 u of its
    terms (lam X / tau 2 u, (1 - x*)^2 S / tau 4, lam x*^2 2, two sums), any
    rounding of x* aside, and the bound check's margin by 12 u of
    |B| + |w_est| (B 3 u and its mean 1 u, lam X / tau 2 u)."""
    return np.maximum(CERTIFICATE_TOL, 16 * 2.0 ** -53 * sum(np.abs(t) for t in terms))


def _certificate_terms(lam, x_star, x0, taus, states, cumulative_x, cumulative_input):
    """(lhs, rhs, correction) of the pre-limit inequality, elementwise.

    Arguments broadcast, so one call serves one pass or rows of passes.
    """
    lhs = lam * cumulative_x / taus
    correction = ((2.0 * x_star - 1.0) * (states - x0)
                  - 0.5 * (states * states - x0 * x0)) / taus
    rhs = (1.0 - x_star) ** 2 * cumulative_input / taus + lam * x_star * x_star + correction
    return lhs, rhs, correction


def solution_independence_check(
    signal: InputSignal,
    params: SystemParams,
    x0_a: float,
    x0_b: float,
    tau: float,
) -> IndependenceCheck:
    """Compare running means from two starts against |dx0| / (lam tau)."""
    if tau <= 0.0:
        raise dynamics.DomainError(f"tau must be positive, got {tau}")
    x0_a = dynamics._check_occupancy(x0_a)
    x0_b = dynamics._check_occupancy(x0_b)
    times = np.asarray([tau])
    _, cum_a, _ = _pass(signal, params, x0_a, times)
    _, cum_b, _ = _pass(signal, params, x0_b, times)
    avg_diff = abs(float(cum_a[0]) - float(cum_b[0])) / tau
    bound = abs(x0_a - x0_b) / (params.lam * tau)
    return IndependenceCheck(x0_a=x0_a, x0_b=x0_b, tau=tau, avg_diff=avg_diff, bound=bound)


def averages_to_csv(ra: RunningAverages, certificates: Certificates, fh) -> None:
    """Combined table: tau, mean_input, mean_state, lhs, rhs, slack, from
    `ra` and its `Certificates`, which must be at exactly its horizons."""
    if not np.array_equal(certificates.tau, ra.taus):
        raise ValueError("certificates must be at exactly the horizons of the running averages")
    fh.write("tau,mean_input,mean_state,lhs,rhs,slack\n")
    dynamics._write_rows(fh, ra.taus, ra.mean_input, ra.mean_state,
                         certificates.lhs, certificates.rhs, certificates.slack)
