"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Criteria marked with runtime limits measure their own compute (imports and
fixture setup excluded).
"""

import math
import time

import numpy as np

from bottleneck_lab.asymptotic import (
    _certificate_terms,
    _pass,
    longrun_bound_check,
    running_averages,
    solution_independence_check,
)
from bottleneck_lab.dynamics import simulate
from bottleneck_lab.optimize import (
    BangBang,
    EvaluationLog,
    PiecewiseConstantFree,
    coordinate_descent,
    grid_search,
    project_to_mean,
)
from bottleneck_lab.periodic import (
    constant_benchmark,
    gap_report,
    output_for_level_rows,
    period_states,
    poincare_map,
)
from bottleneck_lab.signals import (
    ClippedSinusoidSum,
    Constant,
    PiecewiseConstant,
    SystemParams,
)
from bottleneck_lab.suites import (
    _case_rows,
    _level_checks,
    random_piecewise_signal,
    random_system,
)

SUITE_SEED = 0
N_SUITE = 500


def _suite_cases(n=N_SUITE, seed=SUITE_SEED):
    rng = np.random.default_rng(seed)
    return [(random_piecewise_signal(rng), random_system(rng)) for _ in range(n)]


def _certificates(sig, params, x0, taus):
    """(slack, correction) at the horizons `taus` of one pass, with the
    public reference x* = s / (lam + s), s the final running mean inflow."""
    states, cum_x, cum_s = _pass(sig, params, x0, taus)
    s = cum_s[-1] / taus[-1]
    lhs, rhs, correction = _certificate_terms(params.lam, s / (params.lam + s), x0, taus,
                                              states, cum_x, cum_s)
    return rhs - lhs, correction


def record(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c1_constant_benchmark_exact_and_simulated():
    t0 = time.perf_counter()
    p = SystemParams(lam=1.0)
    w = constant_benchmark(1.0, p)
    exact = w == 0.5
    traj = simulate(Constant(1.0), p, 0.0, 20.0)
    sim_err = abs(p.lam * traj.final_state - 0.5)
    elapsed = time.perf_counter() - t0
    record(
        "criterion 1 (constant benchmark)",
        exact and sim_err <= 1e-6 and elapsed < 0.1,
        f"w={w!r}, simulation error {sim_err:.2e}, {elapsed * 1e3:.1f} ms",
    )


def test_c2_gap_identity_residuals_over_500_signals():
    t0 = time.perf_counter()
    worst = 0.0
    for sig, params in _suite_cases():
        rep = gap_report(sig, params)
        worst = max(worst, rep.residual_gap, rep.residual_m1, rep.residual_m2)
    elapsed = time.perf_counter() - t0
    record(
        "criterion 2 (identity residuals, 500 signals)",
        worst <= 1e-8 and elapsed < 30.0,
        f"max residual {worst:.2e}, {elapsed:.1f} s",
    )


def test_c3_benchmark_inequality_with_strict_gap():
    worst_excess = -math.inf
    min_distinct_gap = math.inf
    n_distinct = 0
    cases = _suite_cases()
    distinct = _level_checks(*_case_rows(cases)[:3])[0]
    for (sig, params), two_valued in zip(cases, distinct.tolist()):
        rep = gap_report(sig, params)
        worst_excess = max(worst_excess, rep.w_sigma - rep.w_const)
        if two_valued:
            n_distinct += 1
            min_distinct_gap = min(min_distinct_gap, rep.gap)
    record(
        "criterion 3 (benchmark inequality + strict gap)",
        worst_excess <= 1e-9 and min_distinct_gap > 1e-10,
        f"max excess {worst_excess:.2e}, min gap {min_distinct_gap:.2e} "
        f"over {n_distinct} two-valued signals",
    )


def test_c4_poincare_contraction_over_20_periods():
    worst_slack = math.inf
    for sig, params in _suite_cases():
        pm = poincare_map(sig, params)
        x_p0 = pm.fixed_point
        for x0 in (0.0, 1.0):
            states = period_states(sig, params, x0, 20)
            decay = 1.0
            dx0 = abs(x0 - x_p0)
            for n in range(1, 21):
                decay *= pm.a
                slack = decay * dx0 + 1e-10 - abs(states[n] - x_p0)
                worst_slack = min(worst_slack, slack)
    record(
        "criterion 4 (one-period map contraction)",
        worst_slack >= 0.0,
        f"worst slack {worst_slack:.2e} across {N_SUITE} signals x 2 starts x 20 periods",
    )


def test_c5_solution_independence_bound():
    tau = 100.0
    worst = -math.inf
    for sig, params in _suite_cases(n=100, seed=SUITE_SEED + 1):
        chk = solution_independence_check(sig, params, 0.0, 1.0, tau)
        worst = max(worst, chk.avg_diff - chk.bound)
    record(
        "criterion 5 (solution independence at tau=100)",
        worst <= 1e-10,
        f"max (diff - bound) = {worst:.2e} over 100 signals",
    )


def test_c6_finite_horizon_certificates_and_decay_rate():
    taus = np.geomspace(1.0, 100.0, 16)
    worst_slack = math.inf
    for sig, params in _suite_cases(n=100, seed=SUITE_SEED + 2):
        for x0 in (0.0, 1.0):
            slack, _ = _certificates(sig, params, x0, taus)
            worst_slack = min(worst_slack, slack.min())
    # decay of the correction terms: two-level signal probed at whole
    # periods so the boundary state is phase-locked
    sig = PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0))
    ns = np.unique(np.round(np.geomspace(5, 5000, 24)).astype(int))
    _, correction = _certificates(sig, SystemParams(lam=1.0), 0.0, 2.0 * ns)
    corr = np.abs(correction)
    slope = float(np.polyfit(np.log(2.0 * ns), np.log(corr), 1)[0])
    record(
        "criterion 6 (finite-horizon certificates)",
        worst_slack >= -1e-9 and abs(slope + 1.0) <= 0.1,
        f"worst slack {worst_slack:.2e}, correction decay slope {slope:.3f}",
    )


def test_c7_waveform_search_never_beats_constant():
    t0 = time.perf_counter()
    lambdas = (0.1, 1.0, 10.0)
    means = (0.1, 1.0, 10.0)
    rng = np.random.default_rng(7)
    worst_excess = -math.inf
    worst_final_dev = 0.0
    n_descents = 0
    for lam in lambdas:
        params = SystemParams(lam=lam)
        period = 2.0 / lam  # comparable dimensionless period across the sweep
        for mean in means:
            benchmark = constant_benchmark(mean, params)
            for family, resolution in (
                (BangBang(period=period), 9),
                (PiecewiseConstantFree(period=period, n_segments=4), 7),
            ):
                log = EvaluationLog(family, mean, benchmark)
                grid_search(family, mean, params, resolution, log=log)
                for _ in range(20):
                    if isinstance(family, BangBang):
                        raw = (rng.uniform(0, 2 * mean), rng.uniform(0, 2 * mean),
                               rng.uniform(0.05, 0.95))
                    else:
                        raw = tuple(rng.uniform(0, 2 * mean, 4))
                    start = project_to_mean(family, raw, mean)
                    res = coordinate_descent(family, mean, params, start, log=log)
                    n_descents += 1
                    levels = (res.best_point[:2] if isinstance(family, BangBang)
                              else res.best_point)
                    worst_final_dev = max(
                        worst_final_dev, max(abs(c - mean) for c in levels)
                    )
                worst_excess = max(worst_excess, log.max_excess)
    elapsed = time.perf_counter() - t0
    record(
        "criterion 7 (search never beats constant)",
        worst_excess <= 1e-9 and worst_final_dev <= 1e-3 and elapsed < 120.0,
        f"max excess {worst_excess:.2e}, worst final level deviation "
        f"{worst_final_dev:.2e} over {n_descents} descents, {elapsed:.1f} s",
    )


def test_c8_quadratic_perturbation_law():
    # deficit(eps) = w[constant 1] - w[1 + eps * direction] ~ kappa eps^2 for a
    # zero-mean direction on an equal partition of a period of 2
    rng = np.random.default_rng(88)
    params = SystemParams(lam=1.0)
    eps = np.array([0.1, 0.05, 0.025])
    slopes = []
    for _ in range(20):
        k = int(rng.integers(2, 7))
        direction = rng.uniform(-1.0, 1.0, k)
        direction -= direction.mean()
        scale = np.abs(direction).max()
        if scale < 1e-3:
            direction = np.array([1.0, -1.0])
        else:
            direction /= scale
        levels = 1.0 + np.multiply.outer(eps, direction)
        deficits = constant_benchmark(1.0, params) - output_for_level_rows(
            levels, 2.0 / direction.size, params.lam)
        positive = deficits > 0.0
        slopes.append(float(np.polyfit(np.log(eps[positive]), np.log(deficits[positive]), 1)[0]))
    lo, hi = min(slopes), max(slopes)
    record(
        "criterion 8 (quadratic perturbation law)",
        1.9 <= lo and hi <= 2.1,
        f"log-log slopes in [{lo:.3f}, {hi:.3f}] over 20 directions",
    )


def test_c9_quasiperiodic_longrun_bound():
    t0 = time.perf_counter()
    sig = ClippedSinusoidSum(
        mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.0))
    )
    params = SystemParams(lam=1.0)
    chk = longrun_bound_check(sig, params, running_averages(sig, params, 0.0, 2000.0))
    elapsed = time.perf_counter() - t0
    record(
        "criterion 9 (quasi-periodic long-run bound)",
        (not chk.violated) and chk.margin >= -chk.slack and elapsed < 10.0,
        f"w_est {chk.w_est:.6f} <= bound {chk.bound:.6f} "
        f"(margin {chk.margin:.2e}, slack {chk.slack:.2e}), {elapsed:.1f} s",
    )
