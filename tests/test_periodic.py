import csv
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bottleneck_lab.asymptotic import (
    finite_horizon_certificates,
    running_averages,
    solution_independence_check,
)
import bottleneck_lab.dynamics as dynamics
from bottleneck_lab.dynamics import DomainError, exact_pass, simulate, smooth_pass
from bottleneck_lab.periodic import (
    REPORT_CSV_HEADER,
    _PeriodRows,
    _period_states_rows,
    PeriodicReport,
    PoincareMap,
    constant_benchmark,
    gap_report,
    output_for_level_rows,
    output_for_levels,
    period_states,
    periodic_solution,
    poincare_map,
    report_to_json_dict,
    reports_to_csv,
)
from bottleneck_lab.signals import (
    ClippedSinusoidSum,
    Constant,
    NonPeriodicSignalError,
    PiecewiseConstant,
    SignalError,
    SystemParams,
    mean_over_period,
    require_period,
)
from bottleneck_lab.suites import (
    check_asymptotic_case,
    check_periodic_case,
    random_piecewise_signal,
    random_system,
    run_verification,
    SuiteTolerances,
)

P1 = SystemParams(lam=1.0)
TWO_LEVEL = PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0))

# Frozen reference values for TWO_LEVEL at lam = 1, confirmed against a
# 300-period burn-in (RK45, rtol 1e-12) and per-segment fine RK4 + trapezoid.
XP0_TWO_LEVEL = 0.6452942644799433
W_TWO_LEVEL = 0.46930125702397496
W_TWO_LEVEL_BRUTE = 0.4693012570231294


def moment_residuals(signal, params):
    report = gap_report(signal, params)
    return report.residual_m1, report.residual_m2


class TestPoincareMap:
    def test_constant_closed_form(self):
        c, T = 1.5, 2.0
        pm = poincare_map(Constant(c, period=T), P1)
        a_exact = math.exp(-(1.0 + c) * T)
        assert pm.a == pytest.approx(a_exact, rel=1e-15)
        assert pm.b == pytest.approx((c / (1.0 + c)) * (1.0 - a_exact), rel=1e-14)

    def test_zero_inflow(self):
        pm = poincare_map(Constant(0.0, period=3.0), P1)
        assert pm.b == 0.0
        assert pm.a == pytest.approx(math.exp(-3.0), rel=1e-15)

    def test_two_level_decay_product(self):
        pm = poincare_map(TWO_LEVEL, P1)
        assert pm.a == math.exp(-4.0)  # e^{-(1*1 + 3*1)}
        assert pm.b == pytest.approx((2.0 / 3.0) * (1.0 - math.exp(-3.0)), rel=1e-15)

    def test_matches_two_simulation_construction(self):
        # oracle: map coefficients recovered from the flow of x0 = 0 and 1
        for sig, params in [
            (TWO_LEVEL, P1),
            (PiecewiseConstant((0.0, 0.3, 1.1, 2.0), (4.0, 0.5, 2.2)), SystemParams(lam=0.7)),
        ]:
            pm = poincare_map(sig, params)
            T = np.asarray([sig.duration])
            phi0 = exact_pass(sig, params, 0.0, T)[0][0]
            phi1 = exact_pass(sig, params, 1.0, T)[0][0]
            assert pm.b == pytest.approx(phi0, abs=1e-15)
            assert pm.a == pytest.approx(phi1 - phi0, abs=1e-13)

    def test_invariants_enforced(self):
        for rate in (0.0, -1.0, math.inf, math.nan):  # a = e^{-rate} not in (0, 1)
            with pytest.raises(SignalError):
                PoincareMap(rate=rate, b=0.0)
        with pytest.raises(SignalError):
            PoincareMap(rate=math.log(2.0), b=0.6)
        with pytest.raises(SignalError):
            PoincareMap(rate=math.log(2.0), b=-0.1)

    def test_piecewise_map_needs_no_walk(self, monkeypatch):
        import bottleneck_lab.dynamics as dynamics

        calls = []
        monkeypatch.setattr(dynamics, "exact_pass", lambda *args: calls.append(args))
        pm = poincare_map(TWO_LEVEL, P1)
        assert calls == []
        assert pm.fixed_point == pytest.approx(XP0_TWO_LEVEL, rel=1e-15)

    def test_smooth_signal_map(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        pm = poincare_map(sig, P1)
        # int (lam + sigma) over one period is lam + mean = 2 (clip inactive)
        assert pm.a == pytest.approx(math.exp(-2.0), rel=1e-10)
        assert 0.0 < pm.b < 1.0


class TestPeriodicSolution:
    def test_constant_is_steady_state(self):
        c = 2.0
        traj = periodic_solution(Constant(c, period=1.5), P1)
        np.testing.assert_allclose(traj.states, c / (1.0 + c), rtol=0, atol=1e-14)

    def test_zero_signal(self):
        traj = periodic_solution(Constant(0.0, period=1.0), P1)
        np.testing.assert_allclose(traj.states, 0.0, rtol=0, atol=1e-15)

    def test_closes_after_one_period(self):
        traj = periodic_solution(TWO_LEVEL, P1)
        assert abs(traj.states[-1] - traj.states[0]) <= 1e-10
        assert traj.states[0] == pytest.approx(XP0_TWO_LEVEL, abs=1e-14)

    @pytest.mark.parametrize("signal, lam", [
        (ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),)), 1.0),
        (ClippedSinusoidSum(mean=1.0, terms=((2.0, 1.0, 0.0),)), 0.5),          # clip active
        (ClippedSinusoidSum(mean=2e4, terms=((1.5e4, 2.0 * math.pi / 0.012, 0.0),)), 1e4),
    ])
    def test_smooth_orbit_is_one_scan(self, signal, lam):
        # One scan from 0 gives the map and the orbit x + p x_p; the two-pass
        # construction, forward from the map's fixed point, is the oracle.
        params = SystemParams(lam=lam)
        traj = periodic_solution(signal, params)
        assert abs(traj.states[-1] - traj.states[0]) <= 1e-12
        oracle = simulate(signal, params, poincare_map(signal, params).fixed_point, signal.period)
        np.testing.assert_array_equal(traj.times, oracle.times)
        np.testing.assert_allclose(traj.states, oracle.states, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.cumulative_x, oracle.cumulative_x, rtol=1e-12, atol=0.0)

    def test_smooth_period_of_many_chunks(self, monkeypatch):
        import bottleneck_lab.dynamics as dynamics

        # The map and orbit take 126 default steps, 18 chunks of 7; the
        # orbit simulated at a step of 2e-3 from its start takes 150 chunks.
        signal = ClippedSinusoidSum(mean=0.7, terms=((1.2, 3.0, 0.4), (0.5, 6.0, 1.0)))
        params = SystemParams(lam=2.0)

        def runs():
            pmap, orbit = poincare_map(signal, params), periodic_solution(signal, params)
            return pmap, orbit, simulate(signal, params, orbit.states[0], signal.period, 2e-3)

        whole = runs()
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 7)
        chunked = runs()
        assert chunked[0].rate == pytest.approx(whole[0].rate, rel=1e-13, abs=0.0)
        assert chunked[0].b == pytest.approx(whole[0].b, rel=1e-13, abs=0.0)
        for got, want in zip(chunked[1:], whole[1:]):
            np.testing.assert_allclose(got.states, want.states, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(got.cumulative_x, want.cumulative_x, rtol=1e-13, atol=0.0)

    def test_burn_in_converges_to_same_cycle(self):
        # oracle: 50 periods of plain forward simulation from x0 = 0.5
        states = period_states(TWO_LEVEL, P1, 0.5, 50)
        assert states[-1] == pytest.approx(XP0_TWO_LEVEL, abs=1e-12)

    def test_period_states_match_map_iteration(self):
        pm = poincare_map(TWO_LEVEL, P1)
        states = period_states(TWO_LEVEL, P1, 0.2, 10)
        x = 0.2
        for n in range(1, 11):
            x = pm.a * x + pm.b
            assert states[n] == pytest.approx(x, abs=1e-13)


class TestAveragedOutput:
    def test_unit_constant(self):
        assert gap_report(Constant(1.0), P1).w_sigma == pytest.approx(0.5, abs=1e-15)

    def test_zero_signal(self):
        assert gap_report(Constant(0.0), P1).w_sigma == 0.0

    def test_two_level_value_and_strict_loss(self):
        w = gap_report(TWO_LEVEL, P1).w_sigma
        assert w == pytest.approx(W_TWO_LEVEL, abs=1e-14)
        assert w == pytest.approx(W_TWO_LEVEL_BRUTE, abs=1e-9)
        assert w < 0.5

    def test_smooth_output_below_benchmark(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        w = gap_report(sig, P1).w_sigma
        assert 0.0 < w < 0.5

    def test_row_kernel_matches_scalar_kernel(self):
        rng = np.random.default_rng(17)
        for lam, k in itertools.product((1e-3, 1e-1, 1.0, 1e1, 1e3), range(1, 9)):
            levels = rng.uniform(0.0, 5.0, (64, k)) * 10.0 ** rng.uniform(-3, 3, (64, 1))
            levels[rng.random((64, k)) < 0.2] = 0.0
            levels[0] = 0.0
            durations = rng.uniform(0.01, 2.0, (64, k))
            # output_for_levels is the one-row call: a row's bits do not
            # depend on its batch
            got = output_for_level_rows(levels, durations, lam)
            want = [output_for_levels(c, h, lam)
                    for c, h in zip(levels.tolist(), durations.tolist())]
            np.testing.assert_array_equal(got, want)
            # a duration shared by every segment broadcasts
            got = output_for_level_rows(levels, 0.5, lam)
            want = [output_for_levels(c, [0.5] * k, lam) for c in levels.tolist()]
            np.testing.assert_array_equal(got, want)


def central_difference(f, x, j, step):
    """Fourth-order central difference of f in coordinate j of the array x."""
    def at(m):
        v = x.copy()
        v[j] += m * step
        return f(v)
    return (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * step)


class TestGradient:
    def test_adjoint_matches_central_differences(self):
        # Differences are scaled to the row: dw/dc to its largest entry,
        # dw/dh to w / T (with one segment, w does not depend on h at all).
        rng = np.random.default_rng(23)
        for _ in range(60):
            k = int(rng.integers(1, 13))
            lam = float(10.0 ** rng.uniform(-3, 3))
            c = rng.uniform(0.01, 3.0, k) * 10.0 ** rng.uniform(-2, 2)
            h = rng.uniform(0.1, 1.0, k) * 10.0 ** rng.uniform(-2, 1)
            kernel = _PeriodRows([c], [h], lam, gradient=True)
            fd_c = [central_difference(lambda v: output_for_levels(v, h, lam), c, j, 1e-3 * c[j])
                    for j in range(k)]
            fd_h = [central_difference(lambda v: output_for_levels(c, v, lam), h, j, 1e-3 * h[j])
                    for j in range(k)]
            w = lam * kernel.i_p[0] / kernel.period[0]
            np.testing.assert_allclose(kernel.dw_dc[0], fd_c, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd_c).max())
            np.testing.assert_allclose(kernel.dw_dh[0], fd_h, rtol=1e-6, atol=1e-6 * w / h.sum())

    @pytest.mark.parametrize("zero", [0, 1, 2])
    def test_zero_width_segment_is_the_limit_of_a_vanishing_one(self, zero):
        # A zero width is an identity map wherever it sits, also after the
        # row's last positive width, and w is smooth in it: its gradient is
        # that of a width of 1e-300, to rounding.
        levels = np.array([[1.5, 0.2, 3.0]] * 2)
        durations = np.array([[0.4, 0.9, 0.6]] * 2)
        durations[0, zero], durations[1, zero] = 0.0, 1e-300
        kernel = _PeriodRows(levels, durations, 0.8, gradient=True)
        for name in ("dw_dc", "dw_dh"):
            np.testing.assert_allclose(getattr(kernel, name)[0], getattr(kernel, name)[1],
                                       rtol=1e-14, atol=1e-16)

    def test_gradient_leaves_the_values_unchanged(self):
        rng = np.random.default_rng(29)
        levels = rng.uniform(0.0, 4.0, (16, 5))
        durations = rng.uniform(0.1, 2.0, (16, 5))
        plain = _PeriodRows(levels, durations, 0.7, moments=True)
        both = _PeriodRows(levels, durations, 0.7, moments=True, gradient=True)
        for name in ("rate", "b", "i_p", "period", "s", "m1", "m2", "gap"):
            np.testing.assert_array_equal(getattr(both, name), getattr(plain, name))

    def test_constant_gradient_is_the_benchmark_slope(self):
        # At constant inflow m, w = lam m / (lam + m) for any durations, so
        # dw/dc_j = (lam / (lam + m))^2 h_j / T and dw/dh = 0.
        h = np.array([0.3, 1.1, 0.6])
        kernel = _PeriodRows([[2.0] * 3], [h], 1.5, gradient=True)
        np.testing.assert_allclose(kernel.dw_dc[0], (1.5 / 3.5) ** 2 * h / h.sum(),
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(kernel.dw_dh[0], 0.0, rtol=0.0, atol=1e-15)


def sequential_period(kernel, n):
    """The former period kernel, on row n of the kernel's own segment terms:
    b <- x_inf g + b d and R summed one segment at a time, x_p = b / (1 - a),
    then i_p and T summed along the orbit walked from x_p."""
    x_inf, g, d, rh, h, w = (a[:, n].tolist() for a in (kernel.x_inf, kernel.g, kernel.d,
                                                        kernel.rh, kernel.h, kernel.w))
    b = rate = 0.0
    for x_inf_j, g_j, d_j, rh_j in zip(x_inf, g, d, rh):
        b = x_inf_j * g_j + b * d_j
        rate += rh_j
    x = x_p = b / max(-math.expm1(-rate), math.ulp(0.0))
    i_p = period = 0.0
    for x_inf_j, h_j, w_j, d_j in zip(x_inf, h, w, d):
        dx = x - x_inf_j
        i_p += x_inf_j * h_j + dx * w_j
        period += h_j
        x = x_inf_j + dx * d_j
    return {"rate": rate, "b": b, "x_p": x_p, "i_p": i_p, "period": period}


def walked_period_states(kernel, n, x0, n_periods):
    """The former contraction walk: x <- d x + x_inf g one segment at a time."""
    steps = list(zip(kernel.d[:, n].tolist(), (kernel.x_inf * kernel.g)[:, n].tolist()))
    states = [x0]
    for _ in range(n_periods):
        for d, b in steps:
            x0 = x0 * d + b
        states.append(x0)
    return np.array(states)


class TestSequentialOracles:
    """The prefix-table kernel and walk against the sequential recurrences
    they replaced, at the extremes: nanosecond periods (R near 1e-9, where
    1 - a must come from expm1), R > 745 (a underflows to 0) and moderate
    rows, each with 1 and with 20 segments. Only the grouping of the same
    operations differs, so they agree to a few roundings per segment."""

    @staticmethod
    def rows(regime, k, n=100):
        rng = np.random.default_rng([k, len(regime)])
        levels = rng.uniform(0.0, 3.0, (n, k)) * 10.0 ** rng.uniform(-2, 2, (n, 1))
        lam = 10.0 ** rng.uniform(-2, 2, n)
        durations = rng.uniform(0.1, 1.0, (n, k)) / k
        if regime == "nanosecond":
            durations *= 1e-9
        elif regime == "underflow":
            lam = 10.0 ** rng.uniform(3, 5, n)
            durations += 1.0 / k
        else:
            durations *= 10.0 ** rng.uniform(-2, 1, (n, 1))
        return levels, durations, lam

    @pytest.mark.parametrize("k", [1, 20])
    @pytest.mark.parametrize("regime", ["nanosecond", "underflow", "moderate"])
    def test_kernel_matches_the_recurrences(self, regime, k):
        levels, durations, lam = self.rows(regime, k)
        kernel = _PeriodRows(levels, durations, lam)
        if regime == "nanosecond":
            assert np.all(kernel.rate < 1e-6)
        elif regime == "underflow":
            assert np.all(kernel.rate > 745.0) and np.all(np.exp(-kernel.rate) == 0.0)
        for n in range(len(lam)):
            for name, want in sequential_period(kernel, n).items():
                got = getattr(kernel, name)[n]
                assert abs(got - want) <= 1e-14 * abs(want), (name, n, got, want)

    @pytest.mark.parametrize("k", [1, 20])
    @pytest.mark.parametrize("regime", ["nanosecond", "underflow", "moderate"])
    def test_walk_matches_the_segment_walk(self, regime, k):
        levels, durations, lam = self.rows(regime, k)
        kernel = _PeriodRows(levels, durations, lam)
        x0 = np.random.default_rng(k).uniform(0.0, 1.0, len(lam))
        states = _period_states_rows(kernel, x0, 20)
        for n in range(len(lam)):
            want = walked_period_states(kernel, n, x0[n], 20)
            np.testing.assert_allclose(states[:, n], want, rtol=1e-13, atol=0.0)


class TestSegmentCountGuard:
    """The period kernel calls `_affine_prefix` a fixed number of times,
    however many segments a row has: a per-segment Python loop would show
    here as a count that grows with k, where a timing might not."""

    def test_prefix_calls_independent_of_the_segment_count(self, monkeypatch):
        calls = []
        prefix = dynamics._affine_prefix

        def counting(*args):
            calls.append(1)
            return prefix(*args)

        monkeypatch.setattr(dynamics, "_affine_prefix", counting)
        counts = []
        for k in (10, 10_000):
            rng = np.random.default_rng(k)
            levels, durations = rng.uniform(0.0, 2.0, (3, k)), rng.uniform(0.1, 1.0, (3, k)) / k
            calls.clear()
            kernel = _PeriodRows(levels, durations, 1.3, moments=True, gradient=True)
            assert np.all(np.isfinite(kernel.dw_dc)) and np.all(np.isfinite(kernel.gap))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestConstantBenchmark:
    def test_values(self):
        assert constant_benchmark(0.0, P1) == 0.0
        assert constant_benchmark(1.0, P1) == 0.5
        assert constant_benchmark(2.0, SystemParams(lam=2.0)) == 1.0

    def test_long_horizon_simulation_agrees(self):
        # lam=2, sigma=2: output 2 * x -> 2 * 0.5 = 1.0
        params = SystemParams(lam=2.0)
        traj = simulate(Constant(2.0), params, 0.0, 20.0)
        assert params.lam * traj.final_state == pytest.approx(1.0, abs=1e-6)

    def test_monotone_concave_saturating(self):
        lam = 1.7
        params = SystemParams(lam=lam)
        s = np.linspace(0.0, 50.0, 200)
        w = np.array([constant_benchmark(float(v), params) for v in s])
        assert np.all(np.diff(w) > 0.0)
        assert np.all(np.diff(w, 2) < 1e-12)
        assert constant_benchmark(1e9, params) == pytest.approx(lam, rel=1e-8)

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            constant_benchmark(-0.1, P1)

    def test_overflowing_product_and_sum(self):
        # lam s is kept bit for bit while finite; past that, lam (s / (lam + s)).
        for s, lam in ((0.3, 1.7), (1e150, 1e150), (3e-300, 2e10)):
            assert constant_benchmark(s, SystemParams(lam=lam)) == lam * s / (lam + s)
        assert constant_benchmark(1e300, SystemParams(lam=1e9)) == pytest.approx(1e9, rel=1e-15)
        with pytest.raises(SignalError, match="overflows"):
            constant_benchmark(1.7e308, SystemParams(lam=1e308))

    def test_overflowing_rate_raises(self):
        # lam + c overflows, so x_inf = c / r would read 0 and w come out 0.0
        with pytest.raises(SignalError, match="overflows"):
            output_for_levels([1.5e308], [1.0], 5e307)
        with pytest.raises(SignalError, match="overflows"):
            gap_report(Constant(1.7e308), SystemParams(lam=1e308))


class TestGapReport:
    def test_constant_has_no_gap(self):
        rep = gap_report(Constant(1.3, period=2.0), P1)
        assert rep.gap <= 1e-15
        assert rep.residual_gap <= 1e-12
        assert rep.residual_m1 <= 1e-12
        assert rep.residual_m2 <= 1e-12

    def test_two_level_identity_and_quadrature_oracle(self):
        rep = gap_report(TWO_LEVEL, P1)
        assert rep.sigma_bar == 1.0
        assert rep.x_star == 0.5
        assert rep.w_const == 0.5
        assert rep.residual_gap <= 1e-9
        assert rep.gap == pytest.approx(0.5 - W_TWO_LEVEL, abs=1e-8)
        # independent route: sub-sampled trapezoid of the gap integrand over
        # the dense exact trajectory, one smooth piece per segment (the
        # integrand jumps with sigma at the breakpoint)
        traj = simulate(TWO_LEVEL, P1, XP0_TWO_LEVEL, 2.0, 2.0 / 40_000)
        dev2 = (traj.states - 0.5) ** 2
        lo = traj.times <= 1.0
        hi = traj.times >= 1.0
        gap_quad = (
            float(np.trapezoid(dev2[lo] * 1.0, traj.times[lo]))
            + float(np.trapezoid(dev2[hi] * 3.0, traj.times[hi]))
        ) / 2.0
        assert rep.gap == pytest.approx(gap_quad, abs=1e-8)

    def test_gap_vanishes_quadratically_toward_mean(self):
        # squeeze the signal toward its mean and fit the gap decay rate
        epsilons = (1.0, 0.5, 0.25, 0.125)
        gaps = []
        for eps in epsilons:
            levels = tuple(1.0 + eps * (c - 1.0) for c in TWO_LEVEL.levels)
            sig = PiecewiseConstant(TWO_LEVEL.breakpoints, levels)
            gaps.append(gap_report(sig, P1).gap)
        slope = np.polyfit(np.log(epsilons), np.log(gaps), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_smooth_residuals_at_default_grid(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        rep = gap_report(sig, P1)
        assert rep.residual_gap <= 1e-5
        assert rep.residual_m1 <= 1e-5
        assert rep.residual_m2 <= 1e-5
        assert rep.w_sigma <= rep.w_const + 1e-9

    def test_aperiodic_rejected(self):
        sig = ClippedSinusoidSum(
            mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.0))
        )
        with pytest.raises(NonPeriodicSignalError):
            gap_report(sig, P1)


class TestMomentIdentities:
    def test_constant_is_algebraic_identity(self):
        r1, r2 = moment_residuals(Constant(2.0, period=1.0), P1)
        assert r1 <= 1e-12
        assert r2 <= 1e-12

    def test_two_level_within_tolerance(self):
        r1, r2 = moment_residuals(TWO_LEVEL, P1)
        assert r1 <= 1e-8
        assert r2 <= 1e-8

    def test_clip_active_smooth_within_default_tolerance(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        r1, r2 = moment_residuals(sig, P1)
        assert r1 <= 1e-5
        assert r2 <= 1e-5

    @pytest.mark.parametrize("step", [None, 2.0 * math.pi / 200, 2.0 * math.pi / 400],
                             ids=["default", "T/200", "T/400"])
    def test_clip_active_residuals_at_rounding_at_any_step(self, monkeypatch, step):
        # The clip points are step boundaries and int sigma is exact, so the
        # kink costs nothing: the identities hold to rounding at the default
        # step and at finer ones alike (set here in place of the default).
        sig = ClippedSinusoidSum(mean=1.0, terms=((2.0, 1.0, 0.0),))
        if step is not None:
            monkeypatch.setattr(dynamics, "default_step", lambda signal, params: step)
        rep = gap_report(sig, P1)
        assert max(rep.residual_gap, rep.residual_m1, rep.residual_m2) <= 1e-12
        assert rep.sigma_bar == pytest.approx(2.0 / 3.0 + math.sqrt(3.0) / math.pi, rel=1e-15)

    @pytest.mark.parametrize("signal", [
        ClippedSinusoidSum(mean=0.0, terms=((1.0, 2.0 * math.pi, 0.0),)),       # f(0) = 0 exactly
        ClippedSinusoidSum(mean=0.5, terms=((1.0, 2.0 * math.pi, -math.pi / 6.0),)),  # f(0) ~ 1e-17
    ])
    def test_clip_point_at_the_period_boundary(self, signal):
        # A clip point at t = 0 is also one at t = T. The report matches a
        # pass over the orbit at an eighth of the step: its w, and through
        # the gap identity, its gap w_const - w.
        lam = SystemParams(lam=3.0)
        rep = gap_report(signal, lam)
        assert max(rep.residual_gap, rep.residual_m1, rep.residual_m2) <= 1e-12
        assert rep.sigma_bar == pytest.approx(mean_over_period(signal), rel=1e-14)
        orbit = periodic_solution(signal, lam)
        _, int_x, _ = smooth_pass(signal, lam, orbit.states[0], np.array([signal.period]),
                                  dynamics.default_step(signal, lam) / 8)
        fine_w = lam.lam * int_x[0] / signal.period
        assert rep.w_sigma == pytest.approx(fine_w, rel=1e-13)
        assert rep.gap == pytest.approx(rep.w_const - fine_w, rel=1e-11)
        assert abs(orbit.states[-1] - orbit.states[0]) <= 1e-14


class TestRandomizedInvariants:
    def test_random_suite_clean(self):
        rng = np.random.default_rng(314)
        tol = SuiteTolerances()
        for _ in range(100):
            sig = random_piecewise_signal(rng)
            params = random_system(rng)
            report, failures = check_periodic_case(sig, params, tol)
            assert not failures, failures
            assert report.w_sigma <= report.w_const + 1e-9
            assert report.gap >= 0.0

    @pytest.mark.parametrize("check", [check_periodic_case, check_asymptotic_case])
    def test_checks_reject_inflow_that_does_not_repeat_piecewise(self, check):
        # Neither suite has a meaning for these: an aperiodic signal has no
        # orbit, and a smooth one has no closed form to check.
        aperiodic = PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0), periodic=False)
        with pytest.raises(NonPeriodicSignalError, match=r"cases\[0\] must be a periodic"):
            check(aperiodic, P1, SuiteTolerances())
        smooth = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        with pytest.raises(SignalError, match="got clipped_sinusoid_sum"):
            check(smooth, P1, SuiteTolerances())
        with pytest.raises(NonPeriodicSignalError, match=r"cases\[1\]"):
            run_verification(cases=[(TWO_LEVEL, P1), (aperiodic, P1)])

    def test_a_batch_reports_what_each_case_reports_alone(self):
        # The suites run all cases as one batch of rows; case by case and in
        # order they must report what the one-case checks report. Every
        # check but the contraction is made to fail; the contraction gets
        # no slack, so rounding decides at which period, if any, each start
        # first exceeds a^n dx0, and the per-period loop over the public
        # one-signal path is the reference for those messages.
        tol = SuiteTolerances(identity_residual=1e-17, contraction=0.0, gap_floor=0.05,
                              independence=-1.0, certificate=-1e3)
        rng = np.random.default_rng(12)
        cases = [(random_piecewise_signal(rng), random_system(rng)) for _ in range(40)]
        got = [(f["suite"], f["lam"], f["failures"])
               for f in run_verification(tolerances=tol, cases=cases).failures]
        want = [("periodic", p.lam, check_periodic_case(s, p, tol)[1]) for s, p in cases]
        want += [("asymptotic", p.lam, check_asymptotic_case(s, p, tol)) for s, p in cases]
        assert got == [case for case in want if case[2]]
        periods = []
        for (signal, params), (_, _, failures) in zip(cases, want[:40]):
            pm = poincare_map(signal, params)
            expected = []
            for x0 in (0.0, 1.0):
                states = period_states(signal, params, x0, 20)
                decay = 1.0
                for n in range(1, 21):
                    decay *= pm.a
                    limit = decay * abs(x0 - pm.fixed_point) + tol.contraction
                    if abs(states[n] - pm.fixed_point) > limit:
                        expected.append(f"contraction violated at period {n} from x0={x0}: "
                                        f"|x - x_p| = {abs(states[n] - pm.fixed_point):.3e} > "
                                        f"a^n dx0 + tol = {limit:.3e}")
                        periods.append(n)
                        break
            assert [f for f in failures if f.startswith("contraction")] == expected
        assert max(periods) > 1
        for (signal, params), (_, _, failures) in zip(cases, want[40:]):
            chk = solution_independence_check(signal, params, 0.0, 1.0, 100.0)
            assert failures[0] == (f"independence bound violated: "
                                   f"{chk.avg_diff!r} > {chk.bound!r}")
            for x0, failure in zip((0.0, 1.0), failures[1:]):
                taus = np.geomspace(1.0, 100.0, 16)
                ra = running_averages(signal, params, x0, 100.0, checkpoints=taus)
                worst = min(c.slack for c in finite_horizon_certificates(signal, params, ra))
                assert failure == f"certificate slack {worst:.3e} from x0={x0}"

    def test_contraction_observed_directly(self):
        pm = poincare_map(TWO_LEVEL, P1)
        xp0 = pm.fixed_point
        for x0 in (0.0, 1.0):
            states = period_states(TWO_LEVEL, P1, x0, 20)
            for n in range(1, 21):
                assert (abs(states[n] - xp0)
                        <= pm.a ** n * abs(x0 - xp0) + 1e-10)


@st.composite
def extreme_piecewise_cases(draw):
    """lam log-uniform on [1e-9, 1e9], period on [1e-12, 1e3], 1-8 segments,
    levels 0 or log-uniform on [1e-3, 1e6]."""
    lam = 10.0 ** draw(st.floats(-9.0, 9.0))
    period = 10.0 ** draw(st.floats(-12.0, 3.0))
    k = draw(st.integers(1, 8))
    widths = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    level = st.one_of(st.just(0.0), st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e))
    levels = draw(st.lists(level, min_size=k, max_size=k))
    bps = np.concatenate(([0.0], np.cumsum(widths))) * (period / widths.sum())
    bps[-1] = period
    return PiecewiseConstant(tuple(bps.tolist()), tuple(levels)), SystemParams(lam=lam)


class TestClosedFormAtExtremeScales:
    # At tiny periods 1 - a is far below double precision, so a fixed point
    # from 1 - a by subtraction has no correct digits. The fixed examples
    # are a nanosecond two-level signal, a nanosecond bang-bang point and a
    # picosecond signal at lam = 1e-9.
    @settings(derandomize=True, deadline=None)
    @given(extreme_piecewise_cases())
    @example((PiecewiseConstant((0.0, 4e-10, 1e-9), (2.0, 0.5)), P1))
    @example((PiecewiseConstant((0.0, 9.4e-10, 1e-9), (1.165, 0.0775)), P1))
    @example((PiecewiseConstant((0.0, 5e-13, 1e-12), (1e-5, 0.0)), SystemParams(lam=1e-9)))
    def test_identities_hold_to_rounding(self, case):
        sig, params = case
        report = gap_report(sig, params)
        tol = 1e-12 * max(report.sigma_bar, report.w_const)
        assert report.w_sigma <= report.w_const + tol
        assert report.residual_gap <= tol
        assert report.residual_m1 <= tol
        assert report.residual_m2 <= tol
        # The orbit started at the map's fixed point has the report's output.
        T = sig.duration
        x_p = poincare_map(sig, params).fixed_point
        int_x = exact_pass(sig, params, x_p, np.array([T]))[1][0]
        assert abs(params.lam * int_x / T - report.w_sigma) <= tol
        w = output_for_levels(sig.levels, sig.durations, params.lam)
        rows = output_for_level_rows([sig.levels], [sig.durations], params.lam)
        np.testing.assert_allclose(rows, [w], rtol=1e-14, atol=0.0)


def per_row_reports_csv(rows):
    """Reference writer: one f-string of field reprs per (signal, params, report)."""
    out = ["lam,period,sigma_bar,x_star,w_sigma,w_const,gap,residual_gap,residual_m1,"
           "residual_m2\n"]
    for signal, params, r in rows:
        out.append(
            f"{params.lam!r},{require_period(signal)!r},{r.sigma_bar!r},{r.x_star!r},"
            f"{r.w_sigma!r},{r.w_const!r},{r.gap!r},"
            f"{r.residual_gap!r},{r.residual_m1!r},{r.residual_m2!r}\n")
    return "".join(out)


class TestExport:
    def test_csv_row(self):
        rep = gap_report(TWO_LEVEL, P1)
        buf = io.StringIO()
        reports_to_csv([(TWO_LEVEL, P1, rep)], buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0][:4] == ["lam", "period", "sigma_bar", "x_star"]
        assert float(rows[1][0]) == 1.0
        assert float(rows[1][4]) == rep.w_sigma

    def test_rows_match_per_row_writer(self):
        smooth = ClippedSinusoidSum(mean=1.0, terms=((1.5, 2.0 * math.pi, 0.0),))
        edge = PeriodicReport(sigma_bar=-0.0, x_star=5e-324, w_sigma=1.7976931348623157e308,
                              w_const=math.inf, gap=math.nan, residual_gap=0.0,
                              residual_m1=-math.inf, residual_m2=-5e-324)
        rows = [(TWO_LEVEL, P1, gap_report(TWO_LEVEL, P1)),
                (smooth, SystemParams(lam=3.0), gap_report(smooth, SystemParams(lam=3.0))),
                (TWO_LEVEL, SystemParams(lam=1e-300), edge),
                (TWO_LEVEL, P1, gap_report(TWO_LEVEL, P1))]
        buf = io.StringIO()
        reports_to_csv(rows, buf)
        assert buf.getvalue() == per_row_reports_csv(rows)
        assert buf.getvalue().splitlines()[3].startswith("1e-300,2.0,-0.0,5e-324,")

    def test_header_only_without_rows(self):
        buf = io.StringIO()
        reports_to_csv([], buf)
        assert buf.getvalue() == per_row_reports_csv([]) == REPORT_CSV_HEADER + "\n"

    def test_json_provenance(self):
        rep = gap_report(TWO_LEVEL, P1)
        blob = report_to_json_dict(TWO_LEVEL, P1, rep, grid_step=None)
        text = json.dumps(blob, sort_keys=True)
        back = json.loads(text)
        assert back["signal"]["kind"] == "piecewise_constant"
        assert back["lam"] == 1.0
        assert back["residuals"]["gap_identity"] == rep.residual_gap
