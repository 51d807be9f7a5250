import csv
import decimal
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottleneck_lab.dynamics import (
    OVERSHOOT_TOL,
    DomainError,
    StepSizeError,
    _affine_step_coeffs,
    _exact_rows,
    default_step,
    exact_pass,
    simulate,
    smooth_pass,
    trajectory_to_csv,
)
from bottleneck_lab.signals import (
    ClippedSinusoidSum,
    Constant,
    PiecewiseConstant,
    QuadratureSpec,
    Sampled,
    SignalError,
    SystemParams,
    _pad_rows,
    evaluate_array,
)
from bottleneck_lab.periodic import _PeriodRows, _period_states_rows

P1 = SystemParams(lam=1.0)
TWO_LEVEL = PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0))


def rk4_constant(x0, c, lam, h, n):
    """Independent fine-step integrator for one constant-inflow segment."""
    f = lambda x: c * (1.0 - x) - lam * x
    step = h / n
    x = x0
    for _ in range(n):
        k1 = f(x)
        k2 = f(x + 0.5 * step * k1)
        k3 = f(x + 0.5 * step * k2)
        k4 = f(x + step * k3)
        x += step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return x


def step_exact(x0, level, h, params):
    """One constant-inflow segment through the exact walk: (x(h), int_0^h x)."""
    states, cum_x, _ = exact_pass(Constant(level, period=h), params, x0, np.asarray([h]))
    return float(states[0]), float(cum_x[0])


class TestStepExact:
    def test_fixed_point_is_invariant(self):
        c = 1.7
        x_star = c / (1.0 + c)
        x1, integral = step_exact(x_star, c, 0.9, P1)
        assert x1 == pytest.approx(x_star, abs=1e-15)
        assert integral == pytest.approx(x_star * 0.9, abs=1e-15)

    def test_half_unit_step_from_empty(self):
        x1, _ = step_exact(0.0, 1.0, 0.5, P1)
        expected = 0.5 * (1.0 - math.exp(-1.0))  # 0.31606027941427883
        assert x1 == pytest.approx(expected, abs=1e-15)
        assert x1 == pytest.approx(rk4_constant(0.0, 1.0, 1.0, 0.5, 50_000), abs=1e-12)

    def test_zero_inflow_is_pure_decay(self):
        for x0 in (0.0, 0.3, 1.0):
            x1, _ = step_exact(x0, 0.0, 0.7, P1)
            assert x1 == pytest.approx(x0 * math.exp(-0.7), abs=1e-15)

    @pytest.mark.parametrize("breakpoints", [(0.0, 1.0), (0.0, 0.5, 2.0, 4.0)])
    def test_decay_keeps_full_relative_precision(self, breakpoints):
        # The decay factor is e^{-r s} itself, not 1 - (1 - e^{-r s}), whose
        # absolute error of about 1e-16 left e^{-30} with 4 correct digits.
        # One segment exercises the partial step, three the prefix tables.
        times = np.array([10.0, 20.0, 30.0, 35.0])
        zero = PiecewiseConstant(breakpoints, (0.0,) * (len(breakpoints) - 1), periodic=False)
        states = exact_pass(zero, P1, 1.0, times)[0]
        np.testing.assert_allclose(states, np.exp(-times), rtol=1e-13, atol=0.0)

    def test_integral_matches_fine_riemann(self):
        x0, c, h = 0.2, 3.0, 0.8
        _, integral = step_exact(x0, c, h, P1)
        ts = np.linspace(0.0, h, 200_001)
        x_inf = c / (1.0 + c)
        xs = x_inf + (x0 - x_inf) * np.exp(-(1.0 + c) * ts)
        assert integral == pytest.approx(float(np.trapezoid(xs, ts)), abs=1e-11)

    def test_overflowing_rate_raises(self):
        # lam + c overflows to inf; the states would come out NaN
        with pytest.raises(SignalError, match="overflows"):
            exact_pass(Constant(1.5e308), SystemParams(lam=5e307), 0.5, np.asarray([0.5, 2.0]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            step_exact(-0.1, 1.0, 1.0, P1)
        with pytest.raises(DomainError):
            step_exact(1.1, 1.0, 1.0, P1)
        # a segment of zero length or negative inflow is not a signal
        with pytest.raises(SignalError):
            step_exact(0.5, 1.0, 0.0, P1)
        with pytest.raises(SignalError):
            step_exact(0.5, -1.0, 1.0, P1)


class TestSimulate:
    def test_zero_inflow_decay(self):
        # ~1000 chained exact steps accumulate a few ulp of drift
        traj = simulate(Constant(0.0), P1, 1.0, 1.0)
        assert traj.final_state == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_converges_to_steady_state(self):
        traj = simulate(Constant(1.0), P1, 0.0, 20.0)
        assert traj.final_state == pytest.approx(0.5, abs=1e-6)
        # approach is monotone from below
        assert np.all(np.diff(traj.states) >= -1e-15)
        assert np.all(traj.states <= 0.5 + 1e-12)

    def test_fixed_point_trajectory_is_flat(self):
        c = 2.0
        x_star = c / (1.0 + c)
        traj = simulate(Constant(c), P1, x_star, 5.0)
        np.testing.assert_allclose(traj.states, x_star, rtol=0, atol=1e-14)

    def test_breakpoints_land_on_grid(self):
        traj = simulate(TWO_LEVEL, P1, 0.0, 5.0)
        for b in (1.0, 2.0, 3.0, 4.0):
            assert b in traj.times

    def test_grid_matches_the_per_cycle_loop_bit_for_bit(self):
        def loop_grid(pw, horizon, record_step):
            uniform = np.linspace(0.0, horizon, max(1, round(horizon / record_step)) + 1)
            bounds = []
            cycle = 0
            while cycle * pw.duration < horizon:
                for b in pw.breakpoints[1:]:
                    if cycle * pw.duration + b < horizon:
                        bounds.append(cycle * pw.duration + b)
                cycle += 1
            return np.union1d(uniform, np.asarray(bounds))

        sig = PiecewiseConstant((0.0, 7e-4, 1.3e-3, 2e-3), (3.0, 0.0, 1.5))
        for horizon in (20.0, 20.0 + 1e-3, 19.9993):
            got = simulate(sig, P1, 0.0, horizon).times
            want = loop_grid(sig, horizon, horizon / 1000)
            assert got.tobytes() == want.tobytes()

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            simulate(Constant(1.0), P1, -0.2, 1.0)
        with pytest.raises(DomainError):
            simulate(Constant(1.0), P1, 0.0, -1.0)

    def test_smooth_matches_exact_on_constant_like_signal(self):
        # A sinusoid with zero amplitude is a constant; the numeric path must
        # agree with the closed form.
        smooth = ClippedSinusoidSum(mean=1.0, terms=((0.0, 1.0, 0.0),))
        traj = simulate(smooth, P1, 0.0, 2.0, QuadratureSpec(step=1e-3))
        expected = 0.5 * (1.0 - math.exp(-2.0 * 2.0))
        assert traj.final_state == pytest.approx(expected, abs=1e-12)

    def test_sampled_uses_exact_path(self):
        sig = Sampled(0.5, (2.0, 0.0, 1.0))
        traj = simulate(sig, P1, 0.3, 4.0)
        assert np.all(traj.states >= 0.0) and np.all(traj.states <= 1.0)
        # cross-check final state against explicit per-segment stepping
        x = 0.3
        t = 0.0
        while t < 4.0 - 1e-12:
            seg = int(t / 0.5) % 3
            x, _ = step_exact(x, sig.levels[seg], 0.5, P1)
            t += 0.5
        assert traj.final_state == pytest.approx(x, abs=1e-12)


class TestInvariants:
    def test_forward_invariance_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            bps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, n))))
            sig = PiecewiseConstant(tuple(bps), tuple(rng.uniform(0.0, 5.0, n)))
            params = SystemParams(lam=float(10.0 ** rng.uniform(-1, 1)))
            traj = simulate(sig, params, float(rng.uniform(0.0, 1.0)), 10.0)
            assert np.all(traj.states >= 0.0)
            assert np.all(traj.states <= 1.0)
            assert traj.cumulative_x[0] == 0.0
            assert np.all(np.diff(traj.cumulative_x) >= 0.0)

    def test_two_start_contraction_rate(self):
        # |x1(t) - x2(t)| = |dx0| e^{-int (lam+sigma)} <= |dx0| e^{-lam t}
        times = np.linspace(0.5, 20.0, 40)
        xs_a, _, cum_s = exact_pass(TWO_LEVEL, P1, 0.0, times)
        xs_b, _, _ = exact_pass(TWO_LEVEL, P1, 1.0, times)
        diff = np.abs(xs_b - xs_a)
        exact = np.exp(-(P1.lam * times + cum_s))
        np.testing.assert_allclose(diff, exact, rtol=0, atol=1e-8)
        assert np.all(diff <= np.exp(-P1.lam * times) + 1e-12)

    def test_order_preservation(self):
        rng = np.random.default_rng(8)
        times = np.linspace(0.1, 15.0, 60)
        for _ in range(10):
            a, b = sorted(rng.uniform(0.0, 1.0, 2))
            xs_a, _, _ = exact_pass(TWO_LEVEL, P1, float(a), times)
            xs_b, _, _ = exact_pass(TWO_LEVEL, P1, float(b), times)
            assert np.all(xs_a <= xs_b + 1e-15)

    def test_numeric_path_is_fourth_order(self):
        # Smooth (clip inactive) sinusoid; halving the step should cut the
        # final-state error against a step-1e-6 reference by about 16x.
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        horizon = 1.0
        ref = smooth_pass(sig, P1, 0.2, np.asarray([horizon]), 1e-6)[0][0]
        err = []
        for step in (0.02, 0.01):
            got = smooth_pass(sig, P1, 0.2, np.asarray([horizon]), step)[0][0]
            err.append(abs(got - ref))
        ratio = err[0] / err[1]
        assert 11.0 <= ratio <= 22.0

    def test_unstable_step_aborts_loudly(self):
        stiff = SystemParams(lam=200.0)
        sig = ClippedSinusoidSum(mean=0.5, terms=((0.1, 1.0, 0.0),))
        with pytest.raises(StepSizeError, match="step"):
            smooth_pass(sig, stiff, 1.0, np.asarray([1.0]), 0.05)

    def test_default_step_resolves_fastest_scale(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((2.0, 1.0, 0.0),))
        step = default_step(sig, SystemParams(lam=0.5))
        # min(0.01/0.5, 0.01/4, T/1e4) with T = 2 pi
        assert step == pytest.approx(2.0 * math.pi / 1e4)
        aperiodic = ClippedSinusoidSum(
            mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.0))
        )
        assert default_step(aperiodic, P1) == pytest.approx(0.01 / 3.0)


def mean_x(traj, t_from, t_to):
    """Time average of x over [t_from, t_to], two grid times of the trajectory."""
    i, j = np.searchsorted(traj.times, [t_from, t_to])
    assert traj.times[i] == t_from and traj.times[j] == t_to
    return (traj.cumulative_x[j] - traj.cumulative_x[i]) / (t_to - t_from)


class TestAverageX:
    """Time averages of x read from Trajectory.cumulative_x at grid times."""

    def test_constant_trajectory(self):
        traj = simulate(Constant(1.0), P1, 0.5, 4.0)
        assert mean_x(traj, 0.0, 4.0) == pytest.approx(0.5, abs=1e-14)
        assert mean_x(traj, 1.0, 3.0) == pytest.approx(0.5, abs=1e-14)

    def test_charging_segment_average(self):
        # lam=1, c=1, x0=0 on [0, 0.5]: mean x = e^{-1}/2, checked against a
        # fine Riemann sum of the explicit solution.
        traj = simulate(Constant(1.0), P1, 0.0, 1.0, QuadratureSpec(step=0.25))
        got = mean_x(traj, 0.0, 0.5)
        ts = np.linspace(0.0, 0.5, 2_000_001)
        oracle = float(np.trapezoid(0.5 * (1.0 - np.exp(-2.0 * ts)), ts)) / 0.5
        assert oracle == pytest.approx(math.exp(-1.0) / 2.0, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_two_segment_average_against_segmented_rk4(self):
        xp0 = 0.6452942644799433  # periodic start for TWO_LEVEL at lam=1
        traj = simulate(TWO_LEVEL, P1, xp0, 2.0)
        got = mean_x(traj, 0.0, 2.0)
        # brute force: fine RK4 within each segment, trapezoid the states
        def seg(x0, c, n=200_000):
            f = lambda x: c * (1.0 - x) - x
            h = 1.0 / n
            xs = np.empty(n + 1)
            xs[0] = x0
            x = x0
            for i in range(n):
                k1 = f(x)
                k2 = f(x + 0.5 * h * k1)
                k3 = f(x + 0.5 * h * k2)
                k4 = f(x + h * k3)
                x += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                xs[i + 1] = x
            return x, float(np.trapezoid(xs, dx=h))

        x_mid, i1 = seg(xp0, 0.0)
        _, i2 = seg(x_mid, 2.0)
        assert got == pytest.approx((i1 + i2) / 2.0, abs=1e-9)


class TestCsvExport:
    def test_roundtrip_and_columns(self):
        traj = simulate(TWO_LEVEL, P1, 0.25, 3.0)
        buf = io.StringIO()
        trajectory_to_csv(traj, TWO_LEVEL, buf)
        text = buf.getvalue()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "x", "sigma", "cumulative_x"]
        assert len(rows) == traj.times.size + 1
        # full double round-trip formatting
        for i in (1, len(rows) // 2, len(rows) - 1):
            t, x, s, c = map(float, rows[i])
            j = i - 1
            assert t == traj.times[j]
            assert x == traj.states[j]
            assert c == traj.cumulative_x[j]
        # sigma column is the level of the segment starting at each time
        by_t = {float(r[0]): float(r[2]) for r in rows[1:]}
        assert by_t[0.0] == 0.0
        assert by_t[1.0] == 2.0
        assert by_t[2.0] == 0.0

    def test_sigma_column_is_the_level_the_walk_integrates(self):
        # Tiny period over a long horizon: the walk starts cycle c + 1 at
        # c*T + T, which is not always the double nearest (c + 1)*T. Between
        # consecutive rows the walk integrates one level, read back from the
        # cumulative inflow; the sigma column must name that level.
        sig = PiecewiseConstant((0.0, 1e-3, 2e-3), (3.0, 0.0))
        traj = simulate(sig, P1, 0.0, 20.0)
        buf = io.StringIO()
        trajectory_to_csv(traj, sig, buf)
        sigma = np.array([float(r[2]) for r in list(csv.reader(io.StringIO(buf.getvalue())))[1:]])
        _, _, cum_s = exact_pass(sig, P1, 0.0, traj.times)
        widths = np.diff(traj.times)
        wide = widths > 1e-9
        walked = np.diff(cum_s)[wide] / widths[wide]
        np.testing.assert_allclose(sigma[:-1][wide], walked, rtol=0, atol=1e-3)
        assert sigma[0] == 3.0 and evaluate_array(sig, [20.0])[0] == sigma[-1]


def walk_oracle(signal, lam, x0, record_times):
    """The segment-by-segment walk exact_pass did before it jumped whole cycles."""
    bps, lvls, n_seg, period = signal.breakpoints, signal.levels, len(signal.levels), signal.duration
    out = np.empty((3, len(record_times)))
    t = cum_x = cum_s = 0.0
    x, cycle, seg, k = x0, 0, 0, 0
    while k < len(record_times) and record_times[k] <= t:
        out[:, k] = x, cum_x, cum_s
        k += 1
    while k < len(record_times):
        if signal.periodic:
            boundary = cycle * period + bps[seg + 1]
        elif seg < n_seg - 1:
            boundary = bps[seg + 1]
        else:
            boundary = math.inf
        target = record_times[k]
        t_next = min(boundary, target)
        h = t_next - t
        if h > 0.0:
            level = lvls[seg]
            r = lam + level
            x_inf = level / r
            g = -math.expm1(-r * h)
            delta = x - x_inf
            cum_x += x_inf * h + delta * g / r
            cum_s += level * h
            x = min(max(x_inf + delta * (1.0 - g), 0.0), 1.0)
            t = t_next
        if boundary <= target:
            seg += 1
            if seg == n_seg:
                seg, cycle = (0, cycle + 1) if signal.periodic else (n_seg - 1, cycle)
        while k < len(record_times) and record_times[k] <= t:
            out[:, k] = x, cum_x, cum_s
            k += 1
    return out


def rk4_loop_oracle(signal, lam, x0, t0, t1, n_steps):
    """The step-by-step RK4 loop the smooth path ran before the prefix scan."""
    h = (t1 - t0) / n_steps
    sig = evaluate_array(signal, t0 + 0.5 * h * np.arange(2 * n_steps + 1))
    A, B = _affine_step_coeffs(sig[0:-2:2], sig[1:-1:2], sig[2::2], lam, h)
    svals = sig[0::2]
    states = [x0]
    x, cum_x, cum_s = x0, 0.0, 0.0
    for i in range(n_steps):
        x_new = A[i] * x + B[i]
        over = max(-x_new, x_new - 1.0)
        if over > 0.0:
            if over >= OVERSHOOT_TOL:
                raise StepSizeError(f"overshoot {over} at step {i}")
            x_new = min(max(x_new, 0.0), 1.0)
        cum_x += 0.5 * h * (x + x_new)
        cum_s += 0.5 * h * (svals[i] + svals[i + 1])
        x = x_new
        states.append(x)
    return np.array(states), cum_x, cum_s


class TestPeriodJumps:
    """exact_pass jumps whole cycles in closed form; the walk is the oracle."""

    @staticmethod
    def random_signal(rng):
        n = int(rng.integers(1, 6))
        widths = rng.uniform(0.05, 1.0, n)
        period = float(10.0 ** rng.uniform(-3, 1))
        bps = np.concatenate(([0.0], np.cumsum(widths)))
        bps = bps * (period / bps[-1])
        bps[-1] = period
        levels = rng.uniform(0.0, 5.0, n)
        if n > 1 and rng.uniform() < 0.3:
            levels[int(rng.integers(n))] = 0.0
        return PiecewiseConstant(tuple(bps), tuple(levels))

    @staticmethod
    def record_times(rng, signal):
        period = signal.duration
        inner = signal.breakpoints[1:-1]
        cycles = np.sort(rng.integers(0, 3000, 12)).astype(float)
        times = [
            float(cycles[0] * period),                      # on a cycle boundary
            float(cycles[1] * period + 0.3 * signal.breakpoints[1]),  # inside segment 0
            float((cycles[2] - 1) * period + period),       # the walk's own cycle end
            float(cycles[3] * period + period * rng.uniform()),
        ]
        if inner:
            times.append(float(cycles[4] * period + inner[0]))  # on an inner boundary
        times += (cycles[5:] * period + period * rng.uniform(size=7)).tolist()
        times.append(float(cycles[-1] + 40) * period)       # many periods apart
        return np.unique(np.asarray(times))

    @pytest.mark.parametrize("lam", [1e-9, 1.0, 1e9])
    def test_jump_matches_walk(self, lam):
        rng = np.random.default_rng(int(math.log10(lam)) + 40)
        params = SystemParams(lam=lam)
        for _ in range(20):
            sig = self.random_signal(rng)
            times = self.record_times(rng, sig)
            x0 = float(rng.choice([0.0, 1.0, rng.uniform()]))
            got = np.array(exact_pass(sig, params, x0, times))
            want = walk_oracle(sig, lam, x0, times)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_records_inside_segment_zero_keep_the_walk_in_phase(self):
        # After a record inside segment 0 the walk is not at a cycle start
        # although it is in segment 0; a jump from there would shift phase.
        sig = PiecewiseConstant((0.0, 0.5, 1.0), (4.0, 0.0))
        times = np.array([0.25, 50.25, 50.75, 300.0, 300.1, 2000.6])
        got = np.array(exact_pass(sig, P1, 0.2, times))
        np.testing.assert_allclose(got, walk_oracle(sig, 1.0, 0.2, times), rtol=1e-12, atol=0.0)

    def test_weak_contraction_against_high_precision(self):
        # Each segment moves x by a fraction g ~ 1e-9 of its distance to
        # x_inf, so a cancelling form of the one-period image b loses about
        # eps / g of it. Reference: the same closed form in 40 digits.
        D = decimal.Decimal
        sig = PiecewiseConstant((0.0, 4e-10, 1e-9), (2.0, 0.5))
        lam, x0 = 1.0, 0.9
        cycles = (10**3, 10**6, 10**9)
        times = np.array([(m - 1) * 1e-9 + 1e-9 for m in cycles])
        segs = [(D(c), D(h)) for c, h in zip(sig.levels, sig.durations)]

        def walk(x):
            integral = D(0)
            for c, h in segs:
                r = D(lam) + c
                x_inf, d = c / r, (-r * h).exp()
                integral += x_inf * h + (x - x_inf) * (1 - d) / r
                x = x_inf + (x - x_inf) * d
            return x, integral

        with decimal.localcontext() as ctx:
            ctx.prec = 40
            a = (-sum((D(lam) + c) * h for c, h in segs)).exp()
            x_p = walk(D(0))[0] / (1 - a)
            i_p = walk(x_p)[1]
            p = walk(x_p + 1)[1] - i_p
            want_x = [x_p + (D(x0) - x_p) * a**m for m in cycles]
            want_ix = [m * i_p + p * (D(x0) - x_p) * (1 - a**m) / (1 - a) for m in cycles]
        got_x, got_ix, _ = exact_pass(sig, SystemParams(lam=lam), x0, times)
        np.testing.assert_allclose(got_x, [float(v) for v in want_x], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got_ix, [float(v) for v in want_ix], rtol=1e-13, atol=0.0)

    def test_decay_below_double_precision(self):
        # lam * T underflows to 0: the jump sees a = 1 exactly, as the walk
        # does, so x stays 0.5 and int x = 0.5 t. The integral weight
        # h phi(r h) keeps h where the walk oracle's g / r drops to 0.
        sig = PiecewiseConstant((0.0, 1e-30, 2e-30), (0.0, 0.0))
        times = np.array([1e-28, 3e-27])
        got = np.array(exact_pass(sig, SystemParams(lam=1e-300), 0.5, times))
        want = walk_oracle(sig, 1e-300, 0.5, times)
        np.testing.assert_array_equal(got[[0, 2]], want[[0, 2]])
        np.testing.assert_allclose(got[1], 0.5 * times, rtol=1e-15, atol=0.0)

    def test_cycle_tables_are_blocked_without_changing_a_bit(self, monkeypatch):
        import bottleneck_lab.dynamics as dynamics

        sig = Sampled(1e-3, np.random.default_rng(0).uniform(0.0, 3.0, 50))
        times = np.linspace(0.0, 40.0, 500)
        whole = exact_pass(sig, SystemParams(lam=2.0), 0.3, times)
        monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", 200)    # 3 cycles a block
        for got, want in zip(exact_pass(sig, SystemParams(lam=2.0), 0.3, times), whole):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_ten_thousand_samples_match_the_walk(self, periodic):
        # simulate records at every segment boundary, so a run over a
        # signal with k samples has at least k record times; the exact
        # path serves them all without a Python loop over the segments.
        sig = Sampled(1e-2, np.random.default_rng(3).uniform(0.0, 5.0, 10_000), periodic)
        traj = simulate(sig, SystemParams(lam=1.3), 0.2, 250.0)
        assert traj.times.size > 10_000
        want = walk_oracle(sig, 1.3, 0.2, traj.times)
        np.testing.assert_allclose(traj.states, want[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.cumulative_x, want[1], rtol=1e-12, atol=0.0)

    def test_aperiodic_signal_holds_last_level(self):
        sig = PiecewiseConstant((0.0, 0.5, 1.0), (4.0, 1.0), periodic=False)
        times = np.array([0.2, 0.75, 30.0, 400.0])
        got = np.array(exact_pass(sig, P1, 0.9, times))
        np.testing.assert_allclose(got, walk_oracle(sig, 1.0, 0.9, times), rtol=1e-12, atol=0.0)


def rk4_records_oracle(signal, lam, x0, record_times, step):
    """smooth_pass as it ran before the one scan: the loop oracle restarted on
    each record interval, max(1, ceil(gap / step)) steps per positive gap."""
    t, x, cum_x, cum_s = 0.0, x0, 0.0, 0.0
    out = []
    for target in record_times:
        if target > t:
            states, dx, ds = rk4_loop_oracle(signal, lam, x, t, target,
                                             max(1, math.ceil((target - t) / step)))
            t, x, cum_x, cum_s = target, states[-1], cum_x + dx, cum_s + ds
        out.append((x, cum_x, cum_s))
    return np.array(out).T


class TestPrefixScan:
    """One chunked prefix scan steps the smooth path; the loop is the oracle."""

    SIGNALS = (
        ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),)),
        ClippedSinusoidSum(mean=0.7, terms=((1.2, 3.0, 0.4), (0.5, 3.0 * math.sqrt(2.0), 1.0))),
    )

    @pytest.mark.parametrize("signal", SIGNALS)
    @pytest.mark.parametrize("lam", [0.3, 50.0])
    def test_scan_matches_loop(self, signal, lam):
        params = SystemParams(lam=lam)
        step = default_step(signal, params)
        horizon = 3000 * step
        record_lists = (
            np.array([horizon / 3, horizon]),
            np.geomspace(horizon / 1000, horizon, 64),      # as running_averages passes
            np.array([horizon / 2, horizon / 2 + 0.3 * step, horizon]),   # gap below a step
            np.array([horizon / 4, horizon / 4, horizon]),  # a repeated record time
        )
        for x0 in (0.0, 0.45, 1.0):
            traj = simulate(signal, params, x0, horizon)
            states, _, _ = rk4_loop_oracle(signal, lam, x0, 0.0, horizon, traj.times.size - 1)
            np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=0.0)
            for records in record_lists:
                got = smooth_pass(signal, params, x0, records, step)
                want = rk4_records_oracle(signal, lam, x0, records, step)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_long_block_is_chunked_without_changing_the_states(self, monkeypatch):
        import bottleneck_lab.dynamics as dynamics

        signal, params = self.SIGNALS[1], SystemParams(lam=2.0)
        whole = simulate(signal, params, 0.3, 5.0, QuadratureSpec(step=1e-3))
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 7)
        chunked = simulate(signal, params, 0.3, 5.0, QuadratureSpec(step=1e-3))
        np.testing.assert_allclose(chunked.states, whole.states, rtol=1e-13, atol=0.0)

    def test_memory_is_bounded_by_the_chunk(self):
        # 2^20 steps and 64 records: the whole grid would take hundreds of
        # chunk-sized arrays; the scan holds a few dozen at any time.
        import tracemalloc

        import bottleneck_lab.dynamics as dynamics

        step = 1e-3
        records = np.geomspace(2 ** 20 * step / 1000, 2 ** 20 * step, 64)
        tracemalloc.start()
        try:
            smooth_pass(self.SIGNALS[1], P1, 0.3, records, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 8 * dynamics._CHUNK_STEPS

    @pytest.mark.parametrize("step, message", [
        (0.0, "step must be positive and finite, got 0.0"),
        (-1e-3, "step must be positive and finite, got -0.001"),
        (math.nan, "step must be positive and finite, got nan"),
        (math.inf, "step must be positive and finite, got inf"),
        (1e-300, "step 1e-300 needs 1e\\+300 steps to reach t=1.0, more than int64 holds"),
    ])
    def test_unusable_step_is_a_domain_error(self, step, message):
        with pytest.raises(DomainError, match=message):
            smooth_pass(self.SIGNALS[0], P1, 0.3, np.asarray([1.0]), step)

    @pytest.mark.parametrize("lam, first_state", [(1e100, "inf"), (1e200, "nan")])
    def test_unstable_step_to_inf_or_nan_raises(self, lam, first_state):
        # At h (lam + sigma) ~ 1e97 the step coefficients overflow: the first
        # state is inf at lam = 1e100 and NaN (inf - inf) at lam = 1e200.
        # Neither may pass as a state; a NaN fails every comparison, so it
        # is caught by requiring the state inside the band, not outside it.
        sig = ClippedSinusoidSum(mean=0.5, terms=((0.1, 1.0, 0.0),))
        with pytest.raises(StepSizeError, match=f"left \\[0, 1\\] by {first_state} at t=0.001;"):
            smooth_pass(sig, SystemParams(lam=lam), 0.5, np.asarray([1e-2]), 1e-3)


@st.composite
def exact_cases(draw, conditioned=False, max_segments=6):
    """A signal (periodic or not, widths 1e-12..10), lam in [1e-9, 1e9], x0,
    and record times on the walk's cycle ends, inside segment 0, on inner
    boundaries and at random phases, over up to 100 cycles.

    Widths are whole multiples of 2^-40, so every boundary sum c*T + t_i
    the walk forms is exact: the walk then integrates the same segments in
    every cycle, as the period jump does. (Otherwise each sum rounds to an
    ulp of c*T, and at large lam that moves the walk's state by more than
    1e-12.) Levels are 0 or 1e-3..10. With `conditioned`, every level lies
    in [0.4, 100] lam, so x_inf >= 0.28, and x0 >= 0.25: every state then
    stays above 0.25 and the walk's piece formula is accurate to a few ulp.
    """
    lam = 10.0 ** draw(st.floats(-9.0, 9.0))
    k = draw(st.integers(1, max_segments))
    quantum = 2.0 ** -40
    widths = [max(1.0, round(10.0 ** e / quantum)) * quantum
              for e in draw(st.lists(st.floats(-12.0, 1.0), min_size=k, max_size=k))]
    if conditioned:
        level = st.floats(-0.4, 2.0).map(lambda e: lam * 10.0 ** e)
        start = st.floats(0.25, 1.0)
    else:
        level = st.one_of(st.just(0.0), st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e))
        start = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    levels = draw(st.lists(level, min_size=k, max_size=k))
    bps = np.concatenate(([0.0], np.cumsum(widths))).tolist()
    signal = PiecewiseConstant(tuple(bps), tuple(levels), periodic=draw(st.booleans()))
    x0 = draw(start)
    period = signal.duration
    cycles = draw(st.lists(st.integers(0, 100), min_size=1, max_size=4))
    phases = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4))
    times = [float((c - 1) * period + period) for c in cycles if c > 0]
    times += [c * period + 0.3 * bps[1] for c in cycles]
    times += [c * period + b for c in cycles for b in bps[1:-1]]
    times += [c * period + u * period for c, u in zip(cycles, phases)]
    return signal, lam, x0, np.unique(np.asarray(times))


class TestExactRowsProperties:
    """The walk-free exact rows against the walk, and rows against batches.

    The walk steps x_inf + (x - x_inf)(1 - g) piece by piece, which carries
    an absolute error of about eps |x - x_inf| per piece: where a state is
    far smaller than its change (decay toward 0 over a long piece, or a
    short step up from x0 = 0) the walk itself has no 12 correct digits.
    So the relative comparison runs where every state stays above 0.25,
    and the full range is compared at 1e-12 of each quantity's scale:
    1 for states and t for int_0^t x.
    """

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(exact_cases(conditioned=True))
    def test_matches_the_walk(self, case):
        signal, lam, x0, times = case
        got = np.array(exact_pass(signal, SystemParams(lam=lam), x0, times))
        np.testing.assert_allclose(got, walk_oracle(signal, lam, x0, times), rtol=1e-12, atol=0.0)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(exact_cases())
    def test_matches_the_walk_at_every_scale(self, case):
        signal, lam, x0, times = case
        states, int_x, int_s = exact_pass(signal, SystemParams(lam=lam), x0, times)
        want = walk_oracle(signal, lam, x0, times)
        np.testing.assert_allclose(states, want[0], rtol=1e-12, atol=1e-12)
        assert np.all(np.abs(int_x - want[1]) <= 1e-12 * np.maximum(np.abs(want[1]), times))
        np.testing.assert_allclose(int_s, want[2], rtol=1e-12, atol=0.0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(exact_cases(max_segments=20), min_size=2, max_size=5))
    def test_a_padded_batch_is_each_row_alone(self, cases):
        signals = [signal for signal, _, _, _ in cases]
        lam = np.array([lam for _, lam, _, _ in cases])
        x0 = np.array([x0 for _, _, x0, _ in cases])
        times = np.unique(np.concatenate([t for _, _, _, t in cases]))
        padded = _pad_rows(signals)
        batch = _exact_rows(*padded, lam, x0, times)
        kernel = _PeriodRows(padded[0], np.diff(padded[1], axis=1), lam, moments=True,
                             gradient=True)
        states = _period_states_rows(kernel, x0, 3)
        for n, signal in enumerate(signals):
            levels, bps, periodic = _pad_rows([signal])
            alone = _exact_rows(levels, bps, periodic, lam[n:n + 1], x0[n:n + 1], times)
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[n], want[0])
            one = _PeriodRows(levels, np.diff(bps, axis=1), lam[n], moments=True, gradient=True)
            for name in ("rate", "b", "i_p", "s", "period", "m1", "m2", "gap"):
                assert getattr(kernel, name)[n] == getattr(one, name)[0], name
            k = len(signal.levels)
            for name in ("dw_dc", "dw_dh"):
                np.testing.assert_array_equal(getattr(kernel, name)[n, :k], getattr(one, name)[0])
            np.testing.assert_array_equal(states[:, n], _period_states_rows(one, x0[n], 3)[:, 0])


class TestSegmentCountGuard:
    """The exact path builds segment tables a fixed number of times, however
    many segments the signal has: a per-segment Python loop would show here
    as a count that grows with the samples, where a timing might not."""

    @pytest.mark.parametrize("periodic, expected", [(True, 2), (False, 1)])
    @pytest.mark.parametrize("run", ["simulate", "running_averages"])
    def test_tables_built_independently_of_the_sample_count(self, monkeypatch, run,
                                                             periodic, expected):
        import bottleneck_lab.dynamics as dynamics
        from bottleneck_lab.asymptotic import running_averages

        calls = []
        init = dynamics._SegmentTables.__init__

        def counting_init(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(dynamics._SegmentTables, "__init__", counting_init)
        counts = []
        for n in (10, 10_000):
            values = np.random.default_rng(n).uniform(0.0, 2.0, n)
            signal = Sampled(1.0 / n, values, periodic=periodic)
            calls.clear()
            if run == "simulate":
                traj = simulate(signal, P1, 0.2, 30.0)    # 30 periods
                assert np.all(np.isfinite(traj.states))
            else:
                ra = running_averages(signal, P1, 0.2, 100.0)
                assert np.all(np.isfinite(ra.cumulative_x))
            counts.append(len(calls))
        assert counts == [expected, expected]
