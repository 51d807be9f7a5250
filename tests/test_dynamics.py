import csv
import decimal
import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bottleneck_lab.dynamics as dynamics
from bottleneck_lab.dynamics import (
    OVERSHOOT_TOL,
    DomainError,
    _exact_rows,
    default_step,
    numeric_step,
    exact_pass,
    simulate,
    smooth_pass,
    trajectory_to_csv,
)
from bottleneck_lab.signals import (
    ClippedSinusoidSum,
    Constant,
    PiecewiseConstant,
    Sampled,
    SignalError,
    SystemParams,
    _pad_rows,
    evaluate_array,
    mean_over_period,
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
        # Each boundary c*T + t_i is the first double at or above its exact
        # rational value, the first double placed in the segment it starts.
        def loop_grid(pw, horizon, record_step):
            uniform = np.linspace(0.0, horizon, max(1, round(horizon / record_step)) + 1)
            bounds = []
            cycle = 0
            while cycle * Fraction(pw.duration) < horizon:
                for b in pw.breakpoints[1:]:
                    exact = cycle * Fraction(pw.duration) + Fraction(b)
                    t = float(exact)
                    if Fraction(t) < exact:
                        t = float(np.nextafter(t, math.inf))
                    if t < horizon:
                        bounds.append(t)
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
        for signal in (Constant(1.0), ClippedSinusoidSum(mean=1.0, terms=((0.5, 1.0, 0.0),))):
            for step in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match="step must be positive and finite"):
                    simulate(signal, P1, 0.0, 1.0, step)

    def test_smooth_matches_exact_on_constant_like_signal(self):
        # A sinusoid with zero amplitude is a constant; the numeric path must
        # agree with the closed form.
        smooth = ClippedSinusoidSum(mean=1.0, terms=((0.0, 1.0, 0.0),))
        traj = simulate(smooth, P1, 0.0, 2.0, 1e-3)
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

    def test_numeric_path_order(self):
        # One fitted step's end state against `ivp_oracle`: the Gauss
        # interpolant of the forcing, integrated against the exact kernel,
        # errs by O(h^13) locally, so halving a coarse step from 0.4 cuts the
        # error by about 2^13. The errors, 3.0e-10 and 5.0e-14, sit 70 times
        # above the oracle's own (7e-16, against a 30-digit Taylor solution),
        # which moves the measured ratio of 6.1e3 by under 2%.
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        errors = []
        for h in (0.4, 0.2):
            _, decay, drive, _, _ = dynamics._fitted_steps(sig, 1.0, np.array([0.0, h]),
                                                           np.array([h]))
            exact = ivp_oracle(sig, 1.0, 0.2, np.array([h]))[0, 0]
            errors.append(abs(decay[0, -1] * 0.2 + drive[0, -1] - exact))
        assert 2.0 ** 12 <= errors[0] / errors[1] <= 2.0 ** 14

    def test_step_past_the_lam_cap_is_split(self):
        # lam h = 10 is past where the fitted end weights stay positive, so
        # the scan takes steps of 1/lam: the run is the one at 1/lam, its
        # states stay in [0, 1] and match a run at an eighth of that step.
        stiff = SystemParams(lam=200.0)
        sig = ClippedSinusoidSum(mean=0.5, terms=((0.1, 1.0, 0.0),))
        assert numeric_step(sig, stiff) == 1.0 / 200.0
        times = np.linspace(0.01, 1.0, 12)
        got = np.array(smooth_pass(sig, stiff, 1.0, times, 0.05))
        np.testing.assert_array_equal(got, smooth_pass(sig, stiff, 1.0, times, 1.0 / 200.0))
        want = np.array(smooth_pass(sig, stiff, 1.0, times, 1.0 / 1600.0))
        assert np.all((got[0] >= 0.0) & (got[0] <= 1.0))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_default_step_resolves_fastest_scale(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((2.0, 1.0, 0.0),))
        # min(0.1/omega_max, 0.1/max sigma, 1/lam) = min(0.1, 0.1/3, 2)
        assert default_step(sig, SystemParams(lam=0.5)) == pytest.approx(0.1 / 3.0)
        aperiodic = ClippedSinusoidSum(
            mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.0))
        )
        assert default_step(aperiodic, P1) == pytest.approx(0.05)
        assert default_step(aperiodic, SystemParams(lam=1e4)) == pytest.approx(1e-4)


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
        traj = simulate(Constant(1.0), P1, 0.0, 1.0, 0.25)
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


def per_row_trajectory_csv(traj, signal):
    """Reference writer: one f-string of field reprs per trajectory row."""
    out = ["t,x,sigma,cumulative_x\n"]
    sigma = evaluate_array(signal, traj.times).tolist()
    for t, x, s, c in zip(traj.times.tolist(), traj.states.tolist(), sigma,
                          traj.cumulative_x.tolist()):
        out.append(f"{t!r},{x!r},{s!r},{c!r}\n")
    return "".join(out)


def recurring_columns(n_rows, seed):
    """Three float columns for the writer: one value in every row, draws from
    a pool of 3000 values (more than the 3 * _CSV_CHUNK of a chunk, so values
    recur in chunks that are not adjacent) and fresh draws; 0.0 and -0.0, and
    two NaN payloads, on opposite sides of chunk boundaries."""
    rng = np.random.default_rng(seed)
    pool = rng.uniform(-1.0, 1.0, 3000)
    columns = np.stack([np.full(n_rows, 0.1), rng.choice(pool, n_rows), rng.normal(size=n_rows)])
    nan_a, nan_b = np.array([0x7FF8000000000001, -0x0008000000000000]).view(np.float64)
    chunk = dynamics._CSV_CHUNK
    for row, column, value in ((chunk - 1, 1, 0.0), (chunk, 1, -0.0),
                               (2 * chunk - 1, 2, -0.0), (2 * chunk, 2, 0.0),
                               (3 * chunk - 1, 0, nan_a), (3 * chunk, 0, nan_b)):
        columns[column, row] = value
    return columns


def per_row_csv(columns):
    """Reference writer: the field reprs of each row, joined."""
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns.tolist()))


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

    @pytest.mark.parametrize("signal", [
        PiecewiseConstant((0.0, 1e-3, 2e-3), (3.0, 0.0)),                    # exact path
        ClippedSinusoidSum(mean=1.0, terms=((1.5, 2.0 * math.pi, 0.0),)),    # smooth, clipped
    ])
    def test_matches_per_row_writer_across_chunks(self, signal):
        traj = simulate(signal, P1, 0.25, 3.0)
        assert traj.times.size > 2 * dynamics._CSV_CHUNK
        buf = io.StringIO()
        trajectory_to_csv(traj, signal, buf)
        assert buf.getvalue() == per_row_trajectory_csv(traj, signal)

    def test_write_rows_reuses_texts_across_chunks_and_calls(self):
        columns = recurring_columns(4 * dynamics._CSV_CHUNK + 100, seed=3)
        assert len(np.unique(columns.view(np.int64))) > 3 * dynamics._CSV_CHUNK
        want = per_row_csv(columns).splitlines()
        buf = io.StringIO()
        dynamics._write_rows(buf, *columns)
        assert buf.getvalue().splitlines() == want
        # One memo list carries from call to call, mid-chunk or not.
        for cut in (700, 2 * dynamics._CSV_CHUNK):
            buf, memo = io.StringIO(), [None]
            dynamics._write_rows(buf, *columns[:, :cut], memo=memo)
            dynamics._write_rows(buf, *columns[:, cut:], memo=memo)
            assert buf.getvalue().splitlines() == want

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


def rational_place(signal, t):
    """(cycle, phase) of t by exact rational arithmetic, t = cycle*T + phase
    with 0 <= phase < T; the phase is a double, as fmod's is. Aperiodic
    signals have cycle 0 and phase t."""
    if not signal.periodic:
        return 0, t
    cycle, phase = divmod(Fraction(t), Fraction(signal.duration))
    return int(cycle), float(phase)


def walk_oracle(signal, lam, x0, record_times):
    """A segment-by-segment walk over the nominal widths: every cycle steps
    from t_i to t_{i+1}, and a record time, placed as a whole cycle plus its
    exact phase (`rational_place`), ends a partial step at that phase."""
    bps, lvls, n_seg = signal.breakpoints, signal.levels, len(signal.levels)
    out = np.empty((3, len(record_times)))
    cum_x = cum_s = pos = 0.0
    x, cycle, seg = x0, 0, 0
    for k, t in enumerate(record_times):
        target_cycle, target = rational_place(signal, t)
        while True:
            end = bps[seg + 1] if signal.periodic or seg < n_seg - 1 else math.inf
            last = cycle == target_cycle and target < end
            stop = target if last else end
            h = stop - pos
            if h > 0.0:
                level = lvls[seg]
                r = lam + level
                x_inf = level / r
                g = -math.expm1(-r * h)
                delta = x - x_inf
                cum_x += x_inf * h + delta * g / r
                cum_s += level * h
                x = min(max(x_inf + delta * (1.0 - g), 0.0), 1.0)
            pos = stop
            if last:
                break
            seg += 1
            if seg == n_seg:
                seg, cycle, pos = 0, cycle + 1, 0.0
        out[:, k] = x, cum_x, cum_s
    return out


def ivp_oracle(signal, lam, x0, times):
    """(x, int_0^t x, int_0^t sigma) at the sorted `times`, piece by piece
    between the clip points of sigma (sign changes of f on a fine grid,
    refined by brentq) and the times: closed-form decay where sigma is 0,
    else scipy's DOP853 at rtol 1e-13 and atol 1e-24.

    The atol keeps the error relative down to states of 1e-11, and far below
    the tests' 1e-15 floor under them. It must not be much smaller: a piece
    that starts at a clip point can start from a state near 0, where sigma's
    rounding (about eps max sigma) makes x' ragged, and DOP853 then needs
    steps of about atol / (eps max sigma). At atol 1e-30 that fell below the
    spacing of doubles near t = 35 (lam = 50, two-term signal) and the
    integration stopped."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    def f(t):
        return signal.mean + sum(a * math.sin(w * t + p) for a, w, p in signal.terms)

    horizon = float(times[-1])
    grid = np.linspace(0.0, horizon, 20 * math.ceil(horizon * max(w for _, w, _ in signal.terms)) + 2)
    values = [f(t) for t in grid]
    clips = [brentq(f, a, b, xtol=1e-16)
             for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]) if fa * fb < 0.0]
    cuts = np.union1d(np.union1d([0.0], clips), times)

    def rhs(t, y):
        s = max(0.0, f(t))
        return [s * (1.0 - y[0]) - lam * y[0], y[0], s]

    y, out = np.array([x0, 0.0, 0.0]), {0.0: (x0, 0.0, 0.0)}
    for a, b in zip(cuts, cuts[1:]):
        if f(0.5 * (a + b)) < 0.0:      # sigma = 0: pure decay, in closed form
            y = y + [y[0] * math.expm1(-lam * (b - a)), -y[0] * math.expm1(-lam * (b - a)) / lam, 0.0]
        else:
            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-24)
            assert sol.success, f"oracle failed on [{a!r}, {b!r}]: {sol.message}"
            y = sol.y[:, -1]
        out[b] = tuple(y)
    return np.array([out[t] for t in times]).T


class TestOverflowedDecay:
    """r h past float max is a full decay: g = 1 and int x over the piece is
    x_inf h + (x - x_inf) / r, in the first cycle and in later ones."""

    @pytest.mark.parametrize("periodic", [False, True])
    def test_against_the_closed_form(self, periodic):
        # r = 1e300 on pieces of 1e9: r h overflows on every whole segment
        # and on the partial steps past t = 1.8e8 / 1e300 of a segment start.
        lam = 1e300
        sig = PiecewiseConstant((0.0, 1e9, 2e9), (2.0, 0.0), periodic=periodic)
        times = np.array([0.0, 1.0, 1e9, 1.5e9, 2.5e9])
        states, cum_x, cum_s = exact_pass(sig, SystemParams(lam=lam), 1.0, times)
        x_inf = 2.0 / (lam + 2.0)
        # from x0 = 1 toward x_inf on [0, 1e9], then toward 0, then (periodic) x_inf again
        first = x_inf * 1e9 + (1.0 - x_inf) / lam
        last = (x_inf, first + x_inf * 0.5e9) if periodic else (0.0, first)
        want_x = [1.0, x_inf, x_inf, 0.0, last[0]]
        want_int = [0.0, x_inf + (1.0 - x_inf) / lam, first, first, last[1]]
        np.testing.assert_allclose(states, want_x, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(cum_x, want_int, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(cum_s, [0.0, 2.0, 2e9, 2e9, 3e9 if periodic else 2e9],
                                   rtol=1e-15, atol=0.0)

    def test_zero_inflow_keeps_the_decay_integral(self):
        # x = e^{-lam t} integrates to 1 / lam, all of int x here; reading an
        # overflowed r h as w = 0 would drop it.
        lam = 1e300
        sig = PiecewiseConstant((0.0, 1e9), (0.0,), periodic=False)
        _, cum_x, _ = exact_pass(sig, SystemParams(lam=lam), 1.0, np.array([10.0, 2e9]))
        np.testing.assert_allclose(cum_x, 1.0 / lam, rtol=1e-15, atol=0.0)


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

    def test_narrow_segment_far_out_against_high_precision(self):
        # A 1e-4-wide segment at rate 1010 near t = 100. The boundary sums
        # c*T + t_i round to an ulp of c*T, which once moved its width, and
        # the state at 100.00495, by 3.6e-12 relative. Placed as a whole
        # cycle plus its exact phase, every cycle has the nominal widths.
        # Reference: a 60-digit walk over those widths.
        D = decimal.Decimal
        sig = PiecewiseConstant((0.0, 1.0, 2.0, 2.0001), (10.0, 10.0, 1000.0))
        lam, x0 = 10.0, 1.0
        times = np.array([32.0016, 98.00485, 100.0, 100.00495])
        bps = [D(b) for b in sig.breakpoints]

        def reference(t):
            cycle, phase = rational_place(sig, t)
            pieces = [(D(c), b1 - b0) for c, b0, b1 in zip(sig.levels, bps, bps[1:])] * cycle
            pieces += [(D(c), min(b1, D(phase)) - b0)
                       for c, b0, b1 in zip(sig.levels, bps, bps[1:]) if b0 < D(phase)]
            x, int_x, int_s = D(x0), D(0), D(0)
            for c, h in pieces:
                r = D(lam) + c
                x_inf, d = c / r, (-r * h).exp()
                int_x += x_inf * h + (x - x_inf) * (1 - d) / r
                int_s += c * h
                x = x_inf + (x - x_inf) * d
            return [float(x), float(int_x), float(int_s)]

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            want = np.array([reference(t) for t in times.tolist()]).T
        got = np.array(exact_pass(sig, SystemParams(lam=lam), x0, times))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

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


class TestPrefixScan:
    """One chunked prefix scan steps the smooth path; a loop of an
    independent integrator over the record intervals is the oracle."""

    SIGNALS = (
        ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),)),
        ClippedSinusoidSum(mean=0.7, terms=((1.2, 3.0, 0.4), (0.5, 3.0 * math.sqrt(2.0), 1.0))),
    )

    @pytest.mark.parametrize("signal", SIGNALS)
    @pytest.mark.parametrize("lam", [0.3, 50.0])
    def test_scan_matches_loop(self, signal, lam):
        # 3000 steps cross a chunk boundary of the scan. The oracle runs once
        # per start, at every state of the first 300 steps, every 100th
        # after them and every record time.
        params = SystemParams(lam=lam)
        step = default_step(signal, params)
        horizon = 3000 * step
        assert 3000 > dynamics._CHUNK_STEPS
        record_lists = (
            np.array([horizon / 3, horizon]),
            np.geomspace(horizon / 1000, horizon, 64),      # as running_averages passes
            np.array([horizon / 2, horizon / 2 + 0.3 * step, horizon]),   # gap below a step
            np.array([horizon / 4, horizon / 4, horizon]),  # a repeated record time
        )
        for x0 in (0.0, 0.45, 1.0):
            traj = simulate(signal, params, x0, horizon)
            checked = (traj.times <= 300 * step) | (np.arange(traj.times.size) % 100 == 0)
            times = np.unique(np.concatenate((traj.times[checked], *record_lists)))
            oracle = ivp_oracle(signal, lam, x0, times)
            # The scheme's error scales with the forcing, not with the state:
            # at lam = 50 on the two-term signal, states of 5e-8 to 3e-4 just
            # after a clip point err by up to 3.6e-16 (a run at a sixteenth
            # of the step matches the oracle there to 6e-17), hence the
            # absolute floor on states.
            np.testing.assert_allclose(traj.states[checked],
                                       oracle[0, np.searchsorted(times, traj.times[checked])],
                                       rtol=1e-12, atol=1e-15)
            for records in record_lists:
                got = smooth_pass(signal, params, x0, records, step)
                want = oracle[:, np.searchsorted(times, records)]
                np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=0.0)

    def test_long_block_is_chunked_without_changing_the_states(self, monkeypatch):
        # Every column the scan carries across a chunk boundary (x, p and
        # the running integrals of x, p and sigma), densely through
        # `simulate` and at records.
        import bottleneck_lab.dynamics as dynamics

        signal, params = self.SIGNALS[1], SystemParams(lam=2.0)
        records = np.geomspace(5e-3, 5.0, 64)

        def scans():
            return (simulate(signal, params, 0.3, 5.0, 1e-3),
                    dynamics._smooth_scan(signal, params.lam, 0.3, records, 1e-3))

        whole = scans()
        monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 7)
        chunked = scans()
        np.testing.assert_array_equal(chunked[0].times, whole[0].times)
        for field in ("states", "cumulative_x"):
            np.testing.assert_allclose(getattr(chunked[0], field), getattr(whole[0], field),
                                       rtol=1e-13, atol=0.0, err_msg=field)
        for field in ("x", "p", "int_x", "int_p", "int_sigma"):
            np.testing.assert_allclose(getattr(chunked[1], field), getattr(whole[1], field),
                                       rtol=1e-13, atol=0.0, err_msg=field)

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

    @pytest.mark.parametrize("lam", [1e100, 1e200])
    def test_huge_lam_step_count_is_a_domain_error(self, lam):
        # A step of 1e-3 at lam = 1e100 is split to the lam h <= 1 cap, and
        # that many steps fail loudly (exit 2) before any state is formed.
        sig = ClippedSinusoidSum(mean=0.5, terms=((0.1, 1.0, 0.0),))
        steps = re.escape(f"{1e-2 * lam:.3g}")
        with pytest.raises(DomainError, match=f"needs {steps} steps to reach t=0.01"):
            smooth_pass(sig, SystemParams(lam=lam), 0.5, np.asarray([1e-2]), 1e-3)


class TestFittedScheme:
    """The exact-decay Gauss scheme: stiff transients, clip points, large steps."""

    def test_stiff_transient_matches_a_refined_run(self):
        # lam = 1e4 from x0 = 1 on quasi-periodic inflow: the transient lasts
        # about 1e-4, one default step. Running means at the default step
        # match a run at a sixteenth of it.
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.3)))
        params = SystemParams(lam=1e4)
        taus = np.geomspace(1e-5, 0.1, 40)
        step = default_step(sig, params)
        got = np.array(smooth_pass(sig, params, 1.0, taus, step)) / taus
        want = np.array(smooth_pass(sig, params, 1.0, taus, step / 16.0)) / taus
        np.testing.assert_allclose(got[1:], want[1:], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got[0] * taus, want[0] * taus, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [6, 16])
    def test_gauss_rule_matches_numpy(self, m):
        nodes, weights = dynamics._gauss_legendre(m)
        x, w = np.polynomial.legendre.leggauss(m)
        np.testing.assert_allclose(nodes, 0.5 * (x + 1.0), rtol=0.0, atol=4e-16)
        np.testing.assert_allclose(weights, 0.5 * w, rtol=0.0, atol=4e-16)

    @staticmethod
    def dense_times(sig, lam=1.0, horizon=2.0 * math.pi):
        return simulate(sig, SystemParams(lam), 0.0, horizon).times

    def test_tangent_touch_is_not_a_step_boundary(self):
        # 1 + sin t touches 0 at 3 pi / 2 without crossing: sigma stays
        # smooth there, so no step is cut, and the run matches a finer one.
        sig = ClippedSinusoidSum(mean=1.0, terms=((1.0, 1.0, 0.0),))
        step = default_step(sig, P1)
        n = math.ceil(2.0 * math.pi / step)
        assert self.dense_times(sig).size == 7 * n + 1
        assert mean_over_period(sig) == pytest.approx(1.0, abs=1e-15)
        got = smooth_pass(sig, P1, 0.3, np.asarray([2.0 * math.pi]), step)
        want = smooth_pass(sig, P1, 0.3, np.asarray([2.0 * math.pi]), step / 8.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_two_clip_points_inside_one_base_step(self):
        # 1 + a sin t with a = 1 + 1e-4 dips below 0 for 0.028, less than a
        # default step of 0.05: both clip points become step boundaries.
        a = 1.0 + 1e-4
        sig = ClippedSinusoidSum(mean=1.0, terms=((a, 1.0, 0.0),))
        clips = [math.pi + math.asin(1.0 / a), 2.0 * math.pi - math.asin(1.0 / a)]
        base = np.linspace(0.0, 2.0 * math.pi, math.ceil(2.0 * math.pi / default_step(sig, P1)) + 1)
        assert np.searchsorted(base, clips[0]) == np.searchsorted(base, clips[1])
        times = self.dense_times(sig)
        nearest = [times[np.argmin(np.abs(times - c))] for c in clips]
        np.testing.assert_allclose(nearest, clips, rtol=0.0, atol=1e-13)
        # int sigma over the period is pi + 2 asin(1/a) + 2 sqrt(a^2 - 1)
        exact = math.pi + 2.0 * math.asin(1.0 / a) + 2.0 * math.sqrt(a * a - 1.0)
        _, _, int_s = smooth_pass(sig, P1, 0.3, np.asarray([2.0 * math.pi]), 1.0)
        assert int_s[0] == pytest.approx(exact, rel=1e-14)
        assert mean_over_period(sig) == pytest.approx(exact / (2.0 * math.pi), rel=1e-14)
        got = smooth_pass(sig, P1, 0.3, np.asarray([2.0 * math.pi]), 1.0)
        want = smooth_pass(sig, P1, 0.3, np.asarray([2.0 * math.pi]), default_step(sig, P1) / 8)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lam, sig", [
        (1e4, ClippedSinusoidSum(mean=1.0, terms=((1.5, 2.0 * math.pi / 0.012, 0.3),))),
        (1.0, ClippedSinusoidSum(mean=0.7, terms=((1.2, 3.0, 0.4), (0.5, 3.0 * math.sqrt(2.0), 1.0)))),
        # x near 1, where a node state at ten times the default step
        # overshot 1 by 8.8e-8
        (1e-9, ClippedSinusoidSum(mean=1.0, terms=((0.5, 1.0, 0.0),))),
    ])
    def test_user_step_far_above_the_default(self, monkeypatch, lam, sig):
        # A step 100x the default is cut to the default; every state, at
        # the nodes too, then stays in [0, 1] up to rounding, and the run is
        # the one at the default step.
        params = SystemParams(lam=lam)
        step = 100.0 * default_step(sig, params)
        assert numeric_step(sig, params) == default_step(sig, params)
        overshoot = []
        clamp = dynamics._clamp

        def recording_clamp(states):
            overshoot.append(max(0.0, -states.min(), states.max() - 1.0))
            return clamp(states)

        monkeypatch.setattr(dynamics, "_clamp", recording_clamp)
        times = np.linspace(0.0, 2000 * default_step(sig, params), 7)[1:]
        horizon = float(times[-1])
        traj = simulate(sig, params, 1.0, horizon, step)
        assert max(overshoot) <= OVERSHOOT_TOL
        assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))
        np.testing.assert_array_equal(traj.states, simulate(sig, params, 1.0, horizon).states)
        got = smooth_pass(sig, params, 1.0, times, step)
        want = smooth_pass(sig, params, 1.0, times, default_step(sig, params))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("off", [OVERSHOOT_TOL, -OVERSHOOT_TOL, math.nan, math.inf])
    def test_overshoot_beyond_rounding_fails_loudly(self, off):
        states = np.array([0.5, 1.0 + off if off > 0.0 or math.isnan(off) else off])
        with pytest.raises(dynamics.StepSizeError, match="left \\[0, 1\\] by"):
            dynamics._clamp(states)
        np.testing.assert_array_equal(dynamics._clamp(np.array([-1e-13, 0.5, 1.0 + 1e-13])),
                                      [0.0, 0.5, 1.0])


@st.composite
def exact_cases(draw, conditioned=False, max_segments=6, max_cycles=100):
    """A signal (periodic or not, widths 1e-12..10), lam in [1e-9, 1e9], x0,
    and record times on the walk's cycle ends, inside segment 0, on inner
    boundaries and at random phases, over up to `max_cycles` cycles.

    Widths are any doubles, and the record times are rounded sums
    c*T + t_i: both the exact path and the walk place a time as a whole
    cycle plus its exact phase. Levels are 0 or 1e-3..10. With
    `conditioned`, every level lies in [0.4, 100] lam, so x_inf >= 0.28,
    and x0 >= 0.25: every state then stays above 0.25 and the walk's piece
    formula is accurate to a few ulp.
    """
    lam = 10.0 ** draw(st.floats(-9.0, 9.0))
    k = draw(st.integers(1, max_segments))
    widths = [10.0 ** e for e in draw(st.lists(st.floats(-12.0, 1.0), min_size=k, max_size=k))]
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
    cycles = draw(st.lists(st.integers(0, max_cycles), min_size=1, max_size=4))
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

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(exact_cases(conditioned=True, max_segments=3, max_cycles=10_000))
    def test_matches_the_walk_over_ten_thousand_cycles(self, case):
        # Far out in time the boundary sums c*T + t_i are off by an ulp of
        # c*T, a visible share of a narrow segment's width.
        signal, lam, x0, times = case
        got = np.array(exact_pass(signal, SystemParams(lam=lam), x0, times))
        np.testing.assert_allclose(got, walk_oracle(signal, lam, x0, times), rtol=1e-12, atol=0.0)

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

    @pytest.mark.parametrize("periodic, expected", [(True, 1), (False, 1)])
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
