import csv
import io
import math

import numpy as np
import pytest

from bottleneck_lab.asymptotic import (
    averages_to_csv,
    default_tau_max,
    finite_horizon_certificates,
    longrun_bound_check,
    quadrature_slack,
    running_averages,
    solution_independence_check,
)
from bottleneck_lab.dynamics import DomainError, default_step
from bottleneck_lab.periodic import constant_benchmark, gap_report
from bottleneck_lab.signals import (
    ClippedSinusoidSum,
    Constant,
    PiecewiseConstant,
    QuadratureSpec,
    SystemParams,
    evaluate_array,
)
from bottleneck_lab.suites import check_asymptotic_case, random_piecewise_signal, \
    random_system, SuiteTolerances

P1 = SystemParams(lam=1.0)
TWO_LEVEL = PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0))
TWO_TONE = ClippedSinusoidSum(
    mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.0))
)


def certificates(signal, params, x0, taus, sigma_bar=None):
    """Certificates at `taus`, from one pass recorded there."""
    ra = running_averages(signal, params, x0, taus[-1], checkpoints=taus)
    return finite_horizon_certificates(signal, params, ra, sigma_bar)


def csv_text(ra, certs=None):
    buf = io.StringIO()
    averages_to_csv(ra, certs, buf)
    return buf.getvalue()


class TestRunningAverages:
    def test_constant_approaches_half_from_below(self):
        ra = running_averages(Constant(1.0), P1, 0.0, 1000.0)
        assert np.all(ra.mean_state <= 0.5)
        assert np.all(np.diff(ra.mean_state) >= -1e-15)
        assert ra.sigma_bar_est == pytest.approx(1.0, abs=1e-12)
        assert ra.w_est == pytest.approx(0.5, abs=1e-3)

    def test_zero_signal(self):
        # mean state (1 - e^{-tau})/tau decays like 1/tau; the tail-max sits
        # at the window's earliest checkpoint
        ra = running_averages(Constant(0.0), P1, 1.0, 1000.0)
        assert ra.sigma_bar_est == 0.0
        assert ra.mean_state[-1] <= 1.1e-3
        assert ra.w_est <= 1.0 / ra.taus[ra.window_start] + 1e-12
        assert np.all(ra.mean_state >= 0.0)

    def test_states_stay_in_unit_interval(self):
        ra = running_averages(TWO_LEVEL, P1, 0.3, 500.0)
        assert np.all(ra.mean_state >= 0.0)
        assert np.all(ra.mean_state <= 1.0)

    def test_two_tone_mean_estimate_with_quadrature_oracle(self):
        tau = 2000.0
        ra = running_averages(TWO_TONE, P1, 0.0, tau)
        # oracle: direct fine trapezoid of sigma over [0, tau]
        ts = np.linspace(0.0, tau, 2_000_001)
        oracle = float(np.trapezoid(evaluate_array(TWO_TONE, ts), ts)) / tau
        assert abs(ra.mean_input[-1] - oracle) <= 1e-6
        assert ra.sigma_bar_est == pytest.approx(1.0, abs=0.02)

    def test_tail_max_never_below_retained_window(self):
        ra = running_averages(TWO_LEVEL, P1, 0.0, 300.0, n_checkpoints=64)
        n = ra.taus.size
        for k in range(n // 2 + 1, n + 1):
            retained = ra.mean_input[n // 2:k]
            assert ra.sigma_bar_est >= float(np.max(retained)) - 1e-15

    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            running_averages(Constant(1.0), P1, 0.0, -1.0)
        with pytest.raises(DomainError):
            running_averages(Constant(1.0), P1, 0.0, 10.0, checkpoints=[2.0, 1.0])
        with pytest.raises(DomainError):
            running_averages(Constant(1.0), P1, 0.0, 10.0, n_checkpoints=1)

    def test_default_tau_max(self):
        assert default_tau_max(Constant(1.0, period=50.0), P1) == 5000.0
        assert default_tau_max(TWO_TONE, SystemParams(lam=0.5)) == 2000.0


class TestLongrunBound:
    def test_periodic_estimate_matches_exact_value(self):
        # checkpoints snapped to whole periods: the estimate converges to the
        # exact periodic output at the 1/(lam tau) rate
        w_exact = gap_report(TWO_LEVEL, P1).w_sigma
        taus = 2.0 * np.arange(1, 101)
        ra = running_averages(TWO_LEVEL, P1, 0.25, 200.0, checkpoints=taus)
        w_last = P1.lam * float(ra.mean_state[-1])
        assert abs(w_last - w_exact) <= 2.0 / (P1.lam * 200.0)
        assert w_last <= constant_benchmark(1.0, P1) + 1e-9

    def test_constant_margin_collapses(self):
        chk = longrun_bound_check(
            Constant(1.0), P1, running_averages(Constant(1.0), P1, 0.0, 2000.0))
        assert not chk.violated
        assert abs(chk.margin) <= chk.slack

    def test_two_tone_never_violates_beyond_slack(self):
        chk = longrun_bound_check(TWO_TONE, P1, running_averages(TWO_TONE, P1, 0.0, 2000.0))
        assert not chk.violated
        assert chk.margin >= 0.0  # comfortably inside the bound here

    def test_two_tone_margin_positive_past_transient(self):
        ra = running_averages(TWO_TONE, P1, 0.0, 2000.0)
        step = default_step(TWO_TONE, P1)
        quad = quadrature_slack(TWO_TONE, P1, step)
        for tau, mi, ms in zip(ra.taus, ra.mean_input, ra.mean_state):
            if tau < 100.0:
                continue
            bound = constant_benchmark(float(mi), P1)
            assert P1.lam * ms <= bound + quad + 2.0 / (P1.lam * tau)

    def test_quadrature_slack_bounds_the_error_and_is_below_the_trapezoid_bound(self):
        # C9's pass at the default step against one at an eighth of it, at
        # every checkpoint; and the bound is below the trapezoid bound of the
        # former RK4 path, h^2 (max|sigma'| + (lam + max sigma)^2) / 12 at
        # h = min(0.01/lam, 0.01/(1 + max sigma)) = 1/300.
        step = default_step(TWO_TONE, P1)
        ra = running_averages(TWO_TONE, P1, 0.0, 2000.0)
        fine = running_averages(TWO_TONE, P1, 0.0, 2000.0, grid=QuadratureSpec(step=step / 8))
        slack = quadrature_slack(TWO_TONE, P1, step)
        assert P1.lam * np.max(np.abs(ra.mean_state - fine.mean_state)) <= slack
        assert slack <= (1.0 / 300.0) ** 2 * (0.5 + 0.5 * math.sqrt(2.0) + 9.0) / 12.0

    def test_quadrature_slack_zero_for_piecewise(self):
        assert quadrature_slack(TWO_LEVEL, P1, 0.01) == 0.0
        assert quadrature_slack(TWO_TONE, P1, 0.01) > 0.0


class TestFiniteHorizonCertificates:
    def test_constant_at_steady_state_is_tight(self):
        # sigma = 1, x0 = x* = 1/2: every correction vanishes and lhs = rhs
        certs = certificates(Constant(1.0), P1, 0.5, [1.0, 5.0, 50.0])
        for c in certs:
            assert abs(c.slack) <= 1e-15
            assert abs(c.correction) <= 1e-16

    def test_two_level_positive_slack(self):
        certs = certificates(TWO_LEVEL, P1, 0.0, [1.0, 2.0])
        assert certs[-1].tau == 2.0
        assert certs[-1].slack > 0.01

    def test_correction_terms_decay_like_one_over_tau(self):
        ns = np.unique(np.round(np.geomspace(5, 5000, 24)).astype(int))
        taus = 2.0 * ns  # whole periods in [10, 10^4]
        certs = certificates(TWO_LEVEL, P1, 0.0, taus)
        corr = np.array([abs(c.correction) for c in certs])
        slope = np.polyfit(np.log(taus), np.log(corr), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_slack_non_negative_on_random_suite(self):
        rng = np.random.default_rng(77)
        taus = np.geomspace(1.0, 100.0, 16)
        for _ in range(50):
            sig = random_piecewise_signal(rng)
            params = random_system(rng)
            for x0 in (0.0, 1.0):
                certs = certificates(sig, params, x0, taus)
                assert min(c.slack for c in certs) >= -1e-9

    def test_any_reference_occupancy_is_valid(self):
        # the inequality is identity-plus-square for every x_star choice
        for sb in (0.2, 1.0, 4.0):
            certs = certificates(TWO_LEVEL, P1, 0.0, [1.0, 10.0, 100.0], sigma_bar=sb)
            assert min(c.slack for c in certs) >= -1e-12

    def test_validation(self):
        # the horizons are those of the pass, which validates them
        with pytest.raises(DomainError):
            running_averages(TWO_LEVEL, P1, 0.0, 3.0, checkpoints=[])
        with pytest.raises(DomainError):
            running_averages(TWO_LEVEL, P1, 0.0, 3.0, checkpoints=[3.0, 1.0])
        with pytest.raises(DomainError):
            running_averages(TWO_LEVEL, P1, 1.5, 3.0, checkpoints=[1.0, 3.0])


class TestSolutionIndependence:
    def test_equal_starts(self):
        chk = solution_independence_check(TWO_LEVEL, P1, 0.4, 0.4, 50.0)
        assert chk.avg_diff == 0.0

    def test_zero_inflow_closed_form(self):
        # x1 - x2 = e^{-t}; (1/10) int_0^10 e^{-t} = (1 - e^{-10}) / 10
        chk = solution_independence_check(Constant(0.0), P1, 0.0, 1.0, 10.0)
        assert chk.avg_diff == pytest.approx((1.0 - math.exp(-10.0)) / 10.0, abs=1e-12)
        assert chk.bound == pytest.approx(0.1)
        assert chk.avg_diff <= chk.bound

    def test_random_two_level_signals(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            levels = tuple(rng.uniform(0.0, 5.0, 2))
            sig = PiecewiseConstant((0.0, 1.0, 2.0), levels)
            params = random_system(rng)
            chk = solution_independence_check(sig, params, 0.0, 1.0, 100.0)
            assert chk.avg_diff <= 1.0 / (params.lam * 100.0) + 1e-10

    def test_suite_checks_clean(self):
        rng = np.random.default_rng(99)
        tol = SuiteTolerances()
        for _ in range(25):
            sig = random_piecewise_signal(rng)
            params = random_system(rng)
            assert check_asymptotic_case(sig, params, tol) == []


class TestExport:
    def test_combined_csv(self):
        ra = running_averages(TWO_LEVEL, P1, 0.0, 100.0, n_checkpoints=8)
        certs = finite_horizon_certificates(TWO_LEVEL, P1, ra)
        rows = list(csv.reader(io.StringIO(csv_text(ra, certs))))
        assert rows[0] == ["tau", "mean_input", "mean_state", "lhs", "rhs", "slack"]
        assert len(rows) == 9
        tau, mi, ms, lhs, rhs, slack = map(float, rows[-1])
        assert tau == ra.taus[-1]
        assert slack == pytest.approx(rhs - lhs, abs=1e-15)

    def test_csv_without_certificates(self):
        ra = running_averages(Constant(1.0), P1, 0.0, 10.0, n_checkpoints=4)
        rows = list(csv.reader(io.StringIO(csv_text(ra))))
        assert rows[1][3:] == ["", "", ""]
