import csv
import io
import itertools
import math

import numpy as np
import pytest

from bottleneck_lab.optimize import (
    BangBang,
    ClippingActiveError,
    EvaluationLog,
    InfeasibleMeanError,
    PiecewiseConstantFree,
    coordinate_descent,
    family_mean,
    grid_search,
    perturbation_response,
    project_to_mean,
)
from bottleneck_lab.optimize import _project_simplex_rows
from bottleneck_lab.periodic import constant_benchmark, gap_report, output_for_levels
from bottleneck_lab.signals import PiecewiseConstant, SystemParams

P1 = SystemParams(lam=1.0)
BB = BangBang(period=2.0)
K4 = PiecewiseConstantFree(period=2.0, n_segments=4)


def csv_text(log):
    buf = io.StringIO()
    log.to_csv(buf)
    return buf.getvalue()


def simplex_projection(v, target_sum):
    """Sort-based Euclidean projection onto {x >= 0, sum x = target_sum}."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - target_sum
    ind = np.arange(1, v.size + 1)
    rho = np.max(np.nonzero(u - cssv / ind > 0)[0]) + 1
    theta = cssv[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


class TestProjection:
    def test_already_feasible_is_untouched(self):
        fam = PiecewiseConstantFree(period=2.0, n_segments=2)
        assert project_to_mean(fam, (0.0, 2.0), 1.0) == (0.0, 2.0)

    def test_uniform_shift(self):
        fam = PiecewiseConstantFree(period=2.0, n_segments=2)
        assert project_to_mean(fam, (1.0, 1.0), 2.0) == (2.0, 2.0)

    def test_clipped_redistribution_fixed_point(self):
        got = project_to_mean(K4, (0.2, 3.8, 0.0, 0.0), 0.5)
        assert got == (0.0, 2.0, 0.0, 0.0)
        oracle = simplex_projection((0.2, 3.8, 0.0, 0.0), 4 * 0.5)
        np.testing.assert_allclose(got, oracle, atol=1e-14)

    def test_matches_sort_based_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            fam = PiecewiseConstantFree(period=1.0, n_segments=k)
            raws = rng.uniform(-1.0, 5.0, (4, k))  # raw points may be infeasible
            raws = np.maximum(raws, 0.0)
            raws[0] = 0.0
            target = float(rng.uniform(0.0, 4.0))
            rows = _project_simplex_rows(raws, k * target)
            for raw, row in zip(raws, rows):
                got = np.asarray(project_to_mean(fam, raw, target))
                # the scalar and row projections do the same arithmetic
                np.testing.assert_array_equal(got, row)
                oracle = simplex_projection(raw, k * target)
                np.testing.assert_allclose(got, oracle, atol=1e-12)
                assert np.all(got >= 0.0)
                assert abs(got.mean() - target) <= 1e-12

    def test_zero_target_gives_all_zeros(self):
        for k in (1, 3):
            fam = PiecewiseConstantFree(period=1.0, n_segments=k)
            raws = np.array([[0.0] * k, [2.0] * k, list(range(k))], dtype=float)
            for raw in raws:
                assert project_to_mean(fam, raw, 0.0) == (0.0,) * k
            assert _project_simplex_rows(raws, 0.0).tolist() == [[0.0] * k] * 3

    def test_bang_bang_duty_held_fixed(self):
        p1, p2, duty = project_to_mean(BB, (0.2, 0.6, 0.25), 1.0)
        assert duty == 0.25
        assert 0.25 * p2 + 0.75 * p1 == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= p1 <= p2

    def test_bang_bang_order_violation_collapses_to_constant(self):
        p1, p2, duty = project_to_mean(BB, (5.0, 0.0, 0.5), 1.0)
        assert (p1, p2) == (1.0, 1.0)

    def test_bang_bang_degenerate_duties(self):
        assert project_to_mean(BB, (0.3, 9.0, 0.0), 1.0)[0] == 1.0
        assert project_to_mean(BB, (0.3, 9.0, 1.0), 1.0)[1] == 1.0

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleMeanError):
            project_to_mean(K4, (1.0, 1.0, 1.0, 1.0), -0.5)


class TestFamilyPlumbing:
    def test_bang_bang_signal_layout(self):
        # One evaluation of a family point: the logged output is that of the
        # two-level signal with the high level first on [0, duty * T).
        point = (0.5, 2.0, 0.25)
        assert family_mean(BB, point) == pytest.approx(0.875)
        res = coordinate_descent(BB, 0.875, P1, point, max_evals=1)
        assert res.log.points == [point]
        want = gap_report(PiecewiseConstant((0.0, 0.5, 2.0), (2.0, 0.5)), P1).w_sigma
        assert res.log.outputs[0] == pytest.approx(want, abs=1e-14)

    def test_family_signal_output_matches_periodic_module(self):
        w_direct = output_for_levels([3.25, 0.25], [0.5, 1.5], P1.lam)
        w_module = gap_report(PiecewiseConstant((0.0, 0.5, 2.0), (3.25, 0.25)), P1).w_sigma
        assert w_direct == pytest.approx(w_module, abs=1e-14)


class TestGridSearch:
    def test_single_segment_family_hits_benchmark(self):
        fam = PiecewiseConstantFree(period=2.0, n_segments=1)
        res = grid_search(fam, 1.0, P1, 9)
        assert res.best_point == (1.0,)
        assert abs(res.optimality_gap) <= 1e-12
        assert res.evaluations == 9

    def test_bang_bang_maximum_at_constant_limit(self):
        res = grid_search(BB, 1.0, P1, 9)
        p1, p2, _ = res.best_point
        assert p1 == pytest.approx(1.0) and p2 == pytest.approx(1.0)
        assert abs(res.optimality_gap) <= 1e-12
        assert res.log.max_excess <= 1e-9
        # every strictly two-valued point loses output
        for point, w in zip(res.log.points, res.log.outputs):
            if point[0] < 1.0 - 1e-9:
                assert w < 0.5 - 1e-12
        # output increases toward the constant limit along fixed duty
        by_duty = {}
        for point, w in zip(res.log.points, res.log.outputs):
            by_duty.setdefault(point[2], []).append((point[0], w))
        for duty, rows in by_duty.items():
            rows.sort()
            ws = [w for _, w in rows]
            assert all(b >= a for a, b in zip(ws, ws[1:]))

    def test_free_family_grid_optimum_is_uniform(self):
        res = grid_search(K4, 1.0, P1, 9)
        assert res.best_point == (1.0, 1.0, 1.0, 1.0)
        assert res.evaluations == 9 ** 4
        assert res.log.max_excess <= 1e-9

    def test_every_evaluated_mean_is_exact(self):
        res = grid_search(K4, 1.0, P1, 5)
        for mean in res.log.means:
            assert abs(mean - 1.0) <= 1e-10

    @pytest.mark.parametrize("family, resolution", [
        (BangBang(period=2.0), 5),
        (PiecewiseConstantFree(period=2.0, n_segments=3), 5),
    ])
    def test_batch_matches_point_by_point_loop(self, family, resolution):
        points, outputs, best_index = _reference_grid_search(family, 1.0, P1, resolution)
        res = grid_search(family, 1.0, P1, resolution)
        assert res.log.points == points
        np.testing.assert_allclose(res.log.outputs, outputs, rtol=1e-14, atol=0.0)
        assert res.evaluations == len(points)
        assert res.best_point == points[best_index]
        assert res.log.points.index(res.best_point) == best_index
        # the best w is tied: on bang_bang the constant point is reached at
        # every duty, at distance 0, and the first of those rows must win
        assert outputs.count(outputs[best_index]) > 1

    def test_resolution_validated(self):
        with pytest.raises(Exception):
            grid_search(BB, 1.0, P1, 1)


def _reference_grid_search(family, mean, params, resolution):
    """(points, outputs, index of the best point): the grid point by point."""
    if isinstance(family, BangBang):
        duties = np.linspace(0.0, 1.0, resolution + 2)[1:-1].tolist()
        lows = np.linspace(0.0, mean, resolution).tolist()
        points = [(p1, max(p1, (mean - (1.0 - duty) * p1) / duty), duty)
                  for duty, p1 in itertools.product(duties, lows)]
    else:
        axis = np.linspace(0.0, family.n_segments * mean, resolution).tolist()
        points = [project_to_mean(family, raw, mean)
                  for raw in itertools.product(axis, repeat=family.n_segments)]
    outputs = []
    best_index, best_w, best_dist = None, -math.inf, math.inf
    for i, point in enumerate(points):
        if isinstance(family, BangBang):
            p1, p2, duty = point
            levels = [p2, p1]
            durations = [duty * family.period, (1.0 - duty) * family.period]
        else:
            levels = list(point)
            durations = [family.period / family.n_segments] * family.n_segments
        w = output_for_levels(levels, durations, params.lam)
        dist = math.sqrt(sum((c - mean) ** 2 for c in levels))
        outputs.append(w)
        if w > best_w or (w == best_w and dist < best_dist):
            best_index, best_w, best_dist = i, w, dist
    return points, outputs, best_index


class TestCoordinateDescent:
    def test_constant_start_terminates_immediately(self):
        res = coordinate_descent(K4, 1.0, P1, (1.0, 1.0, 1.0, 1.0))
        assert abs(res.optimality_gap) <= 1e-12
        assert not res.capped
        np.testing.assert_allclose(res.best_point, 1.0, atol=1e-9)

    def test_two_level_start_converges_to_constant(self):
        res = coordinate_descent(BB, 1.0, P1, (0.0, 2.0, 0.5))
        assert not res.capped
        assert abs(res.best_point[0] - 1.0) <= 1e-3
        assert abs(res.best_point[1] - 1.0) <= 1e-3
        assert res.log.max_excess <= 1e-9

    def test_lambda_sweep_random_starts(self):
        rng = np.random.default_rng(2024)
        for lam in (0.1, 1.0, 10.0):
            params = SystemParams(lam=lam)
            fam = PiecewiseConstantFree(period=2.0 / lam, n_segments=4)
            start = project_to_mean(fam, tuple(rng.uniform(0.0, 2.0, 4)), 1.0)
            res = coordinate_descent(fam, 1.0, params, start)
            assert res.optimality_gap < 1e-6
            assert res.log.max_excess <= 1e-9

    def test_budget_cap_flagged(self):
        res = coordinate_descent(K4, 1.0, P1, (0.0, 4.0, 0.0, 0.0), max_evals=40)
        assert res.capped
        assert res.evaluations <= 40


class TestScaleConsistency:
    def test_nondimensional_output_invariant(self):
        # t -> alpha t with lam -> alpha lam and levels -> alpha levels keeps
        # w / lam fixed at the same family coordinates
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            levels = rng.uniform(0.0, 4.0, k)
            durations = rng.uniform(0.1, 1.0, k)
            lam = float(10.0 ** rng.uniform(-1, 1))
            alpha = float(10.0 ** rng.uniform(-1, 1))
            w1 = output_for_levels(levels.tolist(), durations.tolist(), lam)
            w2 = output_for_levels(
                (alpha * levels).tolist(), (durations / alpha).tolist(), alpha * lam
            )
            assert abs(w1 / lam - w2 / (alpha * lam)) <= 1e-9


class TestPerturbationResponse:
    def test_zero_direction_is_flat(self):
        fit = perturbation_response(1.0, P1, [0.0, 0.0], [0.1, 0.05])
        assert fit.deficits == (0.0, 0.0)
        assert fit.kappa == 0.0

    def test_two_level_direction_slope(self):
        fit = perturbation_response(
            1.0, P1, [1.0, -1.0], [0.1, 0.05, 0.025], period=2.0
        )
        assert fit.loglog_slope == pytest.approx(2.0, abs=0.05)
        assert fit.kappa > 0.0
        assert fit.r_squared > 0.999

    def test_fast_switching_flattens_response(self):
        kappas = []
        for T in (4.0, 2.0, 1.0, 0.5):
            fit = perturbation_response(
                1.0, P1, [1.0, -1.0], [0.1, 0.05], period=T
            )
            kappas.append(fit.kappa)
        assert all(b < a for a, b in zip(kappas, kappas[1:]))

    def test_clipping_rejected_with_guidance(self):
        with pytest.raises(ClippingActiveError, match="below"):
            perturbation_response(1.0, P1, [1.0, -1.0], [1.5])

    def test_zero_mean_required(self):
        with pytest.raises(Exception, match="zero mean"):
            perturbation_response(1.0, P1, [1.0, 0.0], [0.1])


class TestEvaluationLog:
    def test_csv_layout(self):
        log = EvaluationLog(BB, 1.0, constant_benchmark(1.0, P1))
        grid_search(BB, 1.0, P1, 3, log=log)
        rows = list(csv.reader(io.StringIO(csv_text(log))))
        assert rows[0] == ["p1", "p2", "duty", "mean", "w", "benchmark", "gap"]
        assert len(rows) == len(log) + 1
        gap = float(rows[1][6])
        assert gap == pytest.approx(float(rows[1][5]) - float(rows[1][4]), abs=1e-15)

    def test_shared_log_accumulates(self):
        log = EvaluationLog(K4, 1.0, constant_benchmark(1.0, P1))
        grid_search(K4, 1.0, P1, 3, log=log)
        n_grid = len(log)
        coordinate_descent(K4, 1.0, P1, (0.0, 4.0, 0.0, 0.0), log=log)
        assert len(log) > n_grid
        assert log.max_excess <= 1e-9
        # the mean constraint holds for every evaluation, not just optima
        assert all(abs(m - 1.0) <= 1e-10 for m in log.means)

    @pytest.mark.parametrize("family, start", [
        (BB, (0.0, 2.0, 0.5)),
        (K4, (0.0, 4.0, 0.0, 0.0)),
    ])
    def test_every_field_parses_as_float(self, family, start):
        log = EvaluationLog(family, 1.0, constant_benchmark(1.0, P1))
        grid_search(family, 1.0, P1, 4, log=log)
        coordinate_descent(family, 1.0, P1, start, log=log)
        rows = list(csv.reader(io.StringIO(csv_text(log))))[1:]
        assert len(rows) == len(log)
        for row in rows:
            for field in row:
                float(field)
