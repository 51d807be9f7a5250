import csv
import dataclasses
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bottleneck_lab import optimize
from bottleneck_lab.optimize import (
    BangBang,
    EvaluationLog,
    InfeasibleMeanError,
    PiecewiseConstantFree,
    coordinate_descent,
    coordinate_descents,
    grid_search,
    project_to_mean,
)
from bottleneck_lab.dynamics import _CSV_CHUNK
from bottleneck_lab.optimize import _evaluate_rows, _project_simplex_rows
from bottleneck_lab.periodic import (
    _PeriodRows,
    constant_benchmark,
    gap_report,
    output_for_level_rows,
    output_for_levels,
)
from bottleneck_lab.signals import PiecewiseConstant, SignalError, SystemParams

P1 = SystemParams(lam=1.0)
BB = BangBang(period=2.0)
K4 = PiecewiseConstantFree(period=2.0, n_segments=4)


def csv_text(log):
    buf = io.StringIO()
    log.to_csv(buf)
    return buf.getvalue()


def log_columns(log):
    """(points, means, outputs) of the logged rows, parsed back from `to_csv`,
    which writes each float as its round-trip repr: the values are exact."""
    k = len(log.family.coordinate_names)
    rows = [[float(v) for v in line.split(",")] for line in csv_text(log).splitlines()[1:]]
    return [tuple(row[:k]) for row in rows], [row[k] for row in rows], [row[k + 1] for row in rows]


def row_mean(family, point):
    """A point's mean, from its coordinates one at a time."""
    if isinstance(family, BangBang):
        p1, p2, duty = point
        return duty * p2 + (1.0 - duty) * p1
    return sum(point) / len(point)


def extend_rows(log, rows, order=None):
    """Log (point, w) rows as one block."""
    points, outputs = zip(*rows)
    log.extend(np.array(points), np.array(outputs), order=order)


def per_row_csv(family, benchmark, rows):
    """Reference writer: one f-string of field reprs per (point, w) row."""
    out = [",".join(family.coordinate_names) + ",mean,w,benchmark,gap\n"]
    for point, w in rows:
        mean = row_mean(family, point)
        coords = ",".join(map(repr, point))
        out.append(f"{coords},{mean!r},{w!r},{benchmark!r},{benchmark - w!r}\n")
    return "".join(out)


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
                # a point projects as a row of its own: no row depends on its batch
                np.testing.assert_array_equal(got, row)
                oracle = simplex_projection(raw, k * target)
                np.testing.assert_allclose(got, oracle, atol=1e-12)
                assert np.all(got >= 0.0)
                assert abs(got.mean() - target) <= 1e-12

    def test_sums_past_float_max_do_not_overflow(self):
        # Values and totals near float max, where the sums of the sort-based
        # rule overflow unscaled: the rows are scaled by a power of two.
        rng = np.random.default_rng(7)
        for k in (1, 2, 5):
            raws = rng.uniform(-1.0, 1.0, (20, k)) * 1.7e308
            raws[0], total = 1e308, 1e308
            rows = _project_simplex_rows(raws, total)
            assert np.isfinite(rows).all() and np.all(rows >= 0.0)
            np.testing.assert_allclose((rows / k).sum(axis=1), total / k, rtol=1e-12)
        assert _project_simplex_rows(np.array([[1e308, 1e308]]), 1e308).tolist() == \
            [[5e307, 5e307]]
        fam = PiecewiseConstantFree(period=1.0, n_segments=2)
        assert project_to_mean(fam, (1e308, 1e308), 5e307) == (5e307, 5e307)

    @pytest.mark.parametrize("family, point", [
        (BB, (math.inf, 1.0, 0.5)),
        (BB, (1.0, 1.0, math.nan)),
        (PiecewiseConstantFree(period=1.0, n_segments=3), (math.nan, 1.0, 1.0)),
        (PiecewiseConstantFree(period=1.0, n_segments=3), (math.inf, 1.0, 1.0)),
        (PiecewiseConstantFree(period=1.0, n_segments=3), (1.0, -math.inf, 1.0)),
    ])
    def test_non_finite_coordinates_raise(self, family, point):
        # inf once recursed without end in the scaled retry, and NaN or inf
        # came back as NaN or -inf levels
        with pytest.raises(SignalError, match="cannot project"):
            project_to_mean(family, point, 1.0)
        with pytest.raises(SignalError, match="cannot project"):
            project_to_mean(family, (1.0,) * len(point), math.nan)

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

    @pytest.mark.parametrize("family, point", [
        (K4, (1.0, 1.0, 1.0)),
        (K4, (1.0,) * 5),
        (BB, (1.0, 1.0)),
        (BB, (1.0, 1.0, 0.5, 0.5)),
    ])
    def test_wrong_number_of_coordinates_raises(self, family, point):
        # (1, 1, 1) on four segments came back as three levels of mean 4/3;
        # two on BangBang raised a ValueError, and through the descent an
        # IndexError
        with pytest.raises(SignalError, match="coordinates"):
            project_to_mean(family, point, 1.0)
        with pytest.raises(SignalError, match="coordinates"):
            coordinate_descent(family, 1.0, P1, point)

    @pytest.mark.parametrize("duty", [1.5, -0.5, 1.0 + 2.0 ** -52, -5e-324])
    def test_bang_bang_duty_outside_the_unit_interval_raises(self, duty):
        # duty 1.5 came back with mean 1.35, and -0.5 with mean 0.5
        with pytest.raises(SignalError, match="duty"):
            project_to_mean(BB, (0.3, 2.0, duty), 1.0)


class TestFamilyConstructors:
    @pytest.mark.parametrize("n_segments", [2.0, 2.5, True, np.bool_(True), "2", None, 0, -1])
    def test_segment_count_must_be_a_positive_integer(self, n_segments):
        # 2.0, 2.5 and True constructed, then failed in range() or read True as 1
        with pytest.raises(SignalError, match="segments"):
            PiecewiseConstantFree(period=1.0, n_segments=n_segments)

    @pytest.mark.parametrize("period", [True, np.bool_(False), None, "x", 0.0, -1.0,
                                        math.inf, math.nan])
    @pytest.mark.parametrize("make", [
        lambda period: BangBang(period=period),
        lambda period: PiecewiseConstantFree(period=period, n_segments=2),
    ])
    def test_period_must_be_a_positive_number(self, make, period):
        with pytest.raises(SignalError, match="period"):
            make(period)

    def test_level_count_is_derived_from_the_family(self):
        family = PiecewiseConstantFree(period=2, n_segments=np.int64(3))
        assert type(family.period) is float and family.period == 2.0
        assert family.n_levels == family.n_segments == 3
        assert "n_levels" not in {f.name for f in dataclasses.fields(family)}
        assert BangBang(period=np.float64(0.5)).n_levels == 2


class TestFamilyPlumbing:
    def test_bang_bang_signal_layout(self):
        # One evaluation of a family point: the logged output is that of the
        # two-level signal with the high level first on [0, duty * T).
        point = (0.5, 2.0, 0.25)
        res = coordinate_descent(BB, 0.875, P1, point, max_evals=1)
        points, means, outputs = log_columns(res.log)
        assert points == [point]
        assert means == [pytest.approx(0.875)]
        want = gap_report(PiecewiseConstant((0.0, 0.5, 2.0), (2.0, 0.5)), P1).w_sigma
        assert outputs[0] == pytest.approx(want, abs=1e-14)

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
        points, _, outputs = log_columns(res.log)
        for point, w in zip(points, outputs):
            if point[0] < 1.0 - 1e-9:
                assert w < 0.5 - 1e-12
        # output increases toward the constant limit along fixed duty
        by_duty = {}
        for point, w in zip(points, outputs):
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
        for mean in log_columns(res.log)[1]:
            assert abs(mean - 1.0) <= 1e-10

    @pytest.mark.parametrize("family, resolution", [
        (BangBang(period=2.0), 5),
        (PiecewiseConstantFree(period=2.0, n_segments=3), 5),
    ])
    def test_batch_matches_point_by_point_loop(self, family, resolution):
        points, outputs, best_index = _reference_grid_search(family, 1.0, P1, resolution)
        res = grid_search(family, 1.0, P1, resolution)
        logged, _, logged_outputs = log_columns(res.log)
        assert logged == points
        np.testing.assert_allclose(logged_outputs, outputs, rtol=1e-14, atol=0.0)
        assert res.evaluations == len(points)
        assert res.best_point == points[best_index]
        assert logged.index(res.best_point) == best_index
        # the best w is tied: on bang_bang the constant point is reached at
        # every duty, at distance 0, and the first of those rows must win
        assert outputs.count(outputs[best_index]) > 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [2, 5, 8])
    def test_free_grid_evaluates_each_projection_class_once(self, k, r):
        # A non-dyadic mean: float projections of the points of one waveform
        # differ in their last bits, while the grid logs one row for each.
        mean = 0.7354426844383339
        family = PiecewiseConstantFree(period=2.0, n_segments=k)
        points, outputs, _ = _reference_grid_search(family, mean, P1, r)
        res = grid_search(family, mean, P1, r)
        logged, _, logged_outputs = log_columns(res.log)
        assert res.evaluations == len(res.log) == len(logged) == r ** k
        exact = {exact_projection(index, r) for index in itertools.product(range(r), repeat=k)}
        assert len(set(logged)) == len(exact) <= r ** k - (r - 1) ** k
        ulps = 4.0 * np.spacing(k * mean)
        for row, own in zip(logged, points):
            assert np.max(np.abs(np.subtract(row, own))) <= ulps
        np.testing.assert_allclose(logged_outputs, outputs, rtol=1e-14, atol=0.0)
        # the best point: the first row in product order with the largest
        # w, then the smallest distance to the constant waveform
        w, dist = _evaluate_rows(family, np.array(logged), mean, P1.lam)
        top = np.flatnonzero(w == w.max())
        assert res.best_point == logged[top[np.argmin(dist[top])]]
        assert res.best_w == w.max()

    @pytest.mark.parametrize("r, k", [(r, k) for r in range(2, 10) for k in range(1, 6)
                                      if r ** k <= 10_000])
    def test_free_grid_rows_are_exact_projections(self, r, k):
        # Each level of a logged row is three roundings from the exact
        # projection of the row's own grid point: of k mean, of its quotient
        # by the row's denominator and of the product with a numerator. No
        # level at these means is subnormal, so the bound is relative. Rows
        # and exact projections pair one to one.
        exact = [exact_projection(index, r) for index in itertools.product(range(r), repeat=k)]
        ids = {}
        exact_ids = [ids.setdefault(fractions, len(ids)) for fractions in exact]
        distinct = list(ids)
        family = PiecewiseConstantFree(period=2.0, n_segments=k)
        bound = (1 + Fraction(2) ** -53) ** 3 - 1
        for mean in [1e-300, 0.7354426844383339, 1.3, 1e300] + [5e307] * (k == 2):
            logged = log_columns(grid_search(family, mean, P1, r).log)[0]
            assert len(logged) == r ** k
            pairs = set(zip(logged, exact_ids))
            assert len(pairs) == len(set(logged)) == len(ids)
            for row, i in pairs:
                for level, q in zip(row, distinct[i]):
                    want = q * k * Fraction(mean)
                    assert abs(Fraction(level) - want) <= bound * want, (mean, row)

    @pytest.mark.parametrize("r", [4, 6, 8])
    def test_constant_row_is_the_mean_itself(self, r):
        # The constant waveform is 1 / 4 of 4 mean in lowest terms, so its
        # levels are the mean with no rounding; as 7 / 28 of it at r = 8 they
        # would be 7 (4 mean / 28), which misses the mean for about 1 mean in 10.
        family = PiecewiseConstantFree(period=2.0, n_segments=4)
        for mean in np.random.default_rng(r).uniform(0.1, 10.0, 50).tolist():
            assert grid_search(family, mean, P1, r).best_point == (mean,) * 4

    @pytest.mark.parametrize("r, k, rows", [(8, 4, 533), (9, 4, 729), (5, 3, 43)])
    def test_free_grid_is_built_once_per_shape_read_only(self, r, k, rows):
        optimize._free_grid.cache_clear()
        built = optimize._free_grid(r, k)
        assert optimize._free_grid(r, k) is built
        numerators, denominators, order = built
        assert (len(numerators), len(denominators), len(order)) == (rows, rows, r ** k)
        assert np.array_equal(np.unique(order), np.arange(rows))
        for array in built:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("family, resolution", [
        (PiecewiseConstantFree(period=2.0, n_segments=3), 5),
        (BangBang(period=2.0), 40),
    ])
    def test_grid_across_projection_chunks_matches_point_by_point_loop(self, family, resolution):
        # A cold call, which builds the free grid's rows, and a warm one, which
        # reads them from the cache, write the same bytes. The 5**3 points
        # project to 43 exact rows whose levels are all dyadic, which the
        # loop's float projections hit exactly; 1,600 bang_bang rows, which
        # the grid once evaluated as two chunks.
        optimize._free_grid.cache_clear()
        cold = grid_search(family, 1.0, P1, resolution)
        res = grid_search(family, 1.0, P1, resolution)
        assert csv_text(res.log) == csv_text(cold.log)
        assert (res.best_point, res.best_w) == (cold.best_point, cold.best_w)
        points, outputs, best_index = _reference_grid_search(family, 1.0, P1, resolution)
        logged, _, logged_outputs = log_columns(res.log)
        assert logged == points
        np.testing.assert_allclose(logged_outputs, outputs, rtol=1e-14, atol=0.0)
        assert res.best_point == points[best_index]
        assert logged.index(res.best_point) == best_index
        assert outputs.count(outputs[best_index]) > 1

    def test_resolution_validated(self):
        with pytest.raises(Exception):
            grid_search(BB, 1.0, P1, 1)

    @pytest.mark.filterwarnings("error")
    def test_tie_break_at_a_huge_mean_prefers_the_closer_row(self):
        # At mean 1e200 each level's x_inf rounds to 1, so every row without
        # an empty segment has w = lam exactly. Squared deviations of about
        # 1e400 overflowed to inf, and the tie-break could not rank them.
        mean = 1e200
        family = PiecewiseConstantFree(period=1.0, n_segments=3)
        rows = np.array([[2.5, 0.25, 0.25], [1.2, 0.9, 0.9]]) * mean
        w, dist = _evaluate_rows(family, rows, mean, 1.0)
        assert w[0] == w[1] == 1.0
        assert np.isfinite(dist).all() and np.argmin(dist) == 1
        assert grid_search(family, mean, P1, 5).best_point == (mean, mean, mean)


def exact_projection(index, r):
    """The projection of an index vector onto {q >= 0, sum q = r - 1}, in
    fractions of its sum (Held, Wolfe & Crowder 1974): a free-grid point's
    exact levels, in units of k mean."""
    u, total = sorted(index, reverse=True), r - 1
    rho = max(j for j in range(1, len(u) + 1) if j * u[j - 1] > sum(u[:j]) - total)
    theta = Fraction(sum(u[:rho]) - total, rho)
    return tuple(max(i - theta, 0) / total for i in index)


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


def kkt_residual(family, mean, lam, point):
    """The stop's residual at a family point, from the kernel's gradient.

    Unit-free coordinates u = x / D: the levels over the mean on the mean
    simplex, or (p1 / mean, duty) with D = (1 / (1 - duty), 1) on the box.
    The residual is the largest u-move of the projected step D^2 g / size,
    size = max |mean dw/dc|.
    """
    T = family.period
    if isinstance(family, BangBang):
        p1, p2, duty = point
        levels, durations = [p2, p1], [duty * T, (1.0 - duty) * T]
    else:
        levels, durations = list(point), [T / family.n_segments] * family.n_segments
    kernel = _PeriodRows([levels], [durations], lam, gradient=True)
    dw_dc, dw_dh = kernel.dw_dc[0], kernel.dw_dh[0]
    size = np.abs(mean * dw_dc).max()
    if isinstance(family, BangBang):
        v = np.array([p1 / mean, duty])
        g = np.array([mean * (dw_dc[1] - dw_dc[0] * (1.0 - duty) / duty),
                      dw_dc[0] * (p1 - p2) / duty + (dw_dh[0] - dw_dh[1]) * family.period])
        scale = np.array([1.0 / (1.0 - duty), 1.0])
        moved = v + scale * scale * g / size
        lo, hi = np.array([0.0, 1e-3]), np.array([1.0, 1.0 - 1e-3])
        return np.max(np.abs(np.clip(moved, lo, hi) - v) / scale)
    c = np.array(point)
    moved = simplex_projection(c + mean * mean * dw_dc / size, family.n_segments * mean)
    return np.max(np.abs(moved - c)) / mean


class TestCoordinateDescent:
    def test_constant_start_terminates_immediately(self):
        res = coordinate_descent(K4, 1.0, P1, (1.0, 1.0, 1.0, 1.0))
        assert abs(res.optimality_gap) <= 1e-12
        assert not res.capped
        assert res.evaluations == 1
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
        # K4 from (0, 4, 0, 0) converges well inside 40 evaluations; eight
        # levels from one pulse need more
        family = PiecewiseConstantFree(period=2.0, n_segments=8)
        start = (0.0,) * 7 + (8.0,)
        full = coordinate_descent(family, 1.0, P1, start)
        assert not full.capped and full.evaluations > 40
        res = coordinate_descent(family, 1.0, P1, start, max_evals=40)
        assert res.capped
        assert res.evaluations == len(res.log) == 40

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_raises_before_logging(self):
        # At the start w is finite; toward the constant lam * int_0^T x_p
        # passes 1.8e308 and w overflows
        params = SystemParams(lam=2e307)
        family = BangBang(period=40.0)
        log = EvaluationLog(family, 2e307, constant_benchmark(2e307, params))
        with pytest.raises(SignalError, match=r"not finite at mean 2e\+307 on BangBang"):
            coordinate_descent(family, 2e307, params, (0.0, 1e308, 0.2), log=log)
        assert len(log) >= 1
        assert all(math.isfinite(w) for w in log_columns(log)[2])

    @pytest.mark.parametrize("family", [BB, K4, PiecewiseConstantFree(period=0.5, n_segments=7)])
    def test_returns_a_kkt_point_or_capped(self, family):
        rng = np.random.default_rng(31)
        for _ in range(12):
            lam = float(10.0 ** rng.uniform(-2, 2))
            mean = float(10.0 ** rng.uniform(-2, 2))
            params = SystemParams(lam=lam)
            if isinstance(family, BangBang):
                raw = (rng.uniform(0, 2 * mean), rng.uniform(0, 2 * mean), rng.uniform(0.05, 0.95))
            else:
                raw = tuple(rng.uniform(0.0, 2.0 * mean, family.n_segments))
            for max_evals in (5, 10_000):
                res = coordinate_descent(family, mean, params, project_to_mean(family, raw, mean),
                                         max_evals=max_evals)
                residual = kkt_residual(family, mean, lam, res.best_point)
                assert residual <= 1e-10 or res.capped, (lam, mean, residual)
                assert res.evaluations == len(res.log) <= max_evals
                points, _, outputs = log_columns(res.log)
                assert res.best_w == outputs[points.index(res.best_point)]
                assert res.log.max_excess <= 1e-9 * min(1.0, res.benchmark_w)

    @pytest.mark.parametrize("family, start", [
        (BB, (0.5, 2.0, 0.25)),
        (PiecewiseConstantFree(period=1.0, n_segments=3), (1.5, 1.0, 0.5)),
    ])
    @pytest.mark.parametrize("lam, mean", [(1e-300, 1.0), (1.0, 1e-310)])
    def test_overflowed_step_length_ends_capped(self, family, start, lam, mean):
        # size = max |mean dw/dc| is below 1 / float max, so t = 1 / size is
        # inf and inf * 0 NaN: the free family recursed without end, and
        # BangBang read NaN > tol as converged, each with a RuntimeWarning.
        units = (mean, mean, 1.0) if isinstance(family, BangBang) else (mean,) * 3
        start = tuple(c * u for c, u in zip(start, units))
        res = coordinate_descent(family, mean, SystemParams(lam=lam), start)
        assert res.capped and res.evaluations == len(res.log) == 1
        assert math.isfinite(res.best_w)
        assert res.log.max_excess <= 1e-9 * min(1.0, res.benchmark_w)

    @pytest.mark.parametrize("family, start", [
        (BB, (math.nan, 1.0, 0.5)),
        (K4, (math.nan, 1.0, 1.0, 1.0)),
    ])
    def test_non_finite_start_raises(self, family, start):
        with pytest.raises(SignalError, match="cannot project"):
            coordinate_descent(family, 1.0, P1, start)

    def test_mean_zero_is_one_evaluation(self):
        for family, start in ((BB, (0.0, 0.0, 0.5)), (K4, (0.0,) * 4)):
            res = coordinate_descent(family, 0.0, P1, start)
            assert res.evaluations == 1 and not res.capped and res.best_w == 0.0


def log_hex(log):
    """Every logged row, each float as float.hex: equal only bit for bit."""
    return [[float.hex(v) for v in (*point, mean, w)] for point, mean, w in zip(*log_columns(log))]


def result_hex(result):
    """Every OptimizationResult field but the log, floats as float.hex."""
    out = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if field.name == "best_point":
            value = [float.hex(c) for c in value]
        elif isinstance(value, float):
            value = float.hex(value)
        if field.name != "log":
            out[field.name] = value
    return out


def one_after_another(family, mean, params, starts, **kwargs):
    """(results, log, error) of coordinate_descent per start, in start order."""
    log = EvaluationLog(family, mean, constant_benchmark(mean, params))
    results = []
    try:
        for start in starts:
            results.append(coordinate_descent(family, mean, params, start, log=log, **kwargs))
    except SignalError as exc:
        return results, log, exc
    return results, log, None


class TestLockstep:
    # Over a period of 0.5 the starts leave the batch at different steps:
    # the constant point after one evaluation, the others after 5 to 16.
    BB_FAST, K4_FAST = BangBang(period=0.5), PiecewiseConstantFree(period=0.5, n_segments=4)
    STARTS = {
        BB_FAST: [(0.0, 2.0, 0.5), (1.0, 1.0, 0.5), (0.9, 1.3, 0.2), (0.1, 3.0, 0.3),
                  (0.5, 1.5, 0.5)],
        K4_FAST: [(0.0, 4.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0), (2.0, 0.0, 1.5, 0.5),
                  (0.2, 0.3, 0.5, 3.0), (1.2, 0.8, 1.1, 0.9)],
    }

    @pytest.mark.parametrize("family", [BB_FAST, K4_FAST])
    @pytest.mark.parametrize("mean, max_evals", [(1.0, 10_000), (1.0, 3), (0.0, 10_000)])
    def test_batch_equals_one_start_at_a_time(self, family, mean, max_evals):
        params = SystemParams(lam=2.0)
        starts = [project_to_mean(family, s, mean) for s in self.STARTS[family]]
        want, want_log, _ = one_after_another(family, mean, params, starts, max_evals=max_evals)
        log = EvaluationLog(family, mean, constant_benchmark(mean, params))
        got = coordinate_descents(family, mean, params, starts, max_evals=max_evals, log=log)
        assert [result_hex(r) for r in got] == [result_hex(r) for r in want]
        assert all(r.log is log for r in got)
        assert log_hex(log) == log_hex(want_log)
        assert log.max_output == want_log.max_output and len(log) == len(want_log)
        evaluations = [r.evaluations for r in got]
        if mean == 0.0:
            assert evaluations == [1] * len(starts)
        elif max_evals == 3:
            assert evaluations == [3, 1, 3, 3, 3]
            assert [r.capped for r in got] == [True, False, True, True, True]
        else:
            assert evaluations[1] == 1 and min(evaluations[:1] + evaluations[2:]) > 3
            assert len(set(evaluations)) > 2 and not any(r.capped for r in got)

    @pytest.mark.parametrize("family", [BB, K4])
    def test_no_starts(self, family):
        log = EvaluationLog(family, 1.0, constant_benchmark(1.0, P1))
        assert coordinate_descents(family, 1.0, P1, [], log=log) == []
        assert len(log) == 0

    # Both starts at lam = mean = 2e307 fail: (0, 1e308, 0.2) after some
    # steps, where w overflows near the constant, and (0, mean / 0.12, 0.12)
    # at its first point, whose lam + level overflows. One after another,
    # the first start's error is raised; in lockstep the second fails first.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_first_failing_start_in_start_order_raises(self, order):
        mean, params, family = 2e307, SystemParams(lam=2e307), BangBang(period=40.0)
        starts = [(0.0, 1e308, 0.2), (0.0, mean / 0.12, 0.12)]
        starts = [starts[i] for i in order]
        _, want_log, want = one_after_another(family, mean, params, starts)
        assert want is not None
        log = EvaluationLog(family, mean, constant_benchmark(mean, params))
        with pytest.raises(SignalError) as got:
            coordinate_descents(family, mean, params, starts, log=log)
        assert str(got.value) == str(want)
        assert ("not finite" if order == (0, 1) else "lam + level overflows") in str(want)
        assert log_hex(log) == log_hex(want_log)


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
    # The output deficit along 1 + eps * direction, for a zero-mean direction
    # on an equal partition, read from the public row kernel.
    @staticmethod
    def deficits(direction, epsilons, period=2.0):
        levels = 1.0 + np.multiply.outer(epsilons, direction)
        return constant_benchmark(1.0, P1) - output_for_level_rows(
            levels, period / len(direction), P1.lam)

    def test_zero_direction_is_flat(self):
        assert self.deficits([0.0, 0.0], [0.1, 0.05]).tolist() == [0.0, 0.0]

    def test_two_level_direction_slope(self):
        eps = np.array([0.1, 0.05, 0.025])
        deficits = self.deficits([1.0, -1.0], eps)
        assert (deficits > 0.0).all()
        log_e, log_d = np.log(eps), np.log(deficits)
        slope, intercept = np.polyfit(log_e, log_d, 1)
        residual = log_d - (slope * log_e + intercept)
        assert slope == pytest.approx(2.0, abs=0.05)
        assert 1.0 - residual @ residual / np.sum((log_d - log_d.mean()) ** 2) > 0.999

    def test_fast_switching_flattens_response(self):
        # kappa, the least-squares fit of deficit = kappa eps^2, falls as the
        # switching speeds up
        eps = np.array([0.1, 0.05])
        kappas = [self.deficits([1.0, -1.0], eps, T) @ eps**2 / np.sum(eps**4)
                  for T in (4.0, 2.0, 1.0, 0.5)]
        assert all(b < a for a, b in zip(kappas, kappas[1:]))


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
        descents = [coordinate_descent(K4, 1.0, P1, start, log=log)
                    for start in ((0.0, 4.0, 0.0, 0.0), (2.0, 0.0, 1.5, 0.5))]
        assert len(log) > n_grid
        # every evaluation is logged, and only once
        assert len(log) == n_grid + sum(r.evaluations for r in descents)
        assert log.max_excess <= 1e-9
        # the mean constraint holds for every evaluation, not just optima
        assert all(abs(m - 1.0) <= 1e-10 for m in log_columns(log)[1])

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


class TestCsvMatchesPerRowWriter:
    # The free-family grid has 7**4 = 2401 points with 375 distinct exact
    # projections, logged as one block of 375 rows with a row order and
    # written in five chunks; the descent rows after it form a block of
    # their own.
    @pytest.mark.parametrize("family, resolution, starts, min_chunks", [
        (BB, 9, [(0.0, 2.0, 0.5), (0.9, 1.3, 0.2)], 0),
        (K4, 7, [(0.0, 4.0, 0.0, 0.0), (2.0, 0.0, 1.5, 0.5)], 4),
    ])
    def test_grid_and_descents(self, family, resolution, starts, min_chunks):
        rows = []

        class RecordingLog(EvaluationLog):      # keeps each evaluation's row as floats
            def extend(self, points, outputs, order=None):
                super().extend(points, outputs, order)
                block = list(zip(map(tuple, points.tolist()), outputs.tolist()))
                rows.extend(block if order is None else [block[i] for i in order.tolist()])

        log = RecordingLog(family, 1.0, constant_benchmark(1.0, P1))
        grid_search(family, 1.0, P1, resolution, log=log)
        for start in starts:
            coordinate_descent(family, 1.0, P1, start, log=log)
        assert len(rows) == len(log) > min_chunks * _CSV_CHUNK
        assert log.max_output == max(w for _, w in rows)
        text = csv_text(log)
        assert text == per_row_csv(family, log.benchmark, rows)
        assert text.count("\n") == len(log) + 1

    def test_hand_recorded_edge_values_in_order(self):
        fam = PiecewiseConstantFree(period=1.0, n_segments=2)
        rows = [
            ((-0.0, 0.0), -0.0),
            ((5e-324, 1e16), 9999999999999998.0),
            ((1e-5, -0.0), 1e16),
            ((9999999999999998.0, 1e16), 5e-324),
            ((math.nan, math.inf), 1e-5),
            ((-math.inf, 5e-324), -math.inf),
        ]
        log = EvaluationLog(fam, 0.5, 1e-5)
        for block in (rows[:1], rows[1:3], rows[3:4], rows[4:]):
            extend_rows(log, block)
        assert len(log) == len(rows)
        assert log.max_output == 1e16
        assert csv_text(log) == per_row_csv(fam, 1e-5, rows)

    def test_hand_recorded_edge_values_in_row_order(self):
        # Distinct rows written in a row order that repeats them out of order,
        # across more than one chunk, between two blocks without an order.
        fam = PiecewiseConstantFree(period=1.0, n_segments=2)
        rows = [
            ((-0.0, 0.0), -0.0),
            ((5e-324, 1e16), 9999999999999998.0),
            ((1e-5, -0.0), 1e16),
            ((9999999999999998.0, 1e16), 5e-324),
        ]
        order = np.random.default_rng(5).integers(0, len(rows), _CSV_CHUNK + 300)
        order[:4] = 3, 0, 2, 1
        log = EvaluationLog(fam, 0.5, 1e-5)
        extend_rows(log, rows[1:2])
        extend_rows(log, rows, order=order)
        extend_rows(log, rows[:1])
        expected = rows[1:2] + [rows[i] for i in order.tolist()] + rows[:1]
        assert len(log) == len(expected)
        assert log.max_output == 1e16
        assert csv_text(log) == per_row_csv(fam, 1e-5, expected)

    def test_values_recurring_across_chunks_and_blocks(self):
        # One pool of 3000 values, more than one chunk's memo holds, feeds the
        # levels and outputs of blocks of 700, 1, 900, 600 and 3 rows; -0.0 and
        # 0.0, and two NaN payloads, sit on each side of a block's start, which
        # is a chunk's start too.
        rng = np.random.default_rng(11)
        pool = rng.uniform(0.0, 2.0, 3000)
        fam = PiecewiseConstantFree(period=1.0, n_segments=2)
        log = EvaluationLog(fam, 1.0, 0.5)
        rows = []
        nan_a, nan_b = np.array([0x7FF8000000000001, -0x0008000000000000]).view(np.float64)
        for i, n in enumerate((700, 1, 900, 600, 3)):
            points = rng.choice(pool, (n, 2))
            outputs = rng.choice(pool, n)
            if i == 2:
                points[-1] = -0.0, nan_a
            if i == 3:
                points[0] = 0.0, nan_b
            log.extend(points, outputs)
            rows += zip(map(tuple, points.tolist()), outputs.tolist())
        assert len(log) == len(rows) > 4 * _CSV_CHUNK
        assert csv_text(log).splitlines() == per_row_csv(fam, 0.5, rows).splitlines()

    def test_empty_log_writes_the_header_only(self):
        log = EvaluationLog(BB, 1.0, 0.5)
        assert csv_text(log) == "p1,p2,duty,mean,w,benchmark,gap\n"
        assert len(log) == 0 and log_columns(log)[0] == [] and log.max_excess == -math.inf
