"""Constrained waveform search over fixed-mean families.

The point of this module is falsification, not production optimization:
constant inflow is provably the unique maximizer of averaged output at
fixed mean inflow, so every search here is expected to crawl back to the
constant waveform and never to beat the benchmark lam m / (lam + m). The
searches are deliberately auditable (full grids, coordinate descent with
projection, mandatory evaluation logs) so that a numerical disagreement
with the theory would fail loudly and reproducibly.

Two families are searched, both with exactly prescribed mean:

* BangBang(period): two-level switching waveforms (p1, p2, duty), high
  level p2 active on [0, duty*period).
* PiecewiseConstantFree(period, n_segments): free levels on an equal
  partition of one period.

The mean constraint is enforced by Euclidean projection in level
coordinates (the exact sort-based simplex projection), never by penalty, so
every evaluated waveform satisfies the constraint exactly and the benchmark
comparison is fair at each point. Grids are evaluated as one batch of rows;
coordinate descent is sequential and stays on the scalar kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import SignalError, SystemParams
from .periodic import constant_benchmark, output_for_level_rows, output_for_levels

__all__ = [
    "BangBang",
    "PiecewiseConstantFree",
    "WaveformFamily",
    "InfeasibleMeanError",
    "ClippingActiveError",
    "EvaluationLog",
    "OptimizationResult",
    "PerturbationFit",
    "family_mean",
    "project_to_mean",
    "grid_search",
    "coordinate_descent",
    "perturbation_response",
]

MEAN_TOL = 1e-12
DEFAULT_MAX_EVALS = 10_000
_DUTY_MIN = 1e-3


class InfeasibleMeanError(ValueError):
    """The target mean cannot be reached with non-negative levels."""


class ClippingActiveError(ValueError):
    """A perturbation drove some level negative; retry with a smaller epsilon."""


@dataclass(frozen=True)
class BangBang:
    """Two-level periodic waveform; point coordinates are (p1, p2, duty)."""

    period: float

    def __post_init__(self) -> None:
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise SignalError(f"period must be positive, got {self.period}")

    coordinate_names = ("p1", "p2", "duty")


@dataclass(frozen=True)
class PiecewiseConstantFree:
    """Free levels on an equal partition; point coordinates are the levels."""

    period: float
    n_segments: int

    def __post_init__(self) -> None:
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise SignalError(f"period must be positive, got {self.period}")
        if self.n_segments < 1:
            raise SignalError(f"need at least one segment, got {self.n_segments}")

    @property
    def coordinate_names(self) -> tuple[str, ...]:
        return tuple(f"level_{i + 1}" for i in range(self.n_segments))


WaveformFamily = BangBang | PiecewiseConstantFree


def _levels_durations(family: WaveformFamily, point) -> tuple[list[float], list[float]]:
    if isinstance(family, BangBang):
        p1, p2, duty = point
        if not (0.0 <= p1 <= p2):
            raise SignalError(f"need 0 <= p1 <= p2, got p1={p1}, p2={p2}")
        if not (0.0 <= duty <= 1.0):
            raise SignalError(f"duty must lie in [0, 1], got {duty}")
        T = family.period
        if duty <= 0.0:
            return [p1], [T]
        if duty >= 1.0:
            return [p2], [T]
        return [p2, p1], [duty * T, (1.0 - duty) * T]
    levels = list(point)
    if len(levels) != family.n_segments:
        raise SignalError(
            f"expected {family.n_segments} levels, got {len(levels)}"
        )
    if any(v < 0.0 for v in levels):
        raise SignalError(f"levels must be non-negative: {levels}")
    h = family.period / family.n_segments
    return levels, [h] * family.n_segments


def family_mean(family: WaveformFamily, point) -> float:
    if isinstance(family, BangBang):
        p1, p2, duty = point
        return duty * p2 + (1.0 - duty) * p1
    return math.fsum(point) / family.n_segments


# ---------------------------------------------------------------------------
# Mean projection
# ---------------------------------------------------------------------------
#
# Euclidean projection onto {v >= 0, sum v = total} by sorting (Held, Wolfe &
# Crowder 1974; Duchi et al. 2008). With u the values in descending order and
# theta_i = (u_1 + ... + u_i - total) / i, let rho be the last i with
# u_i > theta_i; the projection is max(v - theta_rho, 0). i = 1 qualifies
# whenever total > 0 and is taken unconditionally, so total = 0 (and rounding
# when u_1 >> total) still yields a shift. The row and scalar versions do the
# same floating-point operations in the same order and agree bit for bit.

def _project_simplex_rows(values: np.ndarray, total: float) -> np.ndarray:
    """Project every row of an (N, k) array; see the comment above."""
    n, k = values.shape
    u = -np.sort(-values, axis=1)
    theta = (np.cumsum(u, axis=1) - total) / np.arange(1, k + 1)
    keep = u > theta
    keep[:, 0] = True
    rho = k - 1 - np.argmax(keep[:, ::-1], axis=1)
    shift = theta[np.arange(n), rho]
    return np.maximum(values - shift[:, None], 0.0)


def _project_simplex(values: list[float], total: float) -> list[float]:
    """Scalar twin of _project_simplex_rows for one short list of floats."""
    css = 0.0
    for i, u in enumerate(sorted(values, reverse=True), 1):
        css += u
        t = (css - total) / i
        if i == 1 or u > t:
            theta = t
    return [max(v - theta, 0.0) for v in values]


def project_to_mean(family: WaveformFamily, point, target_mean: float):
    """Nearest family point (Euclidean in level coordinates) with the target mean.

    For BangBang the duty is held fixed and only (p1, p2) move; for the free
    piecewise family all levels move. Levels stay non-negative via the exact
    sort-based simplex projection.
    """
    if target_mean < 0.0:
        raise InfeasibleMeanError(f"target mean must be non-negative, got {target_mean}")
    if isinstance(family, BangBang):
        p1, p2, duty = float(point[0]), float(point[1]), float(point[2])
        if duty <= 0.0:
            return (target_mean, max(p2, target_mean), duty)
        if duty >= 1.0:
            return (min(p1, target_mean), target_mean, duty)
        w1, w2 = 1.0 - duty, duty
        shift = (target_mean - (w1 * p1 + w2 * p2)) / (w1 * w1 + w2 * w2)
        q1 = p1 + shift * w1
        q2 = p2 + shift * w2
        # The feasible set on the constraint line is the segment between
        # (0, target/duty) and (target, target); clamp to its endpoints.
        if q1 < 0.0:
            q1, q2 = 0.0, target_mean / duty
        elif q1 > q2:
            q1 = q2 = target_mean
        return (q1, q2, duty)
    levels = [float(c) for c in point]
    return tuple(_project_simplex(levels, family.n_segments * target_mean))


# ---------------------------------------------------------------------------
# Evaluation plumbing
# ---------------------------------------------------------------------------

class EvaluationLog:
    """Append-only record of every waveform evaluation in one experiment.

    The never-beats-benchmark invariant is checked over this log, not just
    over the returned optimum.
    """

    def __init__(self, family: WaveformFamily, target_mean: float, benchmark: float):
        self.family = family
        self.target_mean = target_mean
        self.benchmark = benchmark
        self.points: list[tuple] = []
        self.means: list[float] = []
        self.outputs: list[float] = []

    def record(self, point, mean: float, w: float) -> None:
        self.points.append(tuple(float(c) for c in point))
        self.means.append(float(mean))
        self.outputs.append(float(w))

    def extend(self, points: np.ndarray, means: np.ndarray, outputs: np.ndarray) -> None:
        """Record a batch of evaluations in row order, one row of `points` each."""
        self.points.extend(map(tuple, points.tolist()))
        self.means.extend(means.tolist())
        self.outputs.extend(outputs.tolist())

    def __len__(self) -> int:
        return len(self.outputs)

    @property
    def max_output(self) -> float:
        return max(self.outputs) if self.outputs else -math.inf

    @property
    def max_excess(self) -> float:
        """Largest amount by which any evaluation beat the benchmark."""
        return self.max_output - self.benchmark

    def to_csv(self, fh) -> None:
        """Stream one row per evaluation to the open text file `fh`."""
        fh.write(",".join(self.family.coordinate_names) + ",mean,w,benchmark,gap\n")
        benchmark = repr(self.benchmark)
        for point, mean, w in zip(self.points, self.means, self.outputs):
            coords = ",".join(map(repr, point))
            fh.write(f"{coords},{mean!r},{w!r},{benchmark},{self.benchmark - w!r}\n")


@dataclass(frozen=True)
class OptimizationResult:
    best_point: tuple
    best_w: float
    benchmark_w: float
    optimality_gap: float
    evaluations: int
    capped: bool
    log: EvaluationLog

    def to_json_dict(self) -> dict:
        return {
            "best_point": [float(c) for c in self.best_point],
            "coordinate_names": list(self.log.family.coordinate_names),
            "best_w": self.best_w,
            "benchmark_w": self.benchmark_w,
            "optimality_gap": self.optimality_gap,
            "evaluations": self.evaluations,
            "capped": self.capped,
            "target_mean": self.log.target_mean,
        }


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


def _evaluate(family, point, params, log: EvaluationLog, budget: _Budget) -> float:
    levels, durations = _levels_durations(family, point)
    w = output_for_levels(levels, durations, params.lam)
    log.record(point, family_mean(family, point), w)
    budget.used += 1
    return w


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

# Rows evaluated per batch; bounds the (rows x k) temporaries on large grids.
_GRID_CHUNK = 4096


def _grid_array(family: WaveformFamily, target_mean: float, resolution: int) -> np.ndarray:
    """All grid points, one row each, in itertools.product order.

    BangBang rows are feasible (p1, p2, duty) points; free-family rows are raw
    levels that still have to be projected onto the target mean.
    """
    if isinstance(family, BangBang):
        duties = np.linspace(0.0, 1.0, resolution + 2)[1:-1]
        lows = np.linspace(0.0, target_mean, resolution)
        duty, p1 = (a.ravel() for a in np.meshgrid(duties, lows, indexing="ij"))
        p2 = (target_mean - (1.0 - duty) * p1) / duty
        # p2 >= p1 holds exactly for p1 <= mean; shave rounding dust
        return np.column_stack((p1, np.maximum(p1, p2), duty))
    axis = np.linspace(0.0, family.n_segments * target_mean, resolution)
    mesh = np.meshgrid(*[axis] * family.n_segments, indexing="ij")
    return np.column_stack([a.ravel() for a in mesh])


def _evaluate_rows(family: WaveformFamily, rows: np.ndarray, target_mean: float, lam: float):
    """(mean, w, distance to constant) of each row of feasible family points.

    The distance is Euclidean in level coordinates (duty excluded for BangBang).
    """
    if isinstance(family, BangBang):
        p1, p2, duty = rows.T
        levels = np.column_stack((p2, p1))
        durations = np.column_stack((duty, 1.0 - duty)) * family.period
        means = duty * p2 + (1.0 - duty) * p1
        dev = rows[:, :2] - target_mean
    else:
        levels = rows
        durations = family.period / family.n_segments
        means = rows.sum(axis=1) / family.n_segments
        dev = rows - target_mean
    w = output_for_level_rows(levels, durations, lam)
    return means, w, np.sqrt(np.sum(dev * dev, axis=1))


def grid_search(
    family: WaveformFamily,
    target_mean: float,
    params: SystemParams,
    resolution: int,
    log: EvaluationLog | None = None,
) -> OptimizationResult:
    """Evaluate a full grid of feasible family points and return the best.

    The grid is evaluated as one batch of rows, in fixed-size chunks, and
    every point is logged in grid order. Ties are broken toward the point
    closest (Euclidean, level coordinates) to the constant waveform, then
    toward the first point, keeping runs deterministic when the optimum is
    approached along a boundary.
    """
    if resolution < 2:
        raise SignalError(f"resolution must be at least 2, got {resolution}")
    if target_mean < 0.0:
        raise InfeasibleMeanError(f"target mean must be non-negative, got {target_mean}")
    benchmark = constant_benchmark(target_mean, params)
    if log is None:
        log = EvaluationLog(family, target_mean, benchmark)

    grid = _grid_array(family, target_mean, resolution)
    best_point = None
    best_w = -math.inf
    best_dist = math.inf
    for start in range(0, len(grid), _GRID_CHUNK):
        rows = grid[start:start + _GRID_CHUNK]
        if isinstance(family, PiecewiseConstantFree):
            rows = _project_simplex_rows(rows, family.n_segments * target_mean)
        means, w, dist = _evaluate_rows(family, rows, target_mean, params.lam)
        log.extend(rows, means, w)
        top = np.flatnonzero(w == w.max())
        i = top[np.argmin(dist[top])]
        if w[i] > best_w or (w[i] == best_w and dist[i] < best_dist):
            best_point = tuple(rows[i].tolist())
            best_w, best_dist = float(w[i]), float(dist[i])
    return OptimizationResult(
        best_point=best_point,
        best_w=best_w,
        benchmark_w=benchmark,
        optimality_gap=benchmark - best_w,
        evaluations=len(grid),
        capped=False,
        log=log,
    )


# ---------------------------------------------------------------------------
# Coordinate descent
# ---------------------------------------------------------------------------

def _coordinate_line(family, point, idx, target_mean):
    """(lo, hi, rebuild) for line-searching coordinate idx under projection."""
    if isinstance(family, BangBang):
        p1, p2, duty = point
        if idx == 0:
            def rebuild(s):
                q2 = (target_mean - (1.0 - duty) * s) / duty
                return (s, max(s, q2), duty)
            return 0.0, target_mean, rebuild
        if idx == 1:
            def rebuild(s):
                return project_to_mean(family, (p1, p2, s), target_mean)
            return _DUTY_MIN, 1.0 - _DUTY_MIN, rebuild
        raise IndexError(idx)

    def rebuild(s):
        raw = list(point)
        raw[idx] = s
        return project_to_mean(family, raw, target_mean)
    return 0.0, family.n_segments * target_mean, rebuild


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _line_search(f, lo, hi, budget: _Budget, rel_tol: float = 1e-9):
    """Maximize f on [lo, hi]: coarse scan to bracket, then golden section."""
    n_scan = 9
    ss = np.linspace(lo, hi, n_scan).tolist()
    best_i = 0
    best_v = -math.inf
    vals = []
    for i, s in enumerate(ss):
        if budget.exhausted:
            break
        v = f(s)
        vals.append(v)
        if v > best_v:
            best_i, best_v = i, v
    if not vals:
        return None, -math.inf
    a = ss[max(best_i - 1, 0)]
    b = ss[min(best_i + 1, len(vals) - 1)]
    tol = rel_tol * max(1.0, hi - lo)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = f(x1) if not budget.exhausted else -math.inf
    f2 = f(x2) if not budget.exhausted else -math.inf
    best_s, best_v = (x1, f1) if f1 >= f2 else (x2, f2)
    while (b - a) > tol and not budget.exhausted:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
            if f1 > best_v:
                best_s, best_v = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
            if f2 > best_v:
                best_s, best_v = x2, f2
    return best_s, best_v


def coordinate_descent(
    family: WaveformFamily,
    target_mean: float,
    params: SystemParams,
    start,
    tol: float = 1e-10,
    max_evals: int = DEFAULT_MAX_EVALS,
    log: EvaluationLog | None = None,
) -> OptimizationResult:
    """Cyclic one-coordinate line searches under mean projection.

    Stops when a full sweep improves the output by less than `tol`, or when
    the evaluation budget is exhausted (result flagged `capped`). The search
    is local refinement; pair it with grid_search for coverage.
    """
    if target_mean < 0.0:
        raise InfeasibleMeanError(f"target mean must be non-negative, got {target_mean}")
    benchmark = constant_benchmark(target_mean, params)
    if log is None:
        log = EvaluationLog(family, target_mean, benchmark)
    budget = _Budget(max_evals)

    point = project_to_mean(family, start, target_mean)
    if isinstance(family, BangBang):
        p1, p2, duty = point
        duty = min(max(duty, _DUTY_MIN), 1.0 - _DUTY_MIN)
        point = project_to_mean(family, (p1, p2, duty), target_mean)
    best_w = _evaluate(family, point, params, log, budget)
    n_coords = 2 if isinstance(family, BangBang) else family.n_segments

    capped = False
    while True:
        sweep_gain = 0.0
        for idx in range(n_coords):
            if budget.exhausted:
                capped = True
                break
            lo, hi, rebuild = _coordinate_line(family, point, idx, target_mean)

            def f(s):
                return _evaluate(family, rebuild(s), params, log, budget)

            s_best, w_line = _line_search(f, lo, hi, budget)
            if s_best is not None and w_line > best_w:
                sweep_gain += w_line - best_w
                best_w = w_line
                point = rebuild(s_best)
        if capped or sweep_gain < tol:
            break
    return OptimizationResult(
        best_point=point,
        best_w=best_w,
        benchmark_w=benchmark,
        optimality_gap=benchmark - best_w,
        evaluations=budget.used,
        capped=capped,
        log=log,
    )


# ---------------------------------------------------------------------------
# Quadratic response to zero-mean perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationFit:
    """Fit of the output deficit against perturbation size.

    deficit(eps) = w[const mean] - w[mean + eps * direction] ~ kappa * eps^2,
    so the log-log slope should sit at 2 and kappa > 0 for any non-trivial
    zero-mean direction.
    """

    kappa: float
    loglog_slope: float
    r_squared: float
    epsilons: tuple[float, ...]
    deficits: tuple[float, ...]


def perturbation_response(
    signal_mean: float,
    params: SystemParams,
    direction,
    epsilons,
    period: float = 2.0,
) -> PerturbationFit:
    """Measure the output deficit along mean + eps * direction.

    `direction` is a zero-mean level vector on an equal partition of the
    period. Raises ClippingActiveError when an epsilon would push a level
    negative, since the quadratic law is only meaningful away from the clip.
    """
    direction = np.asarray(direction, dtype=float)
    if direction.size == 0:
        raise SignalError("direction must not be empty")
    if abs(float(direction.mean())) > MEAN_TOL * max(1.0, float(np.abs(direction).max())):
        raise SignalError(f"direction must have zero mean, got {direction.mean()}")
    epsilons = [float(e) for e in epsilons]
    if any(e <= 0.0 for e in epsilons):
        raise SignalError("epsilons must be positive")

    most_negative = float(direction.min())
    if most_negative < 0.0:
        eps_max = signal_mean / (-most_negative)
        too_big = [e for e in epsilons if e > eps_max]
        if too_big:
            raise ClippingActiveError(
                f"epsilon {max(too_big)} drives levels negative; "
                f"use epsilons below {eps_max:.6g}"
            )

    k = direction.size
    durations = [period / k] * k
    benchmark = constant_benchmark(signal_mean, params)
    deficits = []
    for eps in epsilons:
        levels = (signal_mean + eps * direction).tolist()
        w = output_for_levels(levels, durations, params.lam)
        deficits.append(benchmark - w)

    positive = [(e, d) for e, d in zip(epsilons, deficits) if d > 0.0]
    if len(positive) >= 2:
        log_e = np.log([e for e, _ in positive])
        log_d = np.log([d for _, d in positive])
        slope, intercept = np.polyfit(log_e, log_d, 1)
        fitted = slope * log_e + intercept
        ss_res = float(np.sum((log_d - fitted) ** 2))
        ss_tot = float(np.sum((log_d - log_d.mean()) ** 2))
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        slope = float(slope)
    else:
        slope = math.nan
        r_squared = math.nan

    e2 = np.asarray(epsilons) ** 2
    d = np.asarray(deficits)
    denom = float(np.sum(e2 * e2))
    kappa = float(np.sum(d * e2) / denom) if denom > 0.0 else 0.0
    return PerturbationFit(
        kappa=kappa,
        loglog_slope=slope,
        r_squared=r_squared,
        epsilons=tuple(epsilons),
        deficits=tuple(deficits),
    )
