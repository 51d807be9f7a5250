"""Constrained waveform search over fixed-mean families.

The point of this module is falsification, not production optimization:
constant inflow is provably the unique maximizer of averaged output at
fixed mean inflow, so every search here is expected to crawl back to the
constant waveform and never to beat the benchmark lam m / (lam + m). The
searches are deliberately auditable (full grids, projected-gradient descent
stopped on its KKT residual, mandatory evaluation logs) so that a numerical
disagreement with the theory would fail loudly and reproducibly.

Two families are searched, both with exactly prescribed mean:

* BangBang(period): two-level switching waveforms (p1, p2, duty), high
  level p2 active on [0, duty*period).
* PiecewiseConstantFree(period, n_segments): free levels on an equal
  partition of one period.

The mean constraint is enforced by Euclidean projection in level
coordinates (the exact sort-based simplex projection), never by penalty, so
every evaluated waveform satisfies the constraint exactly and the benchmark
comparison is fair at each point. Grids are evaluated as one batch of rows;
a descent evaluates one row per point, with the exact gradient of w from the
kernel's reverse-mode pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .signals import SignalError, SystemParams
from .periodic import _PeriodRows, constant_benchmark, output_for_level_rows

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
# when u_1 >> total) still yields a shift. Every sum and difference involves
# at most k + 2 of the values and total, so where one of them exceeds float max
# times s = 2^-(bit length of k + 2), the projection runs on everything times s
# (exact down to subnormals) and the result is divided by s. The row and scalar
# versions do the same floating-point operations in the same order and agree
# bit for bit.

def _projection_scale(k: int) -> float:
    """s of the comment above, for k values."""
    return 2.0 ** -(k + 2).bit_length()


def _project_simplex_rows(values: np.ndarray, total: float) -> np.ndarray:
    """Project every row of an (N, k) array; see the comment above."""
    n, k = values.shape
    s = _projection_scale(k)
    limit, scale = sys.float_info.max * s, 1.0
    if max(values.max(initial=0.0), -values.min(initial=0.0), abs(total)) > limit:
        largest = np.maximum(np.abs(values).max(axis=1), abs(total))
        scale = np.where(largest > limit, s, 1.0)[:, None]
        values, total = values * scale, total * scale
    u = -np.sort(-values, axis=1)
    theta = (np.cumsum(u, axis=1) - total) / np.arange(1, k + 1)
    keep = u > theta
    keep[:, 0] = True
    rho = k - 1 - np.argmax(keep[:, ::-1], axis=1)
    shift = theta[np.arange(n), rho]
    return np.maximum(values - shift[:, None], 0.0) / scale


def _project_simplex(values: list[float], total: float) -> list[float]:
    """Scalar twin of _project_simplex_rows for one short list of floats."""
    s = _projection_scale(len(values))
    if max(abs(total), max(values), -min(values)) > sys.float_info.max * s:
        return [v / s for v in _project_simplex([v * s for v in values], total * s)]
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

# Rows per CSV chunk. The writer's temporaries (the chunk's float table, its
# sorted bit patterns and their strings) scale with this, not with the log.
_CSV_CHUNK = 512


class EvaluationLog:
    """Append-only record of every waveform evaluation in one experiment.

    The never-beats-benchmark invariant is checked over this log, not just
    over the returned optimum. Rows are kept as float64 blocks of
    (coordinates, mean, w); single records wait in a list until the next
    block or the next read.
    """

    def __init__(self, family: WaveformFamily, target_mean: float, benchmark: float):
        self.family = family
        self.target_mean = target_mean
        self.benchmark = benchmark
        self.max_output = -math.inf
        self._blocks: list[np.ndarray] = []
        self._pending: list[tuple] = []
        self._count = 0

    def record(self, point, mean: float, w: float) -> None:
        self._pending.append((*point, mean, w))
        self._count += 1
        if w > self.max_output:
            self.max_output = float(w)

    def extend(self, points: np.ndarray, means: np.ndarray, outputs: np.ndarray) -> None:
        """Record a batch of evaluations in row order, one row of `points` each."""
        self._flush()
        self._blocks.append(np.column_stack((points, means, outputs)))
        self._count += len(outputs)
        self.max_output = float(np.max(outputs, initial=self.max_output))

    def _flush(self) -> list[np.ndarray]:
        if self._pending:
            self._blocks.append(np.array(self._pending, dtype=np.float64))
            self._pending = []
        return self._blocks

    def _rows(self) -> list[list[float]]:
        return [row for block in self._flush() for row in block.tolist()]

    @property
    def points(self) -> list[tuple]:
        return [tuple(row[:-2]) for row in self._rows()]

    @property
    def means(self) -> list[float]:
        return [row[-2] for row in self._rows()]

    @property
    def outputs(self) -> list[float]:
        return [row[-1] for row in self._rows()]

    def __len__(self) -> int:
        return self._count

    @property
    def max_excess(self) -> float:
        """Largest amount by which any evaluation beat the benchmark."""
        return self.max_output - self.benchmark

    def to_csv(self, fh) -> None:
        """Stream one row per evaluation to the open text file `fh`.

        Every field is the round-trip `repr` of its float. Each chunk of rows
        is formatted as one table: every distinct bit pattern in it (so -0.0
        and 0.0 stay apart) is formatted once and the strings are gathered
        back into place.
        """
        fh.write(",".join(self.family.coordinate_names) + ",mean,w,benchmark,gap\n")
        for block in self._flush():
            for start in range(0, len(block), _CSV_CHUNK):
                rows = block[start:start + _CSV_CHUNK]
                table = np.column_stack(
                    (rows, np.full(len(rows), self.benchmark), self.benchmark - rows[:, -1]))
                bits, inverse = np.unique(table.view(np.int64).ravel(), return_inverse=True)
                text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
                lines = text[inverse].reshape(table.shape).tolist()
                fh.write("\n".join(map(",".join, lines)) + "\n")


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


def _non_finite(family: WaveformFamily, target_mean: float, what="averaged output") -> SignalError:
    return SignalError(
        f"{what} is not finite at mean {target_mean!r} on {family!r}: "
        "the family's levels overflow double precision"
    )


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
    with np.errstate(over="ignore", invalid="ignore"):     # overflow is caught below
        if isinstance(family, BangBang):
            duties = np.linspace(0.0, 1.0, resolution + 2)[1:-1]
            lows = np.linspace(0.0, target_mean, resolution)
            duty, p1 = (a.ravel() for a in np.meshgrid(duties, lows, indexing="ij"))
            p2 = (target_mean - (1.0 - duty) * p1) / duty
            # p2 >= p1 holds exactly for p1 <= mean; shave rounding dust
            grid = np.column_stack((p1, np.maximum(p1, p2), duty))
        else:
            axis = np.linspace(0.0, family.n_segments * target_mean, resolution)
            mesh = np.meshgrid(*[axis] * family.n_segments, indexing="ij")
            grid = np.column_stack([a.ravel() for a in mesh])
    if not np.isfinite(grid).all():
        raise _non_finite(family, target_mean)
    return grid


def _evaluate_rows(family: WaveformFamily, rows: np.ndarray, target_mean: float, lam: float):
    """(mean, w, distance to constant) of each row of feasible family points.

    The distance is Euclidean in level coordinates (duty excluded for
    BangBang), in units of the target mean, so squaring cannot overflow for
    huge means; dividing by a positive constant keeps the ranking.
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
    if target_mean > 0.0:
        dev /= target_mean
    distance = np.sqrt(np.sum(dev * dev, axis=1))
    del dev     # not kept beside the kernel's working arrays
    return means, output_for_level_rows(levels, durations, lam), distance


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
        if not np.isfinite(w).all():
            raise _non_finite(family, target_mean)
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
# Projected-gradient descent
# ---------------------------------------------------------------------------
#
# A descent moves x: the free levels on the mean simplex, or BangBang's
# (p1 / mean, duty) on [0, 1] x [_DUTY_MIN, 1 - _DUTY_MIN], p2 set by the mean.
# Moves are measured in u = x / D (D = mean for levels, (1 / (1 - duty), 1)
# for BangBang), free of the units of time and inflow. With g = dw/dx, the
# move of length t is P(x + t D^2 g) - x, P the projection onto the feasible
# set. Spectral (Barzilai-Borwein) lengths, halved until w rises by _ARMIJO
# of the first-order gain up to rounding, give the steps; the KKT residual
# is the largest u-move at t = 1 / size, 0 at a stationary point.

_ARMIJO = 1e-4
_BACKTRACKS = 20
_W_ROUNDING = 2.0 ** -44            # relative; a change of w below it is none
_STEP_BOUNDS = (1e-10, 1e10)        # of t size, a step's largest u-move


class _Descent:
    """A family's descent coordinates, and its logged, budgeted evaluations."""

    def __init__(self, family: WaveformFamily, target_mean: float, lam: float,
                 log: EvaluationLog, max_evals: int):
        self.family, self.mean, self.lam, self.log = family, target_mean, lam, log
        self.bang_bang = isinstance(family, BangBang)
        self.max_evals, self.evaluations = max_evals, 0

    def scale(self, x: np.ndarray) -> np.ndarray:
        """D at x; BangBang's 1 / (1 - duty) keeps the residual in step with the level error."""
        if self.bang_bang:
            return np.array([1.0 / (1.0 - x[1]), 1.0])
        return np.full(x.size, self.mean)

    def coords(self, point) -> np.ndarray:
        if self.bang_bang:
            return np.array([point[0] / self.mean if self.mean else 0.0, point[2]])
        if len(point) != self.family.n_segments:
            raise SignalError(f"expected {self.family.n_segments} levels, got {len(point)}")
        return np.array(point, dtype=float)

    def point(self, x: np.ndarray) -> tuple:
        if self.bang_bang:
            p1, duty = self.mean * float(x[0]), float(x[1])
            return (p1, max(p1, (self.mean - (1.0 - duty) * p1) / duty), duty)
        return tuple(x.tolist())

    def move(self, x: np.ndarray, grad: np.ndarray, t: float) -> np.ndarray:
        scale = self.scale(x)
        moved = x + scale * (t * (scale * grad))
        if self.bang_bang:
            return np.clip(moved, (0.0, _DUTY_MIN), (1.0, 1.0 - _DUTY_MIN)) - x
        return np.array(_project_simplex(moved.tolist(), self.family.n_segments * self.mean)) - x

    def residual(self, x: np.ndarray, grad: np.ndarray, size: float) -> float:
        if not size:
            return 0.0
        return float(np.max(np.abs(self.move(x, grad, 1.0 / size)) / self.scale(x)))

    def evaluate(self, point):
        """(w, g, size) at a family point, logged. g is dw/dx less the mean of a
        level gradient, which no move follows and which in g . move would scale
        the rounding of the move's sum; size = max |mean dw/dc| > 0 at the optimum."""
        T = self.family.period
        if self.bang_bang:
            p1, p2, duty = point
            levels, durations = [p2, p1], [duty * T, (1.0 - duty) * T]
        else:
            levels, durations = point, [T / len(point)] * len(point)
        kernel = _PeriodRows([levels], [durations], self.lam, gradient=True)
        w = float(self.lam * kernel.i_p[0] / kernel.period[0])
        if not math.isfinite(w):
            raise _non_finite(self.family, self.mean)
        self.log.record(point, family_mean(self.family, point), w)
        self.evaluations += 1
        dw_dc, dw_dh = kernel.dw_dc[0], kernel.dw_dh[0]
        size = float(np.max(np.abs(self.mean * dw_dc)))
        if self.bang_bang:
            grad = np.array([self.mean * (dw_dc[1] - dw_dc[0] * (1.0 - duty) / duty),
                             dw_dc[0] * (p1 - p2) / duty + (dw_dh[0] - dw_dh[1]) * T])
        else:
            grad = dw_dc - dw_dc.mean()
        if not (np.isfinite(grad).all() and math.isfinite(size)):
            raise _non_finite(self.family, self.mean, "the gradient of the averaged output")
        return w, grad, size

    def backtrack(self, x: np.ndarray, w: float, grad: np.ndarray, step: np.ndarray):
        """(alpha, point, w, g, size) at the first alpha = 1, 1/2, ..., 2^-_BACKTRACKS
        whose step raises w by _ARMIJO of its first-order gain up to rounding, else
        at the best one that raises w above rounding; None if none does in budget."""
        gain, rounding, max_evals = float(grad @ step), _W_ROUNDING * abs(w), self.max_evals
        alpha, best = 1.0, None
        for _ in range(_BACKTRACKS + 1):
            if gain <= 0.0 or self.evaluations >= max_evals:
                break
            point = self.point(x + alpha * step)
            found = (alpha, point, *self.evaluate(point))
            if found[2] >= w + _ARMIJO * alpha * gain - rounding:
                return found
            if found[2] > w + rounding and (best is None or found[2] > best[2]):
                best = found
            alpha *= 0.5
        return best


def coordinate_descent(
    family: WaveformFamily,
    target_mean: float,
    params: SystemParams,
    start,
    tol: float = 1e-10,
    max_evals: int = DEFAULT_MAX_EVALS,
    log: EvaluationLog | None = None,
) -> OptimizationResult:
    """Projected-gradient ascent of w from `start` under the mean constraint.

    Spectral steps with an Armijo backtrack on the kernel's exact gradient
    (see the comment above); stops when the KKT residual is at most `tol`.
    A result that stops short of it, because the budget ran out or no
    backtrack raised w above rounding, is flagged `capped`. Every evaluated
    point is logged. The search is local refinement; pair it with
    grid_search for coverage.
    """
    if target_mean < 0.0:
        raise InfeasibleMeanError(f"target mean must be non-negative, got {target_mean}")
    benchmark = constant_benchmark(target_mean, params)
    if log is None:
        log = EvaluationLog(family, target_mean, benchmark)
    descent = _Descent(family, target_mean, params.lam, log, max_evals)

    if descent.bang_bang:
        start = (start[0], start[1], min(max(start[2], _DUTY_MIN), 1.0 - _DUTY_MIN))
    point = project_to_mean(family, start, target_mean)
    x = descent.coords(point)
    w, grad, size = descent.evaluate(point)
    residual = descent.residual(x, grad, size)
    t = 1.0 / size if size else 0.0
    while residual > tol and descent.evaluations < max_evals:
        step = descent.move(x, grad, t)
        found = descent.backtrack(x, w, grad, step)
        if found is None:
            break
        alpha, point, w, grad_new, size = found
        x = descent.coords(point)
        scale = descent.scale(x)
        s, y, grad = alpha * step / scale, (grad - grad_new) * scale, grad_new
        residual = descent.residual(x, grad, size)
        sy = float(s @ y)
        t = float(s @ s) / sy if sy > 0.0 else 1.0 / size
        t = min(max(t, _STEP_BOUNDS[0] / size), _STEP_BOUNDS[1] / size) if size else 0.0
    return OptimizationResult(
        best_point=point,
        best_w=w,
        benchmark_w=benchmark,
        optimality_gap=benchmark - w,
        evaluations=descent.evaluations,
        capped=residual > tol,
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

    eps_max = signal_mean / -direction.min() if direction.min() < 0.0 else math.inf
    if max(epsilons, default=0.0) > eps_max:
        raise ClippingActiveError(f"epsilon {max(epsilons)} drives levels negative; "
                                  f"use epsilons below {eps_max:.6g}")

    eps = np.asarray(epsilons)
    levels = signal_mean + np.multiply.outer(eps, direction)
    w = output_for_level_rows(levels, period / direction.size, params.lam)
    deficits = constant_benchmark(signal_mean, params) - w

    slope = r_squared = math.nan
    positive = deficits > 0.0
    if np.count_nonzero(positive) >= 2:
        log_e, log_d = np.log(eps[positive]), np.log(deficits[positive])
        slope, intercept = np.polyfit(log_e, log_d, 1)
        ss_res = float(np.sum((log_d - (slope * log_e + intercept)) ** 2))
        ss_tot = float(np.sum((log_d - log_d.mean()) ** 2))
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        slope = float(slope)

    e2 = eps ** 2
    denom = float(np.sum(e2 * e2))
    kappa = float(np.sum(deficits * e2) / denom) if denom > 0.0 else 0.0
    return PerturbationFit(
        kappa=kappa,
        loglog_slope=slope,
        r_squared=r_squared,
        epsilons=tuple(epsilons),
        deficits=tuple(deficits.tolist()),
    )
