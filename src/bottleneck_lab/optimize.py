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
comparison is fair at each point. Projections and kernel segments are
formed as rows: grids are evaluated as one batch of rows; the descents from
all starts run in lockstep, a step evaluating their current points as one
batch with the exact gradient of w from the kernel's reverse-mode pass, and
projecting its move and KKT residual as two rows of one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import _write_rows
from .signals import SignalError, SystemParams
from .periodic import _PeriodRows, constant_benchmark, output_for_level_rows

__all__ = [
    "BangBang",
    "PiecewiseConstantFree",
    "WaveformFamily",
    "InfeasibleMeanError",
    "EvaluationLog",
    "OptimizationResult",
    "family_mean",
    "project_to_mean",
    "grid_search",
    "coordinate_descent",
    "coordinate_descents",
]

DEFAULT_MAX_EVALS = 10_000
_DUTY_MIN = 1e-3


class InfeasibleMeanError(ValueError):
    """The target mean cannot be reached with non-negative levels."""


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
# (exact down to subnormals) and the result is divided by s. Every projection
# here, of a grid chunk, of a descent's moves or of one point, is a row of it.

def _project_simplex_rows(values: np.ndarray, total: float) -> np.ndarray:
    """Project every row of an (N, k) array; see the comment above."""
    n, k = values.shape
    s = 2.0 ** -(k + 2).bit_length()
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


def project_to_mean(family: WaveformFamily, point, target_mean: float):
    """Nearest family point (Euclidean in level coordinates) with the target mean.

    For BangBang the duty is held fixed and only (p1, p2) move; for the free
    piecewise family all levels move. Levels stay non-negative via the exact
    sort-based simplex projection. Non-finite input raises SignalError.
    """
    if target_mean < 0.0:
        raise InfeasibleMeanError(f"target mean must be non-negative, got {target_mean}")
    coords = [float(c) for c in point]
    if not all(map(math.isfinite, (*coords, target_mean))):
        raise SignalError(f"cannot project {coords!r} onto mean {target_mean!r}: not finite")
    if isinstance(family, BangBang):
        p1, p2, duty = coords
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
    total = family.n_segments * target_mean
    return tuple(_project_simplex_rows(np.array([coords]), total)[0].tolist())


# ---------------------------------------------------------------------------
# Evaluation plumbing
# ---------------------------------------------------------------------------

class EvaluationLog:
    """Append-only record of every waveform evaluation in one experiment.

    The never-beats-benchmark invariant is checked over this log, not just
    over the returned optimum. Rows are kept as float64 blocks of
    (coordinates, mean, w), one block per `extend`.
    """

    def __init__(self, family: WaveformFamily, target_mean: float, benchmark: float):
        self.family = family
        self.target_mean = target_mean
        self.benchmark = benchmark
        self.max_output = -math.inf
        self._blocks: list[np.ndarray] = []
        self._count = 0

    def extend(self, points: np.ndarray, means: np.ndarray, outputs: np.ndarray) -> None:
        """Record a batch of evaluations in row order, one row of `points` each."""
        self._blocks.append(np.column_stack((points, means, outputs)))
        self._count += len(outputs)
        self.max_output = float(np.max(outputs, initial=self.max_output))

    def __len__(self) -> int:
        return self._count

    @property
    def max_excess(self) -> float:
        """Largest amount by which any evaluation beat the benchmark."""
        return self.max_output - self.benchmark

    def to_csv(self, fh) -> None:
        """Stream one row per evaluation to the open text file `fh`, a block at a time."""
        fh.write(",".join(self.family.coordinate_names) + ",mean,w,benchmark,gap\n")
        memo = [None]       # one writer memo across the blocks
        for block in self._blocks:
            _write_rows(fh, *block.T, np.broadcast_to(self.benchmark, len(block)),
                        self.benchmark - block[:, -1], memo=memo)


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
_GRID_CHUNK = 1024


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


def _segment_rows(family: WaveformFamily, rows: np.ndarray) -> tuple:
    """(levels, durations) of each row of family points: its row of the period kernel."""
    if isinstance(family, BangBang):    # (p1, p2, duty): the high level p2 first
        p1, p2, duty = rows.T
        return np.column_stack((p2, p1)), np.column_stack((duty, 1.0 - duty)) * family.period
    return rows, family.period / family.n_segments


def _evaluate_rows(family: WaveformFamily, rows: np.ndarray, target_mean: float, lam: float):
    """(mean, w, distance to constant) of each row of feasible family points.

    The distance is Euclidean in level coordinates (duty excluded for
    BangBang), in units of the target mean, so squaring cannot overflow for
    huge means; dividing by a positive constant keeps the ranking.
    """
    if isinstance(family, BangBang):
        p1, p2, duty = rows.T
        means = duty * p2 + (1.0 - duty) * p1
        dev = rows[:, :2] - target_mean
    else:
        means = rows.sum(axis=1) / family.n_segments
        dev = rows - target_mean
    if target_mean > 0.0:
        dev /= target_mean
    distance = np.sqrt(np.sum(dev * dev, axis=1))
    del dev     # not kept beside the kernel's working arrays
    return means, output_for_level_rows(*_segment_rows(family, rows), lam), distance


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
# is the largest u-move at t = 1 / size, 0 at a stationary point. A length or
# move that is not finite (mean > 0, size 0 or below 1 / float max) ends it, capped.

_ARMIJO = 1e-4
_BACKTRACKS = 20
_W_ROUNDING = 2.0 ** -44            # relative; a change of w below it is none
_STEP_BOUNDS = (1e-10, 1e10)        # of t size, a step's largest u-move
_TOL = 1e-10                        # a descent stops at a KKT residual at most this


class _Descent:
    """A family's descent coordinates, and one start's budgeted evaluations."""

    def __init__(self, family: WaveformFamily, target_mean: float, lam: float, max_evals: int):
        self.family, self.mean, self.lam = family, target_mean, lam
        self.bang_bang = isinstance(family, BangBang)
        self.max_evals, self.evaluations, self.records = max_evals, 0, []

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

    def moves(self, x: np.ndarray, grad: np.ndarray, size: float, t: float):
        """(residual, step) at x from one 2-row projection: the KKT residual,
        the largest u-move at t = 1 / size, and the move at t. At mean 0, the
        one feasible point, both are 0; None where a length or a move is not
        finite (see the comment above)."""
        if not size:
            return None if self.mean else (0.0, np.zeros_like(x))
        scale = self.scale(x)
        with np.errstate(over="ignore", invalid="ignore"):     # a non-finite move is read below
            moved = x + scale * (np.array([[1.0 / size], [t]]) * (scale * grad))
        if not np.isfinite(moved).all():
            return None
        if self.bang_bang:
            moved = np.clip(moved, (0.0, _DUTY_MIN), (1.0, 1.0 - _DUTY_MIN))
        else:
            moved = _project_simplex_rows(moved, self.family.n_segments * self.mean)
        residual, step = moved - x
        return float(np.max(np.abs(residual) / scale)), step

    def evaluate(self, point, kernel: _PeriodRows | None, row: int):
        """(w, g, size) at a family point from its `row` of `kernel` (None: a
        kernel of its own), recorded. g is dw/dx less the mean of a level
        gradient, which no move follows and which in g . move would scale the
        rounding of the move's sum; size = max |mean dw/dc| > 0 at the optimum."""
        if kernel is None:
            rows = _segment_rows(self.family, np.array([point]))
            kernel, row = _PeriodRows(*rows, self.lam, gradient=True), 0
        w = float(self.lam * kernel.i_p[row] / kernel.period[row])
        if not math.isfinite(w):
            raise _non_finite(self.family, self.mean)
        self.records.append((point, family_mean(self.family, point), w))
        self.evaluations += 1
        dw_dc, dw_dh = kernel.dw_dc[row], kernel.dw_dh[row]
        size = float(np.max(np.abs(self.mean * dw_dc)))
        if self.bang_bang:
            (p1, p2, duty), T = point, self.family.period
            grad = np.array([self.mean * (dw_dc[1] - dw_dc[0] * (1.0 - duty) / duty),
                             dw_dc[0] * (p1 - p2) / duty + (dw_dh[0] - dw_dh[1]) * T])
        else:
            grad = dw_dc - dw_dc.mean()
        if not (np.isfinite(grad).all() and math.isfinite(size)):
            raise _non_finite(self.family, self.mean, "the gradient of the averaged output")
        return w, grad, size

    def backtrack(self, x: np.ndarray, w: float, grad: np.ndarray, step: np.ndarray):
        """Generator: (alpha, point, w, g, size) at the first alpha = 1, 1/2, ...,
        2^-_BACKTRACKS whose step raises w by _ARMIJO of its first-order gain up to
        rounding, else at the best one that raises w above rounding; None if none
        does in budget. Yields each point to evaluate and is sent its (w, g, size)."""
        gain, rounding, max_evals = float(grad @ step), _W_ROUNDING * abs(w), self.max_evals
        alpha, best = 1.0, None
        for _ in range(_BACKTRACKS + 1):
            if gain <= 0.0 or self.evaluations >= max_evals:
                break
            point = self.point(x + alpha * step)
            found = (alpha, point, *(yield point))
            if found[2] >= w + _ARMIJO * alpha * gain - rounding:
                return found
            if found[2] > w + rounding and (best is None or found[2] > best[2]):
                best = found
            alpha *= 0.5
        return best

    def run(self, start):
        """Generator of the descent from `start` (see coordinate_descents): yields
        each point to evaluate, is sent its (w, g, size), returns (point, w, capped)."""
        if self.bang_bang:
            start = (start[0], start[1], min(max(start[2], _DUTY_MIN), 1.0 - _DUTY_MIN))
        point = project_to_mean(self.family, start, self.mean)
        x = self.coords(point)
        w, grad, size = yield point
        t = 1.0 / size if size else 0.0
        while (moves := self.moves(x, grad, size, t)) is not None:
            residual, step = moves
            if residual <= _TOL or self.evaluations >= self.max_evals:
                return point, w, residual > _TOL
            found = yield from self.backtrack(x, w, grad, step)
            if found is None:
                break
            alpha, point, w, grad_new, size = found
            x = self.coords(point)
            scale = self.scale(x)
            s, y, grad = alpha * step / scale, (grad - grad_new) * scale, grad_new
            sy = float(s @ y)
            if size:        # else the next moves ends the descent
                t = float(s @ s) / sy if sy > 0.0 else 1.0 / size
                t = min(max(t, _STEP_BOUNDS[0] / size), _STEP_BOUNDS[1] / size)
        return point, w, True


def coordinate_descents(family: WaveformFamily, target_mean: float, params: SystemParams,
                        starts: list, max_evals: int = DEFAULT_MAX_EVALS,
                        log: EvaluationLog | None = None) -> list[OptimizationResult]:
    """Projected-gradient ascent of w from each of `starts` under the mean constraint.

    Spectral steps with an Armijo backtrack on the kernel's exact gradient
    (see the comment above); a descent stops when the KKT residual is at
    most _TOL, or is flagged `capped` if the budget runs out, no backtrack
    raises w above rounding, or a step length overflows first (see the
    comment above). Every evaluated point is logged. The
    search is local refinement; pair it with grid_search for coverage. The
    descents run in lockstep, a step evaluating every unfinished one's point
    as a row of one kernel call (no value of a row depends on its batch):
    the results, the log and any SignalError (the first failing start's, the
    log holding the starts up to it) are those of the descents run one after
    another.
    """
    if target_mean < 0.0:
        raise InfeasibleMeanError(f"target mean must be non-negative, got {target_mean}")
    benchmark = constant_benchmark(target_mean, params)
    if log is None:
        log = EvaluationLog(family, target_mean, benchmark)
    descents = [_Descent(family, target_mean, params.lam, max_evals) for _ in starts]
    runs = [d.run(start) for d, start in zip(descents, starts)]
    ends, failed, error = [None] * len(runs), len(runs), None
    pending, kernel = [(i, None) for i in range(len(runs))], None
    while pending:
        wanted = []
        for row, (i, point) in enumerate(pending):
            if i > failed:          # a later start cannot change the outcome
                break
            try:
                sent = None if point is None else descents[i].evaluate(point, kernel, row)
                wanted.append((i, runs[i].send(sent)))
            except StopIteration as stop:
                ends[i] = stop.value
            except SignalError as exc:
                failed, error = i, exc
        pending = [(i, point) for i, point in wanted if i < failed]
        if pending:
            rows = _segment_rows(family, np.array([point for _, point in pending]))
            try:
                kernel = _PeriodRows(*rows, params.lam, gradient=True)
            except SignalError:     # a row's rates overflow: each row runs alone
                kernel = None
    records = [record for d in descents[:failed + 1] for record in d.records]
    if records:
        log.extend(*map(np.array, zip(*records)))
    if error is not None:
        raise error
    return [OptimizationResult(point, w, benchmark, benchmark - w, d.evaluations, capped, log)
            for d, (point, w, capped) in zip(descents, ends)]


def coordinate_descent(family: WaveformFamily, target_mean: float, params: SystemParams,
                       start, max_evals: int = DEFAULT_MAX_EVALS,
                       log: EvaluationLog | None = None) -> OptimizationResult:
    """coordinate_descents from one start."""
    return coordinate_descents(family, target_mean, params, [start], max_evals, log)[0]

