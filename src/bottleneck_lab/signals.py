"""Inflow waveforms for the bottleneck-entrance flow model.

The model tracks an occupancy x(t) in [0, 1] that is filled by a
non-negative inflow rate sigma(t), throttled by the remaining vacancy,
and drained proportionally to the occupancy:

    x'(t) = sigma(t) * (1 - x(t)) - lam * x(t),   lam > 0.

This module owns the inflow side. There are two waveform kinds:
`PiecewiseConstant`, which the downstream code propagates in closed form,
and `ClippedSinusoidSum`, which it integrates numerically. `Constant` and
`Sampled` are not kinds of their own: they build a `PiecewiseConstant`
(one segment of nominal length `period`; one segment per sample on the
breakpoints i * step). The module also provides point evaluation,
periodicity detection and exact period averages. A periodic
`PiecewiseConstant` places each time once, as a whole cycle plus its exact
phase (`_segment_index`), so every cycle has the nominal segment widths,
however far out in time it lies. A clipped sum is smooth
between its clip points, the zeros of f = mean + sum A sin(omega t + phi):
`_cut_at_clip_points` cuts time at them, with no search where the sum
cannot reach 0, and `_unclipped_integral` integrates f in closed form, so
the period mean and the numeric path's inflow integrals read the same
pieces. Waveforms are immutable and fully validated at construction, so
evaluation and the downstream integrators never re-check anything.

Serialization: `signal_to_dict` / `signal_from_dict` define the on-disk
schema consumed by the command line tools (a "kind" discriminator plus
numeric fields; unknown keys are rejected). The schema keeps the
`constant` and `sampled` kinds as input aliases; `signal_to_dict` writes
them back as `piecewise_constant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "SignalError",
    "NonPeriodicSignalError",
    "SystemParams",
    "Constant",
    "PiecewiseConstant",
    "ClippedSinusoidSum",
    "Sampled",
    "InputSignal",
    "evaluate_array",
    "period_of",
    "max_level",
    "mean_over_period",
    "signal_to_dict",
    "signal_from_dict",
]

# Frequency ratios are recognized as rational only up to this denominator;
# beyond it a sinusoid sum is treated as aperiodic (e.g. omega ratio sqrt(2)).
_MAX_RATIO_DENOMINATOR = 1000
_RATIO_TOL = 1e-9

# Clip points are searched on grids no coarser than this many radians of the
# fastest term, so that a cell holds at most one extremum of f; a period is
# searched in cells of at most _CLIP_CHUNK grid points (`mean_over_period`).
CLIP_SEARCH_RADIANS = 0.05
_CLIP_CHUNK = 1 << 16
_EPS = float(np.finfo(float).eps)

# Cap on the safeguarded Newton iterations that refine a clip point; a
# simple zero takes about four, a near-double one up to about 55 halvings.
_MAX_ITERATIONS = 64


class SignalError(ValueError):
    """A waveform failed construction-time validation."""


class NonPeriodicSignalError(SignalError):
    """A period-based operation was given a signal without a period.

    Aperiodic inflows are handled by the running-average estimators in
    `bottleneck_lab.asymptotic`, not by period averages.
    """


def _require_finite(name: str, value: float) -> float:
    if isinstance(value, (bool, np.bool_)):     # float() would read it as 0 or 1
        raise SignalError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise SignalError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise SignalError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Outflow rate constant of the model (the `lam` in w = lam * x)."""

    lam: float

    def __post_init__(self) -> None:
        lam = _require_finite("lam", self.lam)
        if lam <= 0.0:
            raise SignalError(f"lam must be strictly positive, got {lam}")
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant inflow on breakpoints 0 = t0 < t1 < ... < tk.

    Level `levels[i]` holds on the left-closed segment [t_i, t_{i+1}).
    When `periodic`, the pattern repeats with period tk; otherwise the last
    level is held for t >= tk.
    """

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]
    periodic: bool = True

    def __post_init__(self) -> None:
        bps = tuple(_require_finite("breakpoint", b) for b in self.breakpoints)
        lvls = tuple(_require_finite("level", c) for c in self.levels)
        if len(bps) < 2:
            raise SignalError("need at least two breakpoints")
        if bps[0] != 0.0:
            raise SignalError(f"breakpoints must start at 0, got {bps[0]}")
        if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
            raise SignalError(f"breakpoints must be strictly increasing: {bps}")
        if len(lvls) != len(bps) - 1:
            raise SignalError(
                f"expected {len(bps) - 1} levels for {len(bps)} breakpoints, got {len(lvls)}"
            )
        if any(c < 0.0 for c in lvls):
            raise SignalError(f"levels must be non-negative: {lvls}")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "levels", lvls)
        if not isinstance(self.periodic, (bool, np.bool_)):   # bool("false") is True
            raise SignalError(f"periodic must be a boolean, got {self.periodic!r}")
        object.__setattr__(self, "periodic", bool(self.periodic))

    @property
    def duration(self) -> float:
        return self.breakpoints[-1]

    @property
    def durations(self) -> tuple[float, ...]:
        return tuple(b1 - b0 for b0, b1 in zip(self.breakpoints, self.breakpoints[1:]))


@dataclass(frozen=True)
class ClippedSinusoidSum:
    """Inflow max(0, mean + sum_i A_i sin(omega_i t + phi_i)).

    The clip keeps sigma non-negative for arbitrary amplitudes. The sum is
    periodic only when all frequency ratios are rational (detected up to
    denominator 1000); otherwise it is quasi-periodic and only the
    running-average machinery applies.
    """

    mean: float
    terms: tuple[tuple[float, float, float], ...]  # (amplitude, omega, phase)

    def __post_init__(self) -> None:
        mean = _require_finite("mean", self.mean)
        if mean < 0.0:
            raise SignalError(f"mean must be non-negative, got {mean}")
        if len(self.terms) == 0:
            raise SignalError("need at least one sinusoid term (use Constant otherwise)")
        terms = []
        for term in self.terms:
            amp, omega, phase = term
            amp = _require_finite("amplitude", amp)
            omega = _require_finite("omega", omega)
            phase = _require_finite("phase", phase)
            if omega <= 0.0:
                raise SignalError(f"omega must be positive, got {omega}")
            terms.append((amp, omega, phase))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def period(self) -> float | None:
        """Common period of all terms, or None when incommensurate."""
        base = self.terms[0][1]
        denominators = []
        for _, omega, _ in self.terms:
            ratio = omega / base
            frac = Fraction(ratio).limit_denominator(_MAX_RATIO_DENOMINATOR)
            if abs(ratio - float(frac)) > _RATIO_TOL * max(1.0, abs(ratio)):
                return None
            denominators.append(frac.denominator)
        common = 1
        for q in denominators:
            common = math.lcm(common, q)
        return 2.0 * math.pi * common / base


def Constant(level: float, period: float = 1.0) -> PiecewiseConstant:
    """Constant inflow at `level`, as one periodic segment of length `period`.

    A constant is periodic with any period; `period` fixes the nominal one
    used by period-based analyses (Poincare maps, period averages).
    """
    return PiecewiseConstant((0.0, period), (level,), periodic=True)


def Sampled(step: float, values, periodic: bool = True) -> PiecewiseConstant:
    """Uniformly sampled inflow: `values[i]` holds on [i*step, (i+1)*step).

    With `periodic` the pattern repeats every len(values)*step; otherwise
    the last sample is held.
    """
    step = _require_finite("step", step)
    if step <= 0.0:
        raise SignalError(f"step must be positive, got {step}")
    values = tuple(values)
    breakpoints = tuple(i * step for i in range(len(values) + 1))
    return PiecewiseConstant(breakpoints, values, periodic=periodic)


InputSignal = PiecewiseConstant | ClippedSinusoidSum


# ---------------------------------------------------------------------------
# Evaluation and basic queries
# ---------------------------------------------------------------------------

def period_of(signal: InputSignal) -> float | None:
    """Period of the signal, or None for aperiodic signals."""
    if isinstance(signal, PiecewiseConstant):
        return signal.duration if signal.periodic else None
    return signal.period


def require_period(signal: InputSignal) -> float:
    period = period_of(signal)
    if period is None:
        raise NonPeriodicSignalError(
            "signal has no period; use the running-average estimators in "
            "bottleneck_lab.asymptotic for aperiodic inflows"
        )
    return period


def max_level(signal: InputSignal) -> float:
    """Upper bound on sigma(t); tight except for clipped sinusoid sums."""
    if isinstance(signal, PiecewiseConstant):
        return max(signal.levels)
    return signal.mean + sum(abs(a) for a, _, _ in signal.terms)


def max_frequency(signal: ClippedSinusoidSum) -> float:
    """Largest angular frequency of the sum's terms."""
    return max(w for _, w, _ in signal.terms)


def _pad_rows(signals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Piecewise-constant signals as padded rows (levels, breakpoints, periodic).

    levels is (N, K) and breakpoints (N, K + 1), K the most segments of any
    signal. Row n holds signal n's segments, then segments of level 0 and
    width 0 at its period, which every row operation treats as identity
    maps.
    """
    K = max(len(s.levels) for s in signals)
    levels = np.zeros((len(signals), K))
    bps = np.empty((len(signals), K + 1))
    for n, s in enumerate(signals):
        k = len(s.levels)
        levels[n, :k] = s.levels
        bps[n, :k + 1] = s.breakpoints
        bps[n, k + 1:] = s.breakpoints[-1]
    return levels, bps, np.array([s.periodic for s in signals])


def _segment_index(
    breakpoints: np.ndarray, periodic: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycle, segment and phase of each time, as `dynamics.exact_pass` reads them.

    `breakpoints` and `periodic` are padded rows (`_pad_rows`); `ts` is
    (N, M), or (M,) shared by every row. A periodic row places t >= 0 once,
    as a whole cycle c and the exact phase t - c*T in [0, T): `np.divmod`
    takes the phase from fmod, which is exact in IEEE arithmetic, and c from
    the exact multiple t - phase. The phase is bisected against the row's
    own breakpoints, so every cycle has the nominal widths; segments are
    left-closed. Aperiodic rows have cycle 0, phase t, and hold their last
    segment.
    """
    ts = np.broadcast_to(ts, (breakpoints.shape[0], np.shape(ts)[-1]))
    if not np.all(np.isfinite(ts[periodic])):
        raise SignalError("evaluation times must be finite")
    cycle, phase = np.divmod(np.where(periodic[:, None], ts, 0.0), breakpoints[:, -1:])
    phase = np.where(periodic[:, None], phase, ts)
    K = breakpoints.shape[1] - 1
    rows = np.arange(breakpoints.shape[0])[:, None]
    lo = np.zeros(ts.shape, dtype=np.intp)
    hi = np.full(ts.shape, K)
    for _ in range(K.bit_length()):
        mid = (lo + hi) // 2
        below = (lo < hi) & (breakpoints[rows, np.minimum(mid, K - 1) + 1] <= phase)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    last = np.count_nonzero(np.diff(breakpoints, axis=1) > 0.0, axis=1) - 1
    return cycle, np.minimum(lo, last[:, None]), phase


def evaluate_array(signal: InputSignal, ts: np.ndarray) -> np.ndarray:
    """Vectorized sigma(t) over an array of times."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(signal, PiecewiseConstant):
        levels, bps, periodic = _pad_rows([signal])
        index = _segment_index(bps, periodic, ts.reshape(1, -1))[1]
        return levels[0, index[0]].reshape(ts.shape)
    return np.maximum(_unclipped(signal, ts), 0.0)


def _unclipped(signal: ClippedSinusoidSum, ts, order: int = 0) -> np.ndarray:
    """f(t) = mean + sum A sin(omega t + phi) before the clip, or its derivative of `order`."""
    ts = np.asarray(ts, dtype=float)
    out = np.full_like(ts, 0.0 if order else signal.mean)
    for amp, omega, phase in signal.terms:
        arg = omega * ts
        arg += phase + 0.5 * math.pi * order
        np.sin(arg, out=arg)
        arg *= amp * omega ** order
        out += arg
    return out


def _unclipped_integral(signal: ClippedSinusoidSum, a, width) -> np.ndarray:
    """int_a^{a+w} f = mean w + sum (2A/omega) sin(omega (a + w/2) + phi) sin(omega w/2).

    The product form keeps full relative precision on short pieces, where
    the difference of an antiderivative at a + w and at a cancels. On a
    piece with no clip point inside, f keeps one sign, so the integral of
    sigma there is max(0, this).
    """
    out = signal.mean * np.asarray(width, dtype=float)
    for amp, omega, phase in signal.terms:
        arg = 0.5 * width
        arg += a
        arg *= omega
        arg += phase
        half = (0.5 * omega) * width
        arg = np.sin(arg, out=arg)
        arg *= np.sin(half, out=half)
        arg *= 2.0 * amp / omega
        out += arg
    return out


def _clip_points(signal: ClippedSinusoidSum, ts: np.ndarray) -> np.ndarray:
    """Zeros of f between the points of the sorted grid `ts`, sorted; a zero
    within rounding of a grid point may come out as that point.

    A cell whose ends differ in sign brackets one zero. A cell with one sign
    at both ends and |f| <= max|f'| width there may hold a pair: where f'
    changes sign inside, f near that extremum (a secant and a Newton step on
    f') decides, and a dip across 0 brackets two zeros. A tangent touch
    crosses nothing and is no clip point. Each bracket is refined from its
    secant point by Newton steps kept inside it. Cells wider than
    CLIP_SEARCH_RADIANS of the fastest term may hide a pair.
    """
    f = _unclipped(signal, ts)
    lo, hi, f_lo, f_hi = ts[:-1], ts[1:], f[:-1], f[1:]
    product = f_lo * f_hi
    starts, ends = [lo[product < 0.0]], [hi[product < 0.0]]
    near = np.abs(f) <= sum(abs(a) * w for a, w, _ in signal.terms) * np.diff(ts).max(initial=0.0)
    pair = np.flatnonzero(near[:-1] & near[1:] & (product >= 0.0) & (f_lo + f_hi != 0.0))
    if pair.size:
        a, b, side = lo[pair], hi[pair], np.sign(f_lo[pair] + f_hi[pair])
        da, db = side * _unclipped(signal, a, 1), side * _unclipped(signal, b, 1)
        turn = (da < 0.0) & (db > 0.0)
        a, b, da, db, side = a[turn], b[turn], da[turn], db[turn], side[turn]
        t = a + (b - a) * (da / (da - db))
        t = np.clip(t - _ratio(_unclipped(signal, t, 1), _unclipped(signal, t, 2)), a, b)
        dip = side * _unclipped(signal, t) < 0.0
        starts += [a[dip], t[dip]]
        ends += [t[dip], b[dip]]
    lo, hi = np.concatenate(starts), np.concatenate(ends)
    if lo.size == 0:
        return lo
    return np.sort(_refine(signal, lo, hi))


def _cut_at_clip_points(signal: ClippedSinusoidSum, base: np.ndarray) -> np.ndarray:
    """The sorted times `base` with the clip points between its entries, each
    time once. Each base cell is searched (`_clip_points`) on a grid of at most
    half the cell and at most CLIP_SEARCH_RADIANS of the fastest term.

    No search runs where m = mean - sum |A_i| exceeds 8 (n + 1) eps M, with
    n terms and M = mean + sum |A_i|; the result is then `base`, each time
    once. `_unclipped` adds n rounded terms fl(A_i sin), each at most
    |A_i| (1 + 4 eps) with numpy's sine a few ulp from [-1, 1], to mean,
    which errs by at most about n (eps/2) M (recursive summation; Higham
    2002, section 4.2). So the computed f is at least m - (n/2 + 4) eps M > 0
    at every grid and refinement point, and rounding the test moves m by
    less than (n + 2) eps M: a search would find no sign change and no dip.
    """
    if base.size < 2:
        return base
    amplitude = sum(abs(a) for a, _, _ in signal.terms)
    times = base
    if signal.mean - amplitude <= 8.0 * (len(signal.terms) + 1) * _EPS * (signal.mean + amplitude):
        h = np.diff(base)
        q = max(2, math.ceil(float(h.max()) * max_frequency(signal) / CLIP_SEARCH_RADIANS))
        grid = np.append((base[:-1, None] + h[:, None] * (np.arange(q) / q)).ravel(), base[-1])
        times = np.sort(np.concatenate((base, _clip_points(signal, grid))))
    return times[np.append(True, times[1:] > times[:-1])]


def _refine(signal: ClippedSinusoidSum, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The zero of f in each bracket [lo, hi] (f(hi) != 0, f(lo) of the other
    sign or 0): from the secant point, Newton steps, or halvings where Newton
    would leave the shrinking bracket, until no iterate moves by more than
    2 ulp."""
    f_lo, f_hi = _unclipped(signal, lo), _unclipped(signal, hi)
    sign_hi = np.sign(f_hi)
    t = lo - f_lo * _ratio(hi - lo, f_hi - f_lo)
    for _ in range(_MAX_ITERATIONS):
        ft = _unclipped(signal, t)
        above = sign_hi * ft > 0.0
        lo, hi = np.where(above, lo, t), np.where(above, t, hi)
        newton = t - _ratio(ft, _unclipped(signal, t, 1))
        step = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi)) - t
        t = t + step
        if np.all(np.abs(step) <= 2.0 * np.spacing(t)):
            break
    return t


def _ratio(num, den) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


# ---------------------------------------------------------------------------
# Period averages
# ---------------------------------------------------------------------------

def mean_over_period(signal: InputSignal) -> float:
    """Average inflow over one period, exact up to rounding.

    Piecewise-constant waveforms sum their segments. A clipped sinusoid sum
    is cut at its clip points in [0, T] (`_cut_at_clip_points`), and each
    piece adds max(0, int f) in closed form (`_unclipped_integral`), as the
    numeric path does. So that memory does not grow with T, [0, T] is cut
    into equal cells (one or more, as T omega_max >= 2 pi) of at most
    _CLIP_CHUNK search-grid points each, and their pieces are summed cell by cell.
    """
    period = require_period(signal)
    if isinstance(signal, PiecewiseConstant):
        total = 0.0
        for level, dt in zip(signal.levels, signal.durations):
            total += level * dt
        return total / period
    cells = math.ceil(period * max_frequency(signal) / (CLIP_SEARCH_RADIANS * _CLIP_CHUNK))
    total = 0.0
    for i in range(cells):
        ends = _cut_at_clip_points(signal, period * (np.arange(i, i + 2) / cells))
        pieces = _unclipped_integral(signal, ends[:-1], np.diff(ends))
        total += float(np.maximum(pieces, 0.0).sum())
    return total / period


# ---------------------------------------------------------------------------
# Serialization (the on-disk signal schema)
# ---------------------------------------------------------------------------

def signal_to_dict(signal: InputSignal) -> dict:
    if isinstance(signal, PiecewiseConstant):
        return {
            "kind": "piecewise_constant",
            "breakpoints": list(signal.breakpoints),
            "levels": list(signal.levels),
            "periodic": signal.periodic,
        }
    return {
        "kind": "clipped_sinusoid_sum",
        "mean": signal.mean,
        "terms": [
            {"amplitude": a, "omega": w, "phase": p} for a, w, p in signal.terms
        ],
    }


def _check_keys(data: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise SignalError(f"{where} must be a mapping, got {data!r}")
    keys = set(data)
    unknown = keys - required - optional
    if unknown:
        raise SignalError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise SignalError(f"missing key(s) in {where}: {sorted(missing)}")


def _list(data: dict, key: str, where: str) -> tuple:
    """`data[key]` as a tuple; it must be a JSON list (or a Python tuple)."""
    value = data[key]
    if not isinstance(value, (list, tuple)):
        raise SignalError(f"{where}: {key} must be a list, got {value!r}")
    return tuple(value)


def signal_from_dict(data: dict) -> InputSignal:
    """Build a signal from its dict form; unknown or missing keys are errors."""
    if not isinstance(data, dict):
        raise SignalError(f"signal description must be a mapping, got {type(data).__name__}")
    kind = data.get("kind")
    where = f"{kind} signal"
    if kind == "constant":
        _check_keys(data, {"kind", "level"}, {"period"}, where)
        return Constant(level=data["level"], period=data.get("period", 1.0))
    if kind == "piecewise_constant":
        _check_keys(data, {"kind", "breakpoints", "levels"}, {"periodic"}, where)
        return PiecewiseConstant(
            breakpoints=_list(data, "breakpoints", where),
            levels=_list(data, "levels", where),
            periodic=data.get("periodic", True),
        )
    if kind == "clipped_sinusoid_sum":
        _check_keys(data, {"kind", "mean", "terms"}, set(), where)
        terms = []
        for i, term in enumerate(_list(data, "terms", where)):
            _check_keys(term, {"amplitude", "omega"}, {"phase"}, f"terms[{i}]")
            terms.append((term["amplitude"], term["omega"], term.get("phase", 0.0)))
        return ClippedSinusoidSum(mean=data["mean"], terms=tuple(terms))
    if kind == "sampled":
        _check_keys(data, {"kind", "step", "values"}, {"periodic"}, where)
        return Sampled(step=data["step"], values=_list(data, "values", where),
                       periodic=data.get("periodic", True))
    raise SignalError(
        f"unknown signal kind {kind!r}; expected one of constant, "
        "piecewise_constant, clipped_sinusoid_sum, sampled"
    )
