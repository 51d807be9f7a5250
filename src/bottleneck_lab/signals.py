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
periodicity detection and period averages (exact for piecewise-constant
waveforms, composite trapezoid otherwise). Waveforms are immutable and
fully validated at construction, so evaluation and the downstream
integrators never re-check anything.

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
    "QuadratureSpec",
    "Constant",
    "PiecewiseConstant",
    "ClippedSinusoidSum",
    "Sampled",
    "InputSignal",
    "evaluate_array",
    "period_of",
    "is_periodic",
    "max_level",
    "mean_over_period",
    "signal_to_dict",
    "signal_from_dict",
]

# Frequency ratios are recognized as rational only up to this denominator;
# beyond it a sinusoid sum is treated as aperiodic (e.g. omega ratio sqrt(2)).
_MAX_RATIO_DENOMINATOR = 1000
_RATIO_TOL = 1e-9

# Default quadrature resolution: one period is split into this many steps.
PERIOD_QUADRATURE_STEPS = 10_000


class SignalError(ValueError):
    """A waveform failed construction-time validation."""


class NonPeriodicSignalError(SignalError):
    """A period-based operation was given a signal without a period.

    Aperiodic inflows are handled by the running-average estimators in
    `bottleneck_lab.asymptotic`, not by period averages.
    """


def _require_finite(name: str, value: float) -> float:
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
class QuadratureSpec:
    """Uniform integration step; `step=None` defers to per-operation defaults."""

    step: float | None = None

    def __post_init__(self) -> None:
        if self.step is not None:
            step = _require_finite("step", self.step)
            if step <= 0.0:
                raise SignalError(f"step must be positive, got {step}")
            object.__setattr__(self, "step", step)

    def resolve(self, default: float) -> float:
        return default if self.step is None else self.step


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


def is_periodic(signal: InputSignal) -> bool:
    return period_of(signal) is not None


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


def max_slope(signal: InputSignal) -> float:
    """Upper bound on |sigma'(t)| away from switching points."""
    if isinstance(signal, ClippedSinusoidSum):
        return sum(abs(a) * w for a, w, _ in signal.terms)
    return 0.0


def _segment_index(signal: PiecewiseConstant, ts: np.ndarray) -> np.ndarray:
    """Index of the segment that `dynamics.exact_pass` integrates at each time.

    Segments are left-closed. The walk puts the boundaries of cycle c at
    c*T + t_i (i = 1..k), so cycle c + 1 starts at c*T + t_k, which can
    differ from (c + 1)*T in the last bit; reducing t modulo T misplaces
    such times. Here each time is compared with the walk's own boundary
    sums, starting from the cycle floor(t / T) and moving one cycle at a
    time until the time lies inside it.
    """
    bps = np.asarray(signal.breakpoints)
    if not signal.periodic:
        return np.searchsorted(bps[1:-1], ts, side="right")
    if not np.all(np.isfinite(ts)):
        raise SignalError("evaluation times must be finite")
    period = bps[-1]
    k = bps.size - 1
    cycle = np.floor(ts / period)
    while True:
        # Boundaries of the cycle at or below t, by bisection: the sums
        # c*T + t_i do not decrease with i.
        lo = np.zeros(ts.shape, dtype=np.intp)
        hi = np.full(ts.shape, k)
        for _ in range(k.bit_length()):
            mid = (lo + hi) // 2
            below = (lo < hi) & (cycle * period + bps[np.minimum(mid, k - 1) + 1] <= ts)
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        late = lo == k
        early = (lo == 0) & (cycle > 0) & ((cycle - 1) * period + period > ts)
        if not (late.any() or early.any()):
            return lo
        cycle = cycle + late - early


def evaluate_array(signal: InputSignal, ts: np.ndarray) -> np.ndarray:
    """Vectorized sigma(t) over an array of times."""
    ts = np.asarray(ts, dtype=float)
    if isinstance(signal, PiecewiseConstant):
        return np.asarray(signal.levels)[_segment_index(signal, ts)]
    s = np.full_like(ts, signal.mean)
    for amp, omega, phase in signal.terms:
        s += amp * np.sin(omega * ts + phase)
    return np.maximum(s, 0.0)


# ---------------------------------------------------------------------------
# Period averages
# ---------------------------------------------------------------------------

def mean_over_period(signal: InputSignal, quad: QuadratureSpec | None = None) -> float:
    """Average inflow over one period.

    Exact (no quadrature) for piecewise-constant waveforms; composite
    trapezoid for clipped sinusoid sums, which are never integrated
    symbolically because the clip boundary is error-prone.
    """
    period = require_period(signal)
    if isinstance(signal, PiecewiseConstant):
        total = 0.0
        for level, dt in zip(signal.levels, signal.durations):
            total += level * dt
        return total / period
    quad = quad or QuadratureSpec()
    step = quad.resolve(period / PERIOD_QUADRATURE_STEPS)
    n = max(2, math.ceil(period / step))
    ts = np.linspace(0.0, period, n + 1)
    vals = evaluate_array(signal, ts)
    return float(np.trapezoid(vals, dx=period / n)) / period


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
