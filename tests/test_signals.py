import bisect
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottleneck_lab.signals import (
    ClippedSinusoidSum,
    Constant,
    NonPeriodicSignalError,
    PiecewiseConstant,
    Sampled,
    SignalError,
    SystemParams,
    evaluate_array,
    is_periodic,
    max_level,
    mean_over_period,
    period_of,
    signal_from_dict,
    signal_to_dict,
)

TWO_LEVEL = PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0))


def rational_level(sig, t):
    """The level at t by exact rational placement: the phase Fraction(t) mod T,
    looked up among the breakpoints (segments are left-closed)."""
    phase = Fraction(t) % Fraction(sig.duration)
    return sig.levels[bisect.bisect_right(sig.breakpoints, phase) - 1]


class TestConstruction:
    def test_negative_level_rejected(self):
        with pytest.raises(SignalError):
            Constant(-0.5)
        with pytest.raises(SignalError):
            PiecewiseConstant((0.0, 1.0), (-1.0,))
        with pytest.raises(SignalError):
            Sampled(0.1, (1.0, -0.1))

    def test_breakpoints_must_increase_from_zero(self):
        with pytest.raises(SignalError):
            PiecewiseConstant((0.0, 1.0, 1.0), (1.0, 2.0))
        with pytest.raises(SignalError):
            PiecewiseConstant((0.5, 1.0), (1.0,))
        with pytest.raises(SignalError):
            PiecewiseConstant((0.0,), ())

    def test_level_count_must_match(self):
        with pytest.raises(SignalError):
            PiecewiseConstant((0.0, 1.0, 2.0), (1.0,))

    def test_lambda_must_be_positive(self):
        with pytest.raises(SignalError):
            SystemParams(lam=0.0)
        with pytest.raises(SignalError):
            SystemParams(lam=-1.0)
        with pytest.raises(SignalError):
            SystemParams(lam=math.inf)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_boolean_numbers_rejected(self, value):
        # float(True) is 1.0: a boolean level, width or rate is a schema error.
        with pytest.raises(SignalError, match="must be a number"):
            PiecewiseConstant((0.0, 1.0), (value,))
        with pytest.raises(SignalError, match="must be a number"):
            PiecewiseConstant((0.0, value), (1.0,))
        with pytest.raises(SignalError, match="must be a number"):
            SystemParams(lam=value)
        with pytest.raises(SignalError, match="must be a number"):
            ClippedSinusoidSum(mean=1.0, terms=((value, 1.0, 0.0),))
        with pytest.raises(SignalError, match="must be a number"):
            signal_from_dict({"kind": "sampled", "step": 0.5, "values": [1.0, value]})

    @pytest.mark.parametrize("kind, data", [
        ("piecewise_constant", {"breakpoints": [0.0, 1.0, 2.0], "levels": [0.0, 2.0]}),
        ("sampled", {"step": 0.5, "values": [1.0, 0.0]}),
    ])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_periodic_must_be_a_boolean(self, kind, data, value):
        # bool("false") is True: only a JSON boolean says whether a signal repeats.
        with pytest.raises(SignalError, match="periodic must be a boolean"):
            signal_from_dict({"kind": kind, **data, "periodic": value})
        for flag in (True, False, np.False_):
            assert signal_from_dict({"kind": kind, **data, "periodic": flag}).periodic is bool(flag)

    def test_sinusoid_needs_positive_omega(self):
        with pytest.raises(SignalError):
            ClippedSinusoidSum(mean=1.0, terms=((1.0, 0.0, 0.0),))
        with pytest.raises(SignalError):
            ClippedSinusoidSum(mean=1.0, terms=())


class TestEvaluate:
    def test_constant_anywhere(self):
        assert evaluate_array(Constant(1.0), [7.3])[0] == 1.0

    def test_periodic_wrap_hits_first_segment(self):
        assert evaluate_array(TWO_LEVEL, [2.5])[0] == 0.0
        assert evaluate_array(TWO_LEVEL, [3.5])[0] == 2.0

    def test_clip_forces_zero(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((2.0, 1.0, 0.0),))
        assert evaluate_array(sig, [3.0 * math.pi / 2.0])[0] == 0.0

    def test_nonperiodic_holds_last_level(self):
        sig = PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0), periodic=False)
        assert evaluate_array(sig, [5.0])[0] == 2.0

    def test_sampled_matches_piecewise_disguise(self):
        sig = Sampled(0.25, (1.0, 0.5, 2.0, 0.0))
        pw = PiecewiseConstant((0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 0.5, 2.0, 0.0))
        assert sig == pw
        ts = np.linspace(0.0, 3.0, 121)
        np.testing.assert_array_equal(evaluate_array(sig, ts), evaluate_array(pw, ts))

    def test_level_at_the_walks_boundaries(self):
        # The boundary sums c*T + t_i round to an ulp of c*T, so a sum, or
        # the double just below it, can lie on either side of the boundary
        # it names. Each time holds the level of the segment that its exact
        # phase t mod T lies in, and both levels occur on both sides.
        sig = PiecewiseConstant((0.0, 1e-3, 2e-3), (3.0, 0.0))
        T = sig.duration
        at = np.array([c * T + b for c in range(10_000) for b in sig.breakpoints[1:]])
        for ts in (at, np.nextafter(at, 0.0)):
            got = evaluate_array(sig, ts)
            np.testing.assert_array_equal(got, [rational_level(sig, t) for t in ts.tolist()])
            assert set(got.tolist()) == {0.0, 3.0}

    def test_non_negativity_random_probe(self):
        rng = np.random.default_rng(11)
        signals = [
            ClippedSinusoidSum(mean=0.2, terms=((2.0, 1.3, 0.1), (1.5, 0.7, 2.0))),
            PiecewiseConstant((0.0, 0.5, 2.0, 2.5), (0.0, 3.0, 1.0)),
            Sampled(0.1, tuple(rng.uniform(0.0, 4.0, 17))),
            Constant(0.0),
        ]
        for sig in signals:
            assert np.all(evaluate_array(sig, rng.uniform(0.0, 100.0, 500)) >= 0.0)


class TestPeriodicity:
    def test_piecewise_exact_periodicity(self):
        rng = np.random.default_rng(3)
        T = TWO_LEVEL.duration
        ts = rng.uniform(0.0, 20.0, 200)
        np.testing.assert_array_equal(evaluate_array(TWO_LEVEL, ts), evaluate_array(TWO_LEVEL, ts + T))

    def test_commensurate_sum_periodicity(self):
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 1.0, 0.0), (0.25, 2.0, 0.7)))
        T = period_of(sig)
        assert T == pytest.approx(2.0 * math.pi, rel=1e-15)
        rng = np.random.default_rng(4)
        ts = rng.uniform(0.0, 50.0, 200)
        np.testing.assert_allclose(evaluate_array(sig, ts), evaluate_array(sig, ts + T),
                                   rtol=0, atol=1e-12)

    def test_incommensurate_sum_is_aperiodic(self):
        sig = ClippedSinusoidSum(
            mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.0))
        )
        assert period_of(sig) is None
        assert not is_periodic(sig)

    def test_period_bookkeeping(self):
        assert period_of(Constant(1.0, period=3.0)) == 3.0
        assert period_of(TWO_LEVEL) == 2.0
        assert period_of(Sampled(0.5, (1.0, 2.0, 0.0))) == 1.5
        assert period_of(PiecewiseConstant((0.0, 1.0), (1.0,), periodic=False)) is None
        one_tone = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        assert period_of(one_tone) == pytest.approx(1.0, rel=1e-15)

    def test_max_level_bounds(self):
        assert max_level(TWO_LEVEL) == 2.0
        sig = ClippedSinusoidSum(mean=1.0, terms=((2.0, 1.0, 0.0), (-0.5, 2.0, 0.0)))
        assert max_level(sig) == 3.5


class TestMeanOverPeriod:
    def test_constant(self):
        assert mean_over_period(Constant(1.0)) == 1.0

    def test_two_level_exact(self):
        assert mean_over_period(TWO_LEVEL) == 1.0

    def test_unclipped_sinusoid_integrates_to_mean(self):
        # Clip never active (1 - 0.5 > 0), so the oscillation cancels over a
        # full period; cross-checked against composite trapezoid at h = 1e-4.
        sig = ClippedSinusoidSum(mean=1.0, terms=((0.5, 2.0 * math.pi, 0.0),))
        got = mean_over_period(sig)
        ts = np.arange(0.0, 1.0 + 1e-4, 1e-4)
        oracle = np.trapezoid(evaluate_array(sig, ts), dx=1e-4)
        assert got == pytest.approx(oracle, abs=1e-11)
        assert got == pytest.approx(1.0, abs=1e-11)

    def test_clip_active_mean_against_quadrature(self):
        # max(0, 1 + 2 sin t) has mean 2/3 + sqrt(3)/pi. scipy's adaptive
        # quadrature of the clipped integrand, split at its kinks 7 pi / 6
        # and 11 pi / 6, is the independent route to the same value.
        from scipy.integrate import quad

        sig = ClippedSinusoidSum(mean=1.0, terms=((2.0, 1.0, 0.0),))
        closed = 2.0 / 3.0 + math.sqrt(3.0) / math.pi
        kinks = [7.0 * math.pi / 6.0, 11.0 * math.pi / 6.0]
        area, _ = quad(lambda t: max(0.0, 1.0 + 2.0 * math.sin(t)), 0.0, 2.0 * math.pi, points=kinks)
        assert area / (2.0 * math.pi) == pytest.approx(closed, rel=1e-15, abs=1e-15)
        assert mean_over_period(sig) == pytest.approx(closed, rel=1e-15, abs=1e-15)

    def test_scaling_is_linear_on_piecewise(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            levels = rng.uniform(0.0, 5.0, n)
            bps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, n))))
            sig = PiecewiseConstant(tuple(bps), tuple(levels))
            alpha = float(rng.uniform(0.0, 3.0))
            scaled = PiecewiseConstant(tuple(bps), tuple(alpha * levels))
            assert mean_over_period(scaled) == pytest.approx(
                alpha * mean_over_period(sig), rel=1e-12, abs=1e-14
            )

    def test_aperiodic_signal_rejected(self):
        sig = ClippedSinusoidSum(
            mean=1.0, terms=((0.5, 1.0, 0.0), (0.5, math.sqrt(2.0), 0.0))
        )
        with pytest.raises(NonPeriodicSignalError, match="running-average"):
            mean_over_period(sig)
        with pytest.raises(NonPeriodicSignalError):
            mean_over_period(PiecewiseConstant((0.0, 1.0), (1.0,), periodic=False))


class TestSerialization:
    @pytest.mark.parametrize("sig", [
        Constant(1.5, period=2.0),
        TWO_LEVEL,
        PiecewiseConstant((0.0, 0.5, 1.5), (1.0, 0.0), periodic=False),
        ClippedSinusoidSum(mean=1.0, terms=((0.5, 1.0, 0.2), (0.25, 2.0, 0.0))),
        Sampled(0.25, (1.0, 0.0, 2.0), periodic=True),
    ])
    def test_roundtrip(self, sig):
        assert signal_from_dict(signal_to_dict(sig)) == sig

    def test_unknown_key_rejected(self):
        with pytest.raises(SignalError, match="unknown key"):
            signal_from_dict({"kind": "constant", "level": 1.0, "bogus": 2})

    def test_missing_key_rejected(self):
        with pytest.raises(SignalError, match="missing key"):
            signal_from_dict({"kind": "piecewise_constant", "levels": [1.0]})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SignalError, match="unknown signal kind"):
            signal_from_dict({"kind": "sawtooth"})

    def test_term_keys_checked(self):
        with pytest.raises(SignalError, match="terms"):
            signal_from_dict({
                "kind": "clipped_sinusoid_sum",
                "mean": 1.0,
                "terms": [{"amplitude": 1.0, "freq": 2.0}],
            })


# ---------------------------------------------------------------------------
# Property tests over the input schema
# ---------------------------------------------------------------------------

_widths = st.floats(1e-3, 10.0)
_levels = st.floats(0.0, 1e3)


@st.composite
def piecewise_dicts(draw):
    widths = draw(st.lists(_widths, min_size=1, max_size=6))
    return {
        "kind": "piecewise_constant",
        "breakpoints": np.concatenate(([0.0], np.cumsum(widths))).tolist(),
        "levels": draw(st.lists(_levels, min_size=len(widths), max_size=len(widths))),
        "periodic": draw(st.booleans()),
    }


def constant_dicts():
    return st.fixed_dictionaries({
        "kind": st.just("constant"), "level": _levels, "period": st.floats(1e-3, 1e3),
    })


def sampled_dicts():
    return st.fixed_dictionaries({
        "kind": st.just("sampled"),
        "step": _widths,
        "values": st.lists(_levels, min_size=1, max_size=6),
        "periodic": st.booleans(),
    })


def sinusoid_dicts():
    term = st.fixed_dictionaries({
        "amplitude": st.floats(-5.0, 5.0),
        "omega": st.floats(1e-2, 1e2),
        "phase": st.floats(-10.0, 10.0),
    })
    return st.fixed_dictionaries({
        "kind": st.just("clipped_sinusoid_sum"),
        "mean": st.floats(0.0, 10.0),
        "terms": st.lists(term, min_size=1, max_size=3),
    })


any_signal_dict = st.one_of(piecewise_dicts(), constant_dicts(), sampled_dicts(),
                            sinusoid_dicts())


class TestSchemaProperties:
    @settings(derandomize=True, deadline=None)
    @given(any_signal_dict)
    def test_dict_roundtrip(self, data):
        sig = signal_from_dict(data)
        out = signal_to_dict(sig)
        assert signal_from_dict(json.loads(json.dumps(out))) == sig
        if data["kind"] in ("constant", "sampled"):
            assert out["kind"] == "piecewise_constant"
        else:
            assert out == data

    @settings(derandomize=True, deadline=None)
    @given(st.one_of(constant_dicts(), sampled_dicts()))
    def test_aliases_build_their_piecewise_signal(self, data):
        sig = signal_from_dict(data)
        if data["kind"] == "constant":
            want = PiecewiseConstant((0.0, data["period"]), (data["level"],))
            assert sig == want == Constant(data["level"], data["period"])
        else:
            n = len(data["values"])
            want = PiecewiseConstant(tuple(i * data["step"] for i in range(n + 1)),
                                     tuple(data["values"]), data["periodic"])
            assert sig == want == Sampled(data["step"], data["values"], data["periodic"])

    @settings(derandomize=True, deadline=None)
    @given(any_signal_dict, st.lists(st.floats(0.0, 1e4), min_size=1, max_size=20))
    def test_scalar_and_array_evaluation_agree(self, data, ts):
        sig = signal_from_dict(data)
        arr = evaluate_array(sig, ts)
        assert arr.shape == (len(ts),)
        for t, value in zip(ts, arr.tolist()):
            assert evaluate_array(sig, [t])[0] == value

    @settings(derandomize=True, deadline=None)
    @given(piecewise_dicts(), st.integers(0, 9_999))
    def test_level_at_each_boundary_of_the_walk(self, data, cycle):
        sig = signal_from_dict({**data, "periodic": True})
        T = sig.duration
        for b in sig.breakpoints[1:]:
            t = cycle * T + b
            for s in (t, float(np.nextafter(t, 0.0))):
                assert evaluate_array(sig, [s])[0] == rational_level(sig, s)
