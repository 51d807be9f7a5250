import bisect
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bottleneck_lab.signals as signals
from bottleneck_lab.signals import (
    CLIP_SEARCH_RADIANS,
    ClippedSinusoidSum,
    Constant,
    NonPeriodicSignalError,
    PiecewiseConstant,
    Sampled,
    SignalError,
    SystemParams,
    evaluate_array,
    _clip_points,
    _cut_at_clip_points,
    _unclipped,
    max_frequency,
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


def search_grid(signal, base):
    """The grid `_cut_at_clip_points` searches between the entries of `base`."""
    h = np.diff(base)
    q = max(2, math.ceil(float(h.max()) * max_frequency(signal) / CLIP_SEARCH_RADIANS))
    return np.append((base[:-1, None] + h[:, None] * (np.arange(q) / q)).ravel(), base[-1])


def searched_cut(signal, base):
    """`_cut_at_clip_points` with the search always run: base and clip points, sorted, once."""
    times = np.sort(np.concatenate((base, _clip_points(signal, search_grid(signal, base)))))
    return times[np.append(True, times[1:] > times[:-1])]


def rounding_margin(signal):
    """The margin of `_cut_at_clip_points`: 8 (n + 1) eps (mean + sum |A_i|)."""
    return 8.0 * (len(signal.terms) + 1) * np.finfo(float).eps * max_level(signal)


def cannot_clip(signal):
    """Whether mean - sum |A_i| exceeds the rounding margin, so no search runs."""
    return 2.0 * signal.mean - max_level(signal) > rounding_margin(signal)


def random_terms(rng, touch_at=None):
    """One to three terms; with `touch_at`, each term is at its minimum there."""
    n = int(rng.integers(1, 4))
    amps = rng.uniform(0.05, 2.0, n) * rng.choice([-1.0, 1.0], n)
    omegas = rng.uniform(0.1, 50.0, n)
    if touch_at is None:
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
    else:
        phases = np.where(amps > 0.0, -0.5, 0.5) * math.pi - omegas * touch_at
    return tuple(zip(amps.tolist(), omegas.tolist(), phases.tolist()))


def random_base(rng):
    """A sorted base grid on [0, 20] with a repeated entry."""
    base = np.sort(rng.uniform(0.0, 20.0, int(rng.integers(2, 60))))
    return np.sort(np.append(base, base[int(rng.integers(0, base.size))]))


@pytest.fixture
def clip_searches(monkeypatch):
    """The grid size of every `_clip_points` call made while the test runs."""
    sizes, search = [], signals._clip_points

    def spy(signal, ts):
        sizes.append(ts.size)
        return search(signal, ts)

    monkeypatch.setattr(signals, "_clip_points", spy)
    return sizes


class TestClipSearchShortcut:
    def test_no_search_where_inflow_cannot_clip(self, clip_searches):
        # mean - sum |A| from 1e-13.5 to 3 times sum |A|: above the rounding
        # margin, so the result is the base with each time once, and no
        # search runs; a forced search on the same grid finds nothing.
        rng = np.random.default_rng(2201)
        for _ in range(200):
            terms = random_terms(rng)
            amplitude = sum(abs(a) for a, _, _ in terms)
            sig = ClippedSinusoidSum(amplitude * (1.0 + 10.0 ** rng.uniform(-13.5, 0.5)), terms)
            assert cannot_clip(sig)
            base = random_base(rng)
            got = _cut_at_clip_points(sig, base)
            assert clip_searches == []
            assert got.tobytes() == np.unique(base).tobytes()
            grid = search_grid(sig, base)
            assert _clip_points(sig, grid).size == 0
            assert _unclipped(sig, grid).min() > 0.0

    @pytest.mark.parametrize("excess", [0.0, 0.5])
    def test_sums_at_the_bound_still_search(self, clip_searches, excess):
        # Every term at its minimum at one time t0, and mean = sum |A| plus
        # `excess` rounding margins: f touches 0 at t0 up to rounding, which
        # can dip the computed f below 0. The search runs, and the result is
        # that of the search.
        rng = np.random.default_rng(2202)
        found = 0
        for _ in range(100):
            terms = random_terms(rng, touch_at=rng.uniform(0.0, 20.0))
            amplitude = sum(abs(a) for a, _, _ in terms)
            sig = ClippedSinusoidSum(amplitude, terms)
            sig = ClippedSinusoidSum(amplitude + excess * rounding_margin(sig), terms)
            assert not cannot_clip(sig)
            base = random_base(rng)
            before = len(clip_searches)
            got = _cut_at_clip_points(sig, base)
            assert len(clip_searches) == before + 1
            assert got.tobytes() == searched_cut(sig, base).tobytes()
            found += got.size > np.unique(base).size
        if excess == 0.0:
            assert found > 0     # rounding dips found as clip-point pairs


class TestChunkedPeriodMean:
    # 1 + 0.6 sin t + 0.5 sin(99.01 t + 0.3) clips; its period is 200 pi
    # and its search grid has about 1.2e6 points.
    LONG = ClippedSinusoidSum(mean=1.0, terms=((0.6, 1.0, 0.0), (0.5, 99.01, 0.3)))

    def test_long_period_is_searched_in_bounded_cells(self, clip_searches, monkeypatch):
        whole = mean_over_period(self.LONG)
        cells = math.ceil(200.0 * math.pi * 99.01 / CLIP_SEARCH_RADIANS / signals._CLIP_CHUNK)
        assert len(clip_searches) == cells > 1
        assert max(clip_searches) <= signals._CLIP_CHUNK + 2
        clip_searches.clear()
        monkeypatch.setattr(signals, "_CLIP_CHUNK", 1 << 12)
        finer = mean_over_period(self.LONG)
        assert len(clip_searches) >= 16 * cells
        assert max(clip_searches) <= (1 << 12) + 2
        assert finer == pytest.approx(whole, rel=1e-14)

    def test_one_cell_is_the_whole_period_search(self, clip_searches):
        # A period whose grid fits one cell: one search of [0, T], as before.
        sig = ClippedSinusoidSum(mean=1.0, terms=((1.5, 2.0, 0.3), (0.4, 6.0, 1.0)))
        period = sig.period
        ends = searched_cut(sig, np.array([0.0, period]))
        pieces = signals._unclipped_integral(sig, ends[:-1], np.diff(ends))
        want = float(np.maximum(pieces, 0.0).sum()) / period
        assert mean_over_period(sig) == want
        assert clip_searches == [search_grid(sig, np.array([0.0, period])).size]

    def test_inflow_that_cannot_clip_is_never_searched(self, clip_searches, monkeypatch):
        sig = ClippedSinusoidSum(mean=1.2, terms=((0.6, 1.0, 0.0), (0.5, 99.01, 0.3)))
        whole = mean_over_period(sig)
        assert whole == pytest.approx(1.2, rel=1e-14)
        monkeypatch.setattr(signals, "_CLIP_CHUNK", 1 << 8)
        assert mean_over_period(sig) == pytest.approx(whole, rel=1e-14)
        assert clip_searches == []

    def test_memory_is_bounded_by_the_cell(self):
        # A search of the whole grid of [0, T] at once peaks at 50 MB (traced);
        # a cell holds _CLIP_CHUNK points.
        import tracemalloc

        tracemalloc.start()
        try:
            mean_over_period(self.LONG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * signals._CLIP_CHUNK


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
