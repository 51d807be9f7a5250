"""The suites' row path: generated cases, row-form level checks, replay."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottleneck_lab import dynamics
from bottleneck_lab.periodic import PoincareMap, _map_columns, _PeriodRows
from bottleneck_lab.signals import PiecewiseConstant, SignalError, SystemParams, _pad_rows
from bottleneck_lab.suites import (
    CERTIFICATE_TAUS,
    SuiteTolerances,
    _asymptotic_checks,
    _case_rows,
    _level_checks,
    _random_rows,
    random_piecewise_signal,
    random_system,
    run_verification,
)


def dict_has_distinct_levels(signal, separation=0.1, min_duty=0.01):
    """The former per-signal form: a dict of levels and their total widths."""
    total = {}
    for level, dt in zip(signal.levels, signal.durations):
        total[level] = total.get(level, 0.0) + dt
    period = signal.duration
    heavy = sorted(lvl for lvl, dt in total.items() if dt >= min_duty * period)
    return bool(heavy) and heavy[-1] - heavy[0] >= separation


def dict_all_levels_equal(signal, tol=1e-4):
    return max(signal.levels) - min(signal.levels) <= tol


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def state(rng):
    """The bit generator's state, its arrays as lists so states compare."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def test_rows_are_the_signals_drawn_one_by_one():
    # The row generator makes the draws of random_piecewise_signal then
    # random_system in the same order, and its rows are _pad_rows of those
    # signals, bit for bit (a vectorised 10 ** u would change most lam).
    counts = set()
    for seed in range(250):
        rng = np.random.default_rng(seed)
        rows = _random_rows(rng, 8)
        ref_rng = np.random.default_rng(seed)
        cases = [(random_piecewise_signal(ref_rng), random_system(ref_rng)) for _ in range(8)]
        levels, breakpoints, _ = _pad_rows([signal for signal, _ in cases])
        assert rows.levels.shape == levels.shape
        assert np.array_equal(bits(rows.levels), bits(levels))
        assert np.array_equal(bits(rows.breakpoints), bits(breakpoints))
        assert rows.counts.tolist() == [len(signal.levels) for signal, _ in cases]
        assert np.array_equal(bits(rows.lam), bits([params.lam for _, params in cases]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [rows.signal(i) for i in range(8)] == [signal for signal, _ in cases]
        counts.update(rows.counts.tolist())
    assert {1, 20} <= counts


def per_case_rows(rng, count):
    """The cases drawn one by one, as `random_piecewise_signal` and
    `random_system` draw them, padded to rows."""
    cases = [(random_piecewise_signal(rng), random_system(rng)) for _ in range(count)]
    padded = _pad_rows([signal for signal, _ in cases]) if cases else (
        np.zeros((0, 0)), np.zeros((0, 1)), None)
    return (padded[0], padded[1], [len(signal.levels) for signal, _ in cases],
            [params.lam for _, params in cases])


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("count", [0, 1, 120])
@pytest.mark.parametrize("spare", [False, True])
def test_rows_keep_the_stream_on_every_generator(bit_generator, count, spare):
    # Two calls per case read the stream the per-case uniform draws read, on
    # any bit generator, also with PCG64's spare 32-bit half pending after an
    # earlier `integers` draw; the generator ends in the same state.
    for seed in range(3):
        rng, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if spare:
            assert rng.integers(1, 21) == ref.integers(1, 21)
        rows = _random_rows(rng, count)
        levels, breakpoints, counts, lam = per_case_rows(ref, count)
        assert np.array_equal(bits(rows.levels), bits(levels))
        assert np.array_equal(bits(rows.breakpoints), bits(breakpoints))
        assert rows.counts.tolist() == counts
        assert np.array_equal(bits(rows.lam), bits(lam))
        assert state(rng) == state(ref)


# Seed 0's first three cases, recorded from the per-case draws: the replay
# contract says the same seed names the same cases in every version.
SEED_0_CASES = [
    (["0x1.5953b5da8e411p+0", "0x1.a391a274502c4p-3", "0x1.527c68e604eb0p-4",
      "0x1.043f19163815ep+2", "0x1.2414efd80fd02p+2", "0x1.843f349bc2524p+1",
      "0x1.d2e0b76fed468p+1", "0x1.5beb84c314a73p+1", "0x1.2b392209732c6p+2",
      "0x1.0512b92098c04p+2", "0x1.c0ad05ad5c680p-7", "0x1.125e8eef3e20bp+2",
      "0x1.57ea920e2c2e8p-3", "0x1.d2fabf9369878p+1", "0x1.c1adaae2773b4p-1",
      "0x1.14379e089c925p+2", "0x1.5a89019e8e253p+1", "0x1.7fa197a066e95p+0"],
     ["0x0.0p+0", "0x1.ce63df7ad3f9ep-2", "0x1.0e91db4bae1f8p-1", "0x1.649f02e87d86cp-1",
      "0x1.6234d8619a60cp+0", "0x1.063392bfcd1aap+1", "0x1.576eaa651f977p+1",
      "0x1.8c7ccb5db619cp+1", "0x1.0612f86ca7130p+2", "0x1.44e8ad2144d15p+2",
      "0x1.71ca333e457e2p+2", "0x1.9c89ab30b8dbep+2", "0x1.c9986785b8bffp+2",
      "0x1.e47116ac238d9p+2", "0x1.efdb09e4abf66p+2", "0x1.0f7607b9f92e1p+3",
      "0x1.210825cd17aecp+3", "0x1.2c102c8d6e4b9p+3", "0x1.3c6ebd37998dap+3"],
     "0x1.80bac97cb0609p+2"),
    (["0x1.2ae4d8469757cp+2", "0x1.c9fa547ea81eap+0", "0x1.6dc7728d2e8d9p+1",
      "0x1.9bfe297d45e54p+0", "0x1.7c5a1df04c7c8p+1", "0x1.b086c01885a7dp+0",
      "0x1.f545b6cecda4dp+0", "0x1.1ce34660e9042p+2", "0x1.22c3001051d3ap+0",
      "0x1.8ed6fb5649120p+1", "0x1.ae289754f88eap-2", "0x1.0a72356538af3p+2",
      "0x1.f7be2fcb808acp+1"],
     ["0x0.0p+0", "0x1.1c0f00069a421p-2", "0x1.28f9c1cde71a6p+0", "0x1.4404f4bf13fd2p+0",
      "0x1.a29022a56a70ap+0", "0x1.d3e936f802c05p+0", "0x1.271de44709f4ep+1",
      "0x1.8e598c36f0634p+1", "0x1.b0cbbf5712f51p+1", "0x1.bd858cba3039cp+1",
      "0x1.f51d7c96558c9p+1", "0x1.09d3c258f0f87p+2", "0x1.128b831dd751bp+2",
      "0x1.3907783df6ceep+2"],
     "0x1.9538a4797e9fep-2"),
    (["0x1.fec270fce76a5p-1", "0x1.2d79e7f072a33p+2", "0x1.d3574cc83e341p+0",
      "0x1.0e1162ec5d790p-1", "0x1.92a1145d4670cp+1", "0x1.28b08040b479dp+2",
      "0x1.19d7649d8649ap+1", "0x1.31780da157bf6p+2", "0x1.3feeee1bfd483p+1",
      "0x1.102575389fe48p+1", "0x1.8cefc5a05d001p+1", "0x1.3e6e4e42efe01p+2",
      "0x1.2fa977420133cp+2", "0x1.266dcbae0a73cp+1", "0x1.e4f24b44965f0p+1",
      "0x1.3e59bc0384cb3p+1", "0x1.52c2811b8cf47p+1", "0x1.f6e72113935bbp+1",
      "0x1.096136e031bbdp+1"],
     ["0x0.0p+0", "0x1.7eda51b622b27p-1", "0x1.792d25716dfa1p+0", "0x1.34539e4c47676p+1",
      "0x1.48b3d343bddb7p+1", "0x1.a7c02c9b0df3cp+1", "0x1.0f7674806ec59p+2",
      "0x1.4d833b8eaa99dp+2", "0x1.519b5555d92c7p+2", "0x1.8950eb2a8a05fp+2",
      "0x1.c82c392228a17p+2", "0x1.02c91aa5ad77bp+3", "0x1.08e871f4a6d24p+3",
      "0x1.28136e7ea688bp+3", "0x1.44baddb80018fp+3", "0x1.5f5482170ef74p+3",
      "0x1.6f8590f1578b8p+3", "0x1.782f95cf2b14cp+3", "0x1.9229bd987fd19p+3",
      "0x1.afd69f2948dd4p+3"],
     "0x1.5cc983f96e4d1p-2"),
]


def test_seed_zero_names_the_recorded_cases():
    # lam is 10 ** u, and pow is not correctly rounded on every libm.
    rows = _random_rows(np.random.default_rng(0), 3)
    ref = np.random.default_rng(0)
    for i, (levels, breakpoints, lam) in enumerate(SEED_0_CASES):
        signal, params = random_piecewise_signal(ref), random_system(ref)
        want = PiecewiseConstant(tuple(map(float.fromhex, breakpoints)),
                                 tuple(map(float.fromhex, levels)))
        assert rows.counts[i] == len(levels)
        assert rows.signal(i) == signal == want
        for got in (rows.lam[i], params.lam):
            assert got == pytest.approx(float.fromhex(lam), rel=1e-15, abs=0.0)


class TestOneExactPass:
    """The asymptotic suite walks both starts in one exact pass over its
    rows tiled twice; a pass per start would show here as a second build of
    the segment tables."""

    def test_tables_built_once_per_suite(self, monkeypatch):
        calls = []
        init = dynamics._SegmentTables.__init__

        def counting_init(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(dynamics._SegmentTables, "__init__", counting_init)
        _asymptotic_checks(_random_rows(np.random.default_rng(3), 20), SuiteTolerances())
        assert len(calls) == 1

    def test_halves_are_the_single_start_passes(self, monkeypatch):
        # A padded batch mixing 1- and 20-segment rows.
        signals = [PiecewiseConstant((0.0, 0.7), (2.5,)),
                   PiecewiseConstant(tuple(np.linspace(0.0, 3.0, 21).tolist()),
                                     tuple(np.linspace(0.0, 4.0, 20).tolist())),
                   PiecewiseConstant((0.0, 0.25, 1.0), (4.0, 0.5))]
        cases = [(signal, SystemParams(lam)) for signal, lam in zip(signals, (0.3, 7.0, 1.0))]
        rows = _case_rows(cases)
        assert rows.counts.tolist() == [1, 20, 2]
        passes = []
        exact_rows = dynamics._exact_rows

        def recording(*args):
            passes.append(exact_rows(*args))
            return passes[-1]

        monkeypatch.setattr(dynamics, "_exact_rows", recording)
        _asymptotic_checks(rows, SuiteTolerances())
        [tiled] = passes
        n = len(cases)
        for half, x0 in enumerate((0.0, 1.0)):
            single = exact_rows(rows.levels, rows.breakpoints, np.ones(n, dtype=bool),
                                rows.lam, np.full(n, x0), CERTIFICATE_TAUS)
            for got, want in zip(tiled, single):
                assert np.array_equal(bits(got[half * n:(half + 1) * n]), bits(want))


def former_map(rate, b):
    """The per-map form: PoincareMap's check, clamp and properties in scalars."""
    one_minus_a = -math.expm1(-rate)
    assert -1e-12 <= b <= one_minus_a + 1e-12
    b = min(max(b, 0.0), one_minus_a)
    return math.exp(-rate), b, b / one_minus_a


class TestMapColumns:
    """The contraction check reads the one-period maps as columns; they must
    hold the bits of `PoincareMap` and raise its errors."""

    def kernel(self):
        # Rows with R > 745 (a = e^{-R} underflows) and nanosecond periods.
        rng = np.random.default_rng(11)
        levels = rng.uniform(0.0, 5.0, (60, 4))
        durations = rng.uniform(0.05, 1.0, (60, 4)) * np.repeat([1.0, 1e-9, 300.0], 20)[:, None]
        lam = np.repeat(rng.uniform(0.1, 10.0, 20), 3)
        return _PeriodRows(levels, durations, lam)

    def test_columns_are_the_maps(self):
        kernel = self.kernel()
        assert kernel.rate.max() > 745.0 and kernel.period.min() < 4e-9
        # Offsets that the clamp absorbs: just below 0, just above 1 - a, -0.0.
        offsets = kernel.b.copy()
        offsets[:3] = -1e-13, -math.expm1(-kernel.rate[1]) + 1e-13, -0.0
        a, b, x_p = _map_columns(kernel.rate, offsets)
        maps = [PoincareMap(rate, b) for rate, b in zip(kernel.rate.tolist(), offsets.tolist())]
        former = np.array([former_map(rate, b)
                           for rate, b in zip(kernel.rate.tolist(), offsets.tolist())])
        for got, want in ((a, [pm.a for pm in maps]), (b, [pm.b for pm in maps]),
                          (x_p, [pm.fixed_point for pm in maps])):
            assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(np.array([a, b, x_p])), bits(former.T))

    @pytest.mark.parametrize("patch", [("b", 1.5), ("b", -0.1), ("rate", 0.0),
                                       ("rate", -800.0), ("rate", math.nan)])
    def test_a_row_out_of_range_raises_the_maps_error(self, patch):
        kernel = self.kernel()
        rate, b = kernel.rate.copy(), kernel.b.copy()
        {"rate": rate, "b": b}[patch[0]][7] = patch[1]
        with pytest.raises(SignalError) as want:
            PoincareMap(rate[7].item(), b[7].item())
        with pytest.raises(SignalError, match=f"^{re.escape(str(want.value))}$"):
            _map_columns(rate, b)


def test_no_cases_make_empty_rows():
    rows = _random_rows(np.random.default_rng(0), 0)
    assert rows.levels.shape == (0, 0) and rows.breakpoints.shape == (0, 1)
    assert (run_verification(0, 0, n_asymptotic=0).to_json_dict()
            == run_verification(cases=[]).to_json_dict())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_failures_are_those_of_their_replay(seed):
    # Every check but the contraction fails for some case; failures of the
    # generated rows are rebuilt from the rows and must read as those of
    # the same draws replayed as signals.
    tol = SuiteTolerances(identity_residual=1e-17, gap_floor=0.05, independence=-1.0,
                          certificate=-1e3)
    generated = run_verification(30, seed, tol, n_asymptotic=10).failures
    rng = np.random.default_rng(seed)
    periodic_cases = [(random_piecewise_signal(rng), random_system(rng)) for _ in range(30)]
    asymptotic_cases = [(random_piecewise_signal(rng), random_system(rng)) for _ in range(10)]
    replayed = [f for f in run_verification(tolerances=tol, cases=periodic_cases).failures
                if f["suite"] == "periodic"]
    replayed += [f for f in run_verification(tolerances=tol, cases=asymptotic_cases).failures
                 if f["suite"] == "asymptotic"]
    assert generated == replayed
    assert {f["suite"] for f in generated} == {"periodic", "asymptotic"}


# Levels that repeat, that are zero, and pairs exactly 0.1 apart or just
# below it (0.35 - 0.25 < 0.1 <= 0.1 - 0.0) or about 1e-4 apart; widths
# whose repeats sum to the 1% duty boundary of a period near 1.
LEVELS = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.35, 1.0, 1.0001, 1.00005, 1.1]),
                   st.floats(0.0, 5.0))
WIDTHS = st.one_of(st.sampled_from([0.0025, 0.005, 0.01, 0.5, 0.98, 0.99, 1.0]),
                   st.floats(1e-3, 1.0))


@st.composite
def signals(draw):
    k = draw(st.integers(1, 20))
    levels = draw(st.lists(LEVELS, min_size=k, max_size=k))
    widths = draw(st.lists(WIDTHS, min_size=k, max_size=k))
    breakpoints = np.concatenate(([0.0], np.cumsum(widths)))
    return PiecewiseConstant(tuple(breakpoints.tolist()), tuple(levels))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(batch=st.lists(signals(), min_size=1, max_size=6))
def test_row_level_checks_agree_with_the_dict_form(batch):
    # Rows of a batch are padded to its longest signal; at min_duty 0 every
    # level counts, and a pad must still not.
    rows = _case_rows([(signal, SystemParams(1.0)) for signal in batch])
    for min_duty in (0.01, 0.0):
        distinct, equal = _level_checks(*rows[:3], min_duty=min_duty)
        assert distinct.tolist() == [dict_has_distinct_levels(s, min_duty=min_duty)
                                     for s in batch]
        assert equal.tolist() == [dict_all_levels_equal(signal) for signal in batch]
    assert _level_checks(*rows[:3])[0].tolist() == \
        [dict_has_distinct_levels(signal) for signal in batch]


@pytest.mark.parametrize("levels, widths, distinct", [
    ((0.0, 0.1), (0.01, 0.99), True),               # 1% duty and 0.1 apart, exactly
    ((0.25, 0.35), (0.5, 0.5), False),              # 0.35 - 0.25 is just below 0.1
    ((0.0, 1.0) * 2, (0.005, 0.495) * 2, True),     # a repeated level sums to 1%
    ((3.0,) + (0.0,) * 9, (0.99,) + (0.00111,) * 9, False),  # nine widths just under 1%
])
def test_duty_and_separation_boundaries(levels, widths, distinct):
    signal = PiecewiseConstant(tuple(np.concatenate(([0.0], np.cumsum(widths))).tolist()),
                               levels)
    assert dict_has_distinct_levels(signal) is distinct
    assert _level_checks(*_case_rows([(signal, SystemParams(1.0))])[:3])[0].tolist() == [distinct]
