"""The suites' row path: generated cases, row-form level checks, replay."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bottleneck_lab.signals import PiecewiseConstant, SystemParams, _pad_rows
from bottleneck_lab.suites import (
    SuiteTolerances,
    _case_rows,
    _level_checks,
    _random_rows,
    has_distinct_levels,
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
    assert [has_distinct_levels(signal) for signal in batch] == \
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
    assert has_distinct_levels(signal) is distinct
