"""The score, strength and label kernels against the record-by-record and
minute-by-minute reference code in `rowwise_fusion.py`."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nearness.domain import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, minute_index
from nearness.fusion import (
    DEFAULT_PARAMS,
    FusionParams,
    SessionStats,
    nearness_label,
    propinquity,
    social_interaction,
)
from nearness.pipelines import DEFAULT_GAP_MS, SocialStrengthState, contacts_from_times

from rowwise_fusion import (
    BisectSessionStats,
    propinquity_rowwise,
    social_interaction_rowwise,
    strengths_minutewise,
)

PAIR = ("a", "b")
PARAMS = st.sampled_from([DEFAULT_PARAMS, FusionParams(sigma2=0.3, mu=2.0, s_floor=0.5)])
GAP_S = DEFAULT_GAP_MS // 1000

# a sighting gap: inside a contact, right at the merge limit, between
# contacts, to another hour slot, or to about the same slot a day later
gaps_s = st.one_of(st.integers(1, GAP_S - 5), st.integers(GAP_S - 3, GAP_S + 3),
                   st.integers(GAP_S + 4, 3600), st.integers(3600, 12 * 3600),
                   st.integers(86_400 - 3600, 86_400 + 3600))


@st.composite
def sighting_times(draw):
    """Whole-second sighting instants within 3 days, the first one within
    5 minutes of an hour edge."""
    edge = MS_PER_HOUR * draw(st.integers(0, 71))
    t = max(0, edge + 1000 * draw(st.integers(-300, 300)))
    times = [t]
    for gap in draw(st.lists(gaps_s, max_size=40)):
        t += 1000 * gap
        if t >= 3 * MS_PER_DAY:
            break
        times.append(t)
    return np.array(times, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(sighting_times(), st.sampled_from([0.0, 30.0, 60.0, 300.0]), st.integers(0, 120))
def test_strength_kernel_matches_minutewise_accrual(times, dwell_s, tail_minutes):
    contacts = contacts_from_times(times, PAIR, DEFAULT_GAP_MS, dwell_s)
    first = minute_index(int(times[0]))
    minutes = minute_index(int(times[-1])) + 1 + tail_minutes
    boundaries = np.arange(1, minutes + 1, dtype=np.int64) * MS_PER_MINUTE
    state = SocialStrengthState(contacts)
    expected, contact_seconds = strengths_minutewise(contacts, first, minutes)
    assert state.accrue(boundaries)[first:].tolist() == expected
    assert int(state.covered_ms(boundaries[-1:]).sum()) / 1000.0 == contact_seconds


@settings(max_examples=40, deadline=None)
@given(sighting_times(), st.data())
def test_strength_kernel_on_millisecond_stamps_is_within_summation_error(times, data):
    # off whole seconds the oracle's per-minute float chunks round on every
    # addition; the kernel sums integer ms and divides once.  A sum of n
    # chunks is off by at most n * eps relative, and n <= minutes.
    times = times + np.array(data.draw(st.lists(st.integers(0, 999), min_size=len(times),
                                                 max_size=len(times))), dtype=np.int64)
    contacts = contacts_from_times(times, PAIR, DEFAULT_GAP_MS, 60.0)
    first = minute_index(int(times[0]))
    minutes = minute_index(int(times[-1])) + 61
    boundaries = np.arange(1, minutes + 1, dtype=np.int64) * MS_PER_MINUTE
    state = SocialStrengthState(contacts)
    expected, contact_seconds = strengths_minutewise(contacts, first, minutes)
    bound = minutes * np.finfo(np.float64).eps
    got = state.accrue(boundaries)[first:]
    assert (np.abs(got - expected) <= bound * np.array(expected)).all()
    got_seconds = int(state.covered_ms(boundaries[-1:]).sum()) / 1000.0
    assert abs(got_seconds - contact_seconds) <= bound * contact_seconds


scores = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                   st.floats(min_value=0.0, max_value=100.0))
minute_rows = st.lists(st.tuples(scores, scores), min_size=1, max_size=12)


@settings(deadline=None)
@given(st.lists(minute_rows, min_size=1, max_size=12))
def test_batch_labels_match_record_by_record_bisect(minutes):
    stats, oracle = SessionStats(), BisectSessionStats()
    for rows in minutes:
        p, si = (np.array(column, dtype=np.float64) for column in zip(*rows))
        stats.add(p, si)
        for row in rows:
            oracle.add(*row)
        labels, provisional = nearness_label(p, si, stats)
        expected = [oracle.label(*row) for row in rows]
        assert labels.tolist() == [code for code, _ in expected]
        assert [provisional] * len(rows) == [flag for _, flag in expected]
    assert stats.p.tolist() == oracle.p and stats.si.tolist() == oracle.si


@st.composite
def score_rows(draw, s_floor):
    """(s, v, d, m) rows rich in the values where the scores' cases meet."""
    s = st.one_of(st.sampled_from([0.0, -0.0, s_floor, math.nan, 3600.0]),
                  st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.floats(0.0, 1e6))
    d = st.one_of(st.sampled_from([math.inf, 0.0, math.nan]), st.floats(0.0, 1e4))
    return draw(st.lists(st.tuples(s, st.integers(0, 3), d, st.sampled_from([1, 2])),
                         max_size=30))


@settings(max_examples=200, deadline=None)
@given(PARAMS.flatmap(lambda params: st.tuples(st.just(params), score_rows(params.s_floor))))
def test_score_kernels_equal_the_scalar_definitions(case):
    params, rows = case
    s, v, d, m = (np.array([row[k] for row in rows], dtype=dtype)
                  for k, dtype in enumerate((np.float64, np.int64, np.float64, np.int64)))
    p_want = [propinquity_rowwise(s_, d_, m_) for s_, _, d_, m_ in rows]
    si_want = [social_interaction_rowwise(*row, params) for row in rows]
    for got, want in ((propinquity(s, d, m), p_want),
                      (social_interaction(s, v, d, m, params), si_want)):
        want = np.array(want, dtype=np.float64)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    for row in rows[:1]:      # one row as scalars: a numpy float64 back
        got = social_interaction(*row, params)
        assert type(got) is np.float64
        assert got.tobytes() == np.float64(social_interaction_rowwise(*row, params)).tobytes()
