"""The score, strength and label kernels against the record-by-record and
minute-by-minute reference code in `rowwise_fusion.py`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearness.domain import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, minute_index
from nearness.engine import EngineConfig, run_engine
from nearness.fusion import (
    DEFAULT_PARAMS,
    MIN_RECORDS_FOR_RANKING,
    FusionParams,
    SessionStats,
    nearness_label,
    propinquity,
    social_interaction,
)
from nearness.pipelines import DEFAULT_GAP_MS, SocialStrengthState, contacts_from_times
from nearness.simulator import AgentSpec, RfParams, ScenarioConfig, SoundPhase, Waypoint, generate

from rowwise_fusion import (
    BisectSessionStats,
    propinquity_rowwise,
    social_interaction_rowwise,
    strengths_minutewise,
)
from rowwise_pipelines import contacts_from_times as contacts_rowwise

PAIR = ("a", "b")
ALL_PARAMS = (DEFAULT_PARAMS, FusionParams(sigma2=0.3, mu=2.0, s_floor=0.5))
PARAMS = st.sampled_from(ALL_PARAMS)
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
    first = minute_index(int(times[0]))
    minutes = minute_index(int(times[-1])) + 1 + tail_minutes
    boundaries = np.arange(1, minutes + 1, dtype=np.int64) * MS_PER_MINUTE
    state = SocialStrengthState(contacts_from_times(times, DEFAULT_GAP_MS, dwell_s))
    expected, contact_seconds = strengths_minutewise(
        contacts_rowwise(times, PAIR, DEFAULT_GAP_MS, dwell_s), first, minutes)
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
    first = minute_index(int(times[0]))
    minutes = minute_index(int(times[-1])) + 61
    boundaries = np.arange(1, minutes + 1, dtype=np.int64) * MS_PER_MINUTE
    state = SocialStrengthState(contacts_from_times(times, DEFAULT_GAP_MS, 60.0))
    expected, contact_seconds = strengths_minutewise(
        contacts_rowwise(times, PAIR, DEFAULT_GAP_MS, 60.0), first, minutes)
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


def arrivals(seed: int) -> ScenarioConfig:
    """40 minutes with RSSI shadowing: a and b stand 2 m apart from the
    start, c walks in from 80 m and d from 120 m, so the pairs first meet
    in different minutes and the first minute holds a and b's two rows."""
    def walker(node, x, arrive_ms, y):
        return AgentSpec(node, (Waypoint(0, x, y), Waypoint(arrive_ms, 3.0, y)))
    loud = (SoundPhase(600_000, 1_800_000, 0.1), SoundPhase(1_800_000, 2_400_000, 0.5))
    return ScenarioConfig(
        agents=(AgentSpec("a", (Waypoint(0, 0.0, 0.0),), loud),
                AgentSpec("b", (Waypoint(0, 2.0, 0.0),), (SoundPhase(0, 2_400_000, 0.02),)),
                walker("c", 80.0, 900_000, 1.0),
                walker("d", 120.0, 1_500_000, -1.0)),
        duration_ms=2_400_000,
        rf=RfParams(shadowing_sigma_db=3.0, scan_interval_ms=15_000),
        seed=seed)


@pytest.mark.parametrize("params", ALL_PARAMS)
@pytest.mark.parametrize("seed", [1, 2])
def test_engine_records_equal_the_rowwise_definitions(seed, params):
    config = arrivals(seed)
    traces, _ = generate(config)
    records = run_engine(traces, EngineConfig(rf=config.rf, fusion=params),
                         duration_ms=config.duration_ms).records
    minute = records.minute.tolist()
    first_met = {}
    for m, i, j in zip(minute, records.i.tolist(), records.j.tolist()):
        first_met.setdefault(frozenset((i, j)), m)
    assert len(first_met) == 6 and len(set(first_met.values())) > 2
    assert minute.count(minute[0]) < MIN_RECORDS_FOR_RANKING
    distance = dict(zip(zip(minute, records.i.tolist(), records.j.tolist()),
                        records.d_m.tolist()))
    assert any(d != distance[m, j, i] for (m, i, j), d in distance.items())    # shadowing

    rows = list(zip(records.s_s.tolist(), records.v_i.tolist(), records.d_m.tolist(),
                    records.m_i.tolist()))
    p = np.array([propinquity_rowwise(s, d, m) for s, _, d, m in rows], dtype=np.float64)
    si = np.array([social_interaction_rowwise(*row, params) for row in rows], dtype=np.float64)
    assert records.p.tobytes() == p.tobytes()       # bit for bit, signbit included
    assert records.si.tobytes() == si.tobytes()

    # labels: the session fed minute by minute, each minute whole before it is ranked
    oracle, labels = BisectSessionStats(), []
    for m in sorted(set(minute)):
        own = [k for k, x in enumerate(minute) if x == m]
        for k in own:
            oracle.add(p[k], si[k])
        labels += [oracle.label(p[k], si[k])[0] for k in own]
    assert records.nearness.tolist() == labels
    assert set(labels) == {0, 1, 2}
