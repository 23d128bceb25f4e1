import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_traces
from nearness.domain import LABELS
from nearness.engine import run_engine
from nearness.fusion import (
    SessionStats,
    fuse_minute,
    nearness_label,
    propinquity,
    social_interaction,
)

from oracle import propinquity_oracle, rel_error, social_interaction_oracle

# frozen with the arbitrary-precision oracle in oracle.py
SI_10_1_0_1 = 0.46065886596178063902
SI_10_2_0_1 = 0.23651014781891838593

strengths = st.floats(min_value=1.01, max_value=100_000.0)
distances = st.floats(min_value=0.0, max_value=5_000.0)
sound_classes = st.integers(min_value=0, max_value=3)
motions = st.sampled_from([1, 2])


# peak amplitudes of sound classes 0, 1, 2 and 3
class_amplitudes = st.sampled_from([0.0005, 0.01, 0.1, 0.5])


def engine_run(sightings, sound=(), duration_ms=None):
    """`run_engine` over trace rows laid out as `make_traces` takes them."""
    return run_engine(make_traces(sightings, sound=sound), duration_ms=duration_ms).records


def both_ways(times_ms, rssi, pairs=(("a", "b"),)):
    """Sighting rows of each pair in `pairs`, seen from both sides at each time."""
    return [(t, x, y, rssi) for t in times_ms for i, j in pairs for x, y in ((i, j), (j, i))]


class TestPropinquity:
    def test_zero_strength_gives_zero(self):
        assert propinquity(0.0, 5.0, 1) == 0.0

    def test_worked_example(self):
        assert propinquity(10.0, 9.0, 1) == pytest.approx(1.0, rel=1e-12)

    def test_motion_halves(self):
        assert propinquity(10.0, 9.0, 2) == pytest.approx(0.5, rel=1e-12)

    def test_out_of_range_gives_zero(self):
        assert propinquity(100.0, math.inf, 1) == 0.0

    @given(strengths, distances, sound_classes, motions)
    def test_matches_oracle(self, s, d, v, m):
        assert rel_error(propinquity(s, d, m), propinquity_oracle(s, d, m)) <= 1e-9


class TestSocialInteraction:
    def test_worked_value(self):
        assert rel_error(social_interaction(10.0, 1, 0.0, 1), SI_10_1_0_1) <= 1e-12

    def test_worked_value_off_peak(self):
        assert rel_error(social_interaction(10.0, 2, 0.0, 1), SI_10_2_0_1) <= 1e-12

    def test_below_floor_gives_zero(self):
        assert social_interaction(0.5, 1, 0.0, 1) == 0.0

    def test_out_of_range_gives_zero(self):
        assert social_interaction(100.0, 1, math.inf, 1) == 0.0

    @given(strengths, sound_classes, distances, motions)
    def test_matches_oracle(self, s, v, d, m):
        assert rel_error(social_interaction(s, v, d, m),
                         social_interaction_oracle(s, v, d, m)) <= 1e-9


class TestMonotonicity:
    @given(strengths, distances, sound_classes, motions)
    def test_increasing_in_strength(self, s, d, v, m):
        bigger = s * 1.5 + 1.0
        assert propinquity(bigger, d, m) > propinquity(s, d, m)
        assert social_interaction(bigger, v, d, m) > social_interaction(s, v, d, m)

    @given(strengths, distances, sound_classes, motions)
    def test_decreasing_in_distance(self, s, d, v, m):
        farther = d * 1.5 + 1.0
        assert propinquity(s, farther, m) < propinquity(s, d, m)
        assert social_interaction(s, v, farther, m) < social_interaction(s, v, d, m)

    @given(strengths, distances, sound_classes)
    def test_motion_exactly_halves(self, s, d, v):
        assert propinquity(s, d, 2) == propinquity(s, d, 1) / 2.0
        assert social_interaction(s, v, d, 2) == social_interaction(s, v, d, 1) / 2.0

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([-40.0, -55.0, -70.0]), class_amplitudes, class_amplitudes)
    def test_propinquity_ignores_sound(self, rssi, amplitude1, amplitude2):
        # the sound class enters fusion only through si, never through p
        sightings = both_ways(range(0, 240_000, 30_000), rssi)
        r1, r2 = (engine_run(sightings, [(t, "a", amplitude) for t in range(0, 240_000, 500)])
                  for amplitude in (amplitude1, amplitude2))
        assert (r1.v_i == r2.v_i).all() == (amplitude1 == amplitude2)
        assert r1.p.tobytes() == r2.p.tobytes()

    @given(strengths, distances, motions)
    def test_si_peaks_and_is_symmetric_at_mu(self, s, d, m):
        at_peak = social_interaction(s, 1, d, m)
        off = [social_interaction(s, v, d, m) for v in (0, 2, 3)]
        assert all(at_peak > x for x in off)
        # classes 0 and 2 are equidistant from mu=1
        assert social_interaction(s, 0, d, m) == social_interaction(s, 2, d, m)


def labels_of(p_values, si_values, stats):
    """(labels, provisional) of rows (p, si) against `stats`."""
    codes, provisional = nearness_label(np.array(p_values, dtype=np.float64),
                                        np.array(si_values, dtype=np.float64), stats)
    return [LABELS[c] for c in codes], provisional


class TestNearnessLabel:
    @staticmethod
    def _stats(p_values, si_values):
        stats = SessionStats()
        stats.add(np.array(p_values, dtype=np.float64), np.array(si_values, dtype=np.float64))
        return stats

    def test_provisional_low_below_ten_records(self):
        stats = self._stats(range(5), range(5))
        labels, provisional = labels_of([100.0], [100.0], stats)
        assert labels == ["Low"]
        assert provisional

    def test_tercile_mapping(self):
        spread = [float(k) for k in range(30)]
        stats = self._stats(spread, spread)
        labels, provisional = labels_of([0.0, 29.5, 29.5, 29.5], [0.0, 0.0, 15.0, 29.5], stats)
        # (0+0)//2, (2+0)//2, (2+1)//2, (2+2)//2
        assert labels == ["Low", "Avg", "Avg", "High"]
        assert not provisional

    def test_all_zero_history_reads_low(self):
        stats = self._stats([0.0] * 20, [0.0] * 20)
        assert labels_of([0.0], [0.0], stats) == (["Low"], False)


class TestFuseMinute:
    def test_sentinel_rule(self):
        # contact in minute 0, then silence: the estimate goes stale after 5 min
        records = engine_run(both_ways([0], -48.0), duration_ms=600_000)
        stale = records.d_m == math.inf
        assert stale.any() and (records.s_s[stale] > 0.0).all()
        assert (records.p[stale] == 0.0).all() and (records.si[stale] == 0.0).all()

    def test_rows_keep_their_order(self):
        pairs = (("a", "b"), ("a", "c"), ("b", "c"))
        records = engine_run(both_ways([0, 60_000], -48.0, pairs), duration_ms=120_000)
        keys = list(zip(records.minute.tolist(), records.i.tolist(), records.j.tolist()))
        directions = [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b")]
        assert keys == [(minute, i, j) for minute in (0, 1) for i, j in directions]
        # labels come back in the order of the minute's rows
        history = np.arange(12, dtype=np.float64)
        p, si = np.array([0.0, 11.0, 5.0]), np.array([0.0, 11.0, 11.0])
        labels = []
        for order in (slice(None), slice(None, None, -1)):
            stats = SessionStats()
            stats.add(history, history)
            labels.append(fuse_minute(p[order], si[order], stats))
        assert labels[0].tolist() == [0, 2, 1] and labels[1].tolist() == [1, 2, 0]

    def test_minute_enters_the_session_before_labelling(self):
        stats = SessionStats()
        stats.add(np.zeros(9), np.zeros(9))
        labels = fuse_minute(np.array([1.0]), np.array([1.0]), stats)
        # the tenth record ends the provisional phase for its own minute
        assert len(stats) == 10 and labels.tolist() == [2]

    def test_scores_positive_when_close_and_strong(self):
        assert propinquity(600.0, 2.0, 1) > 0.0 and social_interaction(600.0, 1, 2.0, 1) > 0.0
