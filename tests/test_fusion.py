import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearness.domain import Nearness
from nearness.fusion import (
    FusionParams,
    PairSnapshot,
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

    @given(strengths, distances, motions, sound_classes, sound_classes)
    def test_propinquity_ignores_sound(self, s, d, m, v1, v2):
        # the sound class enters fusion only through si, never through p
        stats1, stats2 = SessionStats(), SessionStats()
        (r1,) = fuse_minute([PairSnapshot("a", "b", 1, m, v1, d, s)], 0, stats1)
        (r2,) = fuse_minute([PairSnapshot("a", "b", 1, m, v2, d, s)], 0, stats2)
        assert r1.p == r2.p

    @given(strengths, distances, motions)
    def test_si_peaks_and_is_symmetric_at_mu(self, s, d, m):
        at_peak = social_interaction(s, 1, d, m)
        off = [social_interaction(s, v, d, m) for v in (0, 2, 3)]
        assert all(at_peak > x for x in off)
        # classes 0 and 2 are equidistant from mu=1
        assert social_interaction(s, 0, d, m) == social_interaction(s, 2, d, m)


class TestNearnessLabel:
    @staticmethod
    def _stats(p_values, si_values):
        stats = SessionStats()
        for p, si in zip(p_values, si_values):
            stats.add(p, si)
        return stats

    def test_provisional_low_below_ten_records(self):
        stats = self._stats(range(5), range(5))
        label, provisional = nearness_label(100.0, 100.0, stats)
        assert label is Nearness.LOW
        assert provisional

    def test_tercile_mapping(self):
        spread = [float(k) for k in range(30)]
        stats = self._stats(spread, spread)
        assert nearness_label(0.0, 0.0, stats) == (Nearness.LOW, False)
        assert nearness_label(29.5, 0.0, stats) == (Nearness.AVG, False)  # (2+0)//2
        assert nearness_label(29.5, 15.0, stats) == (Nearness.AVG, False)  # (2+1)//2
        assert nearness_label(29.5, 29.5, stats) == (Nearness.HIGH, False)

    def test_all_zero_history_reads_low(self):
        stats = self._stats([0.0] * 20, [0.0] * 20)
        assert nearness_label(0.0, 0.0, stats) == (Nearness.LOW, False)


class TestFuseMinute:
    def test_sentinel_rule(self):
        stats = SessionStats()
        snap = PairSnapshot(i="a", j="b", n_i=0, m_i=1, v_i=0, d_m=math.inf, s_s=500.0)
        (record,) = fuse_minute([snap], 7, stats)
        assert record.p == 0.0 and record.si == 0.0 and record.d_m == math.inf

    def test_records_come_back_sorted(self):
        stats = SessionStats()
        snaps = [PairSnapshot(i=i, j=j, n_i=1, m_i=1, v_i=1, d_m=2.0, s_s=100.0)
                 for i, j in (("b", "a"), ("a", "b"), ("a", "c"))]
        records = fuse_minute(snaps, 0, stats)
        assert [(r.i, r.j) for r in records] == [("a", "b"), ("a", "c"), ("b", "a")]
        assert all(r.minute == 0 for r in records)

    def test_scores_positive_when_close_and_strong(self):
        stats = SessionStats()
        snap = PairSnapshot(i="a", j="b", n_i=1, m_i=1, v_i=1, d_m=2.0, s_s=600.0)
        (record,) = fuse_minute([snap], 3, stats)
        assert record.p > 0.0 and record.si > 0.0
