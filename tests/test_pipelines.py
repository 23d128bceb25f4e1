import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_traces
from nearness.domain import MS_PER_MINUTE
from nearness.engine import run_engine
from nearness.pipelines import (
    MIN_MOTION_SAMPLES,
    ContactEvent,
    DistanceState,
    SocialStrengthState,
    SoundThresholds,
    contacts_from_times,
    ema_update,
    estimate_distance_raw,
    motion_codes,
    node_degrees,
    smoothed_distances,
    sound_classes,
    sound_level_db,
)
from nearness.simulator import RfParams, rssi_from_distance

PAIR = ("a", "b")


def times_ms(*seconds):
    return np.array([int(s * 1000) for s in seconds], dtype=np.int64)


def boundaries(*values):
    return np.array(values, dtype=np.int64)


class TestDetectContacts:
    def test_merges_within_gap(self):
        (contact,) = contacts_from_times(times_ms(0, 60, 120), PAIR, 120_000, 60)
        assert contact.pair == PAIR
        assert contact.start_ms == 0 and contact.end_ms == 120_000
        assert contact.duration_s == 180.0

    def test_splits_beyond_gap(self):
        contacts = contacts_from_times(times_ms(0, 400), PAIR, 120_000, 60)
        assert [(c.start_ms, c.end_ms) for c in contacts] == [(0, 0), (400_000, 400_000)]
        assert [c.duration_s for c in contacts] == [60.0, 60.0]

    def test_empty_input(self):
        assert contacts_from_times(times_ms(), PAIR, 120_000, 60) == []

    def test_both_directions_form_one_pair(self):
        traces = make_traces([(0, "a", "b", -50.0), (30_000, "b", "a", -50.0)])
        result = run_engine(traces, duration_ms=60_000)
        (contact,) = result.contacts[PAIR]
        assert contact.pair == PAIR and contact.duration_s == 90.0

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 7), min_size=1, max_size=40))
    def test_contacts_disjoint_and_ordered(self, times):
        times = sorted(times)
        contacts = contacts_from_times(np.array(times, dtype=np.int64), PAIR, 90_000, 30)
        assert contacts
        for first, second in zip(contacts, contacts[1:]):
            assert first.end_ms < second.start_ms
            assert second.start_ms - first.end_ms > 90_000
        covered = {t for c in contacts for t in times if c.start_ms <= t <= c.end_ms}
        assert covered == set(times)

    def test_duration_invariant_under_stream_split(self):
        # splitting at a point farther than gap_ms from both neighbours
        # must not change the summed contact duration
        seconds = [0, 60, 120, 700, 760, 1500]
        full = contacts_from_times(times_ms(*seconds), PAIR, 120_000, 60)
        head = contacts_from_times(times_ms(*seconds[:3]), PAIR, 120_000, 60)
        tail = contacts_from_times(times_ms(*seconds[3:]), PAIR, 120_000, 60)
        total = sum(c.duration_s for c in full)
        assert total == sum(c.duration_s for c in head) + sum(c.duration_s for c in tail)
        assert len(full) == len(head) + len(tail) == 3


def strength_at(state, contacts, boundary_ms):
    """Strength as the engine reads it for the minute ending at `boundary_ms`:
    coverage accrued up to the boundary, hour slot of the minute's start,
    averaged over the days elapsed."""
    minute = boundary_ms // MS_PER_MINUTE - 1
    state.accrue(contacts, boundary_ms)
    return state.strength((minute // 60) % 24, minute // 1440 + 1)


class TestSocialStrength:
    def test_single_day_single_slot(self):
        # 600 s of contact inside hour slot 10 of day 0
        state = SocialStrengthState(PAIR)
        contact = ContactEvent(PAIR, 36_000_000, 36_540_000, 600.0)
        assert strength_at(state, [contact], 39_000_000) == pytest.approx(600.0)

    def test_cross_day_average(self):
        # 600 s in slot 10 on day 0, 1200 s in slot 10 on day 1 -> (600+1200)/2
        state = SocialStrengthState(PAIR)
        contacts = [
            ContactEvent(PAIR, 36_000_000, 36_540_000, 600.0),
            ContactEvent(PAIR, 122_400_000, 123_540_000, 1200.0),
        ]
        assert strength_at(state, contacts, 123_800_000) == pytest.approx(900.0)

    def test_never_in_contact(self):
        state = SocialStrengthState(PAIR)
        assert strength_at(state, [], 50_000_000) == 0.0

    def test_other_slot_reads_zero(self):
        state = SocialStrengthState(PAIR)
        contact = ContactEvent(PAIR, 36_000_000, 36_540_000, 600.0)
        # queried in slot 12, where the pair has never met
        assert strength_at(state, [contact], 45_000_000) == 0.0

    def test_non_decreasing_within_slot(self):
        state = SocialStrengthState(PAIR)
        contact = ContactEvent(PAIR, 36_000_000, 38_000_000, 2060.0)
        previous = -1.0
        for now in range(36_060_000, 39_600_001, 60_000):
            s = strength_at(state, [contact], now)
            assert s >= previous
            previous = s

    def test_last_minute_of_hour_reads_its_own_slot(self):
        # minute 59 ends at the slot 0 / slot 1 edge; it reads slot 0
        state = SocialStrengthState(PAIR)
        contact = ContactEvent(PAIR, 0, 3_540_000, 3600.0)
        assert strength_at(state, [contact], 3_600_000) == 3600.0

    def test_coverage_splits_across_slot_boundary(self):
        # one hour of contact straddling the slot 9 / slot 10 edge
        state = SocialStrengthState(PAIR)
        contact = ContactEvent(PAIR, 34_200_000, 37_740_000, 3600.0)
        state.accrue([contact], upto_ms=86_400_000)
        assert state.seconds[(0, 9)] == pytest.approx(1800.0)
        assert state.seconds[(0, 10)] == pytest.approx(1800.0)

    def test_slot_bucket_never_exceeds_hour(self):
        state = SocialStrengthState(PAIR)
        contact = ContactEvent(PAIR, 0, 86_000_000, 86_060.0)
        state.accrue([contact], upto_ms=90_000_000)
        assert all(v <= 3600.0 for v in state.seconds.values())


class TestDistanceEstimate:
    def test_reference_distance(self):
        assert estimate_distance_raw(-40.0, -40.0, 2.7) == pytest.approx(1.0, rel=1e-12)

    def test_one_decade(self):
        assert estimate_distance_raw(-67.0, -40.0, 2.7) == pytest.approx(10.0, rel=1e-12)

    def test_two_decades(self):
        assert estimate_distance_raw(-94.0, -40.0, 2.7) == pytest.approx(100.0, rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=1000.0))
    def test_inverts_noiseless_path_loss(self, d):
        rf = RfParams()
        rssi = rssi_from_distance(d, rf)
        if rssi in (0.0, -120.0):
            return  # clamped: not invertible by construction
        back = estimate_distance_raw(rssi, rf.p_ref_dbm, rf.pathloss_exp)
        assert abs(back - d) / d <= 1e-9


class TestEmaUpdate:
    def test_blend(self):
        state = DistanceState(alpha=0.3, ema_m=10.0)
        assert ema_update(state, 20.0) == pytest.approx(13.0, rel=1e-12)

    def test_alpha_one_is_identity(self):
        state = DistanceState(alpha=1.0, ema_m=10.0)
        assert ema_update(state, 42.0) == 42.0

    def test_first_observation_seeds(self):
        state = DistanceState(alpha=0.3)
        assert ema_update(state, 7.5) == 7.5

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=100.0),
           st.integers(min_value=1, max_value=40))
    def test_geometric_convergence(self, alpha, x0, c, k):
        state = DistanceState(alpha=alpha, ema_m=x0)
        for _ in range(k):
            ema_update(state, c)
        expected = (1 - alpha) ** k * abs(x0 - c)
        assert abs(state.ema_m - c) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_staleness_reads_out_of_range(self):
        values = smoothed_distances(times_ms(0), np.array([5.0]),
                                    boundaries(300_000, 300_001), 300_000)
        assert values.tolist() == [5.0, math.inf]

    def test_never_updated_reads_out_of_range(self):
        values = smoothed_distances(times_ms(), np.array([]), boundaries(0, 60_000), 300_000)
        assert values.tolist() == [math.inf, math.inf]

    def test_reads_the_last_estimate_before_the_boundary(self):
        # a sighting stamped at the boundary counts from the next minute on
        values = smoothed_distances(times_ms(0, 60, 90), np.array([1.0, 2.0, 3.0]),
                                    boundaries(60_000, 120_000, 180_000), 300_000)
        assert values.tolist() == [1.0, 3.0, 3.0]


def accel_columns(values):
    """(t_ms, ax, ay, az) of samples taken every 50 ms from t = 0."""
    ax, ay, az = np.array(values, dtype=np.float64).reshape(-1, 3).T
    return 50 * np.arange(len(values), dtype=np.int64), ax, ay, az


def motion_of(values, threshold_ms2=0.5):
    """Motion code of one window holding every sample of `values`."""
    t, ax, ay, az = accel_columns(values)
    span = 50 * len(values)
    (code,) = motion_codes(t, ax, ay, az, boundaries(span), span, threshold_ms2)
    return code


def alternating(n):
    # az flips 9.81 +/- 2 every sample: magnitude std is 2 > 0.5
    return [(0.0, 0.0, 9.81 + (2.0 if k % 2 == 0 else -2.0)) for k in range(n)]


class TestClassifyMotion:
    def test_constant_gravity_is_stationary(self):
        assert motion_of([(0.0, 0.0, 9.81)] * 100) == 1

    def test_alternating_axis_is_moving(self):
        assert motion_of(alternating(100), threshold_ms2=0.5) == 2

    def test_small_noise_stays_stationary(self):
        rng = np.random.default_rng(5)
        values = [(0.0, 0.0, 9.81 + rng.normal(0, 0.1)) for _ in range(100)]
        assert motion_of(values, threshold_ms2=0.5) == 1

    def test_short_window_reads_stationary(self):
        assert motion_of(alternating(MIN_MOTION_SAMPLES - 1)) == 1
        assert motion_of(alternating(MIN_MOTION_SAMPLES)) == 2

    def test_no_samples_reads_stationary(self):
        assert motion_codes(*accel_columns([]), boundaries(5_000, 10_000), 5_000).tolist() \
            == [1, 1]

    def test_pure_function_of_window(self):
        values = [(0.1 * k, 0.0, 9.81) for k in range(50)]
        assert motion_of(values) == motion_of(values)

    def test_windows_are_half_open(self):
        # ten moving samples at t = 0, 50, ..., 450; the one stamped at the
        # boundary 450 is left out, so that window holds nine
        t, ax, ay, az = accel_columns(alternating(10))
        codes = motion_codes(t, ax, ay, az, boundaries(450, 500, 950), 500)
        assert codes.tolist() == [1, 2, 1]


def sound_class_of(*amplitudes, thresholds=SoundThresholds()):
    """Sound class of one window holding all `amplitudes`."""
    t = 100 * np.arange(len(amplitudes), dtype=np.int64)
    span = 100 * len(amplitudes)
    (v,) = sound_classes(t, np.array(amplitudes, dtype=np.float64), boundaries(span),
                         span, thresholds)
    return v


class TestClassifySound:
    def test_floor_clamp(self):
        assert sound_level_db(1e-5) == pytest.approx(-100.0, rel=1e-9)
        assert sound_class_of(1e-5) == 0

    def test_alert_band(self):
        assert sound_level_db(0.1) == pytest.approx(-20.0, rel=1e-9)
        assert sound_class_of(0.1) == 2

    def test_top_band(self):
        assert sound_level_db(1.0) == 0.0 and sound_class_of(1.0) == 3

    def test_normal_band(self):
        assert -60.0 <= sound_level_db(0.02) < -30.0 and sound_class_of(0.02) == 1

    def test_peak_of_window_decides(self):
        assert sound_class_of(1e-5, 0.1, 1e-5) == 2

    def test_empty_window_is_silent(self):
        assert sound_class_of() == 0
        # samples at 0 and 5 000; a window is [b - 1000, b)
        classes = sound_classes(times_ms(0, 5), np.array([1.0, 1.0]),
                                boundaries(1_000, 3_000, 5_000, 6_000, 7_000), 1_000)
        assert classes.tolist() == [3, 0, 0, 3, 0]

    def test_zero_amplitude_is_quiet(self):
        assert sound_class_of(0.0) == 0

    def test_custom_thresholds_shift_the_ladder(self):
        lenient = SoundThresholds(quiet_db=-90.0, normal_db=-15.0, alert_db=-5.0)
        assert sound_class_of(0.1, thresholds=lenient) == 1

    def test_window_reaching_the_last_sample(self):
        # the last window ends after the last sample (hi == len)
        classes = sound_classes(times_ms(0, 1, 2), np.array([0.02, 0.1, 1.0]),
                                boundaries(1_000, 2_000, 3_000), 1_000)
        assert classes.tolist() == [1, 2, 3]


class TestNodeDegree:
    def test_counts_distinct_subjects(self):
        streams = [times_ms(1)] * 3      # b, c and d, each seen once
        assert node_degrees(streams, boundaries(2_000), 120_000).tolist() == [3]

    def test_repeat_sightings_count_once(self):
        assert node_degrees([times_ms(0, 1, 2, 3, 4)], boundaries(5_000),
                            120_000).tolist() == [1]

    def test_empty_window(self):
        assert node_degrees([times_ms(1)], boundaries(500_000), 120_000).tolist() == [0]

    def test_only_own_observations_count(self):
        # only b saw a: a's degree counts a's own sightings, of which there are none
        result = run_engine(make_traces([(1000, "b", "a", -50.0)]), duration_ms=60_000)
        by_owner = {r.i: r.n_i for r in result.records}
        assert by_owner == {"a": 0, "b": 1}

    def test_no_streams(self):
        assert node_degrees([], boundaries(60_000, 120_000), 120_000).tolist() == [0, 0]

    def test_sighting_at_the_boundary_counts_next_minute(self):
        # a saw b at 0 and c at 60 000: minute 0 (boundary 60 000) sees only b
        streams = [times_ms(0), times_ms(60)]
        assert node_degrees(streams, boundaries(60_000, 120_000, 180_000),
                            120_000).tolist() == [1, 2, 1]
