import math

import numpy as np

from conftest import make_traces
from nearness.engine import EngineConfig, build_report, run_engine
from nearness.simulator import AgentSpec, RfParams, ScenarioConfig, Waypoint, generate


def sightings_traces(times_s, rssi=-48.0, pair=("a", "b")):
    rows = []
    for t in times_s:
        rows.append((int(t * 1000), pair[0], pair[1], rssi))
        rows.append((int(t * 1000), pair[1], pair[0], rssi))
    return make_traces(rows)


class TestMinuteLoop:
    def test_empty_traces_give_empty_run(self):
        result = run_engine(make_traces(), duration_ms=0)
        assert result.records == [] and result.minutes == 0

    def test_pair_without_contact_gets_no_records(self):
        config = ScenarioConfig(
            agents=(AgentSpec("a", (Waypoint(0, 0.0, 0.0),)),
                    AgentSpec("b", (Waypoint(0, 100.0, 0.0),))),
            duration_ms=300_000)
        traces, _ = generate(config)
        result = run_engine(traces, EngineConfig(rf=config.rf),
                            duration_ms=config.duration_ms)
        assert result.records == []

    def test_records_start_at_first_contact_minute(self):
        traces = sightings_traces([150])  # first sighting in minute 2
        result = run_engine(traces, duration_ms=300_000)
        minutes = sorted({r.minute for r in result.records})
        assert minutes == [2, 3, 4]

    def test_records_ordered_by_minute_then_pair(self):
        traces = sightings_traces([0, 60, 120])
        result = run_engine(traces, duration_ms=180_000)
        keys = [r.key() for r in result.records]
        assert keys == sorted(keys)
        assert keys[0] == (0, "a", "b") and keys[1] == (0, "b", "a")

    def test_duration_inferred_from_traces(self):
        traces = sightings_traces([0, 60, 125])
        result = run_engine(traces)
        assert result.minutes == 3

    def test_stale_distance_zeroes_scores(self):
        # contact in minute 0, then silence: estimate goes stale after 5 min
        traces = sightings_traces([0])
        result = run_engine(traces, duration_ms=900_000)
        by_minute = {r.minute: r for r in result.records if r.i == "a"}
        assert by_minute[0].d_m < math.inf and by_minute[0].p > 0
        assert by_minute[5].d_m == math.inf
        assert by_minute[5].p == 0.0 and by_minute[5].si == 0.0
        # strength survives even while out of range
        assert by_minute[5].s_s > 0.0

    def test_missing_accel_and_sound_default_quietly(self):
        traces = sightings_traces([0, 60])
        (record, _) = run_engine(traces, duration_ms=120_000).records[:2]
        assert record.m_i == 1 and record.v_i == 0

    def test_distance_is_per_direction(self):
        traces = make_traces([(0, "a", "b", -48.0), (0, "b", "a", -60.0)])
        result = run_engine(traces, duration_ms=60_000)
        by_dir = {(r.i, r.j): r for r in result.records}
        assert by_dir[("a", "b")].d_m != by_dir[("b", "a")].d_m

    def test_one_directional_observer_still_pairs(self):
        # only a ever sees b; b's own estimate stays out of range
        traces = make_traces([(0, "a", "b", -48.0), (60_000, "a", "b", -48.0)])
        result = run_engine(traces, duration_ms=120_000)
        by_dir = {(r.i, r.j): r for r in result.records if r.minute == 1}
        assert by_dir[("a", "b")].d_m < math.inf
        assert by_dir[("b", "a")].d_m == math.inf and by_dir[("b", "a")].p == 0.0
        assert by_dir[("a", "b")].n_i == 1 and by_dir[("b", "a")].n_i == 0

    def test_node_degree_counts_neighbours(self):
        traces = make_traces([(0, "a", "b", -50.0), (100, "a", "c", -50.0),
                              (200, "b", "a", -50.0), (300, "c", "a", -50.0)])
        result = run_engine(traces, duration_ms=60_000)
        by_dir = {(r.i, r.j): r for r in result.records}
        assert by_dir[("a", "b")].n_i == 2
        assert by_dir[("b", "a")].n_i == 1


class TestWindowRules:
    """Every per-minute window is [boundary - window, boundary)."""

    def test_sighting_at_the_boundary_counts_next_minute(self):
        result = run_engine(make_traces([(0, "a", "b", -50.0), (60_000, "a", "c", -50.0)]))
        by_key = {r.key(): r for r in result.records}
        assert by_key[(0, "a", "b")].n_i == 1
        assert by_key[(1, "a", "b")].n_i == 2

    def test_sighting_at_the_boundary_updates_distance_next_minute(self):
        # raw estimates 1 m at t = 0 and 10 m at t = 60 000 (default rf)
        traces = make_traces([(0, "a", "b", -40.0), (60_000, "a", "b", -67.0)])
        result = run_engine(traces, duration_ms=120_000)
        assert [r.d_m for r in result.records if r.i == "a"] == [1.0, 0.3 * 10.0 + 0.7 * 1.0]

    def test_last_minute_of_hour_reads_its_own_slot(self):
        # a and b meet every minute of hour 0: minute 59 reads slot 0
        traces = sightings_traces(range(0, 3600, 60))
        result = run_engine(traces, duration_ms=3_600_000)
        by_key = {r.key(): r for r in result.records}
        assert by_key[(59, "a", "b")].s_s == 3600.0

    def test_nine_accel_samples_read_stationary(self):
        # samples alternate 9.81 +/- 2 m/s^2 in the last 5 s of minute 0
        def moving(count):
            return [(60_000 - 50 * (k + 1), "a", 0.0, 0.0, 9.81 + 2.0 * (-1) ** k)
                    for k in range(count)]
        for count, code in ((9, 1), (10, 2)):
            traces = make_traces([(0, "a", "b", -48.0)], accel=moving(count))
            (record, _) = run_engine(traces, duration_ms=60_000).records
            assert (record.i, record.m_i) == ("a", code)

    def test_empty_sound_window_is_silent(self):
        # loud at 0 and at 120 000: outside [59 000, 60 000) and [119 000, 120 000)
        traces = make_traces([(0, "a", "b", -48.0)],
                             sound=[(0, "a", 1.0), (119_500, "a", 1.0), (120_000, "a", 1.0)])
        result = run_engine(traces, duration_ms=180_000)
        assert [r.v_i for r in result.records if r.i == "a"] == [0, 3, 0]


class TestReport:
    def test_report_shape_and_determinism(self):
        traces = sightings_traces([0, 60, 120, 180])
        result = run_engine(traces, duration_ms=240_000)
        report_a = build_report(result, {"traces": "x"}, seed=None)
        report_b = build_report(result, {"traces": "x"}, seed=None)
        report_a.pop("runtime_s"); report_b.pop("runtime_s")
        assert report_a == report_b
        pair = report_a["pairs"]["a,b"]
        assert pair["contact_seconds"] == 240.0
        assert pair["directions"]["a,b"]["p"]["records"] == 4
        assert set(pair["symmetry"]) == {"p", "si"}

    def test_constant_series_has_no_correlation(self):
        traces = sightings_traces([0])
        result = run_engine(traces, duration_ms=60_000)
        report = build_report(result, {}, seed=0)
        assert report["pairs"]["a,b"]["symmetry"]["p"] is None
