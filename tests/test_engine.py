import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import append_in_blocks, by_key, make_traces, rows
from nearness.domain import MAX_SPAN_DAYS, MAX_SPAN_MS, MS_PER_DAY, DomainError
from nearness.engine import EngineConfig, build_report, run_engine, symmetry
from nearness.ingest import SightingSeries, TraceSet
from nearness.simulator import AgentSpec, ScenarioConfig, Waypoint, generate, load_scenario
from nearness.store import RecordLog
from rowwise_symmetry import symmetry_by_minute
from test_simulator import walking_crowd


def sightings_traces(times_s, rssi=-48.0, pair=("a", "b")):
    rows = []
    for t in times_s:
        rows.append((int(t * 1000), pair[0], pair[1], rssi))
        rows.append((int(t * 1000), pair[1], pair[0], rssi))
    return make_traces(rows)


class TestMinuteLoop:
    def test_empty_traces_give_empty_run(self):
        result = run_engine(make_traces(), duration_ms=0)
        assert len(result.records) == 0 and result.minutes == 0

    def test_pair_without_contact_gets_no_records(self):
        config = ScenarioConfig(
            agents=(AgentSpec("a", (Waypoint(0, 0.0, 0.0),)),
                    AgentSpec("b", (Waypoint(0, 100.0, 0.0),))),
            duration_ms=300_000)
        traces, _ = generate(config)
        result = run_engine(traces, EngineConfig(rf=config.rf),
                            duration_ms=config.duration_ms)
        assert len(result.records) == 0

    def test_records_start_at_first_contact_minute(self):
        traces = sightings_traces([150])  # first sighting in minute 2
        result = run_engine(traces, duration_ms=300_000)
        minutes = sorted(set(result.records.minute.tolist()))
        assert minutes == [2, 3, 4]

    def test_records_ordered_by_minute_then_pair(self):
        traces = sightings_traces([0, 60, 120])
        result = run_engine(traces, duration_ms=180_000)
        keys = [row[:3] for row in rows(result.records)]
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
        by_minute = {m: r for (m, i, _), r in by_key(result.records).items() if i == "a"}
        assert by_minute[0]["d_m"] < math.inf and by_minute[0]["p"] > 0
        assert by_minute[5]["d_m"] == math.inf
        assert by_minute[5]["p"] == 0.0 and by_minute[5]["si"] == 0.0
        # strength survives even while out of range
        assert by_minute[5]["s_s"] > 0.0

    def test_missing_accel_and_sound_default_quietly(self):
        traces = sightings_traces([0, 60])
        batch = run_engine(traces, duration_ms=120_000).records
        assert len(batch) >= 2
        assert batch.m_i[0] == 1 and batch.v_i[0] == 0

    def test_distance_is_per_direction(self):
        traces = make_traces([(0, "a", "b", -48.0), (0, "b", "a", -60.0)])
        result = run_engine(traces, duration_ms=60_000)
        by_dir = {(i, j): r for (_, i, j), r in by_key(result.records).items()}
        assert by_dir[("a", "b")]["d_m"] != by_dir[("b", "a")]["d_m"]

    def test_one_directional_observer_still_pairs(self):
        # only a ever sees b; b's own estimate stays out of range
        traces = make_traces([(0, "a", "b", -48.0), (60_000, "a", "b", -48.0)])
        result = run_engine(traces, duration_ms=120_000)
        by_dir = {(i, j): r for (m, i, j), r in by_key(result.records).items() if m == 1}
        assert by_dir[("a", "b")]["d_m"] < math.inf
        assert by_dir[("b", "a")]["d_m"] == math.inf and by_dir[("b", "a")]["p"] == 0.0
        assert by_dir[("a", "b")]["n_i"] == 1 and by_dir[("b", "a")]["n_i"] == 0

    def test_empty_series_acts_as_a_missing_direction(self):
        # b never sees a and c never sees b: series of no rows, one in a pair
        # that has contacts and one in a pair that has none
        traces = make_traces([(0, "a", "b", -48.0), (60_000, "a", "b", -48.0),
                              (90_000, "c", "a", -50.0)])
        empty = SightingSeries(np.empty(0, dtype=np.int64), np.empty(0))
        padded = TraceSet({**traces.sightings, ("b", "a"): empty, ("c", "b"): empty})
        want, got = (run_engine(t, duration_ms=180_000) for t in (traces, padded))
        assert rows(got.records) == rows(want.records)
        assert (got.minutes, got.nodes) == (want.minutes, want.nodes)
        assert got.directions == want.directions and got.contact_seconds == want.contact_seconds
        assert list(got.contact_seconds) == [("a", "b"), ("a", "c")]

    @pytest.mark.parametrize("t_ms", [MAX_SPAN_DAYS * MS_PER_DAY + 1, 2 ** 62])
    def test_span_past_the_limit_is_refused_before_sizing(self, t_ms):
        # the last millisecond past MAX_SPAN_DAYS once ran (a year of minute
        # arrays), or at 2**62 asked numpy for hundreds of TiB
        traces = make_traces([(t_ms, "a", "b", -48.0), (t_ms, "b", "a", -48.0)])
        with pytest.raises(DomainError, match=f"at most {MAX_SPAN_DAYS} days"):
            run_engine(traces)
        with pytest.raises(DomainError):
            run_engine(make_traces(), duration_ms=t_ms + 1)

    def test_sighting_at_the_limit_is_refused(self):
        # a last millisecond at MAX_SPAN_MS makes a run one millisecond longer
        # than the longest scenario; it once sized 527 041 minutes
        traces = make_traces([(MAX_SPAN_MS, "a", "b", -48.0)])
        with pytest.raises(DomainError, match=f"at most {MAX_SPAN_DAYS} days"):
            run_engine(traces)

    def test_span_at_the_limit_is_admitted(self):
        # the longest run a scenario may ask for, sized without running it
        limit_ms = MAX_SPAN_DAYS * MS_PER_DAY
        result = run_engine(make_traces(), duration_ms=limit_ms)
        assert result.minutes == limit_ms // 60_000 and len(result.records) == 0

    def test_node_degree_counts_neighbours(self):
        traces = make_traces([(0, "a", "b", -50.0), (100, "a", "c", -50.0),
                              (200, "b", "a", -50.0), (300, "c", "a", -50.0)])
        result = run_engine(traces, duration_ms=60_000)
        by_dir = {(i, j): r for (_, i, j), r in by_key(result.records).items()}
        assert by_dir[("a", "b")]["n_i"] == 2
        assert by_dir[("b", "a")]["n_i"] == 1


class TestLog:
    def test_log_holds_the_records_the_run_returns(self, scenarios_dir, tmp_path):
        config = load_scenario(scenarios_dir / "experiment3.scn")
        traces, _ = generate(config)
        path = tmp_path / "records.log"
        result = run_engine(traces, EngineConfig(rf=config.rf), duration_ms=config.duration_ms)
        with RecordLog.create(path) as log:
            append_in_blocks(log, result.records)
            assert rows(log.query()) == rows(result.records)
        assert len(result.records) > 0
        assert rows(RecordLog.open(path).query()) == rows(result.records)


class TestMemory:
    def test_scenario_run_holds_about_one_nodes_accel_series(self):
        # all 8 agents pair up, so the engine reads every node's series
        config = walking_crowd(8, 3_600_000, seed=2)
        series_bytes = 8 * 4 * (config.duration_ms // 50)    # t_ms, ax, ay, az
        run_engine(generate(walking_crowd(2, 60_000))[0])    # first-use imports and caches
        tracemalloc.start()
        try:
            traces, _ = generate(config)
            result = run_engine(traces, EngineConfig(rf=config.rf),
                                duration_ms=config.duration_ms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(result.records.i.tolist()) == set(traces.accel)
        assert peak < 2 * series_bytes

    def test_records_phase_holds_the_run_about_once(self, tmp_path):
        # 16 agents pair up in minute 0: 4800 records of 240 directions, and
        # only 20 minutes of accelerometer samples per node.  The run's
        # columns take 0.42 MB; the peak was 4.6 times that while the run
        # was also kept as minute batches and joined.  The finished run is
        # appended as `run` appends it, a block of rows at a time.
        config = walking_crowd(16, 1_200_000)
        traces, _ = generate(config)
        run_engine(generate(walking_crowd(2, 60_000))[0])    # first-use imports and caches
        with RecordLog.create(tmp_path / "records.log") as log:
            tracemalloc.start()
            try:
                result = run_engine(traces, EngineConfig(rf=config.rf),
                                    duration_ms=config.duration_ms)
                append_in_blocks(log, result.records)
                build_report(result, {}, seed=None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(result.records) == 240 * 20
        assert peak < 3.5 * sum(column.nbytes for column in result.records.columns())


class TestWindowRules:
    """Every per-minute window is [boundary - window, boundary)."""

    def test_sighting_at_the_boundary_counts_next_minute(self):
        result = run_engine(make_traces([(0, "a", "b", -50.0), (60_000, "a", "c", -50.0)]))
        records = by_key(result.records)
        assert records[(0, "a", "b")]["n_i"] == 1
        assert records[(1, "a", "b")]["n_i"] == 2

    def test_sighting_at_the_boundary_updates_distance_next_minute(self):
        # raw estimates 1 m at t = 0 and 10 m at t = 60 000 (default rf)
        traces = make_traces([(0, "a", "b", -40.0), (60_000, "a", "b", -67.0)])
        result = run_engine(traces, duration_ms=120_000)
        records = result.records
        assert records.d_m[records.i == "a"].tolist() == [1.0, 0.3 * 10.0 + 0.7 * 1.0]

    def test_last_minute_of_hour_reads_its_own_slot(self):
        # a and b meet every minute of hour 0: minute 59 reads slot 0
        traces = sightings_traces(range(0, 3600, 60))
        result = run_engine(traces, duration_ms=3_600_000)
        assert by_key(result.records)[(59, "a", "b")]["s_s"] == 3600.0

    def test_nine_accel_samples_read_stationary(self):
        # samples alternate 9.81 +/- 2 m/s^2 in the last 5 s of minute 0
        def moving(count):
            return [(60_000 - 50 * (k + 1), "a", 0.0, 0.0, 9.81 + 2.0 * (-1) ** k)
                    for k in range(count)]
        for count, code in ((9, 1), (10, 2)):
            traces = make_traces([(0, "a", "b", -48.0)], accel=moving(count))
            batch = run_engine(traces, duration_ms=60_000).records
            assert len(batch) == 2
            assert (batch.i[0], batch.m_i[0]) == ("a", code)

    def test_empty_sound_window_is_silent(self):
        # loud at 0 and at 120 000: outside [59 000, 60 000) and [119 000, 120 000)
        traces = make_traces([(0, "a", "b", -48.0)],
                             sound=[(0, "a", 1.0), (119_500, "a", 1.0), (120_000, "a", 1.0)])
        result = run_engine(traces, duration_ms=180_000)
        records = result.records
        assert records.v_i[records.i == "a"].tolist() == [0, 3, 0]


class TestReport:
    def test_report_shape_and_determinism(self):
        # the report is a function of the run alone: two runs of one trace
        # set report alike, with no field to set aside
        traces = sightings_traces([0, 60, 120, 180])
        report_a, report_b = (build_report(run_engine(traces, duration_ms=240_000),
                                           {"traces": "x"}, seed=None) for _ in range(2))
        assert report_a == report_b
        assert "runtime_s" not in report_a and "runtime_s" not in report_b
        pair = report_a["pairs"]["a,b"]
        assert pair["contact_seconds"] == 240.0
        assert pair["directions"]["a,b"]["p"]["records"] == 4
        assert set(pair["symmetry"]) == {"p", "si"}

    def test_constant_series_has_no_correlation(self):
        traces = sightings_traces([0])
        result = run_engine(traces, duration_ms=60_000)
        report = build_report(result, {}, seed=0)
        assert report["pairs"]["a,b"]["symmetry"]["p"] is None

    def test_rows_carry_their_direction_index(self):
        traces = make_traces([(0, "a", "b", -48.0), (0, "b", "c", -50.0),
                              (60_000, "c", "a", -52.0)])
        result = run_engine(traces, duration_ms=180_000)
        assert result.directions == [("a", "b"), ("a", "c"), ("b", "a"),
                                     ("b", "c"), ("c", "a"), ("c", "b")]
        batch = result.records
        assert [result.directions[k] for k in result.direction.tolist()] == \
            list(zip(batch.i.tolist(), batch.j.tolist()))


# one direction's rows: unique minutes in order, each value finite or inf
# (the values a log holds), from a small pool so that minutes, ties and
# constant runs recur
_VALUE = st.one_of(st.sampled_from([0.0, 1.0, 2.5, math.inf]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                   st.integers(0, 3))


@st.composite
def direction_rows(draw):
    minutes = sorted(draw(st.sets(st.integers(0, 12), max_size=10)))
    return [(m, draw(_VALUE)) for m in minutes]


class TestSymmetry:
    @settings(max_examples=400, deadline=None)
    @given(direction_rows(), direction_rows())
    def test_matches_the_per_minute_rule(self, forward, reverse):
        def columns(rows):
            minutes = np.array([m for m, _ in rows], dtype=np.int64)
            return minutes, np.array([v for _, v in rows], dtype=np.float64)

        got = symmetry(*columns(forward), *columns(reverse))
        assert repr(got) == repr(symmetry_by_minute(forward, reverse))

    def test_integer_columns_read_as_floats(self):
        # n_i, m_i and v_i reach the rule as int64 columns
        minutes = np.arange(6, dtype=np.int64)
        fwd, rev = np.array([1, 2, 2, 3, 1, 0]), np.array([0, 2, 3, 3, 1, 1])
        assert symmetry(minutes, fwd, minutes, rev) == \
            symmetry_by_minute(zip(minutes.tolist(), fwd.tolist()),
                               zip(minutes.tolist(), rev.tolist()))
