import math
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearness import ingest
from conftest import make_traces
from nearness.domain import RECORD_FIELDS
from nearness.ingest import (
    AccelSeries,
    DrawnAccel,
    ParseError,
    SightingSeries,
    SoundSeries,
    TraceSet,
    format_record_row,
    parse_record_row,
    read_traces,
    traces_equal,
    write_minute_records,
    write_traces,
)
from nearness.simulator import generate
from rowwise_traces import read_traces_rowwise
from test_simulator import two_agent_config


def write_then_read(traces, tmp_path, epoch_ms=0):
    paths = write_traces(traces, tmp_path / "traces")
    return read_traces(*paths, epoch_ms=epoch_ms)


TRACES = make_traces(
    sightings=[(0, "a", "b", -48.12780988292749),
               (60_000, "b", "a", -67.0),
               (60_000, "a", "b", -120.0)],
    accel=[(0, "a", 0.1, -0.2, 9.81),
           (50, "a", math.nextafter(0.1, 1.0), 1e-300, 9.809999999999999)],
    sound=[(0, "a", 0.0), (1_000, "a", 1.0), (2_000, "a", 0.1234567890123456789)])


class TestRoundtrip:
    def test_empty_traceset_writes_header_only_files(self, tmp_path):
        paths = write_traces(make_traces(), tmp_path)
        contents = [Path(p).read_text() for p in paths]
        assert contents == ["t_ms,observer,subject,rssi_dbm\n",
                            "t_ms,node,ax,ay,az\n",
                            "t_ms,node,amplitude\n"]

    def test_header_only_files_read_as_empty(self, tmp_path):
        paths = write_traces(make_traces(), tmp_path)
        traces = read_traces(*paths)
        assert traces.counts() == (0, 0, 0)

    def test_awkward_floats_roundtrip_exactly(self, tmp_path):
        assert traces_equal(TRACES, write_then_read(TRACES, tmp_path))

    def test_double_roundtrip_is_byte_stable(self, tmp_path):
        first = write_traces(TRACES, tmp_path / "one")
        second = write_traces(read_traces(*first), tmp_path / "two")
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_simulated_traces_roundtrip(self, tmp_path_factory, seed):
        import dataclasses
        config = dataclasses.replace(
            two_agent_config(duration_ms=120_000, shadowing_sigma_db=3.0), seed=seed)
        traces, _ = generate(config)
        out = tmp_path_factory.mktemp("rt")
        assert traces_equal(traces, write_then_read(traces, out))

    def test_max_t_ms_looks_past_the_last_row(self):
        traces = TraceSet({("a", "b"): SightingSeries(np.array([90_000]), np.array([-50.0])),
                           ("a", "c"): SightingSeries(np.array([30_000]), np.array([-50.0]))},
                          accel={"a": AccelSeries(np.array([5, 1]), np.zeros(2),
                                                  np.zeros(2), np.zeros(2))},
                          sound={"a": SoundSeries(np.array([120_000, 7]), np.zeros(2))})
        assert traces.max_t_ms() == 120_000
        assert make_traces().max_t_ms() == -1

    def test_rows_come_back_in_canonical_order(self, tmp_path):
        paths = trace_files(
            tmp_path,
            sightings="600,a,b,-50.0\n0,a,c,-51.0\n300,b,a,-52.0\n0,B,a,-53.0\n",
            accel="50,b,0,0,3\n0,a,0,0,2\n100,b,0,0,1\n",
            sound="9,b,0.5\n1,a,0.25\n")
        traces = read_traces(*paths)
        assert {key: s.t_ms.tolist() for key, s in traces.sightings.items()} == {
            ("B", "a"): [0], ("a", "c"): [0], ("b", "a"): [300], ("a", "b"): [600]}
        assert list(traces.sightings) == [("B", "a"), ("a", "b"), ("a", "c"), ("b", "a")]
        assert list(traces.accel) == ["a", "b"]
        assert traces.accel["b"].t_ms.tolist() == [50, 100]
        assert traces.accel["b"].az.tolist() == [3.0, 1.0]
        assert list(traces.sound) == ["a", "b"]

    def test_single_row_maps_to_sighting(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "t_ms,observer,subject,rssi_dbm\n60000,bravo2,delta5,-67.0\n")
        (tmp_path / "a.csv").write_text("t_ms,node,ax,ay,az\n")
        (tmp_path / "d.csv").write_text("t_ms,node,amplitude\n")
        traces = read_traces(tmp_path / "s.csv", tmp_path / "a.csv", tmp_path / "d.csv")
        expected = make_traces([(60_000, "bravo2", "delta5", -67.0)])
        assert traces_equal(traces, expected)


def trace_files(tmp_path, sightings="", accel="", sound=""):
    s = tmp_path / "s.csv"
    a = tmp_path / "a.csv"
    d = tmp_path / "d.csv"
    s.write_text("t_ms,observer,subject,rssi_dbm\n" + sightings)
    a.write_text("t_ms,node,ax,ay,az\n" + accel)
    d.write_text("t_ms,node,amplitude\n" + sound)
    return s, a, d


class TestParseErrors:
    def test_bad_rssi_names_line_and_column(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0,a,b,abc\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.line == 2 and err.value.column == 4

    def test_malformed_header(self, tmp_path):
        paths = trace_files(tmp_path)
        paths[0].write_text("time,observer,subject,rssi\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.line == 1

    @pytest.mark.parametrize("k, header", [
        (0, "t_ms,observer,subject,rssi_dbm"), (1, "t_ms,node,ax,ay,az"),
        (2, "t_ms,node,amplitude")])
    def test_zero_byte_file_fails_at_its_header(self, tmp_path, k, header):
        paths = trace_files(tmp_path)
        paths[k].write_bytes(b"")
        for reader in (read_traces, read_traces_rowwise):
            with pytest.raises(ParseError) as err:
                reader(*paths)
            assert str(err.value) == f"{paths[k]}:1:1: malformed header: expected {header}"

    def test_rssi_out_of_range(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0,a,b,7.5\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.line == 2 and err.value.column == 4

    def test_self_sighting(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0,a,a,-40.0\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.column == 3

    def test_non_monotone_stream(self, tmp_path):
        paths = trace_files(tmp_path, accel="1000,a,0,0,9.81\n500,a,0,0,9.81\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.line == 3

    def test_interleaved_streams_stay_independent(self, tmp_path):
        paths = trace_files(
            tmp_path, accel="1000,a,0,0,9.81\n500,b,0,0,9.81\n1500,a,0,0,9.81\n")
        traces = read_traces(*paths)
        assert len(traces.accel["a"]) == 2 and len(traces.accel["b"]) == 1

    def test_amplitude_out_of_range(self, tmp_path):
        paths = trace_files(tmp_path, sound="0,a,1.01\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.line == 2 and err.value.column == 3

    def test_wrong_field_count(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0,a,b\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.line == 2

    def test_bad_timestamp(self, tmp_path):
        paths = trace_files(tmp_path, sound="12.5,a,0.1\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.column == 1

    def test_non_finite_value_rejected(self, tmp_path):
        paths = trace_files(tmp_path, accel="0,a,nan,0,9.81\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert err.value.column == 3

    def test_timestamp_beyond_int64_rejected(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0,a,b,-40.0\n" + "9" * 20 + ",a,b,-40.0\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (3, 1)
        assert "64-bit" in str(err.value)



class TestUndecodableBytes:
    """Bytes that are not UTF-8 fail like any other bad field, in file order."""

    @pytest.fixture(params=[None, 8], ids=["default-chunks", "tiny-chunks"])
    def chunk(self, request):
        if request.param is None:
            yield
        else:
            with mock.patch.object(ingest, "_READ_CHUNK", request.param):
                yield

    @pytest.mark.parametrize("rows, line, column, message", [
        (b"0,a,b,-40.0\n60000,a\xff,b,-40.0\n", 3, 2, "invalid UTF-8"),
        (b"0,a,b,-40.0\xff\n", 2, 4, "invalid UTF-8"),
        (b"0\xff,a,b,-40.0\n", 2, 1, "invalid UTF-8"),
        (b"0,a,b,7.5\n60000,a\xff,b,-40.0\n", 2, 4, "rssi 7.5 outside"),
        (b'0,a,b,-40.0\n60000,"\xffb",a,-40.0\n', 3, 2, "invalid UTF-8"),
        (b"0,a\xff,b,-40.0\n60000,a,b\n", 2, 2, "invalid UTF-8"),
        (b"0,a,b\n60000,a\xff,b,-40.0\n", 2, 1, "expected 4 fields, got 3"),
    ], ids=["node-id", "number", "timestamp", "earlier-row-first", "quoted",
            "bad-byte-before-field-count", "field-count-before-bad-byte"])
    def test_names_line_and_column(self, tmp_path, chunk, rows, line, column, message):
        paths = trace_files(tmp_path)
        paths[0].write_bytes(b"t_ms,observer,subject,rssi_dbm\n" + rows)
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (line, column)
        assert message in str(err.value)

    def test_accel_node_id(self, tmp_path, chunk):
        paths = trace_files(tmp_path)
        paths[1].write_bytes(b"t_ms,node,ax,ay,az\n0,a,0,0,9.81\n50,\xc3,0,0,9.81\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (3, 2)

    # each layout's file, a good row, and a field that fails each column's
    # conversion (an empty node id is invalid)
    LAYOUTS = [(0, [b"0", b"a", b"b", b"-40.0"], [b"x", b"", b"", b"x"]),
               (1, [b"0", b"a", b"0.0", b"0.0", b"9.81"], [b"x", b"", b"x", b"x", b"x"]),
               (2, [b"0", b"a", b"0.5"], [b"x", b"", b"x"])]

    @pytest.mark.parametrize("file, good, bad, column", [
        (file, good, bad, column) for file, good, bad in LAYOUTS for column in range(len(good))])
    def test_every_column_names_its_own_bad_byte(self, tmp_path, chunk, file, good, bad,
                                                 column):
        paths = trace_files(tmp_path)
        header = paths[file].read_bytes()

        def error(row):     # of reading the good row, then `row`
            paths[file].write_bytes(header + b",".join(good) + b"\n" + b",".join(row) + b"\n")
            with pytest.raises(ParseError) as err:
                read_traces(*paths)
            return (err.value.line, err.value.column), str(err.value)

        row = list(good)
        row[column] += b"\xff"
        where, message = error(row)
        assert where == (3, column + 1) and "invalid UTF-8" in message
        if column:      # a bad field in an earlier column still wins
            row[column - 1] = bad[column - 1]
            where, message = error(row)
            assert where == (3, column) and "invalid UTF-8" not in message

    @pytest.mark.parametrize("column, text", [(0, "1\udc80"), (1, "a\udcff"), (8, "1.0\udcff")],
                             ids=["minute", "node-id", "real"])
    def test_record_field_holding_an_escaped_byte(self, column, text):
        # a byte that was not UTF-8, as a `surrogateescape` decode leaves it
        row = format_record_row(*ROWS[0]).split(",")
        row[column] = text
        with pytest.raises(ingest.RowError) as err:
            parse_record_row(",".join(row))
        assert err.value.column == column
        assert str(err.value) == f"invalid UTF-8 in {text!r}"


class TestDialect:
    """Only LF ends a line; a field is the text between two commas, verbatim."""

    def test_long_node_id_is_a_field_error(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0," + "x" * 200_000 + ",b,-40.0\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (2, 2)
        assert "node id longer than 64 chars" in str(err.value)

    def test_crlf_file_is_a_malformed_header(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0,a,b,-40.0\n")
        paths[0].write_bytes(paths[0].read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (1, 1)
        assert "malformed header" in str(err.value)

    @pytest.mark.parametrize("row, column", [
        ("0,a\rb,c,-40.0", 2), ("0,a,\rc,-40.0", 3)])
    def test_cr_in_node_id_names_its_column(self, tmp_path, row, column):
        paths = trace_files(tmp_path, sightings="0,a,b,-40.0\n" + row + "\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (3, column)
        assert "line break" in str(err.value)

    @pytest.mark.parametrize("chunk", [3, 1 << 17])
    def test_last_line_needs_no_lf(self, tmp_path, chunk):
        paths = trace_files(tmp_path, sightings="0,a,b,-40.0\n60000,a,zé,-41.5",
                            sound="0,a,0.5\n5,a,1.5")
        with mock.patch.object(ingest, "_READ_CHUNK", chunk), pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (3, 3)
        assert "amplitude 1.5 outside" in str(err.value)
        paths[2].write_text("t_ms,node,amplitude\n0,a,0.5")
        with mock.patch.object(ingest, "_READ_CHUNK", chunk):
            traces = read_traces(*paths)
        assert {key: s.rssi_dbm.tolist() for key, s in traces.sightings.items()} == {
            ("a", "b"): [-40.0], ("a", "zé"): [-41.5]}
        assert traces.sound["a"].amplitude.tolist() == [0.5]

    def test_nul_is_data(self, tmp_path):
        paths = trace_files(tmp_path, sightings="0,a\0,b,-40.0\n")
        assert list(read_traces(*paths).sightings) == [("a\0", "b")]
        paths = trace_files(tmp_path, sightings="0,a,b,-40.0\0\n")
        with pytest.raises(ParseError) as err:
            read_traces(*paths)
        assert (err.value.line, err.value.column) == (2, 4)
        assert "invalid number" in str(err.value)


class TestEpochMapping:
    def test_wall_clock_shift(self, tmp_path):
        epoch = 1_700_000_000_000
        paths = trace_files(
            tmp_path,
            sightings=f"{epoch},a,b,-40.0\n{epoch + 60_000},a,b,-41.0\n",
            sound=f"{epoch},a,0.5\n")
        traces = read_traces(*paths, epoch_ms=epoch)
        assert traces.sightings[("a", "b")].t_ms.tolist() == [0, 60_000]
        assert traces.sound["a"].t_ms.tolist() == [0]

    def test_timestamp_before_epoch_rejected(self, tmp_path):
        paths = trace_files(tmp_path, sound="500,a,0.5\n")
        with pytest.raises(ParseError):
            read_traces(*paths, epoch_ms=1_000)


ROWS = [    # the eleven field values of each record
    (0, "a", "b", 1, 1, 1, 2.5, 60.0, 17.142857142857142, 0.7590209165607603, "Low"),
    (0, "b", "a", 2, 2, 0, 2.5, 60.0, 8.571428571428571, 0.2, "Low"),
    (1, "a", "b", 1, 1, 1, math.inf, 120.0, 0.0, 0.0, "Avg"),
    (5, "a", "b", 0, 1, 3, 0.0, 1.0, 1.0, 0.0, "High"),
]


class TestMinuteRecordCodec:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "records.csv"
        write_minute_records(ROWS, path)
        header, *rows = path.read_text().splitlines()
        assert header == "minute,i,j,n_i,m_i,v_i,d_m,s_s,p,si,nearness"
        assert rows == [format_record_row(*row) for row in ROWS]
        parsed = [parse_record_row(row) for row in rows]
        assert [list(values) for values in parsed] == [list(RECORD_FIELDS)] * len(ROWS)
        assert [tuple(values.values()) for values in parsed] == ROWS

    def test_out_of_range_serializes_as_inf(self):
        row = format_record_row(*ROWS[2])
        assert row.split(",")[6] == "inf"
        assert parse_record_row(row)["d_m"] == math.inf

    def test_empty_log_writes_header_only(self, tmp_path):
        path = tmp_path / "records.csv"
        write_minute_records([], path)
        assert path.read_text() == "minute,i,j,n_i,m_i,v_i,d_m,s_s,p,si,nearness\n"

    def test_one_record_two_lines(self, tmp_path):
        path = tmp_path / "records.csv"
        write_minute_records(ROWS[:1], path)
        assert path.read_text().count("\n") == 2

    def test_bad_motion_code_rejected(self):
        row = format_record_row(*ROWS[0]).split(",")
        row[4] = "3"
        with pytest.raises(ValueError):
            parse_record_row(",".join(row))

    def test_nonzero_score_without_distance_rejected(self):
        row = format_record_row(*ROWS[0]).split(",")
        row[6] = "inf"
        with pytest.raises(ValueError):
            parse_record_row(",".join(row))

    def test_unknown_label_rejected(self):
        row = format_record_row(*ROWS[0]).split(",")
        row[10] = "Huge"
        with pytest.raises(ValueError):
            parse_record_row(",".join(row))

    def test_node_id_with_a_lone_surrogate_rejected(self):
        # no UTF-8 encodes it, so a record holding it could not be stored
        row = format_record_row(*ROWS[0]).split(",")
        row[1] = "a\ud800"
        with pytest.raises(ValueError, match="lone surrogate"):
            parse_record_row(",".join(row))
        assert ingest.node_codes(["a\ud800", "a", "\udfff"], {}, []).tolist() == [-1, 0, -1]


class TestLargeRoundtrip:
    def test_million_sample_set_roundtrips(self, exp1_run, tmp_path):
        # the 7-hour scenario yields just over a million samples
        traces = exp1_run.traces
        assert sum(traces.counts()) > 1_000_000
        first = write_traces(traces, tmp_path / "one")
        again = read_traces(*first)
        assert traces_equal(traces, again)
        second = write_traces(again, tmp_path / "two")
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes()


def counting_accel(nodes, samples):
    """A DrawnAccel of zero series, and a dict whose "peak" is the most
    series it had alive at once."""
    alive = {"now": 0, "peak": 0}

    def release():
        alive["now"] -= 1

    def draw(node):
        xyz = np.zeros((3, samples))
        alive["now"] += 1
        alive["peak"] = max(alive["peak"], alive["now"])
        weakref.finalize(xyz, release)
        return xyz
    return DrawnAccel(np.arange(samples, dtype=np.int64) * 50, nodes, draw), alive


def trace_bytes(traces) -> int:
    """Bytes of every column of `traces` (node ids count as references)."""
    parts = [*traces.sightings.values(), *traces.accel.values(), *traces.sound.values()]
    return sum(getattr(part, f.name).nbytes for part in parts for f in fields(part))


def traced_peak(operation):
    """Peak bytes that `operation()` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        operation()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The codecs hold the series plus one block of rows, not copies of all."""

    def test_traces_equal_holds_one_drawn_series_per_side(self):
        a, alive_a = counting_accel(["n0", "n1", "n2"], 40)
        b, alive_b = counting_accel(["n0", "n1", "n2"], 40)
        empty = make_traces().sightings
        assert traces_equal(TraceSet(empty, a), TraceSet(empty, b))
        assert (alive_a["peak"], alive_b["peak"]) == (1, 1)
        assert (alive_a["now"], alive_b["now"]) == (0, 0)

    def test_writer_holds_the_drawn_series_and_one_block(self, tmp_path):
        traces, _ = generate(two_agent_config(duration_ms=3_600_000))
        write_traces(generate(two_agent_config())[0], tmp_path / "warm")   # first-use caches
        drawn_bytes = len(traces.accel) * 3 * traces.accel.t_ms.nbytes   # ax, ay, az
        peak = traced_peak(lambda: write_traces(traces, tmp_path / "traces"))
        assert peak < drawn_bytes + 3_000_000

    def test_writer_holds_one_drawn_series_at_a_time(self, tmp_path):
        samples = 20_000
        accel, alive = counting_accel([f"n{k}" for k in range(4)], samples)
        traces = TraceSet(make_traces().sightings, accel)
        write_traces(TraceSet(traces.sightings, counting_accel(["a"], 10)[0]),
                     tmp_path / "warm")     # first-use caches
        # blocks of 256 rows weigh a few percent of one series
        with mock.patch.object(ingest, "_WRITE_BLOCK", 256):
            peak = traced_peak(lambda: write_traces(traces, tmp_path / "traces"))
        assert (alive["peak"], alive["now"]) == (1, 0)
        assert peak < 1.5 * 3 * 8 * samples      # one (3, samples) float64 series

    def test_reader_holds_the_result_and_one_chunk(self, tmp_path):
        paths = write_traces(generate(two_agent_config(duration_ms=3_600_000))[0], tmp_path)
        read_traces(*paths)      # first-use caches
        result = []
        peak = traced_peak(lambda: result.append(read_traces(*paths)))
        assert peak < 1.6 * trace_bytes(result[0])
