import re

import pytest

from nearness import store
from nearness.domain import MinuteRecord, Nearness
from nearness.ingest import RECORDS_HEADER, format_record_row
from nearness.store import MAGIC, RecordLog, StoreError, export_csv


def record(minute, i="a", j="b", p=1.0):
    return MinuteRecord(minute, i, j, 1, 1, 1, 2.0, 60.0, p, 0.5, Nearness.LOW)


def payload(minute, i="a", j="b", label="Low") -> bytes:
    return f"{minute},{i},{j},1,1,1,2.0,60.0,1.0,0.5,{label}".encode()


def csv_text(records) -> str:
    """What an export of exactly these records must write."""
    return "".join(f"{line}\n" for line in
                   [",".join(RECORDS_HEADER), *map(format_record_row, records)])


def write_frames(path, payloads) -> None:
    path.write_bytes(MAGIC + b"".join(len(p).to_bytes(4, "big") + p for p in payloads))


@pytest.fixture
def log_path(tmp_path):
    return tmp_path / "records.log"


class TestAppendAndQuery:
    def test_read_your_writes(self, log_path):
        with RecordLog.create(log_path) as log:
            batch = [record(5), record(5, "b", "a")]
            log.append(batch)
            assert log.query(("a", "b"), 5, 5) == [batch[0]]
            assert log.query(("b", "a"), 5, 5) == [batch[1]]

    def test_minute_going_backwards_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(5)])
            with pytest.raises(StoreError):
                log.append([record(3)])

    def test_same_minute_new_pair_accepted(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(5)])
            log.append([record(5, "a", "c")])
            assert len(log) == 2

    def test_same_minute_duplicate_pair_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(5)])
            with pytest.raises(StoreError):
                log.append([record(5)])

    def test_rejected_batch_leaves_no_trace(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(0)])
            with pytest.raises(StoreError):
                log.append([record(1), record(0)])
            log.append([record(1)])
            assert [r.minute for r in log.records()] == [0, 1]
            assert log.records()[-1].minute == 1
        assert RecordLog.open(log_path).records() == [record(0), record(1)]

    def test_reads_after_append_see_what_a_reopen_sees(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(0), record(0, "b", "b")])
            with pytest.raises(StoreError) as in_memory:
                log.records()
        with pytest.raises(StoreError) as reopened:
            RecordLog.open(log_path)
        assert str(in_memory.value) == str(reopened.value) == \
            f"{log_path}: corrupt record #1: record pairs 'b' with itself"

    def test_empty_append_is_noop(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([])
            assert len(log) == 0
        assert RecordLog.open(log_path).records() == []

    def test_query_empty_log(self, log_path):
        with RecordLog.create(log_path) as log:
            assert log.query(("a", "b")) == []

    def test_query_full_history(self, log_path):
        batches = [[record(m)] for m in range(10)]
        with RecordLog.create(log_path) as log:
            for batch in batches:
                log.append(batch)
            assert log.query(("a", "b")) == [b[0] for b in batches]

    def test_query_disjoint_range(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(5)])
            assert log.query(("a", "b"), 10, 20) == []

    def test_query_bad_range_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            with pytest.raises(StoreError):
                log.query(("a", "b"), 10, 5)


class TestPersistence:
    def test_reopen_yields_identical_sequence(self, log_path):
        records = [record(m, p=float(m)) for m in range(20)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append([r])
        assert RecordLog.open(log_path).records() == records

    def test_reopen_writable_continues(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(1)])
        with RecordLog.open(log_path, writable=True) as log:
            log.append([record(2)])
        assert [r.minute for r in RecordLog.open(log_path).records()] == [1, 2]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.log"
        path.write_bytes(b"not a log at all")
        with pytest.raises(StoreError):
            RecordLog.open(path)

    def test_append_after_readonly_open_rejected(self, log_path):
        RecordLog.create(log_path).close()
        log = RecordLog.open(log_path)
        with pytest.raises(StoreError, match="read-only"):
            log.append([record(0)])

    def test_append_after_close_says_closed(self, log_path):
        log = RecordLog.create(log_path)
        log.append([record(0)])
        log.close()
        with pytest.raises(StoreError, match=f"^{re.escape(str(log_path))}: log is closed$"):
            log.append([record(1)])
        assert RecordLog.open(log_path).records() == [record(0)]

    def test_truncation_at_any_boundary_reopens_cleanly(self, log_path):
        records = [record(m) for m in range(8)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append([r])
        blob = log_path.read_bytes()

        # frame boundaries: scan the length prefixes
        boundaries = [len(MAGIC)]
        offset = len(MAGIC)
        while offset < len(blob):
            length = int.from_bytes(blob[offset:offset + 4], "big")
            offset += 4 + length
            boundaries.append(offset)
        assert boundaries[-1] == len(blob)

        for count, boundary in enumerate(boundaries):
            log_path.write_bytes(blob[:boundary])
            assert RecordLog.open(log_path).records() == records[:count]

    def test_torn_tail_is_dropped(self, log_path):
        records = [record(m) for m in range(4)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append([r])
        blob = log_path.read_bytes()
        log_path.write_bytes(blob[:-3])  # tear the last frame
        assert RecordLog.open(log_path).records() == records[:3]

    def test_torn_tail_truncated_before_append(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(0)])
            log.append([record(1)])
        blob = log_path.read_bytes()
        log_path.write_bytes(blob[:-2])
        with RecordLog.open(log_path, writable=True) as log:
            log.append([record(7)])
        assert [r.minute for r in RecordLog.open(log_path).records()] == [0, 7]

    def test_corrupt_payload_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append([record(0)])
        blob = bytearray(log_path.read_bytes())
        blob[len(MAGIC) + 4] = ord("x")  # clobber the minute field
        log_path.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            RecordLog.open(log_path)


class TestStoreErrors:
    """The exact StoreError of every kind of damaged log."""

    def expect(self, path, message):
        with pytest.raises(StoreError) as caught:
            RecordLog.open(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.log"
        path.write_bytes(b"not a log at all")
        self.expect(path, "not a record log (bad magic)")

    @pytest.mark.parametrize("bad, reason", [
        (b"x,a,b,1,1,1,2.0,60.0,1.0,0.5,Low",
         "invalid literal for int() with base 10: 'x'"),
        (b"1,a\xff,b,1,1,1,2.0,60.0,1.0,0.5,Low",
         "'utf-8' codec can't decode byte 0xff in position 3: invalid start byte"),
        (b"", "expected 11 fields, got 1"),
        (b"1,a\nx,b,1,1,1,2.0,60.0,1.0,0.5,Low",
         "node id contains a comma or line break: 'a\\nx'"),
        (b"1,a,b,1,1,1,inf,60.0,1.0,0.5,Low",
         "scores must be zero without a distance estimate"),
        (b"1,a,b,1,1,1,2.0,60.0,1.0,0.5,low", "unknown nearness label 'low'"),
        (b"-1,a,b,1,1,1,2.0,60.0,1.0,0.5,Low", "negative minute -1"),
        (b"1,,b,1,1,1,2.0,60.0,1.0,0.5,Low", "node id must be a non-empty string"),
        (b"1,a,a,1,1,1,2.0,60.0,1.0,0.5,Low", "record pairs 'a' with itself"),
        (b"1,a,b,-1,1,1,2.0,60.0,1.0,0.5,Low", "negative node degree -1"),
        (b"1,a,b,1,0,1,2.0,60.0,1.0,0.5,Low", "motion code 0 not in {1, 2}"),
        (b"1,a,b,1,1,4,2.0,60.0,1.0,0.5,Low", "sound class 4 not in 0..3"),
        (b"1,a,b,1,1,1,Infinity,60.0,0.0,0.0,Low", "bad distance 'Infinity'"),
        (b"1,a,b,1,1,1, inf,60.0,0.0,0.0,Low", "bad distance ' inf'"),
        (b"1,a,b,1,1,1,-0.5,60.0,1.0,0.5,Low", "bad distance '-0.5'"),
        (b"1,a,b,1,1,1,2.0,nan,1.0,0.5,Low", "bad s_s value nan"),
        (b"1,a,b,1,1,1,2.0,60.0,-1.0,0.5,Low", "bad p value -1.0"),
        (b"1,a,b,1,1,1,2.0,60.0,1.0,1e400,Low", "bad si value inf"),
    ], ids=["bad-field", "invalid-utf8", "empty", "lf-in-node-id", "inf-scores",
            "label", "negative-minute", "empty-node", "self-pair", "negative-degree",
            "motion", "sound", "infinity", "padded-inf", "negative-distance", "nan",
            "negative-p", "overflow-si"])
    def test_corrupt_record(self, log_path, bad, reason):
        write_frames(log_path, [payload(0), bad, payload(2)])
        self.expect(log_path, f"corrupt record #1: {reason}")

    @pytest.mark.parametrize("keys, k", [
        ([(0, "a", "b"), (1, "a", "c"), (1, "b", "a"), (1, "b", "a")], 3),
        ([(0, "a", "b"), (1, "b", "a"), (1, "a", "c")], 2),
        ([(1, "a", "b"), (1, "B", "a")], 1),      # ids compare by code point
        ([(1, "a", "b"), (0, "b", "c")], 1),
    ])
    def test_keys_not_increasing(self, log_path, keys, k):
        write_frames(log_path, [payload(*key) for key in keys])
        self.expect(log_path, f"keys not increasing at record #{k}")

    def test_corrupt_wins_at_the_same_record(self, log_path):
        write_frames(log_path, [payload(5), payload(4, label="None")])
        self.expect(log_path, "corrupt record #1: unknown nearness label 'None'")

    @pytest.mark.parametrize("frames", [2, 3, 1000])
    def test_first_error_in_file_order_wins(self, log_path, monkeypatch, frames):
        monkeypatch.setattr(store, "_READ_FRAMES", frames, raising=False)
        payloads = [payload(m) for m in range(10)]
        payloads[3] = payload(1)
        payloads[8] = b"8,a,b"
        write_frames(log_path, payloads)
        self.expect(log_path, "keys not increasing at record #3")
        payloads[3], payloads[8] = b"3,a,b", payload(1)
        write_frames(log_path, payloads)
        self.expect(log_path, "corrupt record #3: expected 11 fields, got 3")

    @pytest.mark.parametrize("bad, reason", [
        (b"9223372036854775808,a,b,1,1,1,2.0,60.0,1.0,0.5,Low",
         "minute 9223372036854775808 beyond the 64-bit range"),
        (b"1,a,b,9223372036854775808,1,1,2.0,60.0,1.0,0.5,Low",
         "node degree 9223372036854775808 beyond the 64-bit range"),
    ], ids=["minute", "degree"])
    def test_integers_beyond_64_bits_are_corrupt(self, log_path, bad, reason):
        write_frames(log_path, [payload(0), bad])
        self.expect(log_path, f"corrupt record #1: {reason}")

    def test_int_field_with_a_line_break_reads(self, log_path):
        write_frames(log_path, [payload(0), b"5\n,a,b,1,1,1,2.0,60.0,1.0,0.5,Low"])
        assert RecordLog.open(log_path).records() == [record(0), record(5)]


class TestExport:
    def test_empty_log_exports_header_only(self, log_path, tmp_path):
        RecordLog.create(log_path).close()
        out = tmp_path / "out.csv"
        assert export_csv(RecordLog.open(log_path), out) == 0
        assert out.read_text() == "minute,i,j,n_i,m_i,v_i,d_m,s_s,p,si,nearness\n"

    def test_export_roundtrips_through_codec(self, log_path, tmp_path):
        records = [record(m, p=float(m) / 7) for m in range(30)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append([r])
        out = tmp_path / "out.csv"
        export_csv(RecordLog.open(log_path), out)
        assert out.read_text() == csv_text(records)

    def test_full_scale_export_is_fast(self, exp2_run, log_path, tmp_path):
        # 50 h x 4 nodes worth of records must export well inside a second
        import time
        from itertools import groupby

        with RecordLog.create(log_path) as log:
            for _, batch in groupby(exp2_run.result.records, key=lambda r: r.minute):
                log.append(list(batch))
        out = tmp_path / "full.csv"
        started = time.perf_counter()
        rows = export_csv(RecordLog.open(log_path), out)
        elapsed = time.perf_counter() - started
        assert rows == len(exp2_run.result.records)
        assert elapsed < 1.0

    def test_filters(self, log_path, tmp_path):
        with RecordLog.create(log_path) as log:
            log.append([record(0), record(0, "b", "a")])
            log.append([record(1), record(1, "b", "a")])
            log.append([record(2)])
        out = tmp_path / "out.csv"
        rows = export_csv(RecordLog.open(log_path), out,
                          pair=("b", "a"), from_minute=1, to_minute=2)
        assert rows == 1
        assert out.read_text() == csv_text([record(1, "b", "a")])
