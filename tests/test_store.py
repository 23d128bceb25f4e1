import pytest

from nearness.domain import MinuteRecord, Nearness
from nearness.ingest import read_minute_records
from nearness.store import MAGIC, RecordLog, StoreError, export_csv


def record(minute, i="a", j="b", p=1.0):
    return MinuteRecord(minute, i, j, 1, 1, 1, 2.0, 60.0, p, 0.5, Nearness.LOW)


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
            assert log.last_minute() == 1
        assert RecordLog.open(log_path).records() == [record(0), record(1)]

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
        with pytest.raises(StoreError):
            log.append([record(0)])

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


class TestExport:
    def test_empty_log_exports_header_only(self, log_path, tmp_path):
        RecordLog.create(log_path).close()
        out = tmp_path / "out.csv"
        assert export_csv(RecordLog.open(log_path), out) == 0
        assert open(out).read() == "minute,i,j,n_i,m_i,v_i,d_m,s_s,p,si,nearness\n"

    def test_export_roundtrips_through_codec(self, log_path, tmp_path):
        records = [record(m, p=float(m) / 7) for m in range(30)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append([r])
        out = tmp_path / "out.csv"
        export_csv(RecordLog.open(log_path), out)
        assert read_minute_records(out) == records

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
        (only,) = read_minute_records(out)
        assert (only.minute, only.i, only.j) == (1, "b", "a")
