import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import batch_of, rows
import nearness
from nearness import store
from nearness.domain import LABELS, MinuteBatch
from nearness.ingest import RECORDS_HEADER, format_record_row
from nearness.store import MAGIC, RecordLog, StoreError, export_csv


def record(minute, i="a", j="b", p=1.0):
    return (minute, i, j, 1, 1, 1, 2.0, 60.0, p, 0.5, "Low")


def payload(minute, i="a", j="b", label="Low") -> bytes:
    return f"{minute},{i},{j},1,1,1,2.0,60.0,1.0,0.5,{label}".encode()


def csv_text(records) -> str:
    """What an export of exactly these records must write."""
    return "".join(f"{line}\n" for line in
                   [",".join(RECORDS_HEADER),
                    *(format_record_row(*r) for r in records)])


def write_frames(path, payloads) -> None:
    path.write_bytes(MAGIC + b"".join(len(p).to_bytes(4, "big") + p for p in payloads))


# appends minute 0, then two records of minute 1 with the file size capped
# 20 bytes past the end, then minute 2 with the cap lifted; prints what the
# handle and a reopen hold, by minute, as JSON
CAPPED_APPEND = """\
import json, os, resource, sys
import numpy as np
from nearness.domain import MinuteBatch
from nearness.store import RecordLog, export_csv

def batch(minute, js):
    n = len(js)
    ints = [np.ones(n, dtype=np.int64)] * 3
    reals = [np.full(n, x) for x in (2.0, 60.0, 1.0, 0.5)]
    return MinuteBatch(np.full(n, minute), np.array(["a"] * n, dtype=object),
                       np.array(js, dtype=object), *ints, *reals, np.zeros(n, dtype=np.int64))

def minutes(log, name):
    out = os.path.join(sys.argv[2], name)
    export_csv(log, out)
    with open(out, encoding="utf-8") as handle:
        return [int(line.split(",")[0]) for line in handle.readlines()[1:]]

path = sys.argv[1]
seen = {}
log = RecordLog.create(path)
log.append(batch(0, ["b"]))
seen["size_before"] = os.path.getsize(path)
soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (seen["size_before"] + 20, hard))
try:
    log.append(batch(1, ["b", "c"]))
except OSError as exc:
    seen["errno"] = exc.errno
resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
seen["size_after_failure"] = os.path.getsize(path)
log.append(batch(2, ["b"]))
log.close()
seen["handle"] = minutes(log, "handle.csv")
seen["reopened"] = minutes(RecordLog.open(path), "reopened.csv")
print(json.dumps(seen))
"""


@pytest.fixture
def log_path(tmp_path):
    return tmp_path / "records.log"


class TestAppendAndQuery:
    def test_read_your_writes(self, log_path):
        with RecordLog.create(log_path) as log:
            batch = [record(5), record(5, "b", "a")]
            log.append(batch_of(batch))
            assert rows(log.query(("a", "b"), 5, 5)) == [batch[0]]
            assert rows(log.query(("b", "a"), 5, 5)) == [batch[1]]

    def test_minute_going_backwards_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(5)]))
            with pytest.raises(StoreError):
                log.append(batch_of([record(3)]))

    def test_same_minute_new_pair_accepted(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(5)]))
            log.append(batch_of([record(5, "a", "c")]))
            assert len(log) == 2

    def test_same_minute_duplicate_pair_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(5)]))
            with pytest.raises(StoreError):
                log.append(batch_of([record(5)]))

    def test_rejected_batch_leaves_no_trace(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0)]))
            with pytest.raises(StoreError):
                log.append(batch_of([record(1), record(0)]))
            log.append(batch_of([record(1)]))
            assert log.query().minute.tolist() == [0, 1]
            assert log.query().minute[-1] == 1
        assert rows(RecordLog.open(log_path).query()) == [record(0), record(1)]

    def test_reads_after_append_see_what_a_reopen_sees(self, log_path):
        with RecordLog.create(log_path) as log:
            with pytest.raises(StoreError) as caught:
                log.append(batch_of([record(0), record(0, "b", "b")]))
            assert str(caught.value) == \
                f"{log_path}: corrupt record #1: record pairs 'b' with itself"
            assert rows(log.query()) == [] and len(log) == 0
        assert rows(RecordLog.open(log_path).query()) == []

    def test_invalid_record_is_rejected_before_writing(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0)]))
            blob = log_path.read_bytes()
            with pytest.raises(StoreError, match="record pairs 'c' with itself"):
                log.append(batch_of([record(1), record(1, "c", "c")]))
            assert log_path.read_bytes() == blob
            assert log.node_ids() == {"a", "b"}
            assert rows(log.query()) == [record(0)]
            log.append(batch_of([record(1, "a", "c")]))
        assert rows(RecordLog.open(log_path).query()) == [record(0), record(1, "a", "c")]

    @pytest.mark.parametrize("code", [3, -1], ids=["above", "negative"])
    def test_label_code_outside_labels_is_corrupt(self, log_path, code):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0)]))
            blob = log_path.read_bytes()
            batch = batch_of([record(1), record(1, "a", "c")])
            batch.nearness[1] = code
            with pytest.raises(StoreError) as caught:
                log.append(batch)
            assert str(caught.value) == \
                f"{log_path}: corrupt record #2: unknown nearness label '{code}'"
            assert log_path.read_bytes() == blob
            assert log.node_ids() == {"a", "b"} and rows(log.query()) == [record(0)]

    @pytest.mark.parametrize("side", [0, 1], ids=["i", "j"])
    def test_node_id_with_a_lone_surrogate_is_corrupt(self, log_path, side):
        ids = ["a", "c"]
        ids[side] = "a\ud800"
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0)]))
            blob = log_path.read_bytes()
            with pytest.raises(StoreError) as caught:
                log.append(batch_of([record(1), record(1, *ids)]))
            assert str(caught.value).startswith(
                f"{log_path}: corrupt record #2: 'utf-8' codec can't decode byte 0xed")
            assert log_path.read_bytes() == blob
            assert log.node_ids() == {"a", "b"} and rows(log.query()) == [record(0)]
        assert rows(RecordLog.open(log_path).query()) == [record(0)]

    def test_empty_append_is_noop(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([]))
            assert len(log) == 0
        assert rows(RecordLog.open(log_path).query()) == []

    @pytest.mark.parametrize("field, keep", [("p", 1), ("minute", 0), ("nearness", 2)],
                             ids=["one-row-p", "empty-minute", "short-label"])
    def test_ragged_batch_rejected(self, log_path, field, keep):
        # a one-row column would broadcast through the vectorised rules, and
        # an empty minute column would make the batch read as empty
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0)]))
            blob = log_path.read_bytes()
            batch = batch_of([record(1), record(1, "a", "c"), record(1, "a", "d")])
            ragged = dataclasses.replace(batch, **{field: getattr(batch, field)[:keep]})
            with pytest.raises(StoreError) as caught:
                log.append(ragged)
            assert str(caught.value) == f"{log_path}: batch columns differ in length"
            assert log_path.read_bytes() == blob
            assert log.node_ids() == {"a", "b"} and len(log) == 1
            assert rows(log.query()) == [record(0)]
            log.append(batch)
        assert rows(RecordLog.open(log_path).query()) == [record(0), *rows(batch)]

    def test_query_empty_log(self, log_path):
        with RecordLog.create(log_path) as log:
            assert rows(log.query(("a", "b"))) == []

    def test_query_full_history(self, log_path):
        batches = [[record(m)] for m in range(10)]
        with RecordLog.create(log_path) as log:
            for batch in batches:
                log.append(batch_of(batch))
            assert rows(log.query(("a", "b"))) == [b[0] for b in batches]

    def test_query_without_a_pair_reads_every_pair(self, log_path):
        batches = [[record(0), record(0, "b", "a")], [record(1, "a", "c")]]
        with RecordLog.create(log_path) as log:
            for batch in batches:
                log.append(batch_of(batch))
            assert rows(log.query()) == [*batches[0], *batches[1]]
            assert rows(log.query(None, 1, 1)) == batches[1]

    def test_query_disjoint_range(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(5)]))
            assert rows(log.query(("a", "b"), 10, 20)) == []

    def test_query_bad_range_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            with pytest.raises(StoreError):
                log.query(("a", "b"), 10, 5)


class TestPersistence:
    def test_reopen_yields_identical_sequence(self, log_path):
        records = [record(m, p=float(m)) for m in range(20)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append(batch_of([r]))
        assert rows(RecordLog.open(log_path).query()) == records

    def test_reopen_writable_continues(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(1)]))
        with RecordLog.open(log_path, writable=True) as log:
            log.append(batch_of([record(2)]))
        assert RecordLog.open(log_path).query().minute.tolist() == [1, 2]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.log"
        path.write_bytes(b"not a log at all")
        with pytest.raises(StoreError):
            RecordLog.open(path)

    def test_append_after_readonly_open_rejected(self, log_path):
        RecordLog.create(log_path).close()
        log = RecordLog.open(log_path)
        with pytest.raises(StoreError, match="read-only"):
            log.append(batch_of([record(0)]))

    def test_append_after_close_says_closed(self, log_path):
        log = RecordLog.create(log_path)
        log.append(batch_of([record(0)]))
        log.close()
        with pytest.raises(StoreError, match=f"^{re.escape(str(log_path))}: log is closed$"):
            log.append(batch_of([record(1)]))
        assert rows(RecordLog.open(log_path).query()) == [record(0)]

    def test_truncation_at_any_boundary_reopens_cleanly(self, log_path):
        records = [record(m) for m in range(8)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append(batch_of([r]))
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
            assert rows(RecordLog.open(log_path).query()) == records[:count]

    def test_torn_tail_is_dropped(self, log_path):
        records = [record(m) for m in range(4)]
        with RecordLog.create(log_path) as log:
            for r in records:
                log.append(batch_of([r]))
        blob = log_path.read_bytes()
        log_path.write_bytes(blob[:-3])  # tear the last frame
        assert rows(RecordLog.open(log_path).query()) == records[:3]

    def test_torn_tail_truncated_before_append(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0)]))
            log.append(batch_of([record(1)]))
        blob = log_path.read_bytes()
        log_path.write_bytes(blob[:-2])
        with RecordLog.open(log_path, writable=True) as log:
            log.append(batch_of([record(7)]))
        assert RecordLog.open(log_path).query().minute.tolist() == [0, 7]

    def test_append_past_the_file_size_limit_leaves_whole_frames(self, log_path, tmp_path):
        # the child caps its own file size so that a two-record append fails
        # part way through its frames (CPython ignores SIGXFSZ, so the write
        # raises EFBIG); once the cap is lifted, the next append must follow
        # the last whole frame, in the file as in the handle
        child = subprocess.run(
            [sys.executable, "-c", CAPPED_APPEND, str(log_path), str(tmp_path)],
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
                [os.path.dirname(os.path.dirname(nearness.__file__)),
                 os.environ.get("PYTHONPATH", "")])),
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        seen = json.loads(child.stdout)
        assert seen["errno"] == errno.EFBIG
        assert seen["size_after_failure"] == seen["size_before"]
        assert seen["handle"] == seen["reopened"] == [0, 2]

    def test_corrupt_payload_rejected(self, log_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0)]))
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
        # two rules broken in one record: the first in table order wins
        (b"1,a,b,1,1,1,2.0,-1.0,x,0.5,Low", "could not convert string to float: 'x'"),
        (b"1,a,b,1,1,1,2.0,-1.0,1.0,nan,Low", "bad s_s value -1.0"),
        (b"1,a,b,1,1,1,inf,60.0,1.0,0.5,low", "scores must be zero without a distance estimate"),
        (b"1,a,a,1,0,1,2.0,60.0,1.0,0.5,Low", "record pairs 'a' with itself"),
        # rules see Python ints, not int64
        (b"1,a,b,1,99999999999999999999,1,2.0,60.0,1.0,0.5,Low",
         "motion code 99999999999999999999 not in {1, 2}"),
        (b"-99999999999999999999,a,b,1,1,1,2.0,60.0,1.0,0.5,Low",
         "negative minute -99999999999999999999"),
    ], ids=["bad-field", "invalid-utf8", "empty", "lf-in-node-id", "inf-scores",
            "label", "negative-minute", "empty-node", "self-pair", "negative-degree",
            "motion", "sound", "infinity", "padded-inf", "negative-distance", "nan",
            "negative-p", "overflow-si", "conversions-before-checks", "s_s-before-si",
            "scores-before-label", "pair-before-motion", "python-int-motion",
            "python-int-minute"])
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

    UTF8_AT_3 = ("corrupt record #3: 'utf-8' codec can't decode byte 0xff in position 3: "
                 "invalid start byte")

    @pytest.mark.parametrize("early, late, message", [
        (payload(1), b"8,a,b", "keys not increasing at record #3"),
        (b"3,a,b", payload(1), "corrupt record #3: expected 11 fields, got 3"),
        (payload(3).replace(b"a", b"a\xff"), payload(8).rpartition(b",")[0],
         UTF8_AT_3),
        (payload(3).rpartition(b",")[0], payload(8).replace(b"a", b"a\xff"),
         "corrupt record #3: expected 11 fields, got 10"),
        (payload(3).replace(b"a", b"a\xff"), payload(8) + b",x",
         UTF8_AT_3),
        (payload(3) + b",x", payload(8).replace(b"a", b"a\xff"),
         "corrupt record #3: expected 11 fields, got 12"),
    ], ids=["keys-first", "fields-first", "utf8-before-10-fields", "10-fields-before-utf8",
            "utf8-before-12-fields", "12-fields-before-utf8"])
    @pytest.mark.parametrize("frames", [2, 3, 1000])
    def test_first_error_in_file_order_wins(self, log_path, monkeypatch, frames, early, late,
                                            message):
        # about `frames` frames per run of the frame scan and of the walk
        monkeypatch.setattr(store, "_SCAN_BYTES", 40 * frames)
        payloads = [payload(m) for m in range(10)]
        payloads[3], payloads[8] = early, late
        write_frames(log_path, payloads)
        self.expect(log_path, message)

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
        assert rows(RecordLog.open(log_path).query()) == [record(0), record(5)]


def open_peak(path, minutes: int) -> tuple[int, int]:
    """(traced peak of opening a log of `minutes` full minutes of 20 nodes
    written to `path`, bytes of the file and of its columns)."""
    rng = np.random.default_rng(minutes)
    ids = [f"n{k:03d}" for k in range(20)]
    i, j = (np.array(side, dtype=object) for side in
            zip(*[(a, b) for a in ids for b in ids if a != b]))
    n = len(i)
    with RecordLog.create(path) as log:
        for minute in range(minutes):
            far = rng.random(n) < 0.3
            d = np.where(far, math.inf, rng.uniform(0.5, 30.0, n))
            p, si = (np.where(far, 0.0, rng.random(n) * top) for top in (1.0, 5.0))
            log.append(MinuteBatch(np.full(n, minute), i, j, rng.integers(0, 19, n),
                                   rng.integers(1, 3, n), rng.integers(0, 4, n), d,
                                   rng.random(n) * 3600, p, si, rng.integers(0, len(LABELS), n)))
    RecordLog.open(path)      # first-use caches
    tracemalloc.start()
    try:
        columns = RecordLog.open(path)._columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns[0]) == minutes * n
    return peak, path.stat().st_size + sum(c.nbytes for c in columns)


class TestMemory:
    def test_open_holds_the_file_its_columns_and_one_chunk(self, tmp_path):
        # 22 800 and 45 600 records (2 and 4 MB).  Besides the chunks'
        # columns, open holds the file's bytes while it reads them, then the
        # joined columns, and one chunk's fields as strings: under 2 MB here
        # (a 128 KiB scan window holds about 1500 records of 11 fields, about
        # 90 bytes each with their list slots).  On the smaller log that
        # bounds the peak at 6.0 MB; the reader before the frame scan peaked
        # at 7.5 MB.
        peak, held = open_peak(tmp_path / "hour.log", 60)
        assert peak < held + 2_000_000
        # Nothing else grows with the log: a reader that held the frame
        # offsets of the whole file (16 bytes a frame) grew 0.36 MB more.
        more_peak, more_held = open_peak(tmp_path / "two.log", 120)
        assert more_peak - peak < (more_held - held) + 150_000


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
                log.append(batch_of([r]))
        out = tmp_path / "out.csv"
        export_csv(RecordLog.open(log_path), out)
        assert out.read_text() == csv_text(records)

    def test_full_scale_export_is_fast(self, exp2_run, log_path, tmp_path):
        # 50 h x 4 nodes worth of records must export well inside a second
        import time

        with RecordLog.create(log_path) as log:
            log.append(exp2_run.result.records)
        out = tmp_path / "full.csv"
        started = time.perf_counter()
        count = export_csv(RecordLog.open(log_path), out)
        elapsed = time.perf_counter() - started
        assert count == len(exp2_run.result.records)
        assert elapsed < 1.0

    def test_filters(self, log_path, tmp_path):
        with RecordLog.create(log_path) as log:
            log.append(batch_of([record(0), record(0, "b", "a")]))
            log.append(batch_of([record(1), record(1, "b", "a")]))
            log.append(batch_of([record(2)]))
        out = tmp_path / "out.csv"
        count = export_csv(RecordLog.open(log_path), out,
                           pair=("b", "a"), from_minute=1, to_minute=2)
        assert count == 1
        assert out.read_text() == csv_text([record(1, "b", "a")])
