"""The columnar record log against the frame-at-a-time reference scanner.

Valid, torn and corrupted logs must open to the same records, truncate to
the same offset when opened writable, or fail with the identical
StoreError text.  Every case runs with several read chunk sizes, so that
records and errors cross chunk boundaries on small logs.  Appended batches
must read back as the scanner reads the file, and a batch with one invalid
field must be rejected without touching the file.
"""

import math
import tempfile
from dataclasses import astuple, replace
from itertools import groupby
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_of
from nearness import store
from nearness.domain import MinuteRecord, Nearness
from nearness.ingest import format_record_row
from nearness.store import _LEN, MAGIC, RecordLog, StoreError
from rowwise_store import scan_rowwise

NODES = ["a", "b", "c", "B", "n 1", "zé", "ä"]
CHUNKS = st.sampled_from([1, 2, 3, 5, 4096])
# field texts: some are read as valid values (padded, signed, odd spellings),
# some break a rule, some break the frame's layout
BAD_TOKENS = ["x", "", " 5", "5 ", "\t1", "5\n", "\n1", "+1", "-1", "1_0", "٣", "-0.0",
              "1e400", "nan", "inf", "-inf", " inf", "Infinity", "1.5", "0", "2", "3",
              "4", "99999999999999999999", "9223372036854775807", "a\nb", "a\rb",
              "a,b", "x" * 65, "Low", "High", "low", "Avg ", "a", "b", "zé"]


@st.composite
def minute_records(draw, min_size=0):
    keys = draw(st.lists(st.tuples(st.integers(0, 6), st.sampled_from(NODES),
                                   st.sampled_from(NODES)).filter(lambda k: k[1] != k[2]),
                         min_size=min_size, max_size=25, unique=True))
    records = []
    for minute, i, j in sorted(keys):
        d = draw(st.just(math.inf) | st.floats(0.0, 50.0))
        scores = st.just(0.0) if d == math.inf else st.floats(0.0, 1e6)
        records.append(MinuteRecord(
            minute, i, j, draw(st.integers(0, 30)), draw(st.sampled_from([1, 2])),
            draw(st.integers(0, 3)), d, draw(st.floats(0.0, 1e6)), draw(scores),
            draw(scores), draw(st.sampled_from(list(Nearness)))))
    return records


def frames_of(payloads) -> bytes:
    return MAGIC + b"".join(_LEN.pack(len(p)) + p for p in payloads)


def check(data: bytes, chunk: int) -> None:
    """Open `data` as a writable log as the scanner reads it: same records
    and truncation, or the same StoreError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.log"
        path.write_bytes(data)
        try:
            want = ("ok",) + scan_rowwise(path)
        except StoreError as exc:
            want = ("error", str(exc))
        with mock.patch.object(store, "_READ_FRAMES", chunk):
            try:
                log = RecordLog.open(path, writable=True)
            except StoreError as exc:
                got = ("error", str(exc))
            else:
                log.close()
                got = ("ok", log.records(), path.stat().st_size)
        assert got == want
        if want[0] == "ok":
            assert path.read_bytes() == data[:want[2]]


@settings(max_examples=150, deadline=None)
@given(records=minute_records(), chunk=CHUNKS, data=st.data())
def test_valid_and_torn_logs_read_like_the_scanner(records, chunk, data):
    blob = frames_of(format_record_row(*astuple(r)).encode() for r in records)
    tear = data.draw(st.integers(len(MAGIC), len(blob)))
    check(blob[:tear], chunk)
    check(blob, chunk)


@st.composite
def corruptions(draw, payloads):
    """Apply one to three damaging edits to the payload list, in place."""
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(payloads) - 1))
        action = draw(st.sampled_from(["token"] * 4 + ["swap", "repeat", "empty",
                                                       "byte", "lf", "comma"]))
        if action == "token":
            fields = payloads[k].decode("utf-8", "surrogateescape").split(",")
            f = draw(st.integers(0, len(fields) - 1))
            fields[f] = draw(st.sampled_from(BAD_TOKENS))
            payloads[k] = ",".join(fields).encode("utf-8", "surrogateescape")
        elif action == "swap":
            m = draw(st.integers(0, len(payloads) - 1))
            payloads[k], payloads[m] = payloads[m], payloads[k]
        elif action == "repeat":
            payloads.insert(k, payloads[k])
        elif action == "empty":
            payloads[k] = b""
        else:
            insert = {"byte": draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])),
                      "lf": b"\n", "comma": b","}[action]
            at = draw(st.integers(0, len(payloads[k])))
            payloads[k] = payloads[k][:at] + insert + payloads[k][at:]
    return payloads


@settings(max_examples=400, deadline=None)
@given(records=minute_records(min_size=1), chunk=CHUNKS, data=st.data())
def test_corrupted_logs_fail_like_the_scanner(records, chunk, data):
    payloads = data.draw(corruptions([format_record_row(*astuple(r)).encode() for r in records]))
    check(frames_of(payloads), chunk)


def test_bad_magic_and_short_files_fail_like_the_scanner():
    for data in (b"", b"NSNS", b"NSNS2", b"nsns1" + _LEN.pack(0)):
        check(data, 4096)
    check(MAGIC + b"\x00\x00", 4096)       # a torn length prefix


def test_appended_records_are_read_like_reopened_ones(tmp_path):
    path = tmp_path / "records.log"
    first = [MinuteRecord(0, "b", "c", 1, 1, 0, 1.0, 60.0, 0.5, 0.2, Nearness.LOW)]
    later = [MinuteRecord(1, "a", "c", 2, 2, 3, math.inf, 0.0, 0.0, 0.0, Nearness.HIGH),
             MinuteRecord(1, "zé", "b", 0, 1, 1, 0.0, 1.5, 0.0, 0.0, Nearness.AVG)]
    with RecordLog.create(path) as log:
        log.append(batch_of(first))
        assert log.node_ids() == {"b", "c"}
        log.append(batch_of(later))
        assert log.records() == first + later
        assert log.query(("a", "c")) == later[:1]
        assert log.node_ids() == {"a", "b", "c", "zé"}
    reopened = RecordLog.open(path)
    assert reopened.records() == scan_rowwise(path)[0] == first + later
    assert reopened.query(("zé", "b"), 1, 1) == later[1:]


# one invalid field per kind of rule `append` must check
INVALID = {
    "self-pair": lambda r: replace(r, j=r.i),
    "motion": lambda r: replace(r, m_i=3),
    "nan": lambda r: replace(r, s_s=math.nan),
    "negative-inf": lambda r: replace(r, d_m=-math.inf),
    "score-without-distance": lambda r: replace(r, d_m=math.inf, p=1.0),
    "comma-in-id": lambda r: replace(r, i=r.i + ",x"),
}


@settings(max_examples=150, deadline=None)
@given(records=minute_records(), data=st.data())
def test_appended_batches_read_like_the_scanner(records, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.log"
        with RecordLog.create(path) as log:
            for _, group in groupby(records, key=lambda r: r.minute):
                batch = list(group)
                if data.draw(st.booleans()):
                    k = data.draw(st.integers(0, len(batch) - 1))
                    rule = data.draw(st.sampled_from(sorted(INVALID)))
                    bad = batch[:k] + [INVALID[rule](batch[k])] + batch[k + 1:]
                    blob, ids = path.read_bytes(), log.node_ids()
                    with pytest.raises(StoreError):
                        log.append(batch_of(bad))
                    assert path.read_bytes() == blob
                    assert log.node_ids() == ids
                log.append(batch_of(batch))
            assert log.records() == records
        assert RecordLog.open(path).records() == scan_rowwise(path)[0] == records
