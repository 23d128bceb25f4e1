"""The columnar record log against the frame-at-a-time reference scanner.

Valid, torn and corrupted logs must open to the same records, truncate to
the same offset when opened writable, or fail with the identical
StoreError text.  Every case runs with several run sizes, in bytes, of
the frame scan and the frame walk, so that records and errors cross run
boundaries on small logs; corruptions include NUL bytes and payloads of
64 KiB or more, which the frame scan hands to the frame walk.  The scan
itself must find exactly the frames the walk finds, on any bytes.
Appended batches must read back as the scanner reads the file, and a
batch with one invalid field must be rejected without touching the file.
Integer and `s_s` columns, converted once per distinct text,
must end where the field-by-field conversion ends, bit for bit.
"""

import math
import tempfile
from itertools import groupby
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_of, rows
from nearness import ingest, store
from nearness.domain import LABELS, RECORD_FIELDS
from nearness.ingest import format_record_row, parse_record_row
from nearness.store import _LEN, MAGIC, RecordLog, StoreError
from rowwise_store import parse_record_row as parse_rowwise
from rowwise_store import scan_rowwise

NODES = ["a", "b", "c", "B", "n 1", "zé", "ä"]
# run sizes in bytes: one frame per run, one to five frames, or the whole log
WINDOWS = st.sampled_from([1, 64, 160, 300, 1 << 17])
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
        records.append((
            minute, i, j, draw(st.integers(0, 30)), draw(st.sampled_from([1, 2])),
            draw(st.integers(0, 3)), d, draw(st.floats(0.0, 1e6)), draw(scores),
            draw(scores), draw(st.sampled_from(LABELS))))
    return records


def frames_of(payloads) -> bytes:
    return MAGIC + b"".join(_LEN.pack(len(p)) + p for p in payloads)


def check(data: bytes, window: int = 1 << 17) -> None:
    """Open `data` as a writable log as the scanner reads it: same records
    and truncation, or the same StoreError.  `window` is the bytes of one
    run of the frame scan and of the frame walk."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.log"
        path.write_bytes(data)
        try:
            want = ("ok",) + scan_rowwise(path)
        except StoreError as exc:
            want = ("error", str(exc))
        with mock.patch.object(store, "_SCAN_BYTES", window):
            try:
                log = RecordLog.open(path, writable=True)
            except StoreError as exc:
                got = ("error", str(exc))
            else:
                log.close()
                got = ("ok", rows(log.query()), path.stat().st_size)
        assert got == want
        if want[0] == "ok":
            assert path.read_bytes() == data[:want[2]]


@settings(max_examples=150, deadline=None)
@given(records=minute_records(), window=WINDOWS, data=st.data())
def test_valid_and_torn_logs_read_like_the_scanner(records, window, data):
    texts = [format_record_row(*r) for r in records]
    # a written row parses back to its values, and then formats as itself
    assert [tuple(parse_record_row(row).values()) for row in texts] == \
        [parse_rowwise(row) for row in texts] == records
    assert [format_record_row(**parse_record_row(row)) for row in texts] == texts
    blob = frames_of(row.encode() for row in texts)
    tear = data.draw(st.integers(len(MAGIC), len(blob)))
    check(blob[:tear], window)
    check(blob, window)


@st.composite
def corruptions(draw, payloads):
    """Apply one to three damaging edits to the payload list, in place."""
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(payloads) - 1))
        action = draw(st.sampled_from(["token"] * 4 + ["swap", "repeat", "empty", "byte",
                                                       "lf", "comma", "nul", "long"]))
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
        elif action == "long":
            # leading zeros: a valid float still, too many digits for an int
            fields = payloads[k].split(b",")
            f = draw(st.integers(0, len(fields) - 1))
            fields[f] = b"0" * draw(st.integers(65_536, 65_600)) + fields[f]
            payloads[k] = b",".join(fields)
        else:
            insert = {"byte": draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])),
                      "lf": b"\n", "comma": b",",
                      "nul": draw(st.sampled_from([b"\x00", b"\x00\x00"]))}[action]
            at = draw(st.integers(0, len(payloads[k])))
            payloads[k] = payloads[k][:at] + insert + payloads[k][at:]
    return payloads


@settings(max_examples=400, deadline=None)
@given(records=minute_records(min_size=1), window=WINDOWS, data=st.data())
def test_corrupted_logs_fail_like_the_scanner(records, window, data):
    payloads = data.draw(corruptions([format_record_row(*r).encode() for r in records]))
    check(frames_of(payloads), window)


@st.composite
def frame_bytes(draw):
    """Bytes after the magic: frames of any payload, NULs and empty ones
    included, with lengths past one and two length bytes, then a torn
    header, a torn frame or any bytes."""
    blob = b""
    for _ in range(draw(st.integers(0, 8))):
        payload = draw(st.binary(max_size=12) | st.sampled_from(
            [b"", b"\x00", b"\x00\x00", b"a\x00", b"\x00a", b"a\x00\x00b"]))
        if draw(st.integers(0, 5)) == 0:
            size = draw(st.sampled_from([255, 256, 512, 65_535, 65_536, 65_792]))
            payload = (payload + draw(st.sampled_from([b"x", b"\x00"])) * size)[:size]
        blob += _LEN.pack(len(payload)) + payload
    tail = draw(st.sampled_from(["none", "header", "frame", "bytes"]))
    if tail == "header":
        blob += _LEN.pack(draw(st.integers(0, 300)))[:draw(st.integers(1, 3))]
    elif tail == "frame":
        payload = draw(st.binary(min_size=1, max_size=12))
        blob += _LEN.pack(len(payload) + draw(st.integers(1, 70_000))) + payload
    elif tail == "bytes":
        blob += draw(st.binary(max_size=12))
    return blob


def bounds(runs) -> list[tuple[int, int]]:
    return [(a, b) for starts, stops in runs for a, b in zip(starts.tolist(), stops.tolist())]


@settings(max_examples=600, deadline=None)
@given(blob=frame_bytes() | st.binary(max_size=40), window=st.sampled_from([1, 2, 3, 7, 64, 1 << 17]))
def test_the_frame_scan_finds_what_the_walk_finds(blob, window):
    data = MAGIC + blob
    walked = bounds(store._walk(data, len(MAGIC)))
    handed = []         # where the scan hands the rest of the log to the walk
    walk = store._walk

    def spy(data, pos):
        handed.append(pos)
        return walk(data, pos)

    with mock.patch.object(store, "_SCAN_BYTES", window), \
            mock.patch.object(store, "_walk", spy):
        runs = list(store._scan(data))
    assert bounds(runs) == walked
    # the walk goes on from a header it reaches itself, or from where it stops
    (pos,) = handed
    assert pos in [a - _LEN.size for a, _ in walked] + [walked[-1][1] if walked else len(MAGIC)]
    # frames of 1 to 65 535 bytes without a NUL are all found by the scan
    if all(0 < b - a < 65_536 and b"\x00" not in data[a:b] for a, b in walked):
        assert [a for a, _ in walked if a - _LEN.size >= pos] == []


# texts int() reads: signed, spaced, non-ASCII digits, and the int64 edges
# with the values just past them; BAD_TOKENS adds texts it does not read
INT_TOKENS = ["0", "1", "2", "7", "-3", "+4", " 5", "٣", "1_0", "00", str(2 ** 63 - 1),
              str(-2 ** 63), str(2 ** 63), str(-2 ** 63 - 1), "99999999999999999999"]


@settings(max_examples=300, deadline=None)
@given(head=st.lists(st.sampled_from(INT_TOKENS[:10]), max_size=12),
       tail=st.lists(st.sampled_from(INT_TOKENS + BAD_TOKENS), max_size=12))
def test_int_columns_read_like_the_prefix_scan(head, tail):
    text = head + tail + head       # every text repeats, before and after a bad one
    want = ingest._int_prefix(text, 0)
    got = ingest.INT.many(text, 0)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


# texts float() reads, signed zero, NaN of either sign and overflow included
REAL_TOKENS = ["0", "0.0", "-0.0", "60.0", "1.5", "-2.5", "1e400", "-1e400", "nan", "-nan",
               "inf", " 3", "1_0.5", "٣"]


@settings(max_examples=300, deadline=None)
@given(head=st.lists(st.sampled_from(REAL_TOKENS), max_size=12),
       bad=st.sampled_from([t for t in BAD_TOKENS if not ingest._real_prefix([t]).size]),
       tail=st.lists(st.sampled_from(REAL_TOKENS), max_size=12))
def test_repeated_real_columns_read_like_the_prefix_scan(head, bad, tail):
    text = head + tail + head + [bad] + tail + head     # repeats on both sides of one bad text
    for column in (text, head + tail + head):
        want = ingest._real_prefix(column)
        got = ingest.REPEATED_REAL.many(column, 0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bad_magic_and_short_files_fail_like_the_scanner():
    for data in (b"", b"NSNS", b"NSNS2", b"nsns1" + _LEN.pack(0)):
        check(data)
    check(MAGIC + b"\x00\x00")       # a torn length prefix


def test_appended_records_are_read_like_reopened_ones(tmp_path):
    path = tmp_path / "records.log"
    first = [(0, "b", "c", 1, 1, 0, 1.0, 60.0, 0.5, 0.2, "Low")]
    later = [(1, "a", "c", 2, 2, 3, math.inf, 0.0, 0.0, 0.0, "High"),
             (1, "zé", "b", 0, 1, 1, 0.0, 1.5, 0.0, 0.0, "Avg")]
    with RecordLog.create(path) as log:
        log.append(batch_of(first))
        assert log.node_ids() == {"b", "c"}
        log.append(batch_of(later))
        assert rows(log.query()) == first + later
        assert rows(log.query(("a", "c"))) == later[:1]
        assert log.node_ids() == {"a", "b", "c", "zé"}
    reopened = RecordLog.open(path)
    assert rows(reopened.query()) == scan_rowwise(path)[0] == first + later
    assert rows(reopened.query(("zé", "b"), 1, 1)) == later[1:]


def replace(record: tuple, **values) -> tuple:
    """`record` with the fields named in `values` replaced."""
    return tuple((dict(zip(RECORD_FIELDS, record)) | values).values())


# one invalid field per kind of rule `append` must check
INVALID = {
    "self-pair": lambda r: replace(r, j=r[1]),
    "motion": lambda r: replace(r, m_i=3),
    "nan": lambda r: replace(r, s_s=math.nan),
    "negative-inf": lambda r: replace(r, d_m=-math.inf),
    "score-without-distance": lambda r: replace(r, d_m=math.inf, p=1.0),
    "comma-in-id": lambda r: replace(r, i=r[1] + ",x"),
}


@settings(max_examples=150, deadline=None)
@given(records=minute_records(), data=st.data())
def test_appended_batches_read_like_the_scanner(records, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.log"
        with RecordLog.create(path) as log:
            for _, group in groupby(records, key=lambda r: r[0]):
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
            assert rows(log.query()) == records
        assert rows(RecordLog.open(path).query()) == scan_rowwise(path)[0] == records
