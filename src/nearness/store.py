"""Append-only persistent log of minute records.

The engine's local result database: only fused MinuteRecords are ever
written here, never raw samples.  File format: the magic bytes ``NSNS1``
followed by repeated frames of ``[u32 big-endian length][payload]``, where
the payload is one minute-record CSV row (UTF-8, no newline, layout as in
`ingest`).

Keys (minute, i, j) are strictly increasing, so the file is a time-ordered
journal.  A log truncated at any frame boundary reopens cleanly as a prefix
of the original sequence; a torn final frame is dropped on open.

Opening a log reads the file in one pass into numpy columns, one per
MinuteRecord field.  The length prefixes are walked `_READ_FRAMES` frames
at a time; each chunk's payloads are joined with LF, decoded and split in
one step (a chunk that is not UTF-8, or whose payloads hold an LF, is
decoded frame by frame), converted with Python's int and float as `ingest`
converts trace columns, and checked with vectorised rules.  Node ids are
stored as codes in first-seen order (the key-order check ranks them by id),
and `d_m` is ``inf`` where a record has no distance, as in the file and in
MinuteRecord.  The first record in file order that breaks a rule is parsed
again on its own with `parse_record_row`, so the StoreError is the one a
frame-at-a-time scanner gives.  Reads build MinuteRecords only for the rows
they return.
"""

from __future__ import annotations

import struct
from itertools import chain, repeat

import numpy as np

from .domain import MinuteRecord, Nearness
from .ingest import (
    _T_MAX,
    _WRITE_CHUNK,
    _first_false,
    _int_prefix,
    _node_codes,
    _node_ranks,
    _real_prefix,
    format_record_row,
    parse_record_row,
    write_minute_records,
)

MAGIC = b"NSNS1"
_LEN = struct.Struct(">I")
_READ_FRAMES = 4096        # frames converted per step

# one column per MinuteRecord field; node ids and labels are codes
_DTYPES = (np.int64,) * 6 + (np.float64,) * 4 + (np.int64,)
_LABELS = tuple(Nearness)
_LABEL_CODES = {label.value: code for code, label in enumerate(_LABELS)}


class StoreError(ValueError):
    pass


# --- columnar read ---------------------------------------------------------------

def _empty_columns() -> list[np.ndarray]:
    return [np.empty(0, dtype=dtype) for dtype in _DTYPES]


def _ints(text: list[str], lo: int, hi: int) -> np.ndarray:
    return np.array(_int_prefix(text, lo, hi), dtype=np.int64)


def _text_columns(lines: list[str], codes: dict, names: list):
    """Columns of the rows before the first one `parse_record_row` rejects,
    and that row's index (`len(lines)` when every row passes)."""
    ncols = len(_DTYPES)
    commas = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.int64,
                         count=len(lines))
    bad = _first_false(commas == ncols - 1, len(lines))
    flat = ",".join(lines[:bad]).split(",") if bad else []
    text = [flat[k::ncols] for k in range(ncols)]
    no_distance = np.fromiter(map("inf".__eq__, text[6]), dtype=bool, count=bad)
    cols = [_ints(text[0], 0, _T_MAX),
            _node_codes(text[1], codes, names), _node_codes(text[2], codes, names),
            _ints(text[3], 0, _T_MAX), _ints(text[4], 1, 2), _ints(text[5], 0, 3),
            *map(_real_prefix, text[6:10]),
            np.fromiter(map(_LABEL_CODES.get, text[10], repeat(-1)), dtype=np.int64,
                        count=bad)]
    bad = min(bad, *map(len, cols))
    minute, i, j, n, m, v, d, s, p, si, label = cols = [c[:bad] for c in cols]
    no_distance = no_distance[:bad]
    ok = (i >= 0) & (j >= 0) & (i != j) & (label >= 0)
    ok &= no_distance | (np.isfinite(d) & (d >= 0.0))
    for score in (s, p, si):
        ok &= np.isfinite(score) & (score >= 0.0)
    ok &= ~no_distance | ((p == 0.0) & (si == 0.0))
    bad = _first_false(ok, bad)
    return [c[:bad] for c in cols], bad


def _chunk_lines(payloads: list[bytes]) -> list[str]:
    """The payloads as text, up to the first one that is not UTF-8."""
    try:
        lines = b"\n".join(payloads).decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = []
    if len(lines) == len(payloads):
        return lines
    # Not UTF-8, or a payload holds an LF (which `int` accepts around a
    # number): decode each frame on its own.
    lines = []
    for payload in payloads:
        try:
            lines.append(payload.decode("utf-8"))
        except UnicodeDecodeError:
            break
    return lines


def _corrupt(path, k: int, payload: bytes) -> StoreError:
    """The StoreError of record #k, which a vectorised rule rejected."""
    try:
        parse_record_row(payload.decode("utf-8"))
    except ValueError as exc:       # UnicodeDecodeError included
        return StoreError(f"{path}: corrupt record #{k}: {exc}")
    raise AssertionError(f"{path}: record #{k} rejected but parses")


def _key_breach(last: list[np.ndarray], cols: list[np.ndarray], names: list) -> int:
    """Index in `cols` of the first row whose key (minute, i, j) does not
    exceed the key before it (`last` holds the previous chunk's final row),
    or the number of rows when keys only increase."""
    rank = _node_ranks(names)
    minute, i, j = (np.concatenate([a, b]) for a, b in zip(last, cols[:3]))
    i, j = rank[i], rank[j]
    up = (minute[1:] > minute[:-1]) | ((minute[1:] == minute[:-1]) & (
        (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))))
    return _first_false(up, len(up)) + 1 - len(last[0])


def _payload_chunks(data: bytes):
    """Yield (payloads, end) for every `_READ_FRAMES` whole frames after the
    magic; `end` is the offset just past the chunk's last frame."""
    unpack, size = _LEN.unpack_from, len(data)
    pos, payloads = len(MAGIC), []
    while pos + _LEN.size <= size:
        start = pos + _LEN.size
        stop = start + unpack(data, pos)[0]
        if stop > size:
            break           # a torn final frame
        payloads.append(data[start:stop])
        pos = stop
        if len(payloads) == _READ_FRAMES:
            yield payloads, pos
            payloads = []
    if payloads:
        yield payloads, pos


def _read_columns(path):
    """(columns, node ids in code order, end of the last whole frame) of the
    log at `path`; raises StoreError at the first bad record in file order."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:len(MAGIC)] != MAGIC:
        raise StoreError(f"{path}: not a record log (bad magic)")
    codes: dict[str, int] = {}
    names: list[str] = []
    chunks: list[list[np.ndarray]] = []
    last = [np.empty(0, dtype=np.int64)] * 3
    count, end = 0, len(MAGIC)
    for payloads, end in _payload_chunks(data):
        cols, bad = _text_columns(_chunk_lines(payloads), codes, names)
        breach = _key_breach(last, cols, names)
        if breach < bad:
            raise StoreError(f"{path}: keys not increasing at record #{count + breach}")
        if bad < len(payloads):
            raise _corrupt(path, count + bad, payloads[bad])
        chunks.append(cols)
        last = [c[-1:] for c in cols[:3]]
        count += bad
    columns = [np.concatenate(c) for c in zip(*chunks)] if chunks else _empty_columns()
    return columns, names, end


class RecordLog:
    """File-backed, append-only sequence of MinuteRecords.

    Open with `create` for a fresh writable log, `open` to read or continue
    an existing one.  A single writer appends minute batches; readers see
    the columns loaded at open time plus whatever this handle appended
    since, which joins the columns at the next read.
    """

    def __init__(self, path, handle, columns: list[np.ndarray], names: list[str]):
        self.path = str(path)
        self._handle = handle
        self._writable = handle is not None
        self._columns = columns
        self._names = names              # node id of each code, first seen first
        self._codes = {name: code for code, name in enumerate(names)}
        self._appended: list[MinuteRecord] = []   # since the last read
        self._last_key = self._records(slice(-1, None))[0].key() if len(self) else None

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, path) -> "RecordLog":
        handle = open(path, "wb")
        handle.write(MAGIC)
        handle.flush()
        return cls(path, handle, _empty_columns(), [])

    @classmethod
    def open(cls, path, writable: bool = False) -> "RecordLog":
        columns, names, good_end = _read_columns(path)
        if writable:
            handle = open(path, "r+b")
            handle.truncate(good_end)   # drop any torn tail before appending
            handle.seek(good_end)
        else:
            handle = None
        return cls(path, handle, columns, names)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes ---------------------------------------------------------------

    def append(self, records) -> None:
        """Append one minute's batch; empty batches are a no-op.

        Every record key must exceed the last stored key: minutes only move
        forward, and within a minute only new pairs may arrive.  The whole
        batch is checked before anything is written, so a rejected batch
        leaves the log as it was.
        """
        records = list(records)
        if not records:
            return
        if self._handle is None:
            state = "is closed" if self._writable else "opened read-only"
            raise StoreError(f"{self.path}: log {state}")
        last = self._last_key
        for record in records:
            key = record.key()
            if last is not None and key <= last:
                raise StoreError(f"out-of-order append: {key} after {last}")
            last = key
        frames = bytearray()
        for record in records:
            payload = format_record_row(record).encode("utf-8")
            frames += _LEN.pack(len(payload))
            frames += payload
        self._handle.write(frames)
        self._handle.flush()
        self._appended.extend(records)
        self._last_key = last

    # -- reads ------------------------------------------------------------------

    def _current(self) -> list[np.ndarray]:
        """The columns, with the records appended since the last read added.

        Appended records are read from their payload text, as a reopen reads
        them, so a record the log cannot hold fails here as it would there.
        The records themselves are kept until then, not their text: the
        engine holds them anyway, so a writer that never reads pays nothing.
        """
        if self._appended:
            lines = [format_record_row(record) for record in self._appended]
            codes, names = dict(self._codes), list(self._names)
            added, bad = _text_columns(lines, codes, names)
            if bad < len(lines):
                raise _corrupt(self.path, len(self._columns[0]) + bad,
                               lines[bad].encode("utf-8"))
            self._columns = [np.concatenate(pair) for pair in zip(self._columns, added)]
            self._codes, self._names = codes, names
            self._appended.clear()
        return self._columns

    def _records(self, rows) -> list[MinuteRecord]:
        """MinuteRecords of the stored rows `rows` (an index array or slice)."""
        minute, i, j, n, m, v, d, s, p, si, label = (
            c[rows].tolist() for c in self._current())
        names = self._names
        return list(map(MinuteRecord, minute, [names[c] for c in i],
                        [names[c] for c in j], n, m, v, d, s, p, si,
                        [_LABELS[c] for c in label]))

    def _rows(self, pair: tuple[str, str] | None, from_minute: int,
              to_minute: int | None) -> np.ndarray:
        """Indices of the rows of `pair` (of every pair if None) in the range."""
        if to_minute is not None and to_minute < from_minute:
            raise StoreError(f"empty minute range [{from_minute}, {to_minute}]")
        minute, i, j = self._current()[:3]
        if pair is None:
            rows = np.arange(len(minute))
        else:
            ci, cj = (self._codes.get(name, -1) for name in pair)
            rows = np.flatnonzero((i == ci) & (j == cj))
        minutes = minute[rows]
        lo = np.searchsorted(minutes, from_minute, "left")
        hi = len(rows) if to_minute is None else np.searchsorted(minutes, to_minute, "right")
        return rows[lo:hi]

    def __len__(self) -> int:
        return len(self._columns[0]) + len(self._appended)

    def records(self) -> list[MinuteRecord]:
        return self._records(slice(None))

    def node_ids(self) -> set[str]:
        self._current()
        return set(self._names)

    def query(self, pair: tuple[str, str], from_minute: int = 0,
              to_minute: int | None = None) -> list[MinuteRecord]:
        """Stored records for the ordered pair with minute in the range.

        Bounds are inclusive; `to_minute=None` means no upper bound.
        """
        return self._records(self._rows(pair, from_minute, to_minute))


def export_csv(log: RecordLog, path, pair: tuple[str, str] | None = None,
               from_minute: int = 0, to_minute: int | None = None) -> int:
    """Export (a filtered view of) a log to minute-record CSV; returns rows.

    MinuteRecords are built one write chunk at a time, never all at once.
    """
    rows = log._rows(pair, from_minute, to_minute)
    chunks = (log._records(rows[k:k + _WRITE_CHUNK])
              for k in range(0, len(rows), _WRITE_CHUNK))
    write_minute_records(chain.from_iterable(chunks), path)
    return len(rows)
