"""Append-only persistent log of minute records.

The engine's local result database: only fused minute records are ever
written here, never raw samples.  File format: the magic bytes ``NSNS1``
followed by repeated frames of ``[u32 big-endian length][payload]``, where
the payload is one minute-record CSV row (UTF-8, no newline, layout as in
`ingest`).

Keys (minute, i, j) are strictly increasing, so the file is a time-ordered
journal.  A log truncated at any frame boundary reopens cleanly as a prefix
of the original sequence; a torn final frame is dropped on open.

The log is held as numpy columns, one per MinuteBatch field, with node ids
as codes in first-seen order (the key-order check ranks them by id).
`open` reads the file in one pass.  `_scan` finds the frames with numpy
and checks that they are exactly those a frame-by-frame walk finds; where
it cannot (a payload that ends in a NUL byte or holds two in a row, an
empty payload, a frame of 64 KiB or more), the walk reads the rest of the
log.  Each run of frames the scan or the walk yields is read as it comes:
its payloads are joined with an LF in place of each header and handed to
`ingest.RECORDS.read_rows`, the one row splitter, which reads trace files
too.  A payload that is not UTF-8 reaches the record layout's rules as lone
surrogates, which every field's conversion rejects.  `append` takes a
MinuteBatch and writes its frames unbuffered; a write that fails (a full
disk, the file size limit) cuts the file back to its last whole frame.  The
log keeps views of the finished run's blocks, which `run` hands it.  Both
`open` and `append` run the table's rules and the key-order check on whole
columns, so `append` writes only what a reopen reads.  The first record
either one rejects goes through the same table alone, in table order, via
`parse_record_row`, which words its StoreError as a frame-at-a-time scanner
does.  Frames and exports are formatted from the columns, and `query`
returns a MinuteBatch of the rows it selects.
"""

from __future__ import annotations

import struct
from itertools import chain

import numpy as np

from .domain import LABELS, MinuteBatch
from .ingest import (
    NO_ROWS,
    RECORDS,
    _WRITE_BLOCK,
    first_false,
    format_record_row,
    naming_write_errors,
    node_codes,
    node_ranks,
    parse_record_row,
    write_minute_records,
)

MAGIC = b"NSNS1"
_LEN = struct.Struct(">I")
_SCAN_BYTES = 1 << 17      # bytes of frames searched for headers, and converted, per step


class StoreError(ValueError):
    pass


# --- columnar read ---------------------------------------------------------------

# one empty column per MinuteBatch field, typed as `open` reads them (node
# ids and labels are codes); shared, as nothing can write into them
_EMPTY = tuple(RECORDS.read_rows(*NO_ROWS, 0, {}, [])[0])
_KINDS = "".join(c.dtype.kind for c in _EMPTY)


def _corrupt(path, k: int, payload: bytes) -> StoreError:
    """The StoreError of record #k, which a vectorised rule rejected."""
    try:
        parse_record_row(payload.decode("utf-8"))
    except ValueError as exc:       # UnicodeDecodeError included
        return StoreError(f"{path}: corrupt record #{k}: {exc}")
    raise AssertionError(f"{path}: record #{k} rejected but parses")


def _payload(batch: MinuteBatch, k: int) -> bytes:
    """Row k of `batch` as a frame would hold it, for `_corrupt` to word.  A
    label code outside LABELS is written as its number, which reads as no
    label, and a lone surrogate in an id as bytes that are not UTF-8."""
    *values, code = (c[k:k + 1].tolist()[0] for c in batch.columns())
    label = LABELS[code] if 0 <= code < len(LABELS) else str(code)
    return format_record_row(*values, label).encode("utf-8", "surrogatepass")


def _key_breach(last: list[np.ndarray], cols: list[np.ndarray], rank: np.ndarray) -> int:
    """Index in `cols` of the first row whose key (minute, i, j) does not
    exceed the key before it (`last` holds the previous chunk's final row),
    or the number of rows when keys only increase; ids compare by `rank`."""
    minute, i, j = (np.concatenate([a, b]) for a, b in zip(last, cols[:3]))
    pair = rank[i] * len(rank) + rank[j]      # orders as (rank[i], rank[j])
    up = (minute[1:] > minute[:-1]) | ((minute[1:] == minute[:-1]) & (pair[1:] > pair[:-1]))
    return first_false(up, len(up)) + 1 - len(last[0])


def _walk(data: bytes, pos: int):
    """The frame walk from the header at offset `pos`, one frame at a time:
    yields the payload bounds (starts, stops) of the whole frames up to a
    torn one or to fewer than four bytes, in runs that end once they span
    `_SCAN_BYTES` bytes, as the scan's windows do."""
    unpack, size = _LEN.unpack_from, len(data)
    starts: list[int] = []
    stops: list[int] = []
    run = pos       # where the current run starts
    while pos + _LEN.size <= size:
        stop = pos + _LEN.size + unpack(data, pos)[0]
        if stop > size:
            break           # a torn final frame
        starts.append(pos + _LEN.size)
        stops.append(stop)
        pos = stop
        if pos - run >= _SCAN_BYTES:
            yield np.array(starts), np.array(stops)
            starts, stops, run = [], [], pos
    if starts:
        yield np.array(starts), np.array(stops)


def _scan(data: bytes):
    """Yield the payload bounds (starts, stops) of the log's whole frames in
    runs, as the frame walk from the magic finds them.

    Headers are searched for `_SCAN_BYTES` at a time.  A candidate is the
    first byte of a run of two or more zero bytes, as every frame shorter
    than 64 KiB starts with two.  The window's candidates must chain from
    the header the walk is at, each at the one before plus four plus its
    length, with no candidate between; where they do not (a payload that
    ends in a NUL byte or holds two in a row, an empty payload, a frame of
    64 KiB or more, a torn frame), the walk goes on from the last header the
    chain reached.
    """
    view = np.frombuffer(data, dtype=np.uint8)
    size, pos = len(data), len(MAGIC)
    while pos + _LEN.size <= size:
        hi = min(pos + _SCAN_BYTES, size - 1)      # candidates p < hi have p + 1 < size
        zero = view[pos - 1:hi + 1] == 0           # from the byte before `pos`
        heads = np.flatnonzero(zero[1:-1] & zero[2:] & ~zero[:-2]) + pos
        del zero
        if not len(heads) or heads[0] != pos:
            break
        # candidates lie three bytes apart at least, so only the last one's
        # length can run past the end, and then it reads as torn below
        length = (view[np.minimum(heads + 2, size - 1)].astype(np.int64) << 8
                  | view[np.minimum(heads + 3, size - 1)])
        stops = heads + _LEN.size + length
        chained = first_false(heads[1:] == stops[:-1], len(heads) - 1)
        if chained < len(heads) - 1 or stops[-1] > size:
            # the chain breaks after heads[chained], or the last frame is torn
            if chained:
                yield heads[:chained] + _LEN.size, stops[:chained]
            pos = int(heads[chained])
            break
        yield heads + _LEN.size, stops
        pos = int(stops[-1])
    yield from _walk(data, pos)


def _read_chunk(view: np.ndarray, starts: np.ndarray, stops: np.ndarray, codes: dict,
                names: list):
    """`RECORDS.read_rows` of the frames whose payloads span `starts` to
    `stops` in `view`, the log's bytes, one after another.  The payloads are
    joined with an LF in place of each header between two: a header byte
    may be a comma, and a payload may hold an LF, so the rows end where the
    frames say."""
    base = int(starts[0])
    keep = np.ones(int(stops[-1]) - base, dtype=bool)
    heads = stops[:-1] - base      # each header between two payloads
    for k in range(1, _LEN.size):
        keep[heads + k] = False
    rows = view[base:stops[-1]][keep]
    del keep
    ends = stops - base - (_LEN.size - 1) * np.arange(len(stops))     # in `rows`
    rows[ends[:-1]] = ord("\n")
    return RECORDS.read_rows(rows, ends, 0, codes, names)


def _read_columns(path):
    """(columns, node ids in code order, end of the last whole frame) of the
    log at `path`; raises StoreError at the first bad record in file order."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:len(MAGIC)] != MAGIC:
        raise StoreError(f"{path}: not a record log (bad magic)")
    view = np.frombuffer(data, dtype=np.uint8)
    codes: dict[str, int] = {}
    names: list[str] = []
    chunks = [_EMPTY]
    count, end = 0, len(MAGIC)
    for starts, stops in _scan(data):
        cols, bad = _read_chunk(view, starts, stops, codes, names)
        breach = _key_breach([c[-1:] for c in chunks[-1][:3]], cols, node_ranks(names))
        if breach < bad:
            raise StoreError(f"{path}: keys not increasing at record #{count + breach}")
        if bad < len(starts):
            raise _corrupt(path, count + bad, data[starts[bad]:stops[bad]])
        chunks.append(cols)
        count, end = count + bad, int(stops[-1])
    del data, view
    return [np.concatenate(c) for c in zip(*chunks)], names, end


def _write_whole(handle, data: bytes) -> None:
    """Write `data` at the position of `handle`, an unbuffered file; if a
    write fails, cut the file back to where `data` started and re-raise,
    naming the file."""
    start = handle.tell()
    view = memoryview(data)
    with naming_write_errors(handle.name):
        try:
            while view:
                view = view[handle.write(view):]      # a raw write may be short
        except BaseException:
            handle.truncate(start)
            handle.seek(start)
            raise


class RecordLog:
    """File-backed, append-only sequence of minute records.

    Open with `create` for a fresh writable log, `open` to read or continue
    an existing one.  A single writer appends minute batches; readers see
    the columns loaded at open time plus the columns of every batch this
    handle appended since, which join them at the next read.
    """

    def __init__(self, path, handle, columns: list[np.ndarray], names: list[str]):
        self.path = str(path)
        self._handle = handle
        self._writable = handle is not None
        self._columns = columns
        self._pending: list[list[np.ndarray]] = []   # appended since the last read
        self._names = names              # node id of each code, first seen first
        self._codes = {name: code for code, name in enumerate(names)}

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, path) -> "RecordLog":
        handle = open(path, "wb", buffering=0)
        _write_whole(handle, MAGIC)
        return cls(path, handle, list(_EMPTY), [])

    @classmethod
    def open(cls, path, writable: bool = False) -> "RecordLog":
        columns, names, good_end = _read_columns(path)
        if writable:
            handle = open(path, "r+b", buffering=0)
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

    def append(self, batch: MinuteBatch) -> None:
        """Append a batch of records; empty batches are a no-op.

        The batch's columns must be of one length, and every record must
        pass the checks a reopen makes: the record rules, and a key above
        the last stored key (minutes only move forward, and within a minute
        only new pairs may arrive).  A rejected batch leaves the file, the
        node ids and the columns as they were.  The log keeps
        the batch's arrays as its own, so they must not change afterwards:
        `run` hands it views of the finished run's columns, one block of
        `_WRITE_BLOCK` records at a time.
        """
        if len({len(c) for c in batch.columns()}) > 1:
            raise StoreError(f"{self.path}: batch columns differ in length")
        if not len(batch):
            return
        if self._handle is None:
            state = "is closed" if self._writable else "opened read-only"
            raise StoreError(f"{self.path}: log {state}")
        codes, names = dict(self._codes), list(self._names)
        minute, i, j, *rest = batch.columns()
        cols = [minute, node_codes(i.tolist(), codes, names),
                node_codes(j.tolist(), codes, names), *rest]
        if "".join(c.dtype.kind for c in cols) != _KINDS:
            raise StoreError(f"{self.path}: batch column types differ from MinuteBatch's")
        bad = RECORDS.breach(cols)
        last = [c[-1:] for c in (self._pending or [self._columns])[-1][:3]]   # last stored key
        breach = _key_breach(last, [c[:bad] for c in cols[:3]], node_ranks(names))
        if breach < bad:
            raise StoreError(f"{self.path}: keys not increasing at record #{len(self) + breach}")
        if bad < len(batch):
            raise _corrupt(self.path, len(self) + bad, _payload(batch, bad))
        frames = bytearray()
        for row in zip(*batch.values()):
            payload = format_record_row(*row).encode("utf-8")
            frames += _LEN.pack(len(payload))
            frames += payload
        _write_whole(self._handle, frames)
        self._pending.append(cols)
        self._codes, self._names = codes, names

    # -- reads ------------------------------------------------------------------

    def _current(self) -> list[np.ndarray]:
        """The columns, joined with those appended since the last read."""
        if self._pending:
            self._columns = [np.concatenate(c) for c in zip(self._columns, *self._pending)]
            self._pending.clear()
        return self._columns

    def _batch(self, rows) -> MinuteBatch:
        """The stored rows `rows` (an index array or slice) as a batch."""
        minute, i, j, *rest = (c[rows] for c in self._current())
        names = np.array(self._names, dtype=object)
        return MinuteBatch(minute, names[i], names[j], *rest)

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
        return len(self._columns[0]) + sum(len(cols[0]) for cols in self._pending)

    def node_ids(self) -> set[str]:
        return set(self._names)

    def query(self, pair: tuple[str, str] | None = None, from_minute: int = 0,
              to_minute: int | None = None) -> MinuteBatch:
        """The stored records of the ordered pair (of every pair if None)
        with minute in the range, in key order.

        Bounds are inclusive; `to_minute=None` means no upper bound.
        """
        return self._batch(self._rows(pair, from_minute, to_minute))


def export_csv(log: RecordLog, path, pair: tuple[str, str] | None = None,
               from_minute: int = 0, to_minute: int | None = None) -> int:
    """Export (a filtered view of) a log to minute-record CSV; returns rows.

    Rows go from the columns to the CSV `_WRITE_BLOCK` records at a time,
    as trace rows do.
    """
    rows = log._rows(pair, from_minute, to_minute)
    chunks = (zip(*log._batch(rows[k:k + _WRITE_BLOCK]).values())
              for k in range(0, len(rows), _WRITE_BLOCK))
    write_minute_records(chain.from_iterable(chunks), path)
    return len(rows)
