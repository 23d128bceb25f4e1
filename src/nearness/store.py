"""Append-only persistent log of minute records.

The engine's local result database: only fused MinuteRecords are ever
written here, never raw samples.  File format: the magic bytes ``NSNS1``
followed by repeated frames of ``[u32 big-endian length][payload]``, where
the payload is one minute-record CSV row (UTF-8, no newline, layout as in
`ingest`).

Keys (minute, i, j) are strictly increasing, so the file is a time-ordered
journal.  A log truncated at any frame boundary reopens cleanly as a prefix
of the original sequence; a torn final frame is dropped on open.
"""

from __future__ import annotations

import os
import struct

from .domain import MinuteRecord
from .ingest import RECORDS_HEADER, format_record_row, parse_record_row, write_minute_records

MAGIC = b"NSNS1"
_LEN = struct.Struct(">I")


class StoreError(ValueError):
    pass


class RecordLog:
    """File-backed, append-only sequence of MinuteRecords.

    Open with `create` for a fresh writable log, `open` to read or continue
    an existing one.  A single writer appends minute batches; readers see
    the in-memory snapshot loaded at open time plus whatever this handle
    appended since.
    """

    def __init__(self, path, records: list[MinuteRecord], handle):
        self.path = str(path)
        self._records = records
        self._handle = handle
        self._last_key = records[-1].key() if records else None

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, path) -> "RecordLog":
        handle = open(path, "wb")
        handle.write(MAGIC)
        handle.flush()
        return cls(path, [], handle)

    @classmethod
    def open(cls, path, writable: bool = False) -> "RecordLog":
        records, good_end = cls._scan(path)
        if writable:
            handle = open(path, "r+b")
            handle.truncate(good_end)   # drop any torn tail before appending
            handle.seek(good_end)
        else:
            handle = None
        return cls(path, records, handle)

    @staticmethod
    def _scan(path) -> tuple[list[MinuteRecord], int]:
        records: list[MinuteRecord] = []
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise StoreError(f"{path}: not a record log (bad magic)")
            good_end = handle.tell()
            while True:
                header = handle.read(_LEN.size)
                if len(header) < _LEN.size:
                    break
                (length,) = _LEN.unpack(header)
                payload = handle.read(length)
                if len(payload) < length:
                    break
                try:
                    record = parse_record_row(payload.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise StoreError(
                        f"{path}: corrupt record #{len(records)}: {exc}") from None
                if records and record.key() <= records[-1].key():
                    raise StoreError(
                        f"{path}: keys not increasing at record #{len(records)}")
                records.append(record)
                good_end = handle.tell()
        return records, good_end

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
            raise StoreError(f"{self.path}: log opened read-only")
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
        self._records.extend(records)
        self._last_key = last

    # -- reads ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[MinuteRecord]:
        return list(self._records)

    def last_minute(self) -> int | None:
        return self._last_key[0] if self._last_key else None

    def node_ids(self) -> set[str]:
        names: set[str] = set()
        for record in self._records:
            names.add(record.i)
            names.add(record.j)
        return names

    def query(self, pair: tuple[str, str], from_minute: int = 0,
              to_minute: int | None = None) -> list[MinuteRecord]:
        """Stored records for the ordered pair with minute in the range.

        Bounds are inclusive; `to_minute=None` means no upper bound.
        """
        if to_minute is not None and to_minute < from_minute:
            raise StoreError(f"empty minute range [{from_minute}, {to_minute}]")
        i, j = pair
        return [r for r in self._records
                if r.i == i and r.j == j and r.minute >= from_minute
                and (to_minute is None or r.minute <= to_minute)]


def export_csv(log: RecordLog, path, pair: tuple[str, str] | None = None,
               from_minute: int = 0, to_minute: int | None = None) -> int:
    """Export (a filtered view of) a log to minute-record CSV; returns rows."""
    if pair is not None:
        records = log.query(pair, from_minute, to_minute)
    else:
        records = [r for r in log.records()
                   if r.minute >= from_minute
                   and (to_minute is None or r.minute <= to_minute)]
    write_minute_records(records, path)
    return len(records)
