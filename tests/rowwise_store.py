"""Reference record-log reader: one frame at a time, each payload parsed alone.

This is the scanner the columnar `RecordLog.open` replaced.  Tests use it as
an oracle for the records a log holds, the byte offset where its last whole
frame ends, and the exact StoreError of a damaged log.
"""

from __future__ import annotations

from nearness.domain import MinuteRecord
from nearness.ingest import parse_record_row
from nearness.store import _LEN, MAGIC, StoreError


def scan_rowwise(path) -> tuple[list[MinuteRecord], int]:
    """(records, end of the last whole frame) of the log at `path`."""
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
            key = (record.minute, record.i, record.j)
            if records and key <= last_key:
                raise StoreError(
                    f"{path}: keys not increasing at record #{len(records)}")
            records.append(record)
            last_key = key
            good_end = handle.tell()
    return records, good_end
