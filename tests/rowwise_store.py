"""Reference record-log reader: one frame at a time, each payload parsed alone.

This is the scanner the columnar `RecordLog.open` replaced, with its own
copy of the scalar row parser the package used before its record rules
became one table, so the oracle shares no rule with the code it checks.
Tests use it for the records a log holds, the byte offset where its last
whole frame ends, and the exact StoreError of a damaged log.
"""

from __future__ import annotations

import math

from nearness.domain import validate_node_id
from nearness.store import _LEN, MAGIC, StoreError

_T_MAX = 2 ** 63 - 1
_LABELS = ("Low", "Avg", "High")


def parse_record_row(row: str) -> tuple:
    """Parse one minute-record CSV row into its eleven field values; raises
    ValueError on any violation."""
    fields = row.split(",")
    if len(fields) != 11:
        raise ValueError(f"expected 11 fields, got {len(fields)}")
    minute = int(fields[0])
    if minute < 0:
        raise ValueError(f"negative minute {minute}")
    if minute > _T_MAX:
        raise ValueError(f"minute {minute} beyond the 64-bit range")
    i = validate_node_id(fields[1])
    j = validate_node_id(fields[2])
    if i == j:
        raise ValueError(f"record pairs {i!r} with itself")
    n_i = int(fields[3])
    if n_i < 0:
        raise ValueError(f"negative node degree {n_i}")
    if n_i > _T_MAX:
        raise ValueError(f"node degree {n_i} beyond the 64-bit range")
    m_i = int(fields[4])
    if m_i not in (1, 2):
        raise ValueError(f"motion code {m_i} not in {{1, 2}}")
    v_i = int(fields[5])
    if not 0 <= v_i <= 3:
        raise ValueError(f"sound class {v_i} not in 0..3")
    if fields[6] == "inf":
        d_m = math.inf
    else:
        d_m = float(fields[6])
        if not (math.isfinite(d_m) and d_m >= 0.0):
            raise ValueError(f"bad distance {fields[6]!r}")
    s_s = float(fields[7])
    p = float(fields[8])
    si = float(fields[9])
    for name, value in (("s_s", s_s), ("p", p), ("si", si)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"bad {name} value {value!r}")
    if d_m == math.inf and (p != 0.0 or si != 0.0):
        raise ValueError("scores must be zero without a distance estimate")
    if fields[10] not in _LABELS:
        raise ValueError(f"unknown nearness label {fields[10]!r}")
    return (minute, i, j, n_i, m_i, v_i, d_m, s_s, p, si, fields[10])


def scan_rowwise(path) -> tuple[list[tuple], int]:
    """(records as tuples of field values, end of the last whole frame) of
    the log at `path`."""
    records: list[tuple] = []
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
            key = record[:3]
            if records and key <= last_key:
                raise StoreError(
                    f"{path}: keys not increasing at record #{len(records)}")
            records.append(record)
            last_key = key
            good_end = handle.tell()
    return records, good_end
