"""CSV codecs for sensor traces and minute records.

This is the boundary between files and domain values, and the repo's public
data contract.  Column layouts (headers mandatory, comma separator, LF line
ends):

* sightings: ``t_ms,observer,subject,rssi_dbm``
* accel:     ``t_ms,node,ax,ay,az``
* sound:     ``t_ms,node,amplitude``
* records:   ``minute,i,j,n_i,m_i,v_i,d_m,s_s,p,si,nearness``

The records layout is output only: `export` writes it, and the record log
stores one such row per frame.  Reals are serialized with ``repr`` so that
parse(format(x)) == x bit for bit; ``d_m`` is ``inf``, in memory as in the
file, when the pair had no fresh distance estimate.
Trace files need only be time-ordered within each stream (one per ordered
observer/subject pair, one per node for accel and sound); reading sorts the
sightings by (t_ms, observer, subject) and each node's series by time.
Readers split text exactly as the writers join it: only LF ends a line, and
a field is the text between two commas, verbatim and unquoted (CR and NUL
are data).  Parsing is strict: the first malformed header, byte that is not
UTF-8, non-numeric field, range violation, out-of-order timestamp or
self-sighting aborts with its line and column.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .domain import (
    RSSI_MAX_DBM,
    RSSI_MIN_DBM,
    DomainError,
    MinuteRecord,
    Nearness,
    validate_node_id,
)

SIGHTINGS_HEADER = ["t_ms", "observer", "subject", "rssi_dbm"]
ACCEL_HEADER = ["t_ms", "node", "ax", "ay", "az"]
SOUND_HEADER = ["t_ms", "node", "amplitude"]
RECORDS_HEADER = ["minute", "i", "j", "n_i", "m_i", "v_i",
                  "d_m", "s_s", "p", "si", "nearness"]

SIGHTINGS_FILENAME = "sightings.csv"
ACCEL_FILENAME = "accel.csv"
SOUND_FILENAME = "sound.csv"

_WRITE_CHUNK = 16384


class ParseError(ValueError):
    """A trace file failed to parse; carries the exact location."""

    def __init__(self, path, line: int, column: int, message: str):
        self.path = str(path)
        self.line = line
        self.column = column
        super().__init__(f"{self.path}:{line}:{column}: {message}")


def fmt_float(x) -> str:
    """Shortest decimal form that parses back to the identical float."""
    return repr(float(x))


# --- in-memory trace container ----------------------------------------------

@dataclass(frozen=True)
class SightingTable:
    """All radio sightings, column-wise, sorted by (t_ms, observer, subject).

    Files need only keep each (observer, subject) stream in time order;
    `read_traces` sorts the rows into this canonical order (stably, so rows
    with equal keys keep their file order).
    """
    t_ms: np.ndarray        # int64
    observer: np.ndarray    # object (str)
    subject: np.ndarray     # object (str)
    rssi_dbm: np.ndarray    # float64

    def __len__(self) -> int:
        return len(self.t_ms)


@dataclass(frozen=True)
class AccelSeries:
    """One node's accelerometer stream, time-sorted."""
    t_ms: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray

    def __len__(self) -> int:
        return len(self.t_ms)


@dataclass(frozen=True)
class SoundSeries:
    """One node's amplitude stream, time-sorted."""
    t_ms: np.ndarray
    amplitude: np.ndarray

    def __len__(self) -> int:
        return len(self.t_ms)


@dataclass(frozen=True)
class TraceSet:
    """The three sensor streams of one run, split per node where applicable."""
    sightings: SightingTable
    accel: dict[str, AccelSeries] = field(default_factory=dict)
    sound: dict[str, SoundSeries] = field(default_factory=dict)

    def nodes(self) -> list[str]:
        names = set(self.accel) | set(self.sound)
        names.update(self.sightings.observer.tolist())
        names.update(self.sightings.subject.tolist())
        return sorted(names)

    def counts(self) -> tuple[int, int, int]:
        return (len(self.sightings),
                sum(len(s) for s in self.accel.values()),
                sum(len(s) for s in self.sound.values()))

    def max_t_ms(self) -> int:
        """Latest timestamp over all streams, -1 when there is none."""
        columns = [self.sightings.t_ms]
        columns += [s.t_ms for s in self.accel.values()]
        columns += [s.t_ms for s in self.sound.values()]
        return max((int(c.max()) for c in columns if len(c)), default=-1)


def traces_equal(a: TraceSet, b: TraceSet) -> bool:
    """Bit-exact equality of two trace sets (float columns compared bitwise)."""
    if sorted(a.accel) != sorted(b.accel) or sorted(a.sound) != sorted(b.sound):
        return False
    sa, sb = a.sightings, b.sightings
    if not (np.array_equal(sa.t_ms, sb.t_ms)
            and np.array_equal(sa.observer, sb.observer)
            and np.array_equal(sa.subject, sb.subject)
            and np.array_equal(sa.rssi_dbm, sb.rssi_dbm)):
        return False
    for node in a.accel:
        xa, xb = a.accel[node], b.accel[node]
        if not all(np.array_equal(getattr(xa, c), getattr(xb, c))
                   for c in ("t_ms", "ax", "ay", "az")):
            return False
    for node in a.sound:
        xa, xb = a.sound[node], b.sound[node]
        if not (np.array_equal(xa.t_ms, xb.t_ms)
                and np.array_equal(xa.amplitude, xb.amplitude)):
            return False
    return True


# --- reading -----------------------------------------------------------------
#
# Trace files are parsed a chunk of lines at a time into numpy columns.  Each
# chunk is split on LF and commas, as `_fields` splits one line, converted
# with Python's own int/float, then checked with vectorised rules; the
# stream-order rule runs once over the whole file.  When a check fails, the
# first offending row in file order is re-checked field by field with the
# scalar helpers below, so the ParseError names the same line, column and
# message a row-at-a-time reader would: within a row the fields are checked
# left to right, and stream order last.

_READ_CHUNK = 1 << 20      # characters of CSV text converted per step
_T_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class _Layout:
    """Column rules of one trace file.

    `kinds` holds one letter per column: ``t`` timestamp, ``n`` node id,
    ``s`` node id that must differ from the node id before it (the sighted
    subject), ``r`` finite real.  `bounds` maps a real column's index to
    (lo, hi, name, range text) for a closed range check.
    """
    header: list[str]
    kinds: str
    bounds: dict = field(default_factory=dict)


_SIGHTINGS = _Layout(SIGHTINGS_HEADER, "tnsr", {
    3: (RSSI_MIN_DBM, RSSI_MAX_DBM, "rssi", f"[{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]")})
_ACCEL = _Layout(ACCEL_HEADER, "tnrrr")
_SOUND = _Layout(SOUND_HEADER, "tnr", {2: (0.0, 1.0, "amplitude", "[0, 1]")})


def _open_text(path):
    """Open a CSV file whose lines end at LF only; bad bytes become surrogates."""
    return open(path, "r", newline="\n", encoding="utf-8", errors="surrogateescape")


def _fields(line: str) -> list[str]:
    """One line's fields, verbatim; a blank line has none."""
    line = line.removesuffix("\n")
    return line.split(",") if line else []


def _check_header(path, row, expected):
    if row != expected:
        raise ParseError(path, 1, 1,
                         f"malformed header: expected {','.join(expected)}")


def _parse_int(path, line, column, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line, column, f"invalid integer {text!r}") from None


def _parse_float(path, line, column, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(path, line, column, f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line, column, f"non-finite value {text!r}")
    return value


def _parse_node(path, line, column, text) -> str:
    try:
        return validate_node_id(text)
    except DomainError as exc:
        raise ParseError(path, line, column, str(exc)) from None


def _parse_t(path, line, column, text, epoch_ms) -> int:
    t = _parse_int(path, line, column, text) - epoch_ms
    if t < 0:
        raise ParseError(path, line, column,
                         f"timestamp {text} before the scenario epoch")
    if t > _T_MAX:
        raise ParseError(path, line, column,
                         f"timestamp {text} beyond the 64-bit range")
    return t


def _undecodable(text: str) -> bool:
    """Whether `text` holds bytes that were not UTF-8 in the file.

    Input files are decoded with ``surrogateescape``, which maps each such
    byte to a lone surrogate, so a bad byte fails like any other bad field:
    at its own line and column, after every earlier violation.
    """
    return not text.isascii() and any("\udc80" <= c <= "\udcff" for c in text)


def _raise_row_error(path, line, row, layout, epoch_ms) -> None:
    """Re-check one row field by field and raise its first violation."""
    if len(row) != len(layout.header):
        raise ParseError(path, line, 1,
                         f"expected {len(layout.header)} fields, got {len(row)}")
    node = None
    for column, (kind, text) in enumerate(zip(layout.kinds, row), start=1):
        if _undecodable(text):
            raise ParseError(path, line, column, f"invalid UTF-8 in {text!r}")
        if kind == "t":
            _parse_t(path, line, column, text, epoch_ms)
        elif kind == "r":
            value = _parse_float(path, line, column, text)
            bounds = layout.bounds.get(column - 1)
            if bounds and not bounds[0] <= value <= bounds[1]:
                raise ParseError(path, line, column,
                                 f"{bounds[2]} {text} outside {bounds[3]}")
        else:
            previous, node = node, _parse_node(path, line, column, text)
            if kind == "s" and node == previous:
                raise ParseError(path, line, column, f"{node!r} sighted itself")
    raise AssertionError(f"{path}:{line}: row flagged but passes every check")


def _data_chunks(handle, ncols: int):
    """Yield the data lines a chunk at a time as (columns, count, lines).

    `columns` holds the fields of the first `count` lines as `ncols` lists
    of text; if `count < len(lines)`, line `count` has the wrong number of
    fields.
    """
    while lines := handle.readlines(_READ_CHUNK):
        commas = np.fromiter(map(str.count, lines, repeat(",")),
                             dtype=np.int64, count=len(lines))
        wrong = np.flatnonzero(commas != ncols - 1)
        count = int(wrong[0]) if len(wrong) else len(lines)
        text = "".join(lines[:count]).removesuffix("\n")
        flat = text.replace("\n", ",").split(",") if count else []
        yield [flat[k::ncols] for k in range(ncols)], count, lines


def _int_prefix(text: list[str], lo: int, hi: int) -> list[int]:
    """The values of `text` up to the first that is not an integer in [lo, hi]."""
    values: list[int] = []
    try:
        values.extend(map(int, text))
    except ValueError:
        pass      # `values` ends before the first non-integer
    if values and (min(values) < lo or max(values) > hi):
        values = values[:next(k for k, v in enumerate(values) if not lo <= v <= hi)]
    return values


def _real_prefix(text: list[str]) -> np.ndarray:
    """The values of `text` up to the first that is not a number."""
    values: list[float] = []
    try:
        values.extend(map(float, text))
    except ValueError:
        pass
    return np.array(values, dtype=np.float64)


def _node_codes(text: list[str], codes: dict, names: list) -> np.ndarray:
    """Codes into `names` (new valid ids are appended); -1 for an invalid id."""
    for name in set(text).difference(codes):
        try:
            validate_node_id(name)
        except DomainError:
            codes[name] = -1
        else:
            if _undecodable(name):
                codes[name] = -1
            else:
                codes[name] = len(names)
                names.append(name)
    return np.fromiter(map(codes.__getitem__, text), dtype=np.int64, count=len(text))


def _convert_chunk(columns, count: int, layout: _Layout, epoch_ms: int,
                   codes: dict, names: list):
    """Convert one chunk's columns and apply the per-row rules.

    Returns the converted columns (node ids as codes into `names`) cut
    before the chunk's first offending row, and that row's index (`count`
    when every row passes).
    """
    bad = count
    out = []
    previous = None
    for column, (kind, text) in enumerate(zip(layout.kinds, columns)):
        if kind == "t":
            values = _int_prefix(text, epoch_ms, epoch_ms + _T_MAX)
            if epoch_ms:
                values = [v - epoch_ms for v in values]
            bad = min(bad, len(values))
            out.append(np.array(values, dtype=np.int64))
        elif kind == "r":
            arr = _real_prefix(text)
            bad = min(bad, len(arr))
            ok = np.isfinite(arr)
            bounds = layout.bounds.get(column)
            if bounds:
                ok &= (arr >= bounds[0]) & (arr <= bounds[1])
            out.append(arr)
            bad = _first_false(ok, bad)
        else:
            arr = _node_codes(text, codes, names)
            ok = arr >= 0
            if kind == "s":
                ok &= arr != previous
            out.append(arr)
            bad = _first_false(ok, bad)
            previous = arr
    return [arr[:bad] for arr in out], bad


def _first_false(ok: np.ndarray, limit: int) -> int:
    head = ok[:limit]
    return limit if head.all() else int(np.argmin(head))


def _stream_order(t: np.ndarray, key: np.ndarray):
    """Stable sort by stream key, and the stream contract's first breach.

    Returns the sort order and, if a stream's timestamp ever decreases, the
    first such row in file order with the timestamp before it in its stream
    (else None).
    """
    order = np.argsort(key, kind="stable")
    t_sorted, key_sorted = t[order], key[order]
    drops = np.flatnonzero((key_sorted[1:] == key_sorted[:-1])
                           & (t_sorted[1:] < t_sorted[:-1]))
    if not len(drops):
        return order, None
    k = drops[np.argmin(order[drops + 1])]
    return order, (int(order[k + 1]), int(t_sorted[k]))


def _read_columns(path, layout: _Layout, epoch_ms: int):
    """Parse one trace file into columns in file order; checks every rule.

    Returns (columns, names, order): node columns are codes into `names`,
    and `order` stably sorts the rows by stream (observer and subject for
    sightings, node otherwise).
    """
    ncols = len(layout.header)
    node_columns = [k for k, kind in enumerate(layout.kinds) if kind in "ns"]
    codes: dict[str, int] = {}
    names: list[str] = []
    parts: list[list[np.ndarray]] = [[] for _ in range(ncols)]

    def columns():
        cols = [np.concatenate(part) if part
                else np.empty(0, dtype=np.float64 if kind == "r" else np.int64)
                for part, kind in zip(parts, layout.kinds)]
        parts[:] = [[c] for c in cols]    # frees the chunks
        return cols

    def stream_order(cols):
        key = cols[node_columns[0]]
        for k in node_columns[1:]:
            key = key * len(names) + cols[k]
        order, breach = _stream_order(cols[0], key)
        if breach is not None:
            row, prev = breach
            stream = tuple(names[cols[k][row]] for k in node_columns)
            raise ParseError(path, row + 2, 1,
                             f"timestamp decreases within stream "
                             f"{stream if len(stream) > 1 else stream[0]}: "
                             f"{int(cols[0][row])} after {prev}")
        return order

    with _open_text(path) as handle:
        first = handle.readline()
        if first:
            _check_header(path, _fields(first), layout.header)
        line = 2
        for text_columns, count, lines in _data_chunks(handle, ncols):
            converted, bad = _convert_chunk(text_columns, count, layout,
                                            epoch_ms, codes, names)
            for part, arr in zip(parts, converted):
                part.append(arr)
            if bad < len(lines):
                stream_order(columns())       # an earlier order breach wins
                _raise_row_error(path, line + bad, _fields(lines[bad]), layout, epoch_ms)
            line += len(lines)
    cols = columns()
    return cols, names, stream_order(cols)


def _node_ranks(names: list[str]) -> np.ndarray:
    """rank[code] is the position of names[code] in sorted order."""
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


def _per_node(cols, names, order) -> dict:
    """Split stream-sorted columns into {node: [t_ms, values...]}, by node name."""
    starts = np.searchsorted(cols[1][order], np.arange(len(names) + 1))
    series = {}
    for code in sorted(range(len(names)), key=names.__getitem__):
        rows = order[starts[code]:starts[code + 1]]
        series[names[code]] = [cols[0][rows]] + [c[rows] for c in cols[2:]]
    return series


def read_traces(sightings_path, accel_path, sound_path, epoch_ms: int = 0) -> TraceSet:
    """Parse and validate the three trace files into a TraceSet.

    `epoch_ms` is subtracted from every timestamp, mapping wall-clock inputs
    onto the scenario-relative axis.  Files need only be time-ordered within
    each stream; sightings come back sorted by (t_ms, observer, subject) and
    each node's accel and sound series by time (rows with equal keys keep
    their file order).  The first violation of the stream contract, in file
    order, aborts with the offending line and column.
    """
    (t, obs, subj, rssi), names, _ = _read_columns(sightings_path, _SIGHTINGS, epoch_ms)
    rank = _node_ranks(names)
    order = np.lexsort((rank[subj], rank[obs], t))
    name_of = np.array(names, dtype=object)
    sightings = SightingTable(t[order], name_of[obs[order]], name_of[subj[order]],
                              rssi[order])
    accel = {node: AccelSeries(*cols) for node, cols
             in _per_node(*_read_columns(accel_path, _ACCEL, epoch_ms)).items()}
    sound = {node: SoundSeries(*cols) for node, cols
             in _per_node(*_read_columns(sound_path, _SOUND, epoch_ms)).items()}
    return TraceSet(sightings, accel, sound)


# --- writing -----------------------------------------------------------------

def _write_csv(path, header: list[str], columns: list[np.ndarray],
               order: np.ndarray | None, format_rows) -> None:
    """Write a header and the rows of `columns`, `_WRITE_CHUNK` rows at a time.

    Rows go out in `order` (row indices), or as stored when it is None.
    `format_rows` maps one block of columns, as Python lists (ints and
    floats, so ``!r`` gives the repr form), to its text lines.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _WRITE_CHUNK):
            hi = lo + _WRITE_CHUNK
            rows = slice(lo, hi) if order is None else order[lo:hi]
            handle.writelines(format_rows(*(c[rows].tolist() for c in columns)))


def write_traces(traces: TraceSet, out_dir) -> tuple[str, str, str]:
    """Write the three trace CSVs into `out_dir`; returns their paths.

    Sightings are written in table order, accel and sound rows merged over
    all nodes by (t_ms, node).  Reading the files back reproduces the
    TraceSet exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    s_path = os.path.join(out_dir, SIGHTINGS_FILENAME)
    a_path = os.path.join(out_dir, ACCEL_FILENAME)
    d_path = os.path.join(out_dir, SOUND_FILENAME)
    tab = traces.sightings
    _write_csv(s_path, SIGHTINGS_HEADER,
               [np.asarray(tab.t_ms, dtype=np.int64), tab.observer, tab.subject,
                np.asarray(tab.rssi_dbm, dtype=np.float64)], None,
               lambda t, obs, subj, rssi: [f"{a},{b},{c},{d!r}\n" for a, b, c, d
                                           in zip(t, obs, subj, rssi)])
    _write_csv(a_path, ACCEL_HEADER, *_merged_columns(traces.accel, ("ax", "ay", "az")),
               lambda t, node, ax, ay, az: [f"{a},{b},{x!r},{y!r},{z!r}\n" for a, b, x, y, z
                                            in zip(t, node, ax, ay, az)])
    _write_csv(d_path, SOUND_HEADER, *_merged_columns(traces.sound, ("amplitude",)),
               lambda t, node, amp: [f"{a},{b},{x!r}\n" for a, b, x in zip(t, node, amp)])
    return (s_path, a_path, d_path)


def _merged_columns(series_by_node: dict, values: tuple[str, ...]):
    """Columns [t_ms, node, *values] of all nodes' series, and the row order
    that sorts them by (t_ms, node)."""
    nodes = sorted(series_by_node)
    parts = [series_by_node[n] for n in nodes]
    codes = np.repeat(np.arange(len(nodes)), [len(p.t_ms) for p in parts])

    def joined(name, dtype):
        return np.concatenate([getattr(p, name) for p in parts] or [[]]).astype(dtype, copy=False)

    t = joined("t_ms", np.int64)
    columns = [t, np.array(nodes, dtype=object)[codes]]
    columns += [joined(v, np.float64) for v in values]
    return columns, np.lexsort((codes, t))


# --- minute-record codec -------------------------------------------------------

def format_record_row(minute: int, i: str, j: str, n_i: int, m_i: int, v_i: int,
                      d_m: float, s_s: float, p: float, si: float, nearness: Nearness) -> str:
    """One CSV row (no newline) of a minute record's eleven field values."""
    return (f"{minute},{i},{j},{n_i},{m_i},{v_i},{fmt_float(d_m)},{fmt_float(s_s)},"
            f"{fmt_float(p)},{fmt_float(si)},{nearness.value}")


_NEARNESS_BY_NAME = {n.value: n for n in Nearness}


def parse_record_row(row: str) -> MinuteRecord:
    """Parse one minute-record CSV row; raises ValueError on any violation."""
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
    if fields[10] not in _NEARNESS_BY_NAME:
        raise ValueError(f"unknown nearness label {fields[10]!r}")
    return MinuteRecord(minute, i, j, n_i, m_i, v_i, d_m, s_s, p, si,
                        _NEARNESS_BY_NAME[fields[10]])


def write_minute_records(rows, path) -> None:
    """Write a minute-record CSV; each row is a record's eleven field values."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(RECORDS_HEADER) + "\n")
        handle.writelines(format_record_row(*row) + "\n" for row in rows)
