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
observer/subject pair, one per node for accel and sound), and reading gives
one time-ordered series per stream.  Both codecs work a block at a time:
the writer writes each file stream by stream, streams in key order, a block
of one stream's rows at a time, and the reader parses each file a chunk of
whole lines of bytes at a time and splits each chunk's accel and sound rows
by node as it goes.
Readers split text exactly as the writers join it: only LF ends a line, and
a field is the text between two commas, verbatim and unquoted (CR and NUL
are data).  Parsing is strict: the first malformed header, byte that is not
UTF-8, non-numeric field, range violation, out-of-order timestamp or
self-sighting aborts with its line and column.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .domain import (
    LABELS,
    RECORD_FIELDS,
    RSSI_MAX_DBM,
    RSSI_MIN_DBM,
    validate_node_id,
)

SIGHTINGS_HEADER = ["t_ms", "observer", "subject", "rssi_dbm"]
ACCEL_HEADER = ["t_ms", "node", "ax", "ay", "az"]
SOUND_HEADER = ["t_ms", "node", "amplitude"]
RECORDS_HEADER = list(RECORD_FIELDS)

SIGHTINGS_FILENAME = "sightings.csv"
ACCEL_FILENAME = "accel.csv"
SOUND_FILENAME = "sound.csv"


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
class SightingSeries:
    """One direction's radio sightings (its observer's of its subject), time-sorted."""
    t_ms: np.ndarray
    rssi_dbm: np.ndarray

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


class DrawnAccel(Mapping):
    """Read-only map of node -> AccelSeries whose series are drawn on lookup.

    Every series shares the time axis `t_ms`, which is read-only.  Looking a
    node up calls `draw(node)` for its (ax, ay, az) columns and keeps
    nothing, so a caller holds only the series it is using.  Membership,
    iteration and the length read the node ids alone.
    """

    def __init__(self, t_ms: np.ndarray, nodes, draw: Callable):
        t_ms.flags.writeable = False
        self.t_ms = t_ms
        self._nodes = dict.fromkeys(nodes)
        self._draw = draw

    def __getitem__(self, node: str) -> AccelSeries:
        if node not in self._nodes:
            raise KeyError(node)
        return AccelSeries(self.t_ms, *self._draw(node))

    def __contains__(self, node) -> bool:
        return node in self._nodes

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


def _time_columns(series: Mapping) -> list[np.ndarray]:
    """The time column of every stream's series, drawing no samples."""
    if isinstance(series, DrawnAccel):
        return [series.t_ms] * len(series)
    return [s.t_ms for s in series.values()]


@dataclass(frozen=True)
class TraceSet:
    """The three sensor streams of one run, one time-sorted series per stream:
    sightings per direction (observer, subject), accel and sound per node.

    `accel` is a Mapping whose values may be drawn on lookup (`generate`
    returns a `DrawnAccel`): look a node up once per use, and keep the series
    only while using it.  `nodes`, `counts` and `max_t_ms` draw nothing.
    """
    sightings: dict[tuple[str, str], SightingSeries] = field(default_factory=dict)
    accel: Mapping[str, AccelSeries] = field(default_factory=dict)
    sound: dict[str, SoundSeries] = field(default_factory=dict)

    def nodes(self) -> list[str]:
        return sorted({node for pair in self.sightings for node in pair}
                      | set(self.accel) | set(self.sound))

    def counts(self) -> tuple[int, int, int]:
        return tuple(sum(map(len, _time_columns(streams)))
                     for streams in (self.sightings, self.accel, self.sound))

    def max_t_ms(self) -> int:
        """Latest timestamp over all streams, -1 when there is none."""
        columns = [c for streams in (self.sightings, self.accel, self.sound)
                   for c in _time_columns(streams)]
        return max((int(c.max()) for c in columns if len(c)), default=-1)


def traces_equal(a: TraceSet, b: TraceSet) -> bool:
    """Bit-exact equality of two trace sets (float columns compared bitwise).

    Each stream is looked up on both sides and compared before the next, so
    a drawn series is released before the next one is drawn.
    """
    sides = [(getattr(a, f.name), getattr(b, f.name)) for f in fields(TraceSet)]
    return (all(sorted(x) == sorted(y) for x, y in sides)
            and all(_columns_equal(x[key], y[key]) for x, y in sides for key in x))


def _columns_equal(a, b) -> bool:
    """Whether the columns `a` and `b` (dataclasses) hold equal arrays in every field."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


# --- reading -----------------------------------------------------------------
#
# Each layout (three trace files, minute records) is one ordered table of
# steps: `Convert` turns a column's text into values, `Rule` tests values
# with a plain expression.  `Layout.read_rows`, the one way rows become
# fields, splits a chunk of rows (the lines of a trace file, the payloads of
# the record log) and runs every step over its whole columns to find its
# first bad row; `Layout.check_row` runs the steps on that one row's Python
# values, in table order, and the first that fails words the error.  Each
# field has one `Convert`, whose first part, in `check_row`, rejects bytes
# that were not UTF-8; on whole columns the conversion itself rejects them.
# Trace tables go column by column; a trace file's stream order is checked
# chunk by chunk against each stream's last timestamp so far, and an order
# breach before a bad row wins.

_READ_CHUNK = 1 << 17      # bytes of CSV text converted per step
_T_MAX = int(np.iinfo(np.int64).max)
NO_ROWS = (np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64))   # `read_rows` of none


class RowError(ValueError):
    """One row broke a layout's step; `column` is the 0-based field it names."""

    def __init__(self, column: int, message: str):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True)
class Kind:
    """`one(text, epoch_ms)` converts one field or raises ValueError;
    `many(text, epoch_ms, codes, names)` converts a column to an array that
    ends before the first field `one` rejects, or (node ids, labels) holds
    a code there that `valid` rejects.  A field holding bytes that were not
    UTF-8 never reaches `one`, as `Layout.check_row` rejects it first, and
    `many` rejects it as `one` would any other bad field."""
    one: Callable
    many: Callable | None = None
    valid: Callable | None = None


@dataclass(frozen=True)
class Convert:
    """Converts `column` with `kind`; `message`, formatted with the field as
    ``text``, replaces the error text of a field `kind` rejects."""
    column: str
    kind: Kind
    message: str | None = None


@dataclass(frozen=True)
class Rule:
    """`test`, a plain expression of the values of `column` and `also`, is
    true where a row passes, on numpy columns and Python values alike.
    `message` is formatted with the values by column name and ``text``."""
    column: str
    test: Callable
    message: str
    also: tuple[str, ...] = ()


class Layout:
    """The header of one CSV layout and its ordered table of steps."""

    def __init__(self, header: list[str], *steps):
        self.header = header
        self.steps = steps
        self._index = {name: k for k, name in enumerate(header)}
        # each column's last whole-column conversion, and (test, column,
        # other columns) of every step that tests values
        many = {step.column: step.kind.many for step in steps
                if isinstance(step, Convert) and step.kind.many}
        self._converters = [many[name] for name in header]
        self._checks = [(step.test, self._index[step.column],
                         [self._index[c] for c in step.also]) if isinstance(step, Rule)
                        else (step.kind.valid, self._index[step.column], [])
                        for step in steps if isinstance(step, Rule) or step.kind.valid]

    def read_rows(self, view: np.ndarray, ends: np.ndarray, epoch_ms: int, codes: dict,
                  names: list):
        """Values of the rows of `view` before the first that breaks the
        layout, one array per column, and that row's index (`len(ends)` when
        none does).

        `view` is a writable uint8 array; row k ends at offset `ends[k]`,
        and the next starts after the one-byte separator there, which must
        not be a comma (the last row needs none).  Only commas split a row.
        The separators of the rows kept become commas, so the rows are
        decoded (bytes that are not UTF-8 as lone surrogates) and split at
        once.  Node ids become codes into `names`, and `codes` maps every id
        seen to its code.
        """
        ncols = len(self.header)
        per_row = np.diff(np.searchsorted(np.flatnonzero(view == ord(",")), ends), prepend=0)
        count = first_false(per_row == ncols - 1, len(ends))
        fields = []
        if count:
            view[ends[:count - 1]] = ord(",")
            fields = str(memoryview(view[:ends[count - 1]]), "utf-8", "surrogateescape").split(",")
        cols = [many(fields[k::ncols], epoch_ms, codes, names)
                for k, many in enumerate(self._converters)]
        bad = min(count, *map(len, cols))
        bad = self.breach([c[:bad] for c in cols])
        return [c[:bad] for c in cols], bad

    def breach(self, cols: list[np.ndarray]) -> int:
        """Index of the first row of the value columns `cols` that a step
        rejects, or the number of rows."""
        ok = np.ones(len(cols[0]), dtype=bool)
        for test, k, also in self._checks:
            ok &= test(cols[k], *[cols[a] for a in also]) if also else test(cols[k])
        return first_false(ok, len(ok))

    def check_row(self, fields: list[str], epoch_ms: int = 0) -> dict:
        """One row's Python values by column, from its fields; the steps run
        in table order, and the first that fails raises its RowError.  A
        conversion rejects a field holding bytes that were not UTF-8 first."""
        if len(fields) != len(self.header):
            raise RowError(0, f"expected {len(self.header)} fields, got {len(fields)}")
        values = {}
        for step in self.steps:
            column = self._index[step.column]
            text = fields[column]
            if isinstance(step, Convert):
                if _undecodable(text):
                    raise RowError(column, f"invalid UTF-8 in {text!r}")
                try:
                    values[step.column] = step.kind.one(text, epoch_ms)
                except ValueError as exc:
                    message = str(exc) if step.message is None else step.message.format(text=text)
                    raise RowError(column, message) from None
            elif not step.test(values[step.column], *map(values.__getitem__, step.also)):
                raise RowError(column, step.message.format(text=text, **values))
        return values


def first_false(ok: np.ndarray, limit: int) -> int:
    """Index of the first False among the first `limit` entries of `ok`, or `limit`."""
    head = ok[:limit]
    return limit if head.all() else int(np.argmin(head))


def _undecodable(text: str) -> bool:
    """Whether `text` holds bytes that were not UTF-8 in the file.

    Input files are decoded with ``surrogateescape``, which maps each such
    byte to a lone surrogate, so a bad byte fails like any other bad field:
    at its own line and column, after every earlier violation.
    """
    return not text.isascii() and any("\udc80" <= c <= "\udcff" for c in text)


def _int_prefix(text: list[str], offset: int, *_) -> np.ndarray:
    """int(x) - offset for the fields x of `text`, up to the first that is
    not an integer or whose value leaves the int64 range."""
    values: list[int] = []
    try:
        values.extend(map(int, text))
    except ValueError:
        pass      # `values` ends before the first non-integer
    if offset:
        values = [v - offset for v in values]
    if values and (min(values) < -_T_MAX - 1 or max(values) > _T_MAX):
        values = values[:next(k for k, v in enumerate(values) if not -_T_MAX - 1 <= v <= _T_MAX)]
    return np.array(values, dtype=np.int64)


def _real_prefix(text: list[str], *_) -> np.ndarray:
    """The values of `text` up to the first that is not a number."""
    values: list[float] = []
    try:
        values.extend(map(float, text))
    except ValueError:
        pass
    return np.array(values, dtype=np.float64)


def _repeated(convert: Callable, dtype, prefix: Callable) -> Callable:
    """A column converter for a column of few distinct texts: `prefix(text,
    0)`, the values up to the first bad field, but with `convert` run on
    each distinct field once."""
    def many(text: list[str], *_) -> np.ndarray:
        try:
            value = {x: convert(x) for x in set(text)}
            return np.fromiter(map(value.__getitem__, text), dtype=dtype, count=len(text))
        except (ValueError, OverflowError):     # the prefix scan finds the first bad field
            return prefix(text, 0)
    return many


def _distance(text: str, _epoch_ms: int = 0) -> float:
    """A distance field: only the text ``inf`` reads as infinity; any other
    spelling of it reads as NaN, which no rule accepts."""
    value = float(text)
    return value if text == "inf" or not math.isinf(value) else math.nan


def _distances(text: list[str], *_) -> np.ndarray:
    values = _real_prefix(text)
    inf = np.flatnonzero(np.isinf(values))
    if len(inf):     # only the text ``inf`` reads as infinity
        values[inf[[text[k] != "inf" for k in inf.tolist()]]] = np.nan
    return values


def _node_id(text: str, _epoch_ms: int = 0) -> str:
    """A valid node id that UTF-8 can encode: one with no lone surrogate,
    which includes every byte of a file that was not UTF-8."""
    validate_node_id(text)
    if not text.isascii() and any("\ud800" <= c <= "\udfff" for c in text):
        raise ValueError(f"node id holds a lone surrogate: {text!r}")
    return text


def node_codes(text: list[str], codes: dict, names: list) -> np.ndarray:
    """Codes into `names` (new valid ids are appended); -1 for an id that is
    invalid or that UTF-8 cannot encode."""
    for name in set(text).difference(codes):
        try:
            _node_id(name)
        except ValueError:
            codes[name] = -1
        else:
            codes[name] = len(names)
            names.append(name)
    return np.fromiter(map(codes.__getitem__, text), dtype=np.int64, count=len(text))


_LABEL_CODES = {label: code for code, label in enumerate(LABELS)}


def _label(text: str, _epoch_ms: int) -> str:
    if text not in _LABEL_CODES:
        raise ValueError(text)      # RECORDS words the error
    return text

INT = Kind(lambda text, _: int(text), _repeated(int, np.int64, _int_prefix))
TIME = Kind(lambda text, epoch_ms: int(text) - epoch_ms, _int_prefix)
REAL = Kind(lambda text, _: float(text), _real_prefix)
REPEATED_REAL = Kind(REAL.one, _repeated(float, np.float64, _real_prefix))
DISTANCE = Kind(_distance, _distances)
NODE = Kind(_node_id,
            lambda text, _, codes, names: node_codes(text, codes, names),
            lambda codes: codes >= 0)
LABEL = Kind(_label,
             lambda text, *_: np.fromiter(map(_LABEL_CODES.get, text, repeat(-1)),
                                          dtype=np.int64, count=len(text)),
             lambda codes: (codes >= 0) & (codes < len(LABELS)))


def _not_negative(x):
    return x >= 0


def _fits_int64(x):
    return x <= _T_MAX


def _finite_not_negative(x):
    return np.isfinite(x) & (x >= 0.0)


def _within(lo, hi):
    return lambda x: (x >= lo) & (x <= hi)


def _real(column: str) -> tuple:
    return (Convert(column, REAL, "invalid number {text!r}"),
            Rule(column, np.isfinite, "non-finite value {text!r}"))


_TIMESTAMP = (Convert("t_ms", TIME, "invalid integer {text!r}"),
              Rule("t_ms", _not_negative, "timestamp {text} before the scenario epoch"),
              Rule("t_ms", _fits_int64, "timestamp {text} beyond the 64-bit range"))

_SIGHTINGS = Layout(
    SIGHTINGS_HEADER, *_TIMESTAMP, Convert("observer", NODE), Convert("subject", NODE),
    Rule("subject", operator.ne, "{subject!r} sighted itself", also=("observer",)),
    *_real("rssi_dbm"),
    Rule("rssi_dbm", _within(RSSI_MIN_DBM, RSSI_MAX_DBM),
         f"rssi {{text}} outside [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]"))
_ACCEL = Layout(ACCEL_HEADER, *_TIMESTAMP, Convert("node", NODE), *_real("ax"), *_real("ay"),
                *_real("az"))
_SOUND = Layout(SOUND_HEADER, *_TIMESTAMP, Convert("node", NODE), *_real("amplitude"),
                Rule("amplitude", _within(0.0, 1.0), "amplitude {text} outside [0, 1]"))


def _fields(line: bytes) -> list[str]:
    """One line's fields, verbatim, bytes that are not UTF-8 as lone
    surrogates; a blank line has none."""
    line = line.removesuffix(b"\n").decode("utf-8", "surrogateescape")
    return line.split(",") if line else []


def _row_chunks(handle):
    """Yield the rest of the binary `handle` about `_READ_CHUNK` bytes of
    whole lines at a time, as a writable uint8 array of the lines and the
    offset of each line's LF in it (or its end, for a last line without one)."""
    rest = bytearray()
    while chunk := handle.read(_READ_CHUNK):
        rows = rest + chunk
        cut = rows.rfind(b"\n") + 1
        rest = rows[cut:]
        if cut:
            view = np.frombuffer(rows, dtype=np.uint8, count=cut)
            yield view, np.flatnonzero(view == ord("\n"))
    if rest:
        yield np.frombuffer(rest, dtype=np.uint8), np.array([len(rest)])


def _check_header(path, row, expected):
    if row != expected:
        raise ParseError(path, 1, 1,
                         f"malformed header: expected {','.join(expected)}")


def _checked_chunks(path, layout: Layout, epoch_ms: int, names: list):
    """Parse one trace file a chunk at a time, checking every rule.

    Yields, per chunk, its value columns in file order (node columns are
    codes into `names`), the stable sort of its rows by stream (observer and
    subject for sightings, node otherwise) and the bounds of each stream's
    run in that order.  A stream's timestamps are checked against its last
    one in earlier chunks, so the first violation in file order aborts.
    """
    node_columns = [layout.header.index(step.column) for step in layout.steps
                    if isinstance(step, Convert) and step.kind is NODE]
    codes: dict[str, int] = {}
    last_t: dict[int, int] = {}     # stream key -> its latest timestamp
    with open(path, "rb") as handle:
        _check_header(path, _fields(handle.readline()), layout.header)
        line = 2
        for view, ends in _row_chunks(handle):
            cols, bad = layout.read_rows(view, ends, epoch_ms, codes, names)
            key = cols[node_columns[0]]
            for k in node_columns[1:]:
                key = (key << 32) | cols[k]
            order = np.argsort(key, kind="stable")
            t, key = cols[0][order], key[order]
            bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
            streams = key[bounds[:-1]].tolist()
            prev = np.empty_like(t)     # each row's predecessor in its stream
            prev[1:] = t[:-1]
            # a new stream's first row follows -1, below every valid timestamp
            prev[bounds[:-1]] = [last_t.get(s, -1) for s in streams]
            drops = np.flatnonzero(t < prev)
            if len(drops):
                k = drops[np.argmin(order[drops])]
                row = int(order[k])
                stream = tuple(names[cols[c][row]] for c in node_columns)
                raise ParseError(path, line + row, 1,
                                 f"timestamp decreases within stream "
                                 f"{stream if len(stream) > 1 else stream[0]}: "
                                 f"{int(t[k])} after {int(prev[k])}")
            if bad < len(ends):
                start = ends[bad - 1] + 1 if bad else 0
                try:
                    layout.check_row(_fields(view[start:ends[bad]].tobytes()), epoch_ms)
                except RowError as exc:
                    raise ParseError(path, line + bad, exc.column + 1, str(exc)) from None
                raise AssertionError(f"{path}:{line + bad}: row flagged but passes every check")
            last_t.update(zip(streams, t[bounds[1:] - 1].tolist()))
            yield cols, order, bounds
            line += len(ends)


def node_ranks(names: list[str]) -> np.ndarray:
    """rank[code] is the position of names[code] in sorted order."""
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return rank


def _read_sightings(path, epoch_ms: int) -> dict:
    """{(observer, subject): SightingSeries} of the sightings file, in key
    order: the file's rows joined and sorted stably by direction once, then
    sliced per direction."""
    names: list[str] = []
    parts = [[empty] for empty in _SIGHTINGS.read_rows(*NO_ROWS, epoch_ms, {}, names)[0]]
    for cols, _, _ in _checked_chunks(path, _SIGHTINGS, epoch_ms, names):
        for part, col in zip(parts, cols):
            part.append(col)
    t, obs, subj, rssi = map(np.concatenate, parts)
    del parts       # frees the chunks before the sort
    rank = node_ranks(names)
    direction = rank[obs] * len(names) + rank[subj]
    order = np.argsort(direction, kind="stable")
    direction, t, rssi = direction[order], t[order], rssi[order]
    starts = np.flatnonzero(np.diff(direction, prepend=-1))
    stops = np.append(starts[1:], len(direction))
    by_rank, n = sorted(names), len(names)
    return {(by_rank[c // n], by_rank[c % n]): SightingSeries(t[lo:hi], rssi[lo:hi])
            for c, lo, hi in zip(direction[starts].tolist(), starts.tolist(), stops.tolist())}


def _read_series(path, layout: Layout, epoch_ms: int, series) -> dict:
    """{node: series(t_ms, values...)} of one accel or sound file, by node
    name; each chunk is split by node as it is parsed, into one buffer per
    node and column that grows by a quarter when full and is cut to size
    at the end, so no freed pieces are left behind."""
    names: list[str] = []
    buffers: dict[int, list[np.ndarray]] = {}   # code -> one buffer per column
    used: dict[int, int] = {}                   # code -> rows held
    for cols, order, bounds in _checked_chunks(path, layout, epoch_ms, names):
        nodes, values = cols[1], [cols[0]] + cols[2:]
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            rows = order[lo:hi]
            code = int(nodes[rows[0]])
            start = used.get(code, 0)
            stop = used[code] = start + hi - lo
            node = buffers.setdefault(code, [np.empty(0, c.dtype) for c in values])
            if stop > len(node[0]):
                for buffer in node:      # no view of a buffer is alive here
                    buffer.resize(max(stop, len(buffer) + len(buffer) // 4), refcheck=False)
            for buffer, col in zip(node, values):
                buffer[start:stop] = col[rows]
    out = {}
    for code in sorted(buffers, key=names.__getitem__):
        node = buffers.pop(code)
        for buffer in node:
            buffer.resize(used[code], refcheck=False)
        out[names[code]] = series(*node)
    return out


def read_traces(sightings_path, accel_path, sound_path, epoch_ms: int = 0) -> TraceSet:
    """Parse and validate the three trace files into a TraceSet.

    `epoch_ms` is subtracted from every timestamp, mapping wall-clock inputs
    onto the scenario-relative axis.  Files need only be time-ordered within
    each stream, and streams may interleave in any way; each comes back as
    one time-ordered series, sightings per (observer, subject) direction and
    accel and sound per node, all in key order (rows with equal timestamps
    keep their file order).  The first violation of the stream contract, in
    file order, aborts with the offending line and column.

    Each file is parsed `_READ_CHUNK` bytes at a time.  Accel and sound rows
    are split by node chunk by chunk, so besides the result only one chunk's
    rows are held; the sightings' chunks are joined and sorted by direction
    once.
    """
    return TraceSet(_read_sightings(sightings_path, epoch_ms),
                    _read_series(accel_path, _ACCEL, epoch_ms, AccelSeries),
                    _read_series(sound_path, _SOUND, epoch_ms, SoundSeries))


# --- writing -----------------------------------------------------------------

_WRITE_BLOCK = 1024     # rows formatted per write, and records per log append


@contextmanager
def naming_write_errors(path):
    """Re-raise an OSError from inside the block that names no file as one
    that names `path`.  A failed write (a full disk, the file size limit)
    says only ``[Errno 27] File too large``, not which output failed."""
    try:
        yield
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _write_csv(path, header: list[str], blocks, format_rows) -> None:
    """Write a header and the rows of each block of `blocks`.

    A block is a list of columns as Python lists (ints and floats, so ``!r``
    gives the repr form); `format_rows` maps one to its text lines.
    """
    with naming_write_errors(path), open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for columns in blocks:
            handle.writelines(format_rows(*columns))


def write_traces(traces: TraceSet, out_dir) -> tuple[str, str, str]:
    """Write the three trace CSVs into `out_dir`; returns their paths.

    Each file is written stream by stream, streams in key order (sightings
    by (observer, subject), accel and sound by node) and each series in time
    order, `_WRITE_BLOCK` rows at a time.  A stream is looked up only when
    its turn comes, so a series drawn on lookup is drawn, written and
    dropped before the next one is drawn.  Reading the files back reproduces
    the TraceSet exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    s_path = os.path.join(out_dir, SIGHTINGS_FILENAME)
    a_path = os.path.join(out_dir, ACCEL_FILENAME)
    d_path = os.path.join(out_dir, SOUND_FILENAME)
    _write_csv(s_path, SIGHTINGS_HEADER,
               _stream_blocks(traces.sightings, lambda pair: pair, ("rssi_dbm",)),
               lambda t, obs, subj, rssi: [f"{a},{b},{c},{d!r}\n" for a, b, c, d
                                           in zip(t, obs, subj, rssi)])
    _write_csv(a_path, ACCEL_HEADER,
               _stream_blocks(traces.accel, lambda node: (node,), ("ax", "ay", "az")),
               lambda t, node, ax, ay, az: [f"{a},{b},{x!r},{y!r},{z!r}\n" for a, b, x, y, z
                                            in zip(t, node, ax, ay, az)])
    _write_csv(d_path, SOUND_HEADER,
               _stream_blocks(traces.sound, lambda node: (node,), ("amplitude",)),
               lambda t, node, amp: [f"{a},{b},{x!r}\n" for a, b, x in zip(t, node, amp)])
    return (s_path, a_path, d_path)


def _stream_blocks(streams: Mapping, key_fields: Callable, values: tuple[str, ...]):
    """Rows [t_ms, *key_fields(key), *values] of each stream's series in
    turn, keys in sorted order, `_WRITE_BLOCK` at a time."""
    for key in sorted(streams):
        yield from _series_blocks(key_fields(key), streams[key], values)


def _series_blocks(key: tuple[str, ...], series, values: tuple[str, ...]):
    """The blocks of one stream's series, each key field repeated per row;
    the series is dropped when they end."""
    columns = [np.asarray(series.t_ms, dtype=np.int64)]
    columns += [np.asarray(getattr(series, v), dtype=np.float64) for v in values]
    for lo in range(0, len(columns[0]), _WRITE_BLOCK):
        t, *rest = (c[lo:lo + _WRITE_BLOCK].tolist() for c in columns)
        yield [t, *([name] * len(t) for name in key), *rest]


# --- minute-record codec -------------------------------------------------------

def format_record_row(minute: int, i: str, j: str, n_i: int, m_i: int, v_i: int,
                      d_m: float, s_s: float, p: float, si: float, nearness: str) -> str:
    """One CSV row (no newline) of a minute record's eleven field values."""
    return (f"{minute},{i},{j},{n_i},{m_i},{v_i},{fmt_float(d_m)},{fmt_float(s_s)},"
            f"{fmt_float(p)},{fmt_float(si)},{nearness}")


# A record's error is its first failing step in this order, which the log's
# error texts keep: the conversions of s_s, p and si all come before their
# checks, then the scores rule, then the label.
RECORDS = Layout(
    RECORDS_HEADER,
    Convert("minute", INT),
    Rule("minute", _not_negative, "negative minute {minute}"),
    Rule("minute", _fits_int64, "minute {minute} beyond the 64-bit range"),
    Convert("i", NODE), Convert("j", NODE),
    Rule("j", operator.ne, "record pairs {i!r} with itself", also=("i",)),
    Convert("n_i", INT),
    Rule("n_i", _not_negative, "negative node degree {n_i}"),
    Rule("n_i", _fits_int64, "node degree {n_i} beyond the 64-bit range"),
    Convert("m_i", INT),
    Rule("m_i", lambda m: (m == 1) | (m == 2), "motion code {m_i} not in {{1, 2}}"),
    Convert("v_i", INT),
    Rule("v_i", _within(0, 3), "sound class {v_i} not in 0..3"),
    Convert("d_m", DISTANCE),
    Rule("d_m", _not_negative, "bad distance {text!r}"),    # NaN and -inf fail, inf passes
    Convert("s_s", REPEATED_REAL), Convert("p", REAL), Convert("si", REAL),
    Rule("s_s", _finite_not_negative, "bad s_s value {s_s!r}"),
    Rule("p", _finite_not_negative, "bad p value {p!r}"),
    Rule("si", _finite_not_negative, "bad si value {si!r}"),
    Rule("d_m", lambda d, p, si: (d != math.inf) | ((p == 0.0) & (si == 0.0)),
         "scores must be zero without a distance estimate", also=("p", "si")),
    Convert("nearness", LABEL, "unknown nearness label {text!r}"))


def parse_record_row(row: str) -> dict:
    """One minute-record CSV row's field values by name, in field order;
    raises ValueError (a RowError) at the first step of the RECORDS table
    the row fails.  A row `format_record_row` wrote reads back as the values
    it was given: ``format_record_row(**parse_record_row(row)) == row``."""
    return RECORDS.check_row(row.split(","))


def write_minute_records(rows, path) -> None:
    """Write a minute-record CSV; each row is a record's eleven field values."""
    with naming_write_errors(path), open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(RECORDS_HEADER) + "\n")
        handle.writelines(format_record_row(*row) + "\n" for row in rows)
