"""Reference trace reader and writer.

The reader is the one `nearness.ingest.read_traces` replaced: one row at a
time, every field checked in order, with its own split of the same dialect
(LF ends a line, commas separate verbatim fields, and nothing is quoted).
It appends each row to its stream's list in file order, which per-stream
monotone files make time order, so its series are the ones the columnar
reader promises.  Tests use it as an oracle for the accepted values and for
the exact ParseError of a rejected file.

The writer writes each file's rows in the order `nearness.ingest.write_traces`
promises, stream-major (sightings per direction, accel and sound per node),
but all of a stream's rows in one write where `write_traces` writes them a
block at a time.  Tests use it as an oracle for the bytes of each file.
"""

from __future__ import annotations

import math
import os

import numpy as np

from nearness.domain import RSSI_MAX_DBM, RSSI_MIN_DBM, DomainError, validate_node_id
from nearness.ingest import (
    ACCEL_FILENAME,
    ACCEL_HEADER,
    SIGHTINGS_FILENAME,
    SIGHTINGS_HEADER,
    SOUND_FILENAME,
    SOUND_HEADER,
    AccelSeries,
    ParseError,
    SightingSeries,
    SoundSeries,
    TraceSet,
)


def _open_rows(path):
    """The file and its rows: only LF ends a line, and a field is the text
    between two commas, verbatim; a blank line is a row of no fields.  A
    byte that is not UTF-8 reads as a lone surrogate (see `_text`)."""
    handle = open(path, "r", newline="\n", encoding="utf-8", errors="surrogateescape")
    rows = (line.split(",") if line else []
            for line in (raw.removesuffix("\n") for raw in handle))
    return handle, rows


def _check_header(path, row, expected):
    if row != expected:
        raise ParseError(path, 1, 1,
                         f"malformed header: expected {','.join(expected)}")


def _text(path, line, column, text) -> str:
    """The field, unless it holds a byte that was not UTF-8 in the file."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(path, line, column, f"invalid UTF-8 in {text!r}") from None
    return text


def _parse_int(path, line, column, text) -> int:
    text = _text(path, line, column, text)
    try:
        return int(text)
    except ValueError:
        raise ParseError(path, line, column, f"invalid integer {text!r}") from None


def _parse_float(path, line, column, text) -> float:
    text = _text(path, line, column, text)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(path, line, column, f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line, column, f"non-finite value {text!r}")
    return value


def _parse_node(path, line, column, text) -> str:
    text = _text(path, line, column, text)
    try:
        return validate_node_id(text)
    except DomainError as exc:
        raise ParseError(path, line, column, str(exc)) from None


def _parse_t(path, line, column, text, epoch_ms) -> int:
    t = _parse_int(path, line, column, text) - epoch_ms
    if t < 0:
        raise ParseError(path, line, column,
                         f"timestamp {text} before the scenario epoch")
    if t >= 2 ** 63:
        raise ParseError(path, line, column,
                         f"timestamp {text} beyond the 64-bit range")
    return t


def _check_monotone(path, line, last_t: dict, key, t: int) -> None:
    prev = last_t.get(key)
    if prev is not None and t < prev:
        raise ParseError(path, line, 1,
                         f"timestamp decreases within stream {key}: {t} after {prev}")
    last_t[key] = t


def read_traces_rowwise(sightings_path, accel_path, sound_path,
                        epoch_ms: int = 0) -> TraceSet:
    """Parse the three trace files row by row, each row into its stream's
    series in file order."""
    sight_data: dict[tuple[str, str], list] = {}
    handle, rows = _open_rows(sightings_path)
    with handle:
        last_t: dict = {}
        _check_header(sightings_path, next(rows, []), SIGHTINGS_HEADER)
        for line, row in enumerate(rows, start=2):
            if len(row) != 4:
                raise ParseError(sightings_path, line, 1,
                                 f"expected 4 fields, got {len(row)}")
            t = _parse_t(sightings_path, line, 1, row[0], epoch_ms)
            obs = _parse_node(sightings_path, line, 2, row[1])
            subj = _parse_node(sightings_path, line, 3, row[2])
            if obs == subj:
                raise ParseError(sightings_path, line, 3,
                                 f"{obs!r} sighted itself")
            rssi = _parse_float(sightings_path, line, 4, row[3])
            if not (RSSI_MIN_DBM <= rssi <= RSSI_MAX_DBM):
                raise ParseError(sightings_path, line, 4,
                                 f"rssi {row[3]} outside [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}]")
            _check_monotone(sightings_path, line, last_t, (obs, subj), t)
            sight_data.setdefault((obs, subj), []).append((t, rssi))

    accel_data: dict[str, list] = {}
    handle, rows = _open_rows(accel_path)
    with handle:
        last_t = {}
        _check_header(accel_path, next(rows, []), ACCEL_HEADER)
        for line, row in enumerate(rows, start=2):
            if len(row) != 5:
                raise ParseError(accel_path, line, 1,
                                 f"expected 5 fields, got {len(row)}")
            t = _parse_t(accel_path, line, 1, row[0], epoch_ms)
            node = _parse_node(accel_path, line, 2, row[1])
            ax = _parse_float(accel_path, line, 3, row[2])
            ay = _parse_float(accel_path, line, 4, row[3])
            az = _parse_float(accel_path, line, 5, row[4])
            _check_monotone(accel_path, line, last_t, node, t)
            accel_data.setdefault(node, []).append((t, ax, ay, az))

    sound_data: dict[str, list] = {}
    handle, rows = _open_rows(sound_path)
    with handle:
        last_t = {}
        _check_header(sound_path, next(rows, []), SOUND_HEADER)
        for line, row in enumerate(rows, start=2):
            if len(row) != 3:
                raise ParseError(sound_path, line, 1,
                                 f"expected 3 fields, got {len(row)}")
            t = _parse_t(sound_path, line, 1, row[0], epoch_ms)
            node = _parse_node(sound_path, line, 2, row[1])
            amp = _parse_float(sound_path, line, 3, row[2])
            if not (0.0 <= amp <= 1.0):
                raise ParseError(sound_path, line, 3,
                                 f"amplitude {row[2]} outside [0, 1]")
            _check_monotone(sound_path, line, last_t, node, t)
            sound_data.setdefault(node, []).append((t, amp))

    return TraceSet(_series(sight_data, SightingSeries), _series(accel_data, AccelSeries),
                    _series(sound_data, SoundSeries))


def _series(rows_by_key: dict, series) -> dict:
    """{key: series(t_ms, values...)} of each stream's rows (t, values...)."""
    out = {}
    for key in sorted(rows_by_key):
        t, *values = zip(*rows_by_key[key])
        out[key] = series(np.asarray(t, dtype=np.int64),
                          *(np.asarray(v, dtype=np.float64) for v in values))
    return out


def _write_csv(path, header, parts, format_rows) -> None:
    """Write a header and the rows of each part of `parts`, a list of
    columns as Python lists, in one write per part."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for columns in parts:
            handle.writelines(format_rows(*columns))


def _stream_parts(streams, key_fields, values):
    """Columns [t_ms, *key_fields(key), *values] of each stream's whole
    series, keys in sorted order."""
    for key in sorted(streams):
        series = streams[key]
        t = np.asarray(series.t_ms, dtype=np.int64).tolist()
        yield [t, *([name] * len(t) for name in key_fields(key))] + \
            [np.asarray(getattr(series, v), dtype=np.float64).tolist() for v in values]


def write_traces_stream_major(traces: TraceSet, out_dir) -> tuple[str, str, str]:
    """Write the three trace CSVs into `out_dir`: all of one stream's rows
    at once, sightings direction by direction, accel and sound node by
    node, keys in sorted order."""
    os.makedirs(out_dir, exist_ok=True)
    s_path = os.path.join(out_dir, SIGHTINGS_FILENAME)
    a_path = os.path.join(out_dir, ACCEL_FILENAME)
    d_path = os.path.join(out_dir, SOUND_FILENAME)
    _write_csv(s_path, SIGHTINGS_HEADER,
               _stream_parts(traces.sightings, lambda pair: pair, ("rssi_dbm",)),
               lambda t, obs, subj, rssi: [f"{a},{b},{c},{d!r}\n" for a, b, c, d
                                           in zip(t, obs, subj, rssi)])
    _write_csv(a_path, ACCEL_HEADER,
               _stream_parts(traces.accel, lambda node: (node,), ("ax", "ay", "az")),
               lambda t, node, ax, ay, az: [f"{a},{b},{x!r},{y!r},{z!r}\n" for a, b, x, y, z
                                            in zip(t, node, ax, ay, az)])
    _write_csv(d_path, SOUND_HEADER,
               _stream_parts(traces.sound, lambda node: (node,), ("amplitude",)),
               lambda t, node, amp: [f"{a},{b},{x!r}\n" for a, b, x in zip(t, node, amp)])
    return (s_path, a_path, d_path)
