"""The trace codecs against their reference implementations.

Valid files must read to the same TraceSet as the row-at-a-time reference
reader and write back byte-stably.  Corrupted files must fail with the identical ParseError: same
path, line, column and message.  Each case also runs with tiny read chunks,
so rules and errors that cross a chunk boundary are exercised on small
files.  The same rows read to the same TraceSet, and run to the same
records, whatever order the file's streams interleave in.  The block-wise
writer must write the same bytes as the reference writer, which writes all
of a stream's rows at once, for any block size.
"""

import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nearness import ingest
from nearness.engine import EngineConfig, run_engine
from nearness.ingest import (
    AccelSeries,
    DrawnAccel,
    ParseError,
    SoundSeries,
    TraceSet,
    read_traces,
    traces_equal,
    write_traces,
)
from nearness.simulator import AgentSpec, RfParams, ScenarioConfig, Waypoint, generate
from conftest import make_traces, rows
from rowwise_traces import read_traces_rowwise, write_traces_stream_major

NODES = ["a", "b", "c", "B", "n 1", "zé"]
HEADERS = ("t_ms,observer,subject,rssi_dbm", "t_ms,node,ax,ay,az", "t_ms,node,amplitude")
CHUNKS = st.sampled_from([1, 2, 3, 40, 200, 1 << 20])


def awkward_text(x: float, style: int) -> str:
    """A spelling of `x` that float() reads back as exactly `x`."""
    return (repr(x), f"{x:.17g}", f"{x:.17e}", f" {x!r}")[style]


@st.composite
def streams(draw, kind):
    """(stream key, rows) of one stream: non-decreasing times, fields per file kind."""
    n = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(st.integers(0, 5_000), min_size=n, max_size=n)))
    if kind == "sightings":
        obs, subj = draw(st.lists(st.sampled_from(NODES), min_size=2, max_size=2,
                                  unique=True))
        reals = st.floats(-120.0, 0.0)
        return (obs, subj), [(t, [obs, subj, draw(reals)]) for t in times]
    node = draw(st.sampled_from(NODES))
    if kind == "accel":
        reals = st.floats(allow_nan=False, allow_infinity=False)
        return node, [(t, [node, draw(reals), draw(reals), draw(reals)]) for t in times]
    return node, [(t, [node, draw(st.floats(0.0, 1.0))]) for t in times]


@st.composite
def trace_texts(draw):
    """The three files' data lines, per-stream ordered but globally shuffled."""
    epoch = draw(st.sampled_from([0, 1_700_000_000_000]))
    files = []
    for kind in ("sightings", "accel", "sound"):
        keyed = draw(st.lists(streams(kind), max_size=4, unique_by=lambda g: g[0]))
        groups = [rows for _, rows in keyed]
        tokens = [k for k, g in enumerate(groups) for _ in g]
        draw(st.randoms(use_true_random=False)).shuffle(tokens)
        position = [0] * len(groups)
        lines = []
        for k in tokens:
            t, fields = groups[k][position[k]]
            position[k] += 1
            texts = [str(t + epoch)]
            for value in fields:
                texts.append(value if isinstance(value, str)
                             else awkward_text(value, draw(st.integers(0, 3))))
            lines.append(",".join(texts))
        files.append(lines)
    return epoch, files


def write_files(directory: Path, files) -> list[Path]:
    paths = []
    for name, header, lines in zip(("s.csv", "a.csv", "d.csv"), HEADERS, files):
        path = directory / name
        with open(path, "w", newline="", encoding="utf-8",
                  errors="surrogateescape") as handle:      # "\udcff" writes byte 0xff
            handle.write("".join(line + "\n" for line in [header] + lines))
        paths.append(path)
    return paths


def outcome(reader, paths, epoch):
    try:
        return reader(*paths, epoch_ms=epoch)
    except ParseError as exc:
        return str(exc)


def read_both(paths, epoch, chunk):
    with mock.patch.object(ingest, "_READ_CHUNK", chunk):
        new = outcome(read_traces, paths, epoch)
    old = outcome(read_traces_rowwise, paths, epoch)
    return new, old


def assert_same_outcome(new, old):
    if isinstance(old, str):
        assert new == old
    else:
        assert not isinstance(new, str), new
        assert traces_equal(new, old)


@settings(max_examples=120, deadline=None)
@given(data=trace_texts(), chunk=CHUNKS)
def test_valid_files_read_like_the_reference(data, chunk):
    epoch, files = data
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp), files)
        new, old = read_both(paths, epoch, chunk)
        assert_same_outcome(new, old)

        first = write_traces(new, Path(tmp) / "one")
        again = read_traces(*first)
        assert traces_equal(new, again)
        second = write_traces(again, Path(tmp) / "two")
        for a, b in zip(first, second):
            assert Path(a).read_bytes() == Path(b).read_bytes()


BAD_TOKENS = ["x", "nan", "inf", "-inf", "1.5", "1e3", "-1", "999", "2", " 3", "-121",
              "a", "b", "1_0", "a,b", '"q"', '"q', "q\r", "\r", "x" * 65, "-0.0",
              "1\x00", "", "\udcff", "a\udcff"]
ACTIONS = ["replace", "replace", "replace", "drop", "extra", "blank", "swap",
           "self", "quote", "crlf", "late"]


def draw_edit(rnd):
    return (rnd.choice(ACTIONS), rnd.random(), rnd.choice(BAD_TOKENS), rnd.random())


def apply_edit(lines, line, edit):
    """One edit of one data line: a field replaced, dropped, added or quoted,
    the subject set to the observer, a CR added, 2**63 added to the
    timestamp, the line blanked, or the line swapped with another (which
    may break stream order)."""
    action, where, token, other = edit
    fields = lines[line].split(",")
    column = int(where * len(fields))
    if action == "replace":
        fields[column] = token
    elif action == "drop":
        del fields[column]
    elif action == "extra":
        fields.insert(column, token)
    elif action == "blank":
        fields = []
    elif action == "self" and len(fields) > 2:
        fields[2] = fields[1]
    elif action == "quote":
        fields[column] = f'"{fields[column]}"'
    elif action == "crlf":
        fields[-1] += "\r"
    elif action == "late" and fields[0].isascii() and fields[0].isdigit():
        fields[0] = str(int(fields[0]) + 2 ** 63)
    elif action == "swap":
        other = int(other * len(lines))
        lines[line], lines[other] = lines[other], lines[line]
        return
    lines[line] = ",".join(fields)


@settings(max_examples=600, deadline=None)
@given(data=trace_texts(), chunk=CHUNKS, seed=st.integers(0, 2 ** 32 - 1))
def test_corrupt_files_fail_like_the_reference(data, chunk, seed):
    epoch, files = data
    rnd = random.Random(seed)    # uniform edits; hypothesis favours the first choices
    filled = [k for k, lines in enumerate(files) if lines]
    if not filled:
        return
    lines = files[rnd.choice(filled)]
    first, edit = rnd.randrange(len(lines)), draw_edit(rnd)
    apply_edit(lines, first, edit)
    second = rnd.random()
    if second < 0.2:       # a second rule broken in the same row
        apply_edit(lines, first, draw_edit(rnd))
    elif second < 0.6:     # the same rule broken in a second row
        apply_edit(lines, rnd.randrange(len(lines)), edit)
    elif second < 0.8:     # another rule broken in a second row
        apply_edit(lines, rnd.randrange(len(lines)), draw_edit(rnd))
    if rnd.random() < 0.25:
        epoch += 1_000     # pushes the earliest rows before the epoch
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp), files)
        new, old = read_both(paths, epoch, chunk)
        assert_same_outcome(new, old)


def test_two_rules_in_one_row_report_the_leftmost(tmp_path):
    # bad observer (column 2) and out-of-range rssi (column 4) in one row
    paths = write_files(tmp_path, [["0,a,b,-40.0", "5," + "x" * 65 + ",b,7.5"], [], []])
    new, old = read_both(paths, 0, 1 << 20)
    assert new == old and ":3:2:" in new


def test_order_breach_before_a_field_error_wins(tmp_path):
    paths = write_files(tmp_path, [[], ["9,a,0,0,1", "8,a,0,0,1", "10,a,nan,0,1"], []])
    for chunk in (1, 1 << 20):
        new, old = read_both(paths, 0, chunk)
        assert new == old and ":3:1: timestamp decreases" in new


def test_two_bad_rows_report_the_first(tmp_path):
    paths = write_files(tmp_path, [[], [], ["0,a,0.5", "1,a,7.0", "2,a,0.5", "3,a,2.0"]])
    for chunk in (1, 1 << 20):
        new, old = read_both(paths, 0, chunk)
        assert new == old and ":3:3: amplitude 7.0 outside" in new


def test_order_breach_across_a_chunk_edge(tmp_path):
    # a's 7 and 3 are two rows apart, with b's row between them; 24
    # characters split the file after b's row
    paths = write_files(tmp_path, [[], ["7,a,0,0,1", "9,b,0,0,1", "3,a,0,0,1", "10,b,0,0,1"], []])
    for chunk in (1, 24, 1 << 20):
        new, old = read_both(paths, 0, chunk)
        assert new == old and ":4:1: timestamp decreases within stream a: 3 after 7" in new


def test_field_error_before_an_order_breach_wins(tmp_path):
    paths = write_files(tmp_path, [[], ["9,a,0,0,1", "10,a,inf,0,1", "8,a,0,0,1"], []])
    new, old = read_both(paths, 0, 1 << 20)
    assert new == old and ":3:3: non-finite" in new


def test_quoted_fields_read_verbatim(tmp_path):
    paths = write_files(tmp_path, [['0,"a",b,-40.0', '1,a,"b",-4e1'], [], []])
    new, old = read_both(paths, 0, 1 << 20)
    assert traces_equal(new, old)
    assert list(new.sightings) == [('"a"', "b"), ("a", '"b"')]


def test_quotes_do_not_protect_a_comma(tmp_path):
    paths = write_files(tmp_path, [['0,"a,b",c,-40.0'], [], []])
    new, old = read_both(paths, 0, 1 << 20)
    assert new == old and ":2:1: expected 4 fields, got 5" in new


def test_any_interleaving_of_sighting_streams_reads_and_runs_alike(tmp_path):
    # b walks into range of a and c, d walks out of it: directions start and
    # stop at different scans, and 3 dB shadowing sets each direction apart
    agents = (AgentSpec("a", (Waypoint(0, 0.0, 0.0),)),
              AgentSpec("b", (Waypoint(0, 50.0, 0.0), Waypoint(1_800_000, 0.0, 0.0))),
              AgentSpec("c", (Waypoint(0, 5.0, 0.0),)),
              AgentSpec("d", (Waypoint(0, 0.0, 5.0), Waypoint(1_800_000, 60.0, 5.0))))
    config = ScenarioConfig(agents, 1_800_000, RfParams(shadowing_sigma_db=3.0,
                                                        scan_interval_ms=20_000), seed=7)
    engine = EngineConfig(rf=config.rf)
    traces = TraceSet(generate(config)[0].sightings)    # only the sightings file varies
    want = rows(run_engine(traces, engine, duration_ms=config.duration_ms).records)
    written = write_traces(traces, tmp_path)
    header, *lines = Path(written[0]).read_text().splitlines()
    fields = [line.split(",") for line in lines]
    time_major = sorted(fields, key=lambda f: (int(f[0]), f[1], f[2]))
    assert time_major != fields        # `write_traces` writes direction-major
    # a random interleaving that keeps each direction's rows in order
    streams = {}
    for f in fields:
        streams.setdefault((f[1], f[2]), []).append(f)
    tokens = [key for key, stream in streams.items() for _ in stream]
    random.Random(3).shuffle(tokens)
    interleaved = [streams[key].pop(0) for key in tokens]
    for order in (fields, time_major, interleaved):
        Path(written[0]).write_text("\n".join([header] + [",".join(f) for f in order]) + "\n")
        for chunk in (50, 4096, 1 << 17):
            with mock.patch.object(ingest, "_READ_CHUNK", chunk):
                read = read_traces(*written)
            assert traces_equal(read, traces)
            assert rows(run_engine(read, engine, duration_ms=config.duration_ms).records) == want



# --- the writer ---------------------------------------------------------------

REALS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def node_series(draw, columns, times=None):
    """{node: (t_ms, `columns` value arrays)} over a few nodes; with `times`
    every node shares that axis, else each draws its own (possibly empty)
    sorted axis with repeats from a small range, so timestamps collide
    within and across nodes."""
    nodes = draw(st.lists(st.sampled_from(NODES), max_size=4, unique=True))
    out = {}
    for node in nodes:
        t = times if times is not None else sorted(draw(st.lists(st.integers(0, 30), max_size=12)))
        values = [np.array(draw(st.lists(REALS, min_size=len(t), max_size=len(t))),
                           dtype=np.float64) for _ in range(columns)]
        out[node] = (np.array(t, dtype=np.int64), values)
    return out


@st.composite
def trace_sets(draw):
    sightings = draw(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(NODES),
                                        st.sampled_from(NODES), st.floats(-120.0, 0.0)),
                              max_size=8))
    traces = make_traces([row for row in sightings if row[1] != row[2]])
    if draw(st.booleans()):
        accel = {node: AccelSeries(t, *xyz)
                 for node, (t, xyz) in draw(node_series(3)).items()}
    else:       # drawn on lookup, over one shared axis
        axis = sorted(draw(st.lists(st.integers(0, 30), max_size=12)))
        drawn = {node: xyz for node, (_, xyz) in draw(node_series(3, axis)).items()}
        accel = DrawnAccel(np.array(axis, dtype=np.int64), sorted(drawn), drawn.__getitem__)
    sound = {node: SoundSeries(t, amp)
             for node, (t, (amp,)) in draw(node_series(1)).items()}
    return TraceSet(traces.sightings, accel, sound)


@settings(max_examples=200, deadline=None)
@given(traces=trace_sets(), block=st.sampled_from([1, 2, 3, 5, 4096]))
def test_writer_writes_the_reference_bytes(traces, block):
    with tempfile.TemporaryDirectory() as tmp:
        with mock.patch.object(ingest, "_WRITE_BLOCK", block):
            got = write_traces(traces, Path(tmp) / "got")
        want = write_traces_stream_major(traces, Path(tmp) / "want")
        for a, b in zip(got, want):
            assert Path(a).read_bytes() == Path(b).read_bytes()
