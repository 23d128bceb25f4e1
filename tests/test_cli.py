import errno
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import batch_of, make_traces
import nearness
from nearness.cli import build_parser, main
from nearness.domain import MAX_SPAN_MS
from nearness.ingest import _WRITE_BLOCK, fmt_float, read_traces, write_traces
from nearness.store import RecordLog

TINY_SCENARIO = """
duration_ms = 600000
seed = 5

[rf]
shadowing_sigma_db = 2

[agent a]
waypoint = 0 0.0 0.0
sound = 0 600000 0.05

[agent b]
waypoint = 0 3.0 0.0
sound = 0 600000 0.05
"""


@pytest.fixture
def tiny_scn(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY_SCENARIO)
    return path


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run Python `code` with `args` in a child process that imports this
    checkout's nearness; returns its exit code and text output."""
    src = os.path.dirname(os.path.dirname(nearness.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=300)


class TestSimulate:
    def test_writes_three_trace_files(self, tiny_scn, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(tiny_scn),
                     "--out", str(tmp_path / "traces")]) == 0
        out = capsys.readouterr().out
        assert "sightings" in out
        traces = read_traces(tmp_path / "traces" / "sightings.csv",
                             tmp_path / "traces" / "accel.csv",
                             tmp_path / "traces" / "sound.csv")
        assert traces.counts() == (20, 24_000, 1_200)

    def test_seed_override_is_deterministic(self, tiny_scn, tmp_path):
        for name in ("one", "two"):
            assert main(["simulate", "--scenario", str(tiny_scn),
                         "--out", str(tmp_path / name), "--seed", "42"]) == 0
        for filename in ("sightings.csv", "accel.csv", "sound.csv"):
            assert read_bytes(tmp_path / "one" / filename) == \
                read_bytes(tmp_path / "two" / filename)

    def test_seed_override_changes_output(self, tiny_scn, tmp_path):
        main(["simulate", "--scenario", str(tiny_scn), "--out", str(tmp_path / "one")])
        main(["simulate", "--scenario", str(tiny_scn), "--out", str(tmp_path / "two"),
              "--seed", "99"])
        assert read_bytes(tmp_path / "one" / "sightings.csv") != \
            read_bytes(tmp_path / "two" / "sightings.csv")

    def test_bundled_scenario_covers_full_span(self, scenarios_dir, tmp_path):
        out = tmp_path / "traces"
        assert main(["simulate", "--scenario", str(scenarios_dir / "experiment3.scn"),
                     "--out", str(out)]) == 0
        traces = read_traces(out / "sightings.csv", out / "accel.csv", out / "sound.csv")
        assert traces.max_t_ms() == 10_800_000 - 50  # last 20 Hz sample

    def test_missing_scenario_is_input_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.scn"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_scenario_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("duration_ms = 1000\n[agent a]\nwaypoint = 5 0 0\n")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2

    def test_undecodable_scenario_byte_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(TINY_SCENARIO.replace("[agent a]", "[agent a\xff]")
                        .encode("latin-1"))
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert f"{bad}:8: invalid UTF-8" in capsys.readouterr().err


class TestRun:
    def test_scenario_run_produces_log_and_report(self, tiny_scn, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(tiny_scn), "--out", str(out)]) == 0
        log = RecordLog.open(out / "records.log")
        assert len(log) == 20  # 10 minutes, both directions
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 5
        assert report["pairs"]["a,b"]["contact_seconds"] == 600.0
        assert isinstance(report["runtime_s"], float)     # stamped by `run`

    def test_scenario_run_appends_its_records_in_blocks(self, scenarios_dir, tmp_path,
                                                        monkeypatch):
        # experiment2 (4 agents, 50 h) once made one append per minute: 3000
        # calls of at most 12 records, each paying the append's fixed checks
        sizes = []
        append = RecordLog.append

        def counted(log, batch):
            sizes.append(len(batch))
            append(log, batch)

        monkeypatch.setattr(RecordLog, "append", counted)
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scenarios_dir / "experiment2.scn"),
                     "--out", str(out)]) == 0
        records = len(RecordLog.open(out / "records.log"))
        assert len(sizes) == -(-records // _WRITE_BLOCK) == 25
        assert sizes[:-1] == [_WRITE_BLOCK] * 24 and sum(sizes) == records

    @pytest.mark.parametrize("agent", ["a", '"x'], ids=["a", "quote"])
    def test_run_from_traces_matches_scenario_run(self, tmp_path, agent):
        scn = tmp_path / "tiny.scn"
        scn.write_text(TINY_SCENARIO.replace("[agent a]", f"[agent {agent}]"))
        assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "tr")]) == 0
        assert main(["run", "--traces", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "direct")]) == 0
        assert len(RecordLog.open(tmp_path / "run" / "records.log")) == 20
        assert read_bytes(tmp_path / "run" / "records.log") == \
            read_bytes(tmp_path / "direct" / "records.log")
        # the config echo and the seed tell the two sources apart by design
        run, direct = (json.loads((tmp_path / name / "report.json").read_text())
                       for name in ("run", "direct"))
        keys = ("pairs", "minutes", "nodes", "record_count")
        assert [run[key] for key in keys] == [direct[key] for key in keys]

    def test_empty_traces_note_zero_pairs(self, tmp_path, capsys):
        write_traces(make_traces(), tmp_path / "tr")
        assert main(["run", "--traces", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "run")]) == 0
        assert "pairs: 0" in capsys.readouterr().out
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["pairs"] == {} and report["record_count"] == 0
        assert len(RecordLog.open(tmp_path / "run" / "records.log")) == 0

    def test_runs_are_byte_identical(self, tiny_scn, tmp_path):
        for name in ("one", "two"):
            assert main(["run", "--scenario", str(tiny_scn),
                         "--out", str(tmp_path / name)]) == 0
        assert read_bytes(tmp_path / "one" / "records.log") == \
            read_bytes(tmp_path / "two" / "records.log")
        one = json.loads((tmp_path / "one" / "report.json").read_text())
        two = json.loads((tmp_path / "two" / "report.json").read_text())
        one.pop("runtime_s"); two.pop("runtime_s")
        assert one == two

    @staticmethod
    def _shifted_traces(tiny_scn, tmp_path, epoch):
        """The tiny scenario's traces with every timestamp moved by `epoch`."""
        main(["simulate", "--scenario", str(tiny_scn), "--out", str(tmp_path / "tr")])
        shifted = tmp_path / "shifted"
        shifted.mkdir()
        for name in ("sightings.csv", "accel.csv", "sound.csv"):
            lines = (tmp_path / "tr" / name).read_text().splitlines()
            out = [lines[0]]
            for line in lines[1:]:
                t, rest = line.split(",", 1)
                out.append(f"{int(t) + epoch},{rest}")
            (shifted / name).write_text("\n".join(out) + "\n")
        return shifted

    def test_epoch_maps_wall_clock_traces(self, tiny_scn, tmp_path):
        epoch = 1_700_000_000_000
        shifted = self._shifted_traces(tiny_scn, tmp_path, epoch)
        assert main(["run", "--traces", str(shifted), "--out", str(tmp_path / "r1"),
                     "--epoch", str(epoch)]) == 0
        assert main(["run", "--traces", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "r2")]) == 0
        assert read_bytes(tmp_path / "r1" / "records.log") == \
            read_bytes(tmp_path / "r2" / "records.log")

    def test_iso_epoch_is_exact_to_the_millisecond(self, tiny_scn, tmp_path):
        # 546289658.555 s is not a binary fraction: timestamp() * 1000 lands
        # just below ...555 and truncates to ...554
        shifted = self._shifted_traces(tiny_scn, tmp_path, 546_289_658_555)
        # a trailing Z is UTC on every supported Python, 3.10 included
        for out, epoch in (("iso", "1987-04-24T19:07:38.555+00:00"), ("ms", "546289658555"),
                           ("z", "1987-04-24T19:07:38.555Z")):
            assert main(["run", "--traces", str(shifted), "--out", str(tmp_path / out),
                         "--epoch", epoch]) == 0
        for out in ("iso", "z"):
            assert read_bytes(tmp_path / out / "records.log") == \
                read_bytes(tmp_path / "ms" / "records.log")

    def test_span_past_a_year_is_input_error(self, tmp_path):
        # wall-clock traces read without --epoch span some 3e7 minutes; the
        # child's address space is capped, so a run that sizes its arrays by
        # that span fails with MemoryError instead of filling the host's memory
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "sightings.csv").write_text(
            "t_ms,observer,subject,rssi_dbm\n1780000000000,a,b,-50.0\n")
        (traces / "accel.csv").write_text("t_ms,node,ax,ay,az\n")
        (traces / "sound.csv").write_text("t_ms,node,amplitude\n")
        out = tmp_path / "out"
        capped_run = ("import resource, sys\n"
                      "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
                      "from nearness.cli import main\n"
                      "sys.exit(main(['run', '--traces', sys.argv[1], '--out', sys.argv[2]]))\n")
        child = run_child(capped_run, str(traces), str(out))
        assert child.returncode == 2, child.stderr
        assert "1780000000000 is 20601.9 days" in child.stderr
        assert "--epoch" in child.stderr
        assert not out.exists()

    def test_row_at_the_span_limit_is_input_error(self, tmp_path, capsys):
        # a row at epoch + MAX_SPAN_MS is the last millisecond of a run one
        # millisecond longer than the longest scenario; it once ran in full
        epoch = 1_780_000_000_000
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "sightings.csv").write_text(
            f"t_ms,observer,subject,rssi_dbm\n{epoch + MAX_SPAN_MS},a,b,-50.0\n")
        (traces / "accel.csv").write_text("t_ms,node,ax,ay,az\n")
        (traces / "sound.csv").write_text("t_ms,node,amplitude\n")
        out = tmp_path / "out"
        assert main(["run", "--traces", str(traces), "--out", str(out),
                     "--epoch", str(epoch)]) == 2
        err = capsys.readouterr().err
        assert f"{epoch + MAX_SPAN_MS} is 366.0 days after the epoch {epoch}" in err
        assert "a run spans at most 366 days" in err
        assert not out.exists()

    @pytest.mark.parametrize("epoch", ["0", "garbage", ""])
    def test_epoch_with_a_scenario_is_input_error(self, tiny_scn, tmp_path, capsys, epoch):
        # a scenario's timestamps start at its epoch, so --epoch would be ignored
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(tiny_scn), "--out", str(out),
                     "--epoch", epoch]) == 2
        assert "--epoch applies to --traces only" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_with_traces_is_input_error(self, tmp_path, capsys):
        # a trace run draws no randomness, so --seed would only be echoed
        traces = tmp_path / "traces"
        write_traces(make_traces(), traces)
        out = tmp_path / "out"
        assert main(["run", "--traces", str(traces), "--out", str(out), "--seed", "7"]) == 2
        assert "--seed applies to --scenario only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epoch", ["garbage", ""])
    def test_bad_epoch_is_input_error(self, tmp_path, capsys, epoch):
        # an empty value is refused too, not read as no epoch
        traces = tmp_path / "traces"
        write_traces(make_traces(), traces)
        out = tmp_path / "out"
        assert main(["run", "--traces", str(traces), "--out", str(out),
                     "--epoch", epoch]) == 2
        assert f"--epoch expects integer ms or ISO-8601, got {epoch!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_scenario_span_past_a_year_is_input_error(self, tmp_path, command):
        # 1e15 ms would take some 1.7e10 scan ticks; the child's address
        # space is capped, so a command that sizes its arrays by that span
        # fails with MemoryError instead of filling the host's memory
        scn = tmp_path / "long.scn"
        scn.write_text("duration_ms = 1000000000000000\n"
                       "[agent a]\nwaypoint = 0 0.0 0.0\n[agent b]\nwaypoint = 0 3.0 0.0\n")
        out = tmp_path / "out"
        capped = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from nearness.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        child = run_child(capped, command, "--scenario", str(scn), "--out", str(out))
        assert child.returncode == 2, child.stderr
        assert "duration_ms: a run spans at most 366 days" in child.stderr
        assert not out.exists()

    def test_traces_in_per_stream_order_run_in_full(self, tmp_path, capsys):
        # a->b for 10 minutes, then a->c for the first 5: each stream is in
        # time order, the file as a whole is not
        rows = [f"{t},a,b,-50.0" for t in range(0, 600_000, 10_000)]
        rows += [f"{t},a,c,-50.0" for t in range(0, 300_000, 10_000)]
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "sightings.csv").write_text(
            "t_ms,observer,subject,rssi_dbm\n" + "\n".join(rows) + "\n")
        (traces / "accel.csv").write_text("t_ms,node,ax,ay,az\n")
        (traces / "sound.csv").write_text("t_ms,node,amplitude\n")
        out = tmp_path / "out"
        assert main(["run", "--traces", str(traces), "--out", str(out)]) == 0
        assert "minutes: 10 " in capsys.readouterr().out
        log = RecordLog.open(out / "records.log")
        records = log.query(("a", "b"))
        degree = dict(zip(records.minute.tolist(), records.n_i.tolist()))
        # a sights c within the trailing two minutes up to minute 5's end
        assert degree == {m: 2 if m <= 5 else 1 for m in range(10)}


    def test_undecodable_trace_byte_is_input_error(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "sightings.csv").write_bytes(
            b"t_ms,observer,subject,rssi_dbm\n0,a,b,-40.0\n1,a\xff,b,-40.0\n")
        (traces / "accel.csv").write_text("t_ms,node,ax,ay,az\n")
        (traces / "sound.csv").write_text("t_ms,node,amplitude\n")
        out = tmp_path / "out"
        assert main(["run", "--traces", str(traces), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sightings.csv:3:2: invalid UTF-8" in err
        assert not (out / "records.log").exists()

    def test_long_trace_field_is_input_error(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "sightings.csv").write_text(
            "t_ms,observer,subject,rssi_dbm\n0," + "x" * 200_000 + ",b,-40.0\n")
        (traces / "accel.csv").write_text("t_ms,node,ax,ay,az\n")
        (traces / "sound.csv").write_text("t_ms,node,amplitude\n")
        assert main(["run", "--traces", str(traces), "--out", str(tmp_path / "out")]) == 2
        assert "sightings.csv:2:2: node id longer than 64 chars" in capsys.readouterr().err

@pytest.fixture
def run_dir(tiny_scn, tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(tiny_scn), "--out", str(out)]) == 0
    return out


class TestAnalyze:
    def test_metric_series_to_stdout(self, run_dir, capsys):
        assert main(["analyze", "--log", str(run_dir / "records.log"),
                     "--pair", "a,b", "--metric", "p"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "minute,metric_value"
        assert len([l for l in out if not l.startswith("#")]) == 11
        assert any("symmetry correlation" in l for l in out)

    def test_unknown_pair_is_query_error(self, run_dir, capsys):
        assert main(["analyze", "--log", str(run_dir / "records.log"),
                     "--pair", "a,ghost"]) == 3
        assert "never appears" in capsys.readouterr().err

    def test_range_filter(self, run_dir, capsys):
        assert main(["analyze", "--log", str(run_dir / "records.log"),
                     "--pair", "a,b", "--metric", "si",
                     "--from-min", "3", "--to-min", "5"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines()
                if not l.startswith("#")]
        assert rows[1:] and all(3 <= int(r.split(",")[0]) <= 5 for r in rows[1:])

    def test_series_to_file(self, run_dir, tmp_path, capsys):
        out_csv = tmp_path / "series.csv"
        assert main(["analyze", "--log", str(run_dir / "records.log"),
                     "--pair", "b,a", "--metric", "d", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "minute,metric_value"
        assert len(lines) == 11

    def test_symmetry_pairs_values_by_minute(self, tmp_path, capsys):
        forward = [1.0, math.inf, 3.0, 4.5, 5.0]  # inf: out of range
        reverse = [1.5, 2.0, 2.5, math.inf, 6.0]
        log_path = tmp_path / "records.log"
        with RecordLog.create(log_path) as log:
            for minute, (d_ab, d_ba) in enumerate(zip(forward, reverse)):
                log.append(batch_of([
                    (minute, i, j, 1, 1, 0, d, 60.0, 0.0 if d == math.inf else 1.0,
                     0.0 if d == math.inf else 0.5, "Low")
                    for i, j, d in (("a", "b", d_ab), ("b", "a", d_ba))]))
        assert main(["analyze", "--log", str(log_path), "--pair", "a,b",
                     "--metric", "d"]) == 0
        out = capsys.readouterr().out
        # only minutes 0, 2 and 4 are finite in both directions
        want = np.corrcoef([1.0, 3.0, 5.0], [1.5, 2.5, 6.0])[0, 1]
        assert f"symmetry correlation vs b,a: {fmt_float(want)}" in out
        assert f"mean {fmt_float((1.0 + 3.0 + 4.5 + 5.0) / 4)}" in out

    @pytest.mark.parametrize("name", ["experiment1", "experiment2", "experiment3"])
    def test_symmetry_is_the_reports(self, name, scenarios_dir, tmp_path, capsys):
        # analyze over the whole run and the report share one symmetry rule
        out = tmp_path / "run"
        assert main(["run", "--scenario", str(scenarios_dir / f"{name}.scn"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for key, pair in report["pairs"].items():
            for metric in ("p", "si"):
                capsys.readouterr()
                assert main(["analyze", "--log", str(out / "records.log"), "--pair", key,
                             "--metric", metric]) == 0
                want = pair["symmetry"][metric]
                want_text = "n/a" if want is None else fmt_float(want)
                b, a = key.split(",")[::-1]
                assert capsys.readouterr().out.splitlines()[-1] == \
                    f"# symmetry correlation vs {b},{a}: {want_text}"

    def test_bad_pair_flag_is_input_error(self, run_dir):
        assert main(["analyze", "--log", str(run_dir / "records.log"),
                     "--pair", "a"]) == 2

    def test_pair_of_one_node_is_input_error(self, run_dir, capsys):
        assert main(["analyze", "--log", str(run_dir / "records.log"),
                     "--pair", "a,a"]) == 2
        assert "two distinct node ids" in capsys.readouterr().err

    def test_missing_log_is_input_error(self, tmp_path):
        assert main(["analyze", "--log", str(tmp_path / "nope.log"),
                     "--pair", "a,b"]) == 2


class TestExport:
    def test_full_export(self, run_dir, tmp_path, capsys):
        out_csv = tmp_path / "all.csv"
        assert main(["export", "--log", str(run_dir / "records.log"),
                     "--out", str(out_csv)]) == 0
        assert "wrote 20 records" in capsys.readouterr().out
        assert out_csv.read_text().count("\n") == 21

    def test_filtered_export(self, run_dir, tmp_path):
        out_csv = tmp_path / "pair.csv"
        assert main(["export", "--log", str(run_dir / "records.log"),
                     "--out", str(out_csv), "--pair", "b,a",
                     "--from-min", "0", "--to-min", "4"]) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 6
        assert all(line.split(",")[1] == "b" for line in lines[1:])

    def test_empty_range_without_pair_is_input_error(self, run_dir, tmp_path, capsys):
        assert main(["export", "--log", str(run_dir / "records.log"),
                     "--out", str(tmp_path / "all.csv"),
                     "--from-min", "10", "--to-min", "5"]) == 2
        assert "empty minute range [10, 5]" in capsys.readouterr().err

    def test_pair_of_one_node_is_input_error(self, run_dir, tmp_path, capsys):
        out_csv = tmp_path / "pair.csv"
        assert main(["export", "--log", str(run_dir / "records.log"),
                     "--out", str(out_csv), "--pair", "a,a"]) == 2
        assert "two distinct node ids" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_unknown_pair_is_query_error(self, run_dir, tmp_path, capsys):
        assert main(["export", "--log", str(run_dir / "records.log"),
                     "--out", str(tmp_path / "pair.csv"), "--pair", "zz,a"]) == 3
        assert "node 'zz' never appears" in capsys.readouterr().err


# main(argv) with the file size limit set to `cap` bytes, after the import
CAPPED_MAIN = """\
import resource, sys
from nearness.cli import main
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (cap, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[2:]))
"""


class TestOutputErrors:
    @pytest.mark.parametrize("command, cap, failed", [
        ("run", 512, "out/records.log"),
        ("simulate", 4096, "out/accel.csv"),        # sightings.csv fits under the cap
        ("export", 512, "out.csv"),
        ("analyze", 64, "out.csv"),
    ])
    def test_write_past_the_size_limit_names_its_file(self, command, cap, failed, tiny_scn,
                                                     run_dir, tmp_path):
        log = str(run_dir / "records.log")
        out = str(tmp_path / "out")
        argv = {"run": ["run", "--scenario", str(tiny_scn), "--out", out],
                "simulate": ["simulate", "--scenario", str(tiny_scn), "--out", out],
                "export": ["export", "--log", log, "--out", out + ".csv"],
                "analyze": ["analyze", "--log", log, "--pair", "a,b", "--out", out + ".csv"],
                }[command]
        child = run_child(CAPPED_MAIN, str(cap), *argv)
        path = str(tmp_path / failed)
        assert child.returncode == 2, child.stderr
        assert (f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {path!r}"
                in child.stderr)
        if command == "run":
            # the log holds whole frames only: a writable open cuts nothing
            size = os.path.getsize(path)
            RecordLog.open(path, writable=True).close()
            assert os.path.getsize(path) == size

    def test_capped_run_keeps_the_blocks_before_the_limit(self, tmp_path):
        # 600 minutes of the tiny scenario give 1200 records, two blocks; a
        # limit one byte short of the whole log fails the second block only
        scn = tmp_path / "long.scn"
        scn.write_text(TINY_SCENARIO.replace("600000", "36000000"))
        full, capped = tmp_path / "full", tmp_path / "capped"
        assert main(["run", "--scenario", str(scn), "--out", str(full)]) == 0
        size = os.path.getsize(full / "records.log")
        child = run_child(CAPPED_MAIN, str(size - 1),
                          "run", "--scenario", str(scn), "--out", str(capped))
        assert child.returncode == 2, child.stderr
        assert f"File too large: {str(capped / 'records.log')!r}" in child.stderr
        size = os.path.getsize(capped / "records.log")
        RecordLog.open(capped / "records.log", writable=True).close()
        assert os.path.getsize(capped / "records.log") == size
        for out in (full, capped):
            assert main(["export", "--log", str(out / "records.log"),
                         "--out", str(out / "all.csv")]) == 0
        kept = read_bytes(capped / "all.csv").splitlines()
        assert len(kept) == 1 + _WRITE_BLOCK
        assert kept == read_bytes(full / "all.csv").splitlines()[:len(kept)]


class TestRepeatedMain:
    def test_calls_in_one_process_match_lone_runs(self, run_dir, tmp_path, capsys):
        # each command prints and writes what it does as a process's only
        # command, whatever ran before it on the shared parser
        log, out = str(run_dir / "records.log"), str(tmp_path / "out.csv")
        calls = [
            ["analyze", "--log", log, "--pair", "a,b", "--from-min", "3", "--to-min", "10",
             "--metric", "si"],
            ["analyze", "--log", log, "--pair", "b,a"],
            ["export", "--log", log, "--out", out, "--pair", "a,b"],
            ["export", "--log", log, "--out", out],
            ["analyze", "--log", log, "--pair", "a,b", "--metric", "zz"],
            ["analyze", "--log", log, "--pair", "a,b", "--metric", "d", "--out", out],
        ]
        lone_main = "import sys\nfrom nearness.cli import main\nsys.exit(main(sys.argv[1:]))\n"

        def written(argv):
            """The bytes the command wrote to `out`, which is then removed."""
            if "--out" not in argv:
                return None
            data = read_bytes(out)
            os.remove(out)
            return data

        codes = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:       # argparse rejects the flag
                code = exc.code
            here = (code, *capsys.readouterr(), written(argv))
            child = run_child(lone_main, *argv)
            assert here == (child.returncode, child.stdout, child.stderr, written(argv)), argv
            codes.append(code)
        assert codes == [0, 0, 0, 0, 2, 0]
        assert build_parser() is build_parser()
