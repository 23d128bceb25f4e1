import json
import math

import numpy as np
import pytest

from conftest import make_traces
from nearness.cli import main
from nearness.domain import MinuteRecord, Nearness
from nearness.ingest import fmt_float, read_traces, write_traces
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

    def test_epoch_maps_wall_clock_traces(self, tiny_scn, tmp_path):
        main(["simulate", "--scenario", str(tiny_scn), "--out", str(tmp_path / "tr")])
        epoch = 1_700_000_000_000
        shifted = tmp_path / "shifted"
        shifted.mkdir()
        for name in ("sightings.csv", "accel.csv", "sound.csv"):
            lines = (tmp_path / "tr" / name).read_text().splitlines()
            out = [lines[0]]
            for line in lines[1:]:
                t, rest = line.split(",", 1)
                out.append(f"{int(t) + epoch},{rest}")
            (shifted / name).write_text("\n".join(out) + "\n")
        assert main(["run", "--traces", str(shifted), "--out", str(tmp_path / "r1"),
                     "--epoch", str(epoch)]) == 0
        assert main(["run", "--traces", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "r2")]) == 0
        assert read_bytes(tmp_path / "r1" / "records.log") == \
            read_bytes(tmp_path / "r2" / "records.log")


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
        degree = {r.minute: r.n_i for r in log.query(("a", "b"))}
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
                log.append([MinuteRecord(minute, i, j, 1, 1, 0, d, 60.0,
                                         0.0 if d == math.inf else 1.0,
                                         0.0 if d == math.inf else 0.5, Nearness.LOW)
                            for i, j, d in (("a", "b", d_ab), ("b", "a", d_ba))])
        assert main(["analyze", "--log", str(log_path), "--pair", "a,b",
                     "--metric", "d"]) == 0
        out = capsys.readouterr().out
        # only minutes 0, 2 and 4 are finite in both directions
        want = np.corrcoef([1.0, 3.0, 5.0], [1.5, 2.5, 6.0])[0, 1]
        assert f"symmetry correlation vs b,a: {fmt_float(want)}" in out
        assert f"mean {fmt_float((1.0 + 3.0 + 4.5 + 5.0) / 4)}" in out

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
