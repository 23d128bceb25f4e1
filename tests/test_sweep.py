"""The scaling sweep's tiny grid runs end to end and writes its JSON, and its
check fails a guarded point over its bound or off its digest."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def guarded_result(sweep):
    """A quick-grid result whose guarded points all sit exactly at their bounds."""
    points = [{"name": name, "peak_rss_mb": float(bound_mb),
               "sha256": {"records.log": digest or "0" * 64}}
              for name, (bound_mb, digest) in sweep.GUARDS.items()]
    return {"grid": "quick", "logs_agree": {"experiment1": True}, "points": points}


def test_tiny_grid_writes_every_point(tmp_path):
    out = tmp_path / "sweep.json"
    subprocess.run([sys.executable, str(SWEEP), "--tiny", "--out", str(out)], check=True,
                   capture_output=True, timeout=300)
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result["machine"]) >= {"cpu_count", "python", "numpy"}
    assert result["logs_agree"] == {"crowd3x0.25h": True}
    points = {p["name"]: p for p in result["points"]}
    assert len(points) == 7
    for point in points.values():
        assert point["wall_s"] > 0 and point["peak_rss_mb"] > 0
        assert point["sha256"] and all(len(d) == 64 for d in point["sha256"].values())
    # both paths wrote the same log
    direct, read = (points[f"crowd3x0.25h run --{source}"] for source in ("scenario", "traces"))
    assert direct["sha256"] == read["sha256"] and direct["records"] == read["records"] > 0
    # export writes one row per record of the log it reads
    assert points["crowd4x0.5h export"]["records"] == points["crowd4x0.5h run --scenario"]["records"]
    assert 0 < points["crowd4x0.5h analyze"]["records"] < points["crowd4x0.5h export"]["records"]
    assert points["crowd3x0.25h simulate"]["records"] is None


def test_check_passes_every_guarded_point_at_its_bound(sweep, capsys):
    assert sweep.check(guarded_result(sweep)) == 0
    assert capsys.readouterr().err == ""


def test_check_names_a_point_over_its_bound(sweep, capsys):
    result = guarded_result(sweep)
    point = result["points"][0]
    point["peak_rss_mb"] += 0.1
    assert sweep.check(result) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{point['name']}: peak RSS") and "over its bound" in line


def test_check_names_a_point_off_its_digest(sweep, capsys):
    result = guarded_result(sweep)
    (point,) = (p for p in result["points"] if sweep.GUARDS[p["name"]][1] is not None)
    point["sha256"]["records.log"] = "f" * 64
    assert sweep.check(result) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"{point['name']}: records.log sha256 {'f' * 64} is not " \
                   f"{sweep.GUARDS[point['name']][1]}"


def test_check_names_a_guarded_point_the_quick_grid_did_not_run(sweep, capsys):
    result = guarded_result(sweep)
    missing = result["points"].pop()
    assert sweep.check(result) == 1
    assert capsys.readouterr().err == f"{missing['name']}: not run\n"
    # the tiny grid runs no guarded point
    assert sweep.check({"grid": "tiny", "logs_agree": {}, "points": []}) == 0
