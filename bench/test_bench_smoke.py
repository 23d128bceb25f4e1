"""Smoke test of the benchmark itself, at a tiny size.

    python -m pytest bench/test_bench_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that nothing fails on the current code, that the scenario writer is
deterministic, that the sped-up office keeps its phases, that a wrong output is counted as failed, that the tracer
sees the rows `export` formats, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from scenarios import crowd_scenario, time_scaled  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run_bench.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert any(line.split() == ["failed_ratio", "0", "ratio"] for line in lines)


def test_crowd_scenario_is_deterministic_and_valid(tmp_path):
    from nearness.simulator import load_scenario

    text = crowd_scenario(5, 1.5, seed=11)
    assert text == crowd_scenario(5, 1.5, seed=11)
    assert text != crowd_scenario(5, 1.5, seed=12)
    path = tmp_path / "crowd.scn"
    path.write_text(text, encoding="utf-8")
    config = load_scenario(path)
    assert len(config.agents) == 5 and config.duration_ms == 5_400_000


def test_time_scaled_office_keeps_its_phases(tmp_path):
    from nearness.simulator import load_scenario

    office = os.path.join(ROOT, "scenarios", "experiment1.scn")
    with open(office, encoding="utf-8") as handle:
        text = handle.read()
    path = tmp_path / "office.scn"
    path.write_text(time_scaled(text, 7), encoding="utf-8")
    fast, slow = load_scenario(path), load_scenario(office)
    assert fast.duration_ms == 3_600_000 and fast.seed == slow.seed
    for a, b in zip(fast.agents, slow.agents, strict=True):
        assert [(w.x, w.y) for w in a.waypoints] == [(w.x, w.y) for w in b.waypoints]
        assert [w.t_ms for w in a.waypoints] == [round(w.t_ms / 7) for w in b.waypoints]
        assert len(a.sound) == len(b.sound)


def test_wrong_output_counts_as_failed(tmp_path):
    workload = WORKLOADS["archive"](str(tmp_path), seed=3, tiny=True)
    ops = Ops()
    workload.setup(ops)
    workload.run_pass(ops)
    assert (ops.attempted, ops.failed) == (1 + 13, 0)
    workload.digests.expected["export.csv"] = "0" * 64
    workload.run_pass(ops)
    assert ops.failed == 1 and "export.csv digest" in ops.problems[0]


def test_tracer_counts_the_rows_export_formats(tmp_path):
    from tracer import Tracer

    workload = WORKLOADS["archive"](str(tmp_path), seed=3, tiny=True)
    ops = Ops()
    workload.setup(ops)
    tracer = Tracer()
    tracer.install()
    try:
        workload.export(ops, workload.log_path, workload.oracle)
    finally:
        tracer.uninstall()
    assert ops.failed == 0
    calls = tracer.span_totals()["ingest.format_record_row"][0]
    assert calls == workload.oracle.records > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "files", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
