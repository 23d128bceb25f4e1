import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from nearness.engine import EngineConfig, RunResult, run_engine
from nearness.ingest import AccelSeries, SightingTable, SoundSeries, TraceSet
from nearness.simulator import GroundTruth, ScenarioConfig, generate, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_traces(sightings=(), accel=(), sound=()) -> TraceSet:
    """A TraceSet from rows laid out as the trace CSV columns: sightings
    (t_ms, observer, subject, rssi_dbm), accel (t_ms, node, ax, ay, az) and
    sound (t_ms, node, amplitude), in any order; they come back sorted as
    `read_traces` sorts them."""
    columns = list(zip(*sorted(sightings, key=lambda row: row[:3]))) or [()] * 4
    table = SightingTable(*(np.array(c, dtype=dtype) for c, dtype
                            in zip(columns, (np.int64, object, object, np.float64))))

    def per_node(rows, series):
        out = {}
        for node in sorted({row[1] for row in rows}):
            t, _, *values = zip(*sorted((r for r in rows if r[1] == node), key=lambda r: r[0]))
            out[node] = series(np.array(t, dtype=np.int64),
                               *(np.array(v, dtype=np.float64) for v in values))
        return out

    return TraceSet(table, per_node(accel, AccelSeries), per_node(sound, SoundSeries))


@dataclass
class RunBundle:
    """One simulated scenario processed end to end, with wall-clock timing."""
    config: ScenarioConfig
    traces: TraceSet
    gt: GroundTruth
    result: RunResult
    elapsed_s: float

    def by_key(self):
        return {(r.minute, r.i, r.j): r for r in self.result.records}


def run_scenario_bundle(path, **config_overrides) -> RunBundle:
    config = load_scenario(path)
    if config_overrides:
        rf_over = config_overrides.pop("rf", None)
        if rf_over:
            config = dataclasses.replace(config, rf=dataclasses.replace(config.rf, **rf_over))
        config = dataclasses.replace(config, **config_overrides)
    started = time.perf_counter()
    traces, gt = generate(config)
    result = run_engine(traces, EngineConfig(rf=config.rf), duration_ms=config.duration_ms)
    elapsed = time.perf_counter() - started
    return RunBundle(config, traces, gt, result, elapsed)


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return SCENARIOS


@pytest.fixture(scope="session")
def exp1_run() -> RunBundle:
    return run_scenario_bundle(SCENARIOS / "experiment1.scn")


@pytest.fixture(scope="session")
def exp2_run() -> RunBundle:
    return run_scenario_bundle(SCENARIOS / "experiment2.scn")


@pytest.fixture(scope="session")
def exp3_run() -> RunBundle:
    return run_scenario_bundle(SCENARIOS / "experiment3.scn")


@pytest.fixture(scope="session")
def exp3_noisy_run() -> RunBundle:
    """The symmetric scenario with per-direction RSSI shadowing enabled."""
    return run_scenario_bundle(SCENARIOS / "experiment3.scn",
                               rf={"shadowing_sigma_db": 3.0})


# one pass/fail line per acceptance criterion at the end of the run
_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_acceptance_results):
        word = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"{word}  {name}")
