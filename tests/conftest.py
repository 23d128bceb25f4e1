import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from nearness.domain import LABELS, RECORD_FIELDS, MinuteBatch
from nearness.engine import EngineConfig, RunResult, run_engine
from nearness.ingest import _WRITE_BLOCK, AccelSeries, SightingSeries, SoundSeries, TraceSet
from nearness.simulator import GroundTruth, ScenarioConfig, generate, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_traces(sightings=(), accel=(), sound=()) -> TraceSet:
    """A TraceSet from rows laid out as the trace CSV columns: sightings
    (t_ms, observer, subject, rssi_dbm), accel (t_ms, node, ax, ay, az) and
    sound (t_ms, node, amplitude), in any order; each stream's rows come
    back as `read_traces` gives them, one series sorted stably by time,
    keyed by (observer, subject) or by node."""

    def per_stream(rows, width, series):
        out = {}
        for key in sorted({row[1:1 + width] for row in rows}):
            t, *values = zip(*sorted(((r[0], *r[1 + width:]) for r in rows
                                      if r[1:1 + width] == key), key=lambda r: r[0]))
            out[key if width > 1 else key[0]] = series(
                np.array(t, dtype=np.int64), *(np.array(v, dtype=np.float64) for v in values))
        return out

    return TraceSet(per_stream(sightings, 2, SightingSeries), per_stream(accel, 1, AccelSeries),
                    per_stream(sound, 1, SoundSeries))


def rows(batch: MinuteBatch) -> list[tuple]:
    """The rows of `batch` as tuples of Python values in RECORD_FIELDS
    order, labels as their texts."""
    return list(zip(*batch.values()))


# the MinuteBatch column types, in RECORD_FIELDS order
BATCH_DTYPES = (np.int64, object, object) + (np.int64,) * 3 + (np.float64,) * 4 + (np.int64,)


def batch_of(records) -> MinuteBatch:
    """The rows `records`, tuples as `rows` gives them, as one MinuteBatch."""
    columns = [list(c) for c in zip(*records)] or [[]] * len(RECORD_FIELDS)
    columns[-1] = [LABELS.index(label) for label in columns[-1]]
    return MinuteBatch(*(np.array(c, dtype=dtype) for c, dtype in zip(columns, BATCH_DTYPES)))


def append_in_blocks(log, records: MinuteBatch) -> None:
    """Append a finished run's records to `log` as `run` does: views of
    `_WRITE_BLOCK` rows at a time."""
    for lo in range(0, len(records), _WRITE_BLOCK):
        log.append(MinuteBatch(*(c[lo:lo + _WRITE_BLOCK] for c in records.columns())))


def by_key(batch: MinuteBatch) -> dict[tuple, dict]:
    """{(minute, i, j): {field: value}} of the rows of `batch`."""
    return {row[:3]: dict(zip(RECORD_FIELDS, row)) for row in rows(batch)}


@dataclass
class RunBundle:
    """One simulated scenario processed end to end, with wall-clock timing."""
    config: ScenarioConfig
    traces: TraceSet
    gt: GroundTruth
    result: RunResult
    elapsed_s: float

    def by_key(self):
        return by_key(self.result.records)


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
    if report.when != "call" or not report.nodeid.split("::")[0].endswith("test_acceptance.py"):
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
