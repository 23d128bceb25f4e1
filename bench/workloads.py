"""The benchmark workloads and the checks on their outputs.

Every workload drives the documented CLI in-process through
`nearness.cli.main`, so the program only ever sees the files the workload
generated from its seed.  Each CLI command is one operation; it fails when
its exit code is not 0 or when its output does not pass the check:

* `records.log` and the full export CSV must match the digest recorded in
  `digests.json` for the seed, where one is recorded, and must be the same
  on every pass of a run;
* every `analyze --out` file and every export must equal what an
  independent reading of the log's frames says they should hold;
* on `files`, the traces `run --traces` read back must be bit-identical
  (`traces_equal`) to the ones the simulator generated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import random
import re
import shutil
import struct
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter

import nearness.cli
from nearness.ingest import traces_equal
from nearness.simulator import generate, load_scenario

from scenarios import crowd_scenario, time_scaled

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
OFFICE_SCENARIO = os.path.join(os.path.dirname(BENCH_DIR), "scenarios", "experiment1.scn")
OFFICE_SPEED_UP = 7   # the 7 h office becomes 1 h

LOG_MAGIC = b"NSNS1"
EXPORT_HEADER = b"minute,i,j,n_i,m_i,v_i,d_m,s_s,p,si,nearness\n"
# column of each `analyze --metric` in a minute-record row
METRIC_COLUMN = {"n": 3, "m": 4, "v": 5, "d": 6, "s": 7, "p": 8, "si": 9}


class CheckFailed(Exception):
    """An operation's output is not what it should be."""


class Ops:
    """Runs CLI commands and counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, label: str, operation) -> None:
        """Count one operation; it fails if `operation()` raises."""
        self.attempted += 1
        try:
            operation()
        except (CheckFailed, OSError, subprocess.SubprocessError) as exc:
            self.failed += 1
            self.problems.append(f"{label}: {exc}")

    def run(self, argv: list[str], check=None) -> float:
        """Run one CLI command; returns its latency in seconds.

        `check(stdout)` runs after the command, outside its latency, and
        raises CheckFailed when the output is wrong.
        """
        latency = []

        def operation():
            captured = io.StringIO()
            start = perf_counter()
            with redirect_stdout(captured):
                code = nearness.cli.main(argv)
            latency.append(perf_counter() - start)
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            if check is not None:
                check(captured.getvalue())

        self.attempt(" ".join(argv), operation)
        return latency[0]


# --- independent reading of the outputs ------------------------------------------

def read_frames(path) -> list[bytes]:
    """The payload of every frame of a record log, which must be whole."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(LOG_MAGIC):
        raise CheckFailed(f"{path}: bad magic")
    frames, pos = [], len(LOG_MAGIC)
    while pos < len(data):
        if pos + 4 > len(data):
            raise CheckFailed(f"{path}: torn frame header at byte {pos}")
        (length,) = struct.unpack_from(">I", data, pos)
        pos += 4
        if pos + length > len(data):
            raise CheckFailed(f"{path}: torn frame at byte {pos}")
        frames.append(data[pos:pos + length])
        pos += length
    return frames


def analyze_argv(log_path, out_path, query) -> list[str]:
    (i, j), metric, lo, hi = query
    argv = ["analyze", "--log", log_path, "--pair", f"{i},{j}",
            "--metric", metric, "--out", out_path]
    if hi is not None:
        argv += ["--from-min", str(lo), "--to-min", str(hi)]
    return argv


def draw_queries(rng: random.Random, nodes: list[str], minutes: int, count: int):
    """`count` analyze queries: ordered pair, metric and, for half, a range."""
    queries = []
    for _ in range(count):
        pair = tuple(rng.sample(nodes, 2))
        metric = rng.choice(sorted(METRIC_COLUMN))
        lo, hi = 0, None
        if rng.random() < 0.5:
            lo = rng.randrange(minutes // 2)
            hi = lo + 1 + rng.randrange(minutes // 2)
        queries.append((pair, metric, lo, hi))
    return queries


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class Digests:
    """Output digests: the recorded ones for this seed, else the first pass's."""

    def __init__(self, workload: str, seed: int, use_recorded: bool):
        recorded = {}
        if use_recorded and os.path.exists(DIGESTS_PATH):
            with open(DIGESTS_PATH, encoding="utf-8") as handle:
                recorded = json.load(handle).get(workload, {}).get(str(seed), {})
        self.expected: dict[str, str] = dict(recorded)

    def check(self, kind: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        want = self.expected.setdefault(kind, digest)
        if digest != want:
            raise CheckFailed(f"{kind} digest {digest[:12]} != expected {want[:12]}")


class LogOracle:
    """What `analyze` and `export` must write for one record log.

    Built in one scan of an independent reading of the log's frames.  It
    keeps only the expected bytes and digest, so that the benchmark holds
    few Python objects and little memory while the program runs.
    """

    def __init__(self, log_path, queries):
        frames = read_frames(log_path)
        self.records = len(frames)
        export = hashlib.sha256(EXPORT_HEADER)
        by_pair: dict[bytes, list[int]] = {}
        for k, ((i, j), _, _, _) in enumerate(queries):
            by_pair.setdefault(f"{i},{j}".encode(), []).append(k)
        lines = [[b"minute,metric_value"] for _ in queries]
        for frame in frames:
            export.update(frame + b"\n")
            minute, i, j, _ = frame.split(b",", 3)
            for k in by_pair.get(i + b"," + j, ()):
                _, metric, lo, hi = queries[k]
                if lo <= int(minute) and (hi is None or int(minute) <= hi):
                    lines[k].append(minute + b"," + frame.split(b",")[METRIC_COLUMN[metric]])
        self.analyze = [b"\n".join(rows) + b"\n" for rows in lines]
        self.export_sha256 = export.hexdigest()


# --- workloads ------------------------------------------------------------------

class Workload:
    """One workload in one working directory.

    `setup` prepares the inputs and is timed as set-up; `run_pass` is one
    complete pass from inputs to checked outputs and returns the latency of
    each `analyze` command it ran.  `tiny` shrinks the inputs for the smoke
    test; no digests are recorded for them.
    """

    name = ""
    # Set-up runs again before every pass, so that its samples spread over
    # the run as the passes' do.  A workload whose set-up takes seconds runs
    # it `setup_reps` times before the first pass instead.
    setup_reps = 0

    def __init__(self, workdir: str, seed: int, tiny: bool):
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny
        self.digests = Digests(self.name, seed, use_recorded=not tiny)
        self.queries: list = []
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def write_scenario(self, text: str) -> str:
        """Write the workload's scenario file, check that it loads, return its path."""
        path = self.path(f"{self.name}.scn")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        load_scenario(path)   # the writer's output must be a valid scenario
        return path

    def setup(self, ops: Ops) -> None:
        raise NotImplementedError

    def run_pass(self, ops: Ops) -> list[float]:
        raise NotImplementedError

    def check_log(self, log_path, stdout: str) -> LogOracle:
        """Check a log `run` just wrote and return its oracle."""
        oracle = LogOracle(log_path, self.queries)
        match = re.search(r"records: (\d+)", stdout)
        if match is None or int(match.group(1)) != oracle.records:
            raise CheckFailed(f"log holds {oracle.records} records, run said "
                              f"{match.group(0) if match else 'nothing'}")
        self.digests.check("records.log", read_bytes(log_path))
        return oracle

    def run_checked(self, ops: Ops, argv: list[str], log_path, check=None):
        """Run `run`, check its log, and return the log's oracle (None if bad)."""
        oracles = []

        def check_run(stdout):
            if check is not None:
                check()
            oracles.append(self.check_log(log_path, stdout))

        ops.run(argv, check_run)
        return oracles[0] if oracles else None

    def analyze(self, ops: Ops, log_path, oracle) -> list[float]:
        """One `analyze` per query; returns their latencies."""
        latencies = []
        for k, query in enumerate(self.queries):
            target = self.path(f"analyze{k}.csv")

            def check(_stdout, k=k, target=target):
                if oracle is None or read_bytes(target) != oracle.analyze[k]:
                    raise CheckFailed(f"{os.path.basename(target)} differs from the log")

            latencies.append(ops.run(analyze_argv(log_path, target, query), check))
        return latencies

    def export(self, ops: Ops, log_path, oracle) -> None:
        target = self.path("export.csv")

        def check(_stdout):
            data = read_bytes(target)
            if oracle is None or hashlib.sha256(data).hexdigest() != oracle.export_sha256:
                raise CheckFailed("export differs from the log's records")
            self.digests.check("export.csv", data)

        ops.run(["export", "--log", log_path, "--out", target], check)


class FilesWorkload(Workload):
    """simulate -> run --traces -> analyze x24 -> export on the office scenario.

    The office is the checked-in `experiment1.scn` played 7 times faster
    (1 h instead of 7 h), so that a run holds many passes.  The seed reaches
    it through the CLI's `--seed`, which only drives the accelerometer noise.
    """

    name = "files"

    def setup(self, ops: Ops) -> None:
        if self.tiny:
            text = crowd_scenario(2, 0.5, self.seed)
            nodes = ["n000", "n001"]
        else:
            with open(OFFICE_SCENARIO, encoding="utf-8") as handle:
                text = time_scaled(handle.read(), OFFICE_SPEED_UP)
            nodes = ["a", "b"]
        self.scenario = self.write_scenario(text)
        self.config = dataclasses.replace(load_scenario(self.scenario), seed=self.seed)
        minutes = self.config.duration_ms // 60_000
        self.queries = draw_queries(random.Random(f"files:{self.seed}"), nodes, minutes, 24)

    def run_pass(self, ops: Ops) -> list[float]:
        traces, out = self.path("traces"), self.path("out")
        log_path = os.path.join(out, "records.log")
        ops.run(["simulate", "--scenario", self.scenario, "--seed", str(self.seed),
                 "--out", traces])

        read_back = []
        read_traces = nearness.cli.read_traces

        def capture(*args, **kwargs):
            read_back.append(read_traces(*args, **kwargs))
            return read_back[-1]

        def check_traces():
            # Generated only after `run` has returned and dropped after the
            # comparison, so the reference is never alive while `run` is.
            reference, _ = generate(self.config)
            if len(read_back) != 1 or not traces_equal(read_back[0], reference):
                raise CheckFailed("traces read back differ from the simulated ones")

        nearness.cli.read_traces = capture
        try:
            oracle = self.run_checked(ops, ["run", "--traces", traces, "--out", out],
                                      log_path, check_traces)
        finally:
            nearness.cli.read_traces = read_traces
        read_back.clear()
        latencies = self.analyze(ops, log_path, oracle)
        self.export(ops, log_path, oracle)
        return latencies


class CrowdWorkload(Workload):
    """run --scenario on a 20-agent, 1.5 h random-waypoint crowd, then analyze x2."""

    name = "crowd"

    def setup(self, ops: Ops) -> None:
        agents, hours = (4, 0.5) if self.tiny else (20, 1.5)
        self.scenario = self.write_scenario(crowd_scenario(agents, hours, self.seed))
        nodes = [f"n{k:03d}" for k in range(agents)]
        self.queries = draw_queries(random.Random(f"crowd:{self.seed}"), nodes,
                                    round(hours * 60), 2)

    def run_pass(self, ops: Ops) -> list[float]:
        log_path = self.path("out", "records.log")
        oracle = self.run_checked(
            ops, ["run", "--scenario", self.scenario, "--out", self.path("out")], log_path)
        return self.analyze(ops, log_path, oracle)


class ArchiveWorkload(Workload):
    """A dozen analyze calls and one full export on a ~34 k-record log.

    Set-up builds the log with `run --scenario` in a child process, so the
    engine's memory does not count toward this workload's peak RSS.
    """

    name = "archive"
    setup_reps = 3   # one build takes ~1.5 s

    def setup(self, ops: Ops) -> None:
        agents, hours = (4, 0.5) if self.tiny else (20, 1.5)
        own_seed = random.Random(f"archive:{self.seed}").randrange(2 ** 32)
        scenario = self.write_scenario(crowd_scenario(agents, hours, own_seed))
        nodes = [f"n{k:03d}" for k in range(agents)]
        self.queries = draw_queries(random.Random(f"archive-queries:{self.seed}"),
                                    nodes, round(hours * 60), 12)
        out = self.path("archive")
        shutil.rmtree(out, ignore_errors=True)
        self.log_path = os.path.join(out, "records.log")
        self.oracle = None
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(nearness.cli.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "nearness.cli", "run",
                "--scenario", scenario, "--out", out]

        def build():
            proc = subprocess.run(argv, env=env, check=True, capture_output=True,
                                  text=True, timeout=170)
            self.oracle = self.check_log(self.log_path, proc.stdout)

        ops.attempt("run --scenario (archive log)", build)

    def run_pass(self, ops: Ops) -> list[float]:
        latencies = self.analyze(ops, self.log_path, self.oracle)
        self.export(ops, self.log_path, self.oracle)
        return latencies


WORKLOADS = {w.name: w for w in (FilesWorkload, CrowdWorkload, ArchiveWorkload)}
