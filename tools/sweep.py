"""Scaling sweep of the `nearness` command line, written to one JSON file.

    python tools/sweep.py --quick [--out PATH]
    python tools/sweep.py --tiny [--out PATH]

Each point is one command (`simulate`, `run`, `analyze` or `export`) run as
the only child of a fresh Python parent, which times it and reads the
child's peak RSS from `RUSAGE_CHILDREN`.  Per point the file holds the
wall time, the peak RSS, the records the command wrote (log records for
`run`, CSV rows for `analyze` and `export`) and the sha256 of each file it
wrote; `run` is summarised by its `records.log`.  The file also names the
machine: CPU count, Python and numpy versions.

`--quick` runs experiment1 and experiment3 through `run --scenario`,
`simulate` and `run --traces`; experiment2 and `crowd_scenario(16, 6, 1)` and
`crowd_scenario(32, 6, 1)` from `bench/scenarios.py` through
`run --scenario`; and then `analyze` and `export` on the last crowd's log.
It takes about 25 s on a 2-core x86-64 box.  `--tiny` runs the same shape
on crowds of a few agents for a quarter of an hour, in seconds.  After
writing its file the sweep exits 1 if a file-path scenario's two
`records.log` files differ, or if a point in `GUARDS` peaks above its bound,
writes a `records.log` other than its pinned one or, on the quick grid, did
not run, naming each such point.  Commands run the package of the
checkout that holds this script (its `src` first on `PYTHONPATH`), in a
temporary directory that holds their inputs and outputs, which is removed
at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from scenarios import crowd_scenario  # noqa: E402

# the parent of each point: it runs argv as its only child and prints the
# child's wall time and peak RSS as one JSON object
PARENT = """\
import json, resource, subprocess, sys, time
started = time.perf_counter()
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
wall_s = time.perf_counter() - started
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"wall_s": wall_s, "peak_rss_mb": peak_kb / 1024}))
"""

# (scenarios through the file path, scenarios through run --scenario only);
# an entry is a bundled scenario's name or a crowd's (agents, hours), and the
# last one's log is the one analyze and export read
GRIDS = {
    "quick": (("experiment1", "experiment3"), ("experiment2", (16, 6), (32, 6))),
    "tiny": (((3, 0.25),), ((4, 0.25), (4, 0.5))),
}

# the quick grid's guarded points: name -> (peak RSS bound in MB, sha256 of
# its records.log or None), each with the reason it is guarded
GUARDS = {
    # 667 MB when every node's accelerometer series was built before the engine ran
    "experiment2 run --scenario": (550, None),
    # 205 MB with minute batches joined; the digest pins a run beyond the bundled 4 agents
    "crowd32x6h run --scenario": (
        140, "e6da5ad3101b470dc27eb706da23d7d2a983da50823a5c64d3a797a077c78a10"),
    # 126 MB when the writer sorted every accel row of the file at once
    "experiment1 simulate": (70, None),
    # 145 MB when the reader held the whole file's columns and a sorted copy of them
    "experiment1 run --traces": (85, None),
}


def source(entry) -> tuple[str, str]:
    """The label and scenario text of a grid entry."""
    if isinstance(entry, str):
        return entry, (ROOT / "scenarios" / f"{entry}.scn").read_text(encoding="utf-8")
    agents, hours = entry
    return f"crowd{agents}x{hours}h", crowd_scenario(agents, hours, 1)


def check(result: dict) -> int:
    """Print one line per file-path scenario whose two logs differ and per
    guarded point above its bound, off its digest or missing from the quick
    grid; 1 if there is any."""
    lines = [f"{label}: records.log differs between run --scenario and run --traces"
             for label, agree in result["logs_agree"].items() if not agree]
    if result["grid"] == "quick":
        ran = {point["name"] for point in result["points"]}
        lines += [f"{name}: not run" for name in GUARDS if name not in ran]
    for point in result["points"]:
        if point["name"] not in GUARDS:
            continue
        bound_mb, digest = GUARDS[point["name"]]
        if point["peak_rss_mb"] > bound_mb:
            lines.append(f"{point['name']}: peak RSS {point['peak_rss_mb']:.1f} MB "
                         f"is over its bound of {bound_mb} MB")
        if digest is not None and point["sha256"]["records.log"] != digest:
            lines.append(f"{point['name']}: records.log sha256 "
                         f"{point['sha256']['records.log']} is not {digest}")
    for line in lines:
        print(line, file=sys.stderr)
    return 1 if lines else 0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def csv_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


class Sweep:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.points: list[dict] = []

    def measure(self, name: str, args: list[str], outputs: list[str]) -> dict:
        """Run `nearness args` as the only child of a fresh parent; paths in
        `args` and `outputs` are relative to the work directory."""
        argv = [sys.executable, "-m", "nearness.cli", *args]
        proc = subprocess.run([sys.executable, "-c", PARENT, *argv], env=self.env, cwd=self.work,
                              check=True, stdout=subprocess.PIPE, text=True)
        point = {"name": name, "command": " ".join(["nearness", *args]),
                 **json.loads(proc.stdout), "records": None,
                 "sha256": {Path(path).name: sha256(self.work / path) for path in outputs}}
        self.points.append(point)
        print(f"{name}: {point['wall_s']:.2f} s, {point['peak_rss_mb']:.1f} MB", file=sys.stderr)
        return point

    def scenario(self, label: str, text: str) -> str:
        (self.work / f"{label}.scn").write_text(text, encoding="utf-8")
        return f"{label}.scn"

    def run(self, name: str, source: list[str], out: str) -> dict:
        point = self.measure(name, ["run", *source, "--out", out], [f"{out}/records.log"])
        report = json.loads((self.work / out / "report.json").read_text(encoding="utf-8"))
        point["records"] = report["record_count"]
        return point

    def files(self, label: str, text: str) -> bool:
        """A scenario through both paths; True if their logs agree."""
        scn = self.scenario(label, text)
        direct = self.run(f"{label} run --scenario", ["--scenario", scn], f"{label}/scenario")
        traces = f"{label}/traces"
        self.measure(f"{label} simulate", ["simulate", "--scenario", scn, "--out", traces],
                     [f"{traces}/{name}.csv" for name in ("sightings", "accel", "sound")])
        read = self.run(f"{label} run --traces", ["--traces", traces], f"{label}/from-traces")
        return direct["sha256"] == read["sha256"]

    def read_side(self, label: str, log: str, pair: str) -> None:
        for command, extra in (("analyze", ["--pair", pair, "--metric", "si"]), ("export", [])):
            out = f"{label}-{command}.csv"
            point = self.measure(f"{label} {command}",
                                 [command, "--log", log, *extra, "--out", out], [out])
            point["records"] = csv_rows(self.work / out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    grid = parser.add_mutually_exclusive_group(required=True)
    grid.add_argument("--quick", dest="grid", action="store_const", const="quick",
                      help="experiment1-3 and 16- and 32-agent, 6 h crowds")
    grid.add_argument("--tiny", dest="grid", action="store_const", const="tiny",
                      help="the same shape on tiny crowds, in seconds")
    parser.add_argument("--out", default="sweep.json", help="JSON file to write")
    args = parser.parse_args(argv)

    file_scenarios, scenario_runs = GRIDS[args.grid]
    with tempfile.TemporaryDirectory(prefix="nearness-sweep-") as tmp:
        sweep = Sweep(Path(tmp))
        agree = {}
        for entry in file_scenarios:
            label, text = source(entry)
            agree[label] = sweep.files(label, text)
        for entry in scenario_runs:
            label, text = source(entry)
            sweep.run(f"{label} run --scenario", ["--scenario", sweep.scenario(label, text)],
                      label)
        sweep.read_side(label, f"{label}/records.log", "n000,n001")

    result = {
        "grid": args.grid,
        "machine": {"cpu_count": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "logs_agree": agree,
        "points": sweep.points,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(sweep.points)} points to {args.out}", file=sys.stderr)
    return check(result)


if __name__ == "__main__":
    sys.exit(main())
