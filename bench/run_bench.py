"""Benchmark of the nearness engine, one workload per invocation.

    python3 bench/run_bench.py --workload {files,crowd,archive} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout.  It runs complete passes for at least
S seconds, one after the other in this one process, and times the
workload's set-up: before every pass, or a few times before the first one
where set-up takes seconds.  With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it runs an untraced warm-up pass, then alternates
traced and untraced passes and prints the per-layer metrics of the traced
ones.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A copy of the result, with machine information, goes to
`.bench_runs/results/`.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
CAVEAT = ("shared 2-core box: ratios within one result are meaningful, "
          "absolute times across results are not")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "analyze_s": "s", "peak_rss_mb": "MB"}
# Passes continue until --seconds have passed, but never fewer than two, so
# that every median has more than one sample.  A run on a slowed-down host
# then makes fewer passes rather than taking longer.
MIN_PASSES = 2
# span self times already reported as cli.self_s, engine.self_s, self.bench_s
SELF_REPORTED_ELSEWHERE = {"cli.main", "engine.run_engine", "bench.pass"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("files", "crowd", "archive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs to seconds of work (smoke test)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a non-negative 63-bit integer")
    return args


def machine_info() -> dict:
    import numpy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "caveat": CAVEAT}


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    from tracer import LAYERS, SPAN_NAMES, layer_of

    spans = tracer.span_totals()
    counts = tracer.counts

    def total(name):
        return spans[name][1]

    def calls(name):
        return spans[name][0]

    m = {
        "simulator.generate_s": (total("simulator.generate"), "s"),
        "simulator.rows": (counts["simulator.rows"], "count"),
        "ingest.write_traces_s": (total("ingest.write_traces"), "s"),
        "ingest.read_traces_s": (total("ingest.read_traces"), "s"),
        "ingest.trace_rows": (counts["ingest.trace_rows"], "count"),
        "ingest.trace_bytes": (counts["ingest.trace_bytes"], "bytes"),
        "ingest.parse_record_row_calls": (calls("ingest.parse_record_row"), "count"),
        "ingest.parse_record_row_s": (total("ingest.parse_record_row"), "s"),
        "pipelines.contacts_from_times_s": (total("pipelines.contacts_from_times"), "s"),
        "pipelines.contacts": (counts["pipelines.contacts"], "count"),
        "pipelines.accrue_s": (total("pipelines.accrue"), "s"),
        "pipelines.accrue_calls": (calls("pipelines.accrue"), "count"),
        "pipelines.ema_update_calls": (calls("pipelines.ema_update"), "count"),
        "fusion.fuse_minute_s": (total("fusion.fuse_minute"), "s"),
        "fusion.fuse_minute_calls": (calls("fusion.fuse_minute"), "count"),
        "fusion.session_add_s": (total("fusion.session_add"), "s"),
        "fusion.records": (counts["fusion.records"], "count"),
        "fusion.provisional_labels": (counts["fusion.provisional_labels"], "count"),
        "fusion.provisional_ratio": (
            counts["fusion.provisional_labels"] / counts["fusion.labels"]
            if counts["fusion.labels"] else 0.0, "ratio"),
        "engine.run_engine_s": (total("engine.run_engine"), "s"),
        "engine.self_s": (spans["engine.run_engine"][2], "s"),
        "engine.build_report_s": (total("engine.build_report"), "s"),
        "store.append_s": (total("store.append"), "s"),
        "store.append_calls": (calls("store.append"), "count"),
        "store.bytes_appended": (counts["store.bytes_appended"], "bytes"),
        "store.open_s": (total("store.open"), "s"),
        "store.open_calls": (calls("store.open"), "count"),
        "store.query_s": (total("store.query"), "s"),
        "store.query_calls": (calls("store.query"), "count"),
        "store.export_csv_s": (total("store.export_csv"), "s"),
        "cli.self_s": (spans["cli.main"][2], "s"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name in SPAN_NAMES:
        layer_self[layer_of(name)] += spans[name][2]
        if name not in SELF_REPORTED_ELSEWHERE:
            m[f"self.{name}_s"] = (spans[name][2], "s")
    for layer, seconds in layer_self.items():
        if layer != "cli":
            m[f"self.{layer}_s"] = (seconds, "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.unaccounted_s"] = (wall_s - sum(layer_self.values()), "s")
    return m


def measure(workload, seconds: float, trace: bool, spans_path: str):
    """Set up, run passes for `seconds`; returns (metrics, ops, timings)."""
    from workloads import Ops

    ops = Ops()
    setup_times = []

    def set_up():
        gc.collect()
        start = perf_counter()
        workload.setup(ops)
        setup_times.append(perf_counter() - start)

    for _ in range(workload.setup_reps):
        set_up()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    walls, traced_walls, latencies, layer_rows = [], [], [], []
    if tracer is not None:
        if not workload.setup_reps:
            set_up()
        workload.run_pass(ops)   # warm-up, so traced and untraced passes compare
    started = perf_counter()
    while True:
        if not workload.setup_reps:
            set_up()
        gc.collect()
        if tracer is not None and len(traced_walls) <= len(walls):
            tracer.reset()
            tracer.install()
            try:
                start = perf_counter()
                tracer.root(workload.run_pass)(ops)
                wall = perf_counter() - start
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_rows.append(layer_metrics(tracer, wall))
        else:
            start = perf_counter()
            latencies += workload.run_pass(ops)
            walls.append(perf_counter() - start)
        if tracer is None:
            done = len(walls) >= MIN_PASSES
        else:
            done = len(walls) >= 1 and len(traced_walls) >= 1
        if done and perf_counter() - started >= seconds:
            break

    if tracer is None:
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": median(walls),
            "analyze_s": median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    else:
        tracer.write_spans(spans_path)
        metrics = {name: (median([row[name][0] for row in layer_rows]), unit)
                   for name, (_, unit) in layer_rows[0].items()}
        metrics["trace.untraced_wall_s"] = (median(walls), "s")
        metrics["trace.overhead_s"] = (median(traced_walls) - median(walls), "s")
    return metrics, ops, {"untraced": walls, "traced": traced_walls, "setup": setup_times,
                          "analyze": latencies}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nearness", "cli.py")):
        print(f"error: no nearness sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS_DIR, f"{label}-{os.getpid()}")
    results_dir = os.path.join(RUNS_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed, args.tiny)
        metrics, ops, timings = measure(workload, args.seconds, bool(args.trace),
                                       os.path.join(results_dir, f"{label}-spans.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ratio = ops.failed / ops.attempted if ops.attempted else 1.0
    info = machine_info()
    for problem in ops.problems:
        print(f"FAILED {problem}")
    passes = len(timings["untraced"]) + len(timings["traced"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes}  operations {ops.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':36s} {failed_ratio:.6g} ratio")
    print(f"machine: cpus {info['cpu_count']}  python {info['python']}  "
          f"numpy {info['numpy']}  ({CAVEAT})")

    result = {
        "correct": ops.failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(results_dir, f"{label}.json"), "w", encoding="utf-8") as handle:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "pass_walls_s": timings, "failed_ratio": failed_ratio,
                   "problems": ops.problems, "machine": info}, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
