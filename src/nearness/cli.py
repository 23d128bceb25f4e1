"""Command-line front end: simulate, run, analyze, export.

Exit codes are a stable contract: 0 success, 1 internal error, 2 input
error (bad file, bad config, bad flag value), 3 query error (asking a log
about nodes it has never seen).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from datetime import datetime, timedelta, timezone

import numpy as np

from . import engine as engine_mod
from .domain import MAX_SPAN_DAYS, MAX_SPAN_MS, MS_PER_DAY, MinuteBatch
from .ingest import (
    ACCEL_FILENAME,
    SIGHTINGS_FILENAME,
    SOUND_FILENAME,
    _WRITE_BLOCK,
    ParseError,
    fmt_float,
    naming_write_errors,
    read_traces,
    write_traces,
)
from .simulator import ConfigError, generate, load_scenario
from .store import RecordLog, StoreError, export_csv

# analyze --metric -> the MinuteBatch column it reads
METRIC_FIELDS = {"p": "p", "si": "si", "s": "s_s", "d": "d_m", "m": "m_i", "v": "v_i",
                 "n": "n_i"}

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_QUERY = 3


class QueryError(ValueError):
    pass


class CliInputError(ValueError):
    pass


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _parse_epoch(text: str) -> int:
    """Wall-clock epoch as integer milliseconds or an ISO-8601 datetime."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        # Python 3.10 reads no trailing "Z", which 3.11 takes as UTC
        stamp = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
    except ValueError:
        raise CliInputError(f"--epoch expects integer ms or ISO-8601, got {text!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    # exact integer arithmetic: timestamp() * 1000 can round below a whole ms
    return (stamp - _UNIX_EPOCH) // timedelta(milliseconds=1)


def _parse_pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1] or parts[0] == parts[1]:
        raise CliInputError(f"--pair expects i,j with two distinct node ids, got {text!r}")
    return (parts[0], parts[1])


def _load_config_with_seed(args):
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_simulate(args) -> int:
    config = _load_config_with_seed(args)
    traces, _gt = generate(config)
    paths = write_traces(traces, args.out)
    n_sight, n_accel, n_sound = traces.counts()
    print(f"scenario: {args.scenario} (seed {config.seed}, "
          f"{config.duration_ms} ms, {len(config.agents)} agents)")
    print(f"sightings: {n_sight} -> {paths[0]}")
    print(f"accel:     {n_accel} -> {paths[1]}")
    print(f"sound:     {n_sound} -> {paths[2]}")
    return EXIT_OK


def _run_sources(args):
    """Build (traces, duration, engine config, config echo, seed) for `run`."""
    if args.scenario:
        if args.epoch is not None:
            raise CliInputError("--epoch applies to --traces only: a scenario's "
                                "timestamps already start at its epoch")
        config = _load_config_with_seed(args)
        traces, _gt = generate(config)
        engine_cfg = engine_mod.EngineConfig(rf=config.rf)
        echo = {
            "scenario": str(args.scenario),
            "duration_ms": config.duration_ms,
            "agents": [a.id for a in config.agents],
            "accel_noise_sigma": config.accel_noise_sigma,
            "engine": dataclasses.asdict(engine_cfg),
        }
        return traces, config.duration_ms, engine_cfg, echo, config.seed
    if args.seed is not None:
        raise CliInputError("--seed applies to --scenario only: a trace run draws no randomness")
    epoch_ms = 0 if args.epoch is None else _parse_epoch(args.epoch)
    traces = read_traces(os.path.join(args.traces, SIGHTINGS_FILENAME),
                         os.path.join(args.traces, ACCEL_FILENAME),
                         os.path.join(args.traces, SOUND_FILENAME),
                         epoch_ms=epoch_ms)
    last_ms = traces.max_t_ms()
    if last_ms + 1 > MAX_SPAN_MS:
        raise CliInputError(
            f"last trace timestamp {last_ms + epoch_ms} is {last_ms / MS_PER_DAY:.1f} days "
            f"after the epoch {epoch_ms}; a run spans at most {MAX_SPAN_DAYS} days, "
            f"so give --epoch near the first timestamp")
    engine_cfg = engine_mod.EngineConfig()
    echo = {
        "traces": str(args.traces),
        "epoch_ms": epoch_ms,
        "engine": dataclasses.asdict(engine_cfg),
    }
    return traces, None, engine_cfg, echo, None


def cmd_run(args) -> int:
    traces, duration_ms, engine_cfg, echo, seed = _run_sources(args)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "records.log")
    report_path = os.path.join(args.out, "report.json")
    with RecordLog.create(log_path) as log:
        started = time.perf_counter()
        result = engine_mod.run_engine(traces, engine_cfg, duration_ms=duration_ms)
        for lo in range(0, len(result.records), _WRITE_BLOCK):
            log.append(MinuteBatch(*(c[lo:lo + _WRITE_BLOCK] for c in result.records.columns())))
        runtime_s = time.perf_counter() - started       # the engine and the appends
    report = engine_mod.build_report(result, echo, seed)
    report["runtime_s"] = runtime_s
    with naming_write_errors(report_path), open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"minutes: {result.minutes}  records: {len(result.records)}  "
          f"pairs: {len(result.contact_seconds)}  nodes: {len(result.nodes)}")
    print(f"log:    {log_path}")
    print(f"report: {report_path}")
    return EXIT_OK


def _require_known(log: RecordLog, pair: tuple[str, str]) -> None:
    known = log.node_ids()
    for node in pair:
        if node not in known:
            raise QueryError(f"node {node!r} never appears in {log.path}")


def cmd_analyze(args) -> int:
    pair = _parse_pair(args.pair)
    log = RecordLog.open(args.log)
    _require_known(log, pair)
    field = METRIC_FIELDS[args.metric]
    forward, reverse = (log.query(p, args.from_min, args.to_min) for p in (pair, pair[::-1]))
    values = getattr(forward, field)
    lines = ["minute,metric_value"]
    lines += [f"{minute},{value}"
              for minute, value in zip(forward.minute.tolist(), values.tolist())]

    corr = engine_mod.symmetry(forward.minute, values, reverse.minute, getattr(reverse, field))
    corr_text = "n/a" if corr is None else fmt_float(corr)
    finite = values[np.isfinite(values)].tolist()
    # Python's in-order sum, not numpy's pairwise one
    mean_text = "n/a" if not finite else fmt_float(sum(finite) / len(finite))

    if args.out:
        with (naming_write_errors(args.out),
              open(args.out, "w", newline="", encoding="utf-8") as handle):
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {len(forward)} rows to {args.out}")
    else:
        for line in lines:
            print(line)
    print(f"# pair {pair[0]},{pair[1]}  metric {args.metric}  "
          f"records {len(forward)}  mean {mean_text}")
    print(f"# symmetry correlation vs {pair[1]},{pair[0]}: {corr_text}")
    return EXIT_OK


def cmd_export(args) -> int:
    log = RecordLog.open(args.log)
    pair = _parse_pair(args.pair) if args.pair else None
    if pair is not None:
        _require_known(log, pair)
    rows = export_csv(log, args.out, pair=pair,
                      from_minute=args.from_min, to_minute=args.to_min)
    print(f"wrote {rows} records to {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `nearness` argument parser, built once per process and shared by
    every `main` call: `parse_args` builds a fresh Namespace each time and
    leaves the parser as it was, so it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="nearness",
        description="Simulate encounter scenarios and fuse sensor traces "
                    "into per-minute pairwise nearness records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate trace CSVs from a scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario file (.scn)")
    p_sim.add_argument("--out", required=True, help="output directory for trace CSVs")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="run the full pipeline into a record log")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="scenario file to simulate and process")
    source.add_argument("--traces", help="directory holding the three trace CSVs")
    p_run.add_argument("--out", required=True, help="output directory for log and report")
    p_run.add_argument("--seed", type=int, default=None, help="scenario seed, --scenario only")
    p_run.add_argument("--epoch", default=None,
                       help="scenario epoch for wall-clock trace timestamps, --traces only "
                            "(integer ms or ISO-8601, a trailing Z is UTC); wall-clock "
                            "traces need it, as the run spans every minute from the epoch "
                            f"to the last timestamp, at most {MAX_SPAN_DAYS} days")
    p_run.set_defaults(func=cmd_run)

    p_ana = sub.add_parser("analyze", help="extract one metric series for a pair")
    p_ana.add_argument("--log", required=True, help="record log produced by run")
    p_ana.add_argument("--pair", required=True, help="ordered pair i,j")
    p_ana.add_argument("--metric", choices=tuple(METRIC_FIELDS), default="p")
    p_ana.add_argument("--from-min", type=int, default=0, dest="from_min")
    p_ana.add_argument("--to-min", type=int, default=None, dest="to_min")
    p_ana.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    p_ana.set_defaults(func=cmd_analyze)

    p_exp = sub.add_parser("export", help="export a record log to CSV")
    p_exp.add_argument("--log", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--pair", default=None, help="restrict to one ordered pair i,j")
    p_exp.add_argument("--from-min", type=int, default=0, dest="from_min")
    p_exp.add_argument("--to-min", type=int, default=None, dest="to_min")
    p_exp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except (ConfigError, ParseError, StoreError, CliInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
