"""Command-line front end: simulate, run, analyze, export.

Exit codes are a stable contract: 0 success, 1 internal error, 2 input
error (bad file, bad config, bad flag value), 3 query error (asking a log
about nodes it has never seen).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

from . import engine as engine_mod
from .ingest import (
    ACCEL_FILENAME,
    SIGHTINGS_FILENAME,
    SOUND_FILENAME,
    ParseError,
    fmt_float,
    read_traces,
    write_traces,
)
from .simulator import ConfigError, generate, load_scenario
from .store import RecordLog, StoreError, export_csv

METRICS = ("p", "si", "s", "d", "m", "v", "n")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_QUERY = 3


class QueryError(ValueError):
    pass


class CliInputError(ValueError):
    pass


def _parse_epoch(text: str) -> int:
    """Wall-clock epoch as integer milliseconds or an ISO-8601 datetime."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise CliInputError(f"--epoch expects integer ms or ISO-8601, got {text!r}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp() * 1000)


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
    epoch_ms = _parse_epoch(args.epoch) if args.epoch else 0
    traces = read_traces(os.path.join(args.traces, SIGHTINGS_FILENAME),
                         os.path.join(args.traces, ACCEL_FILENAME),
                         os.path.join(args.traces, SOUND_FILENAME),
                         epoch_ms=epoch_ms)
    engine_cfg = engine_mod.EngineConfig()
    echo = {
        "traces": str(args.traces),
        "epoch_ms": epoch_ms,
        "engine": dataclasses.asdict(engine_cfg),
    }
    return traces, None, engine_cfg, echo, args.seed


def cmd_run(args) -> int:
    traces, duration_ms, engine_cfg, echo, seed = _run_sources(args)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "records.log")
    report_path = os.path.join(args.out, "report.json")
    with RecordLog.create(log_path) as log:
        result = engine_mod.run_engine(traces, engine_cfg,
                                       duration_ms=duration_ms, log=log)
    report = engine_mod.build_report(result, echo, seed)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"minutes: {result.minutes}  records: {len(result.records)}  "
          f"pairs: {len(result.contacts)}  nodes: {len(result.nodes)}")
    print(f"log:    {log_path}")
    print(f"report: {report_path}")
    return EXIT_OK


def _metric_value(record, metric: str):
    if metric == "p":
        return record.p
    if metric == "si":
        return record.si
    if metric == "s":
        return record.s_s
    if metric == "d":
        return record.d_m
    if metric == "m":
        return record.m_i
    if metric == "v":
        return record.v_i
    return record.n_i   # "n"


def _metric_text(value) -> str:
    return str(value) if isinstance(value, int) else fmt_float(value)


def _finite_by_minute(records, metric: str) -> dict[int, float]:
    """{minute: metric value} over the records whose value is finite."""
    values = {r.minute: float(_metric_value(r, metric)) for r in records}
    return {m: v for m, v in values.items() if v != float("inf")}


def _require_known(log: RecordLog, pair: tuple[str, str]) -> None:
    known = log.node_ids()
    for node in pair:
        if node not in known:
            raise QueryError(f"node {node!r} never appears in {log.path}")


def cmd_analyze(args) -> int:
    pair = _parse_pair(args.pair)
    log = RecordLog.open(args.log)
    _require_known(log, pair)
    records = log.query(pair, args.from_min, args.to_min)
    lines = ["minute,metric_value"]
    lines += [f"{r.minute},{_metric_text(_metric_value(r, args.metric))}"
              for r in records]

    forward = _finite_by_minute(records, args.metric)
    reverse = _finite_by_minute(log.query(pair[::-1], args.from_min, args.to_min),
                                args.metric)
    both = sorted(forward.keys() & reverse.keys())
    corr = engine_mod.pearson_correlation([forward[m] for m in both],
                                          [reverse[m] for m in both])
    corr_text = "n/a" if corr is None else fmt_float(corr)
    mean_text = ("n/a" if not forward
                 else fmt_float(sum(forward.values()) / len(forward)))

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {len(records)} rows to {args.out}")
    else:
        for line in lines:
            print(line)
    print(f"# pair {pair[0]},{pair[1]}  metric {args.metric}  "
          f"records {len(records)}  mean {mean_text}")
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


def build_parser() -> argparse.ArgumentParser:
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
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--epoch", default=None,
                       help="scenario epoch for wall-clock trace timestamps "
                            "(integer ms or ISO-8601)")
    p_run.set_defaults(func=cmd_run)

    p_ana = sub.add_parser("analyze", help="extract one metric series for a pair")
    p_ana.add_argument("--log", required=True, help="record log produced by run")
    p_ana.add_argument("--pair", required=True, help="ordered pair i,j")
    p_ana.add_argument("--metric", choices=METRICS, default="p")
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
