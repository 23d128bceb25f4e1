"""Span tracing of the nearness layers from outside the program.

`Tracer.install` replaces each traced function under the name its callers
look it up by (for example `nearness.engine.fuse_minute`, which the engine
loop calls) with a wrapper that records a span: name, start, end and the
index of the enclosing span.  `uninstall` puts the originals back, so an
untraced pass runs the program exactly as shipped.

A span's self time is its duration minus the time its child spans cover.
Functions called once per record or per sighting are rolled up: each call
is timed and charged to its parent, but only the per-name totals are kept,
not one span per call.  `nearness.fusion.nearness_label` is only counted
(labels assigned, and how many were provisional), not timed.
"""

from __future__ import annotations

import csv
import os
from time import perf_counter

import nearness.cli
import nearness.engine
import nearness.fusion
import nearness.ingest
import nearness.store
from nearness.fusion import SessionStats
from nearness.pipelines import SocialStrengthState
from nearness.store import MAGIC, RecordLog

ROOT_SPAN = "bench.pass"

# (span name, owner or owners, attribute, rolled up).  An owner is where
# callers look the name up, which is not always the module that defines it.
TARGETS = (
    ("cli.main", nearness.cli, "main", False),
    ("simulator.load_scenario", nearness.cli, "load_scenario", False),
    ("simulator.generate", nearness.cli, "generate", False),
    ("ingest.write_traces", nearness.cli, "write_traces", False),
    ("ingest.read_traces", nearness.cli, "read_traces", False),
    ("ingest.parse_record_row", (nearness.store, nearness.ingest), "parse_record_row", True),
    ("ingest.format_record_row", (nearness.store, nearness.ingest), "format_record_row", True),
    ("ingest.write_minute_records", nearness.store, "write_minute_records", False),
    ("pipelines.contacts_from_times", nearness.engine, "contacts_from_times", False),
    ("pipelines.ema_update", nearness.engine, "ema_update", True),
    ("pipelines.accrue", SocialStrengthState, "accrue", True),
    ("fusion.fuse_minute", nearness.engine, "fuse_minute", False),
    ("fusion.session_add", SessionStats, "add", True),
    ("engine.run_engine", nearness.engine, "run_engine", False),
    ("engine.build_report", nearness.engine, "build_report", False),
    ("engine.pearson_correlation", nearness.engine, "pearson_correlation", False),
    ("store.create", RecordLog, "create", False),
    ("store.open", RecordLog, "open", False),
    ("store.append", RecordLog, "append", False),
    ("store.query", RecordLog, "query", False),
    ("store.node_ids", RecordLog, "node_ids", False),
    ("store.export_csv", nearness.cli, "export_csv", False),
)
SPAN_NAMES = (ROOT_SPAN,) + tuple(t[0] for t in TARGETS)
LAYERS = ("bench", "cli", "simulator", "ingest", "pipelines", "fusion", "engine", "store")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _count_rows(tracer, args, result):
    tracer.counts["simulator.rows"] += sum(result[0].counts())


def _count_trace_bytes(tracer, args, result):
    tracer.counts["ingest.trace_bytes"] += sum(os.path.getsize(p) for p in result)


def _count_read_rows(tracer, args, result):
    tracer.counts["ingest.trace_rows"] += sum(result.counts())


def _count_contacts(tracer, args, result):
    tracer.counts["pipelines.contacts"] += len(result)


def _count_fused(tracer, args, result):
    tracer.counts["fusion.records"] += len(result)


def _log_created(tracer, args, result):
    tracer.log_sizes[result.path] = len(MAGIC)


def _count_appended(tracer, args, result):
    path = args[0].path
    size = os.path.getsize(path)
    tracer.counts["store.bytes_appended"] += size - tracer.log_sizes.get(path, len(MAGIC))
    tracer.log_sizes[path] = size


AFTER = {
    "simulator.generate": _count_rows,
    "ingest.write_traces": _count_trace_bytes,
    "ingest.read_traces": _count_read_rows,
    "pipelines.contacts_from_times": _count_contacts,
    "fusion.fuse_minute": _count_fused,
    "store.create": _log_created,
    "store.append": _count_appended,
}


class Tracer:
    """Collects spans and layer counters for one pass at a time."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list = []                  # (name, start, end, parent index)
        self.rollups = {name: [0, 0.0, 0.0] for name, _, _, rolled_up in TARGETS
                        if rolled_up}          # name -> [calls, total, self]
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(
            ("simulator.rows", "ingest.trace_bytes", "ingest.trace_rows",
             "pipelines.contacts", "fusion.records", "fusion.labels",
             "fusion.provisional_labels", "store.bytes_appended"), 0)
        self.log_sizes: dict[str, int] = {}
        self._stack: list[int] = []
        self._child: list[float] = [0.0]

    def reset(self) -> None:
        """Forget the last pass.  Containers are cleared in place because the
        installed wrappers hold references to them."""
        self.spans.clear()
        for totals in self.rollups.values():
            totals[:] = [0, 0.0, 0.0]
        for table in (self.calls, self.total_s, self.self_s, self.counts):
            for key in table:
                table[key] = 0
        self.log_sizes.clear()
        self._stack.clear()
        self._child[:] = [0.0]

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, child = self.spans, self._stack, self._child

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                inner = child.pop()
                child[-1] += end - start
                spans[index] = (name, start, end, parent)
                self.calls[name] += 1
                self.total_s[name] += end - start
                self.self_s[name] += end - start - inner
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def _rollup(self, name: str, fn):
        child = self._child
        totals = self.rollups[name]

        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = child.pop()
                child[-1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - inner
        return traced

    def _count_labels(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            label = fn(*args, **kwargs)
            counts["fusion.labels"] += 1
            counts["fusion.provisional_labels"] += label[1]
            return label
        return counted

    # -- install / uninstall -----------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._originals.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every target; the wrappers write into this tracer's state."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for name, owners, attr, rolled_up in TARGETS:
            for owner in owners if isinstance(owners, tuple) else (owners,):
                if rolled_up:
                    self._patch(owner, attr, lambda fn, n=name: self._rollup(n, fn))
                else:
                    self._patch(owner, attr,
                                lambda fn, n=name: self._span(n, fn, AFTER.get(n)))
        self._patch(nearness.fusion, "nearness_label", self._count_labels)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def root(self, fn):
        """`fn` wrapped as the root span of a pass."""
        return self._span(ROOT_SPAN, fn)

    # -- results ------------------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total seconds, self seconds) for every span name."""
        out = {name: (self.calls[name], self.total_s[name], self.self_s[name])
               for name in SPAN_NAMES}
        out.update((name, tuple(totals)) for name, totals in self.rollups.items())
        return out

    def write_spans(self, path) -> None:
        """Write the spans, then one row per rolled-up name, as CSV."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent",
                             "calls", "total_s", "self_s"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent, 1, "", ""])
            for name, (calls, total, self_time) in sorted(self.rollups.items()):
                writer.writerow(["", name, "", "", "", calls, repr(total), repr(self_time)])
