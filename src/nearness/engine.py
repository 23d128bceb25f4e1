"""Minute-tick engine: sensor traces in, fused minute records out.

For every minute boundary the engine snapshots the four pipelines -- social
strength, smoothed relative distance, motion code, sound class -- plus the
node degree, hands the snapshot to the fusion step, and appends the records
to the log.  The distance, motion, sound and degree kernels run once per
direction or node over all minute boundaries before the minute loop, which
only indexes their results; social strength accrues minute by minute.  A
pair enters the record stream at its first contact and stays in it from
then on (with zeroed scores while out of range), so absence windows are
visible in the output.

Distance smoothing is kept per direction: the (i, j) record carries the
estimate built from i's own sightings of j.  With noiseless sensing both
directions see identical values; with shadowing enabled they diverge, which
is exactly the asymmetry the symmetric-scenario analysis studies.

Per-minute feature windows are half-open intervals ending at the minute
boundary: motion uses the last 5 s of the minute, sound the last second,
and node degree the trailing two minutes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .domain import MS_PER_MINUTE, MinuteRecord, canonical_pair, minute_index
from .fusion import FusionParams, PairSnapshot, SessionStats, fuse_minute
from .ingest import AccelSeries, SoundSeries, TraceSet
from .pipelines import (
    DEFAULT_ALPHA,
    DEFAULT_DEGREE_WINDOW_MS,
    DEFAULT_DWELL_S,
    DEFAULT_GAP_MS,
    DEFAULT_MOTION_THRESHOLD,
    DEFAULT_STALENESS_MS,
    ContactEvent,
    DistanceState,
    SocialStrengthState,
    SoundThresholds,
    contacts_from_times,
    ema_update,
    estimate_distance_raw,
    motion_codes,
    node_degrees,
    smoothed_distances,
    sound_classes,
)
from .simulator import RfParams
from .store import RecordLog


@dataclass(frozen=True)
class EngineConfig:
    """All processing knobs in one place; defaults are the documented ones."""
    rf: RfParams = field(default_factory=RfParams)
    gap_ms: int = DEFAULT_GAP_MS
    dwell_s: float = DEFAULT_DWELL_S
    alpha: float = DEFAULT_ALPHA
    staleness_ms: int = DEFAULT_STALENESS_MS
    motion_window_ms: int = 5_000
    motion_threshold: float = DEFAULT_MOTION_THRESHOLD
    sound_window_ms: int = 1_000
    sound_thresholds: SoundThresholds = field(default_factory=SoundThresholds)
    degree_window_ms: int = DEFAULT_DEGREE_WINDOW_MS
    fusion: FusionParams = field(default_factory=FusionParams)


_NO_TIMES = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_ACCEL = AccelSeries(_NO_TIMES, _NO_VALUES, _NO_VALUES, _NO_VALUES)
_NO_SOUND = SoundSeries(_NO_TIMES, _NO_VALUES)


@dataclass
class RunResult:
    records: list[MinuteRecord]
    minutes: int
    nodes: list[str]
    contacts: dict[tuple[str, str], list[ContactEvent]]
    contact_seconds: dict[tuple[str, str], float]
    runtime_s: float


def run_engine(traces: TraceSet, config: EngineConfig = EngineConfig(),
               duration_ms: int | None = None,
               log: RecordLog | None = None) -> RunResult:
    """Process a trace set at one-minute ticks; optionally append to a log."""
    started = time.perf_counter()
    if duration_ms is None:
        duration_ms = traces.max_t_ms() + 1
    minutes = max(0, minute_index(duration_ms - 1) + 1) if duration_ms > 0 else 0
    nodes = traces.nodes()
    boundaries = np.arange(1, minutes + 1, dtype=np.int64) * MS_PER_MINUTE

    tab = traces.sightings
    # directional sighting streams (t, rssi), time-sorted like the table
    by_direction: dict[tuple[str, str], tuple[list[int], list[float]]] = {}
    for t, obs, subj, rssi in zip(tab.t_ms.tolist(), tab.observer.tolist(),
                                  tab.subject.tolist(), tab.rssi_dbm.tolist()):
        entry = by_direction.setdefault((obs, subj), ([], []))
        entry[0].append(t)
        entry[1].append(rssi)
    times = {key: np.asarray(ts, dtype=np.int64) for key, (ts, _) in by_direction.items()}

    # contact events and strength accumulators per canonical pair
    pair_times: dict[tuple[str, str], list[np.ndarray]] = {}
    for (obs, subj), ts in times.items():
        pair_times.setdefault(canonical_pair(obs, subj), []).append(ts)
    contacts: dict[tuple[str, str], list[ContactEvent]] = {}
    strength: dict[tuple[str, str], SocialStrengthState] = {}
    activation: dict[tuple[str, str], int] = {}
    for pair, chunks in pair_times.items():
        merged = np.sort(np.concatenate(chunks))
        contacts[pair] = contacts_from_times(merged, pair, config.gap_ms, config.dwell_s)
        strength[pair] = SocialStrengthState(pair)
        activation[pair] = minute_index(int(merged[0]))
    active_pairs = sorted(contacts)

    # per-minute distance of each direction, from the observer's own sightings
    distance: dict[tuple[str, str], list[float]] = {}
    for i, j in (d for pair in active_pairs for d in (pair, pair[::-1])):
        ts, rssis = by_direction.get((i, j), ([], []))
        state = DistanceState(alpha=config.alpha)
        ema = [ema_update(state, estimate_distance_raw(rssi, config.rf.p_ref_dbm,
                                                       config.rf.pathloss_exp))
               for rssi in rssis]
        distance[(i, j)] = smoothed_distances(np.asarray(ts, dtype=np.int64),
                                              np.asarray(ema, dtype=np.float64),
                                              boundaries, config.staleness_ms).tolist()

    # per-minute node features (degree, motion code, sound class) of every paired node
    features: dict[str, list[tuple[int, int, int]]] = {}
    for node in sorted({n for pair in active_pairs for n in pair}):
        degree = node_degrees([ts for (obs, _), ts in times.items() if obs == node],
                              boundaries, config.degree_window_ms)
        accel = traces.accel.get(node, _NO_ACCEL)
        motion = motion_codes(accel.t_ms, accel.ax, accel.ay, accel.az, boundaries,
                              config.motion_window_ms, config.motion_threshold)
        sound = traces.sound.get(node, _NO_SOUND)
        classes = sound_classes(sound.t_ms, sound.amplitude, boundaries,
                                config.sound_window_ms, config.sound_thresholds)
        features[node] = list(zip(degree.tolist(), motion.tolist(), classes.tolist()))

    stats = SessionStats()
    all_records: list[MinuteRecord] = []
    for minute in range(minutes):
        boundary = (minute + 1) * MS_PER_MINUTE
        slot = (minute // 60) % 24
        days = minute // 1440 + 1
        snapshots = []
        for pair in active_pairs:
            if activation[pair] > minute:
                continue
            state = strength[pair]
            state.accrue(contacts[pair], boundary)
            s_value = state.strength(slot, days)
            for i, j in (pair, pair[::-1]):
                n_i, m_i, v_i = features[i][minute]
                snapshots.append(PairSnapshot(
                    i=i, j=j, n_i=n_i, m_i=m_i, v_i=v_i,
                    d_m=distance[(i, j)][minute], s_s=s_value))
        if not snapshots:
            continue
        batch = fuse_minute(snapshots, minute, stats, config.fusion)
        if log is not None:
            log.append(batch)
        all_records.extend(batch)

    contact_seconds = {pair: sum(state.seconds.values())
                       for pair, state in strength.items()}
    return RunResult(records=all_records, minutes=minutes, nodes=nodes,
                     contacts=contacts, contact_seconds=contact_seconds,
                     runtime_s=time.perf_counter() - started)


# --- run report ------------------------------------------------------------------

def _series_summary(values: list[float]) -> dict:
    if not values:
        return {"records": 0, "mean": None, "min": None, "max": None}
    return {"records": len(values),
            "mean": float(np.mean(values)),
            "min": float(min(values)),
            "max": float(max(values))}


def pearson_correlation(a: list[float], b: list[float]) -> float | None:
    if len(a) < 2 or len(a) != len(b):
        return None
    x = np.asarray(a)
    y = np.asarray(b)
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def build_report(result: RunResult, config_echo: dict, seed: int | None) -> dict:
    """Deterministic per-pair run summary (runtime aside)."""
    per_direction: dict[tuple[str, str], dict[str, list[float]]] = {}
    for record in result.records:
        entry = per_direction.setdefault((record.i, record.j), {"p": [], "si": []})
        entry["p"].append(record.p)
        entry["si"].append(record.si)

    pairs = {}
    for pair in sorted(result.contacts):
        a, b = pair
        fwd = per_direction.get((a, b), {"p": [], "si": []})
        rev = per_direction.get((b, a), {"p": [], "si": []})
        pairs[f"{a},{b}"] = {
            "contact_seconds": result.contact_seconds[pair],
            "directions": {
                f"{a},{b}": {"p": _series_summary(fwd["p"]),
                             "si": _series_summary(fwd["si"])},
                f"{b},{a}": {"p": _series_summary(rev["p"]),
                             "si": _series_summary(rev["si"])},
            },
            "symmetry": {
                "p": pearson_correlation(fwd["p"], rev["p"]),
                "si": pearson_correlation(fwd["si"], rev["si"]),
            },
        }
    return {
        "seed": seed,
        "config": config_echo,
        "minutes": result.minutes,
        "nodes": result.nodes,
        "record_count": len(result.records),
        "pairs": pairs,
        "runtime_s": result.runtime_s,
    }
