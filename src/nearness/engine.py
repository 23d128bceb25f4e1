"""Minute-tick engine: sensor traces in, fused minute records out.

For every minute boundary the engine gathers the four pipelines -- social
strength, smoothed relative distance, motion code, sound class -- plus the
node degree, one row per pair direction in (i, j) order, and fuses them
into scores and labels.  The engine is a pure function of its traces and
config: it writes nothing and reads no clock.  It reads each direction's
sighting series as the trace set holds it; an empty series is a direction
never sighted.  The distance, motion, sound and degree kernels run once per
direction or node, each over all minute boundaries.  A pair makes one call
of the contact kernel, whose `[start, end)` coverage spans go straight into
its `SocialStrengthState`, the social-strength kernel.  A pair enters the
record stream at its first contact and stays in it from then on (with
zeroed scores while out of range), so absence windows are visible in the
output.  The run's record columns are gathered from those per-minute
arrays in one index each, in minute order and direction order within a
minute, and both scores are computed once over the whole run; the minute
loop only labels, passing each minute's scores to `fuse_minute`.  The
run's records are held once, as those eleven columns, with each row's
index into the run's sorted direction table beside them.

Distance smoothing is kept per direction: the (i, j) record carries the
estimate built from i's own sightings of j.  With noiseless sensing both
directions see identical values; with shadowing enabled they diverge, which
is exactly the asymmetry the symmetric-scenario analysis studies.  No call
is made per sighting: a direction calls `estimate_distance_raw` once per
distinct RSSI value, then `ema_update` and `smoothed_distances` once each.

Per-minute feature windows are half-open intervals ending at the minute
boundary: motion uses the last 5 s of the minute, sound the last second,
and node degree the trailing two minutes.  Each paired node's accelerometer
series is looked up once, for the motion kernel, and dropped before the next
node's; with traces from `generate`, which draws a series on lookup, the
engine holds one node's samples at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import (MAX_SPAN_DAYS, MAX_SPAN_MS, MS_PER_MINUTE, DomainError, MinuteBatch,
                     canonical_pair, minute_index)
from .fusion import FusionParams, SessionStats, fuse_minute, propinquity, social_interaction
from .ingest import AccelSeries, SightingSeries, SoundSeries, TraceSet
from .pipelines import (
    DEFAULT_ALPHA,
    DEFAULT_DEGREE_WINDOW_MS,
    DEFAULT_DWELL_S,
    DEFAULT_GAP_MS,
    DEFAULT_MOTION_THRESHOLD,
    DEFAULT_STALENESS_MS,
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
_NO_SIGHTINGS = SightingSeries(_NO_TIMES, _NO_VALUES)


@dataclass
class RunResult:
    records: MinuteBatch             # the whole run, in key order
    directions: list[tuple[str, str]]  # both (i, j) of every active pair, sorted
    direction: np.ndarray            # per row, its index into `directions`
    minutes: int
    nodes: list[str]
    contact_seconds: dict[tuple[str, str], float]   # per active pair, in pair order


def _motion(accel: AccelSeries, boundaries: np.ndarray, config: EngineConfig) -> np.ndarray:
    """Motion codes of one node's series, which is dropped on return: a
    series drawn on lookup is then freed before the next node's is drawn."""
    return motion_codes(accel.t_ms, accel.ax, accel.ay, accel.az, boundaries,
                        config.motion_window_ms, config.motion_threshold)


def run_engine(traces: TraceSet, config: EngineConfig = EngineConfig(),
               duration_ms: int | None = None) -> RunResult:
    """Process a trace set at one-minute ticks into the run's records.
    Raises DomainError, before it sizes anything, on a run longer than
    `MAX_SPAN_MS`: one whose last millisecond is at or past it."""
    if duration_ms is None:
        duration_ms = traces.max_t_ms() + 1
    if duration_ms > MAX_SPAN_MS:
        raise DomainError(f"a run spans at most {MAX_SPAN_DAYS} days "
                          f"({MAX_SPAN_MS} ms), got {duration_ms} ms")
    minutes = max(0, minute_index(duration_ms - 1) + 1) if duration_ms > 0 else 0
    nodes = traces.nodes()
    boundaries = np.arange(1, minutes + 1, dtype=np.int64) * MS_PER_MINUTE

    times = {key: series.t_ms for key, series in traces.sightings.items() if len(series)}

    # contact coverage per canonical pair
    pair_times: dict[tuple[str, str], list[np.ndarray]] = {}
    for (obs, subj), ts in times.items():
        pair_times.setdefault(canonical_pair(obs, subj), []).append(ts)
    strength: dict[tuple[str, str], SocialStrengthState] = {}
    activation: dict[tuple[str, str], int] = {}
    for pair, chunks in pair_times.items():
        merged = np.sort(np.concatenate(chunks))
        strength[pair] = SocialStrengthState(contacts_from_times(merged, config.gap_ms,
                                                                 config.dwell_s))
        activation[pair] = minute_index(int(merged[0]))
    active_pairs = sorted(strength)

    # per-minute node features (degree, motion code, sound class) of every paired node
    features: dict[str, list[np.ndarray]] = {}
    for node in {n for pair in active_pairs for n in pair}:
        degree = node_degrees([ts for (obs, _), ts in times.items() if obs == node],
                              boundaries, config.degree_window_ms)
        motion = _motion(traces.accel.get(node, _NO_ACCEL), boundaries, config)
        sound = traces.sound.get(node, _NO_SOUND)
        classes = sound_classes(sound.t_ms, sound.amplitude, boundaries,
                                config.sound_window_ms, config.sound_thresholds)
        features[node] = [degree, motion, classes]

    # per-minute social strength of each pair
    strengths = np.array([strength[pair].accrue(boundaries) for pair in active_pairs],
                         dtype=np.float64).reshape(len(active_pairs), minutes)

    # every direction (i, j) of every active pair, sorted: the row order within
    # each minute; per direction, its first minute and per-minute inputs
    keyed = sorted((d, k) for k, pair in enumerate(active_pairs) for d in (pair, pair[::-1]))
    directions = [d for d, _ in keyed]
    ids_i, ids_j = (np.array([d[side] for d in directions], dtype=object) for side in (0, 1))
    pair_of = np.array([k for _, k in keyed], dtype=np.int64)
    first_minute = np.array([activation[active_pairs[k]] for _, k in keyed], dtype=np.int64)
    owner_features = np.array([features[i] for i in ids_i.tolist()],
                              dtype=np.int64).reshape(len(directions), 3, minutes)
    # per-minute distance of each direction, from the observer's own sightings
    distance = np.empty((len(directions), minutes))
    for row, d in enumerate(directions):
        series = traces.sightings.get(d, _NO_SIGHTINGS)
        levels, level_of = np.unique(series.rssi_dbm, return_inverse=True)
        raw = np.array([estimate_distance_raw(rssi, config.rf.p_ref_dbm, config.rf.pathloss_exp)
                        for rssi in levels.tolist()], dtype=np.float64)
        distance[row] = smoothed_distances(series.t_ms, ema_update(raw[level_of], config.alpha),
                                           boundaries, config.staleness_ms)

    # the run's rows: minute m holds the directions active by m, in direction order
    minute, direction = np.nonzero(first_minute <= np.arange(minutes)[:, None])
    n_i, m_i, v_i = owner_features.transpose(1, 0, 2)[:, direction, minute]
    d_m, s_s = distance[direction, minute], strengths[pair_of[direction], minute]
    del owner_features, distance, strengths     # gathered: free them before scoring
    p = propinquity(s_s, d_m, m_i)
    si = social_interaction(s_s, v_i, d_m, m_i, config.fusion)
    labels = np.empty(len(minute), dtype=np.int64)
    stats = SessionStats()
    bounds = np.searchsorted(minute, np.arange(minutes + 1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            labels[lo:hi] = fuse_minute(p[lo:hi], si[lo:hi], stats)
    records = MinuteBatch(minute, ids_i[direction], ids_j[direction], n_i, m_i, v_i,
                          d_m, s_s, p, si, labels)

    contact_seconds = {pair: int(strength[pair].covered_ms(boundaries[-1:]).sum()) / 1000.0
                       for pair in active_pairs}
    return RunResult(records=records, directions=directions, direction=direction,
                     minutes=minutes, nodes=nodes, contact_seconds=contact_seconds)


# --- run report ------------------------------------------------------------------

def _series_summary(values: np.ndarray) -> dict:
    if not len(values):
        return {"records": 0, "mean": None, "min": None, "max": None}
    return {"records": len(values),
            "mean": float(np.mean(values)),
            "min": float(values.min()),
            "max": float(values.max())}


def pearson_correlation(a, b) -> float | None:
    if len(a) < 2 or len(a) != len(b):
        return None
    x = np.asarray(a)
    y = np.asarray(b)
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def symmetry(fwd_minute, fwd_value, rev_minute, rev_value) -> float | None:
    """The symmetry of a pair: the Pearson correlation of its two directions'
    values over the minutes where both are finite, matched by minute.  Each
    direction's minutes are unique; None when fewer than two minutes match
    or either side is constant over them."""
    fwd_value, rev_value = (np.asarray(v, dtype=np.float64) for v in (fwd_value, rev_value))
    fwd_ok, rev_ok = np.isfinite(fwd_value), np.isfinite(rev_value)
    _, fwd, rev = np.intersect1d(np.asarray(fwd_minute)[fwd_ok], np.asarray(rev_minute)[rev_ok],
                                 assume_unique=True, return_indices=True)
    return pearson_correlation(fwd_value[fwd_ok][fwd], rev_value[rev_ok][rev])


def build_report(result: RunResult, config_echo: dict, seed: int | None) -> dict:
    """Deterministic per-pair run summary: a function of the run alone."""
    batch = result.records
    # the rows of each direction, in minute order, from one stable sort
    directions = result.directions
    order = np.argsort(result.direction, kind="stable")
    bounds = np.searchsorted(result.direction[order], np.arange(len(directions) + 1)).tolist()
    rows = {d: order[lo:hi] for d, lo, hi in zip(directions, bounds[:-1], bounds[1:])}

    pairs = {}
    for pair, seconds in result.contact_seconds.items():
        a, b = pair
        fwd, rev = rows[pair], rows[pair[::-1]]
        pairs[f"{a},{b}"] = {
            "contact_seconds": seconds,
            "directions": {key: {name: _series_summary(getattr(batch, name)[own])
                                 for name in ("p", "si")}
                           for key, own in ((f"{a},{b}", fwd), (f"{b},{a}", rev))},
            "symmetry": {name: symmetry(batch.minute[fwd], getattr(batch, name)[fwd],
                                        batch.minute[rev], getattr(batch, name)[rev])
                         for name in ("p", "si")},
        }
    return {
        "seed": seed,
        "config": config_echo,
        "minutes": result.minutes,
        "nodes": result.nodes,
        "record_count": len(result.records),
        "pairs": pairs,
    }
