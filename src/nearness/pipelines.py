"""The four per-sensor pipelines, as array kernels over minute boundaries.

Each pipeline turns one raw sensor stream into the per-minute quantity
consumed by the fusion step:

* radio sightings   -> contact events -> social strength (seconds)
* sighting RSSI     -> raw path-loss distance -> smoothed relative distance
* accelerometer     -> motion code m in {1 stationary, 2 moving}
* sound amplitude   -> sound class v in {0 quiet, 1 normal, 2 alert, 3 noisy}

plus the node degree (distinct neighbours seen within a sliding window).

The per-minute kernels `motion_codes`, `sound_classes`, `node_degrees` and
`smoothed_distances` take one node's or one direction's time-sorted arrays
and an ascending array of minute boundaries, and return one value per
boundary.  A boundary `b` sees the samples in the half-open window
`[b - window, b)`: a sample stamped exactly `b` counts from the next minute
on.  Social strength stays incremental (`SocialStrengthState`), and the
distance average is built one sighting at a time by `ema_update`.

State is held per pair or per node; pipelines for disjoint pairs never share
state and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import MS_PER_HOUR, DomainError, day_index, hour_slot

DEFAULT_GAP_MS = 120_000          # max inter-sighting gap inside one contact
DEFAULT_DWELL_S = 60.0            # nominal coverage of a single sighting
DEFAULT_ALPHA = 0.3               # distance EMA smoothing factor
DEFAULT_STALENESS_MS = 300_000    # estimate older than this reads inf
DEFAULT_MOTION_THRESHOLD = 0.5    # m/s^2, std of acceleration magnitude
MIN_MOTION_SAMPLES = 10
DEFAULT_DEGREE_WINDOW_MS = 120_000

SOUND_AMPLITUDE_FLOOR = 1e-5      # clamp before the log so silence is finite


def _windows(t_ms: np.ndarray, boundaries: np.ndarray, window_ms: int):
    """Index ranges [lo, hi) of the samples in [b - window_ms, b) per boundary."""
    return (np.searchsorted(t_ms, boundaries - window_ms, side="left"),
            np.searchsorted(t_ms, boundaries, side="left"))


# --- proximity pipeline: contacts and social strength -----------------------

@dataclass(frozen=True, slots=True)
class ContactEvent:
    """A merged encounter interval between one canonical pair."""
    pair: tuple[str, str]
    start_ms: int
    end_ms: int
    duration_s: float

    def coverage_end_ms(self) -> int:
        """End of the time span this contact accounts for (span + dwell)."""
        return self.start_ms + round(self.duration_s * 1000.0)


def contacts_from_times(times_ms: np.ndarray, pair: tuple[str, str],
                        gap_ms: int, dwell_s: float) -> list[ContactEvent]:
    """Merge one pair's sorted sighting instants into disjoint contacts.

    Consecutive sightings separated by at most `gap_ms` belong to the same
    contact; the contact duration is its sighting span plus `dwell_s` so a
    lone sighting still counts as `dwell_s` seconds of contact.
    """
    if len(times_ms) == 0:
        return []
    breaks = np.flatnonzero(np.diff(times_ms) > gap_ms)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(times_ms) - 1]))
    return [
        ContactEvent(pair, int(times_ms[a]), int(times_ms[b]),
                     (int(times_ms[b]) - int(times_ms[a])) / 1000.0 + dwell_s)
        for a, b in zip(starts, ends)
    ]


@dataclass
class SocialStrengthState:
    """Per-pair accumulator of contact seconds, bucketed by (day, hour slot).

    Contact coverage is folded into hour buckets incrementally, so the
    strength within one day's slot can only grow while contacts accumulate.
    """
    pair: tuple[str, str]
    seconds: dict[tuple[int, int], float] = field(default_factory=dict)
    # per contact (keyed by start_ms): how far its coverage has been binned
    _consumed_ms: dict[int, int] = field(default_factory=dict)

    def accrue(self, contacts, upto_ms: int) -> None:
        """Fold contact coverage earlier than `upto_ms` into the buckets."""
        contacts = sorted(contacts, key=lambda c: c.start_ms)
        for idx, contact in enumerate(contacts):
            cov_end = contact.coverage_end_ms()
            if idx + 1 < len(contacts):
                # dwell tails never spill into the next contact
                cov_end = min(cov_end, contacts[idx + 1].start_ms)
            begin = self._consumed_ms.get(contact.start_ms, contact.start_ms)
            end = min(cov_end, upto_ms)
            if end <= begin:
                continue
            self._bin(begin, end)
            self._consumed_ms[contact.start_ms] = end

    def _bin(self, begin_ms: int, end_ms: int) -> None:
        t = begin_ms
        while t < end_ms:
            edge = (t // MS_PER_HOUR + 1) * MS_PER_HOUR
            chunk_end = min(edge, end_ms)
            key = (day_index(t), hour_slot(t))
            self.seconds[key] = self.seconds.get(key, 0.0) + (chunk_end - t) / 1000.0
            t = chunk_end

    def strength(self, slot: int, days_elapsed: int) -> float:
        """Average contact seconds in `slot` over `days_elapsed` days."""
        total = sum(v for (d, h), v in self.seconds.items() if h == slot)
        return total / days_elapsed


# --- relative distance pipeline ---------------------------------------------

def estimate_distance_raw(rssi_dbm: float, p_ref_dbm: float, pathloss_exp: float) -> float:
    """Invert the log-distance path loss model for one RSSI reading."""
    return 10.0 ** ((p_ref_dbm - rssi_dbm) / (10.0 * pathloss_exp))


@dataclass
class DistanceState:
    """Running distance average for one pair stream; moves only on sightings."""
    alpha: float = DEFAULT_ALPHA
    ema_m: float | None = None


def ema_update(state: DistanceState, raw_m: float) -> float:
    """Blend one raw estimate into the state's running average."""
    if raw_m < 0:
        raise DomainError(f"negative distance estimate {raw_m}")
    if state.ema_m is None:
        state.ema_m = raw_m
    else:
        state.ema_m = state.alpha * raw_m + (1.0 - state.alpha) * state.ema_m
    return state.ema_m


def smoothed_distances(t_ms: np.ndarray, ema_m: np.ndarray, boundaries: np.ndarray,
                       staleness_ms: int) -> np.ndarray:
    """Distance estimate at each boundary, `inf` where it is stale.

    `ema_m[k]` is the running average after the sighting at `t_ms[k]`.  A
    boundary reads the average after the last sighting before it; with no
    such sighting, or one more than `staleness_ms` old, it reads `inf`,
    which is how a MinuteRecord marks a pair out of range.
    """
    last = np.searchsorted(t_ms, boundaries, side="left") - 1
    seen = np.flatnonzero(last >= 0)
    fresh = seen[boundaries[seen] - t_ms[last[seen]] <= staleness_ms]
    out = np.full(len(boundaries), np.inf)
    out[fresh] = ema_m[last[fresh]]
    return out


# --- motion pipeline ---------------------------------------------------------

def motion_codes(t_ms: np.ndarray, ax: np.ndarray, ay: np.ndarray, az: np.ndarray,
                 boundaries: np.ndarray, window_ms: int,
                 threshold_ms2: float = DEFAULT_MOTION_THRESHOLD) -> np.ndarray:
    """Motion code m per boundary: 2 moving, 1 stationary.

    The feature is the standard deviation of the acceleration magnitude
    sqrt(ax^2+ay^2+az^2) over the window; the node counts as moving when it
    exceeds the threshold.  A window with fewer than `MIN_MOTION_SAMPLES`
    samples reads stationary (1), so missing data carries no penalty (the
    fusion formulas divide by m, so it must stay >= 1).
    """
    magnitude = np.sqrt(ax ** 2 + ay ** 2 + az ** 2)
    lo, hi = _windows(t_ms, boundaries, window_ms)
    codes = np.ones(len(boundaries), dtype=np.int64)
    for k in np.flatnonzero(hi - lo >= MIN_MOTION_SAMPLES):
        # np.std centres the window before squaring; a running sum of
        # squares would cancel around 9.81 m/s^2 and flip labels
        if np.std(magnitude[lo[k]:hi[k]]) > threshold_ms2:
            codes[k] = 2
    return codes


# --- sound pipeline ----------------------------------------------------------

@dataclass(frozen=True)
class SoundThresholds:
    """Class edges of the loudness ladder, in dB relative to full scale."""
    quiet_db: float = -60.0
    normal_db: float = -30.0
    alert_db: float = -10.0


def sound_level_db(peak_amplitude: float) -> float:
    """20*log10 of a peak amplitude, clamped at a -100 dB floor."""
    return 20.0 * math.log10(max(peak_amplitude, SOUND_AMPLITUDE_FLOOR))


def sound_classes(t_ms: np.ndarray, amplitude: np.ndarray, boundaries: np.ndarray,
                  window_ms: int, thresholds: SoundThresholds = SoundThresholds()
                  ) -> np.ndarray:
    """Sound class v per boundary from the window's peak amplitude.

    v is 0 below `quiet_db`, 1 below `normal_db`, 2 below `alert_db` and 3
    from there up; a window with no sample is silent (0).
    """
    lo, hi = _windows(t_ms, boundaries, window_ms)
    heard = np.flatnonzero(hi > lo)
    # reduceat over the (lo, hi) pairs: even slots hold max(amplitude[lo:hi]);
    # the appended element lets hi reach len(amplitude)
    peaks = np.maximum.reduceat(np.append(amplitude, 0.0),
                                np.column_stack((lo[heard], hi[heard])).ravel())[::2]
    levels = np.array([sound_level_db(p) for p in peaks.tolist()])
    classes = np.zeros(len(boundaries), dtype=np.int64)
    classes[heard] = np.select([levels < thresholds.quiet_db,
                                levels < thresholds.normal_db,
                                levels < thresholds.alert_db], [0, 1, 2], default=3)
    return classes


# --- node degree -------------------------------------------------------------

def node_degrees(sighting_times, boundaries: np.ndarray, window_ms: int) -> np.ndarray:
    """Distinct neighbours per boundary: how many of one node's outgoing
    sighting streams (`sighting_times`, one sorted array per subject) have a
    sighting in the window."""
    degree = np.zeros(len(boundaries), dtype=np.int64)
    for times in sighting_times:
        lo, hi = _windows(times, boundaries, window_ms)
        degree += hi > lo
    return degree
