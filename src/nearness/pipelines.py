"""The four per-sensor pipelines, as array kernels over minute boundaries.

Each pipeline turns one raw sensor stream into the per-minute quantity
consumed by the fusion step:

* radio sightings   -> contact spans -> social strength (seconds)
* sighting RSSI     -> raw path-loss distance -> smoothed relative distance
* accelerometer     -> motion code m in {1 stationary, 2 moving}
* sound amplitude   -> sound class v in {0 quiet, 1 normal, 2 alert, 3 noisy}

plus the node degree (distinct neighbours seen within a sliding window).

The per-minute kernels `motion_codes`, `sound_classes`, `node_degrees` and
`smoothed_distances` take one node's or one direction's time-sorted arrays
and an ascending array of minute boundaries, and return one value per
boundary.  A boundary `b` sees the samples in the half-open window
`[b - window, b)`: a sample stamped exactly `b` counts from the next minute
on.  `contacts_from_times` turns one pair's sighting instants into its
contacts, an array of `[start, end)` coverage spans; `SocialStrengthState`
holds those spans, and its `accrue` is the social-strength kernel over the
same boundaries.  The distance pipeline is `ema_update`, the running
average of one direction's raw estimates, read out at the boundaries by
`smoothed_distances`.

State is held per pair or per node; pipelines for disjoint pairs never share
state and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE, DomainError

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

def contacts_from_times(times_ms: np.ndarray, gap_ms: int, dwell_s: float) -> np.ndarray:
    """One pair's contacts, from its sorted sighting instants, as an `(n, 2)`
    int64 array of `[start, end)` ms coverage spans in start order.

    Consecutive sightings separated by at most `gap_ms` belong to the same
    contact.  A contact covers its sighting span plus `dwell_s`, so a lone
    sighting still counts as `dwell_s` seconds, cut at the next contact's
    start so a dwell tail never spills into it.
    """
    if not len(times_ms):
        return np.empty((0, 2), dtype=np.int64)
    breaks = np.flatnonzero(np.diff(times_ms) > gap_ms)
    start = times_ms[np.concatenate(([0], breaks + 1))]
    last = times_ms[np.append(breaks, len(times_ms) - 1)]
    # np.round rounds half to even, as Python's round does
    end = start + np.round(((last - start) / 1000.0 + dwell_s) * 1000.0).astype(np.int64)
    end[:-1] = np.minimum(end[:-1], start[1:])
    return np.column_stack((start, end))


class SocialStrengthState:
    """One pair's contact coverage: the sorted, disjoint `[start, end)` ms
    spans that `contacts_from_times` returns."""

    def __init__(self, spans: np.ndarray):
        self.start_ms, end_ms = spans.T.copy()
        # coverage of the first k spans, and span k-1's end with a never-open
        # span in front so that k = 0 needs no special case
        self._covered = np.concatenate(([0], np.cumsum(end_ms - self.start_ms)))
        self._open_end = np.concatenate(([np.iinfo(np.int64).min // 2], end_ms))

    def covered_ms(self, t_ms: np.ndarray) -> np.ndarray:
        """Integer ms of coverage before each instant of `t_ms`."""
        k = np.searchsorted(self.start_ms, t_ms, side="right")
        # only span k-1 can still be open at t; take off its part from t on
        return self._covered[k] - np.maximum(self._open_end[k] - t_ms, 0)

    def accrue(self, boundaries: np.ndarray) -> np.ndarray:
        """Social strength in seconds at each minute boundary.

        The minute ending at `b` starts in hour slot h of day D.  Its strength
        is the coverage in slot h so far -- day D's share before `b` plus the
        whole slot on every earlier day -- averaged over the D + 1 days.
        """
        start = boundaries - MS_PER_MINUTE
        hour, day = start // MS_PER_HOUR, start // MS_PER_DAY
        days = int(day.max(initial=0))
        per_hour = np.diff(self.covered_ms(np.arange(days * 24 + 1) * MS_PER_HOUR))
        # earlier[d * 24 + h]: slot h's coverage over days 0 .. d-1
        earlier = np.concatenate((np.zeros(24, dtype=np.int64),
                                  np.cumsum(per_hour.reshape(days, 24), axis=0).ravel()))
        today = self.covered_ms(boundaries) - self.covered_ms(hour * MS_PER_HOUR)
        return (earlier[hour] + today) / 1000.0 / (day + 1)


# --- relative distance pipeline ---------------------------------------------

def estimate_distance_raw(rssi_dbm: float, p_ref_dbm: float, pathloss_exp: float) -> float:
    """Invert the log-distance path loss model for one RSSI reading."""
    return 10.0 ** ((p_ref_dbm - rssi_dbm) / (10.0 * pathloss_exp))


def ema_update(raw_m: np.ndarray, alpha: float) -> np.ndarray:
    """Running average of one direction's raw estimates, in sighting order:
    the average after each one.  The first estimate seeds it; each later one
    blends in with weight `alpha`.  Raises DomainError on a negative estimate."""
    if (raw_m < 0).any():
        raise DomainError(f"negative distance estimate {raw_m[raw_m < 0][0]}")
    ema = raw_m.tolist()
    for k in range(1, len(ema)):
        ema[k] = alpha * ema[k] + (1.0 - alpha) * ema[k - 1]
    return np.array(ema, dtype=np.float64)


def smoothed_distances(t_ms: np.ndarray, ema_m: np.ndarray, boundaries: np.ndarray,
                       staleness_ms: int) -> np.ndarray:
    """Distance estimate at each boundary, `inf` where it is stale.

    `ema_m[k]` is the running average after the sighting at `t_ms[k]`.  A
    boundary reads the average after the last sighting before it; with no
    such sighting, or one more than `staleness_ms` old, it reads `inf`,
    which is how a minute record marks a pair out of range.
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
    lo, hi = _windows(t_ms, boundaries, window_ms)
    size = hi - lo
    codes = np.ones(len(boundaries), dtype=np.int64)
    for n in np.unique(size[size >= MIN_MOTION_SAMPLES]).tolist():
        # the windows of n samples, one per row, and only their samples;
        # np.std centres each row before squaring, as a running sum of
        # squares would cancel around 9.81 m/s^2 and flip labels
        k = np.flatnonzero(size == n)
        rows = lo[k, None] + np.arange(n)
        magnitude = np.sqrt(ax[rows] ** 2 + ay[rows] ** 2 + az[rows] ** 2)
        codes[k[np.std(magnitude, axis=1) > threshold_ms2]] = 2
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
