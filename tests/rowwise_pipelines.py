"""Reference pipelines, kept as oracles for the array kernels that replaced them.

`window_stds` and `motion_codes_windowwise` are the loop the windowed
`motion_codes` kernel replaced: they take the acceleration magnitude of the
node's whole series, then the standard deviation of each window's slice of
it.  The kernel must give the same code for every window, also with the
threshold set to a window's exact standard deviation.

`DistanceState` and `ema_update` are the per-sighting running average the
`ema_update` kernel replaced: the engine called the step once per sighting.
The kernel must give the same average, bit for bit, after every estimate.

`ContactEvent` and `contacts_from_times` are the per-contact objects the
span kernel `contacts_from_times` replaced: the engine's strength state
rebuilt each contact's coverage as `[start_ms, start_ms +
round(duration_s * 1000))`, cut at the next contact's start.  The kernel
must give those spans, to the millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nearness.domain import DomainError
from nearness.pipelines import DEFAULT_ALPHA, MIN_MOTION_SAMPLES


def window_stds(t_ms, ax, ay, az, boundaries, window_ms) -> np.ndarray:
    """Standard deviation of the magnitude over each window [b - window_ms, b),
    NaN for a window with fewer than `MIN_MOTION_SAMPLES` samples."""
    magnitude = np.sqrt(ax ** 2 + ay ** 2 + az ** 2)
    lo = np.searchsorted(t_ms, boundaries - window_ms, side="left")
    hi = np.searchsorted(t_ms, boundaries, side="left")
    stds = np.full(len(boundaries), np.nan)
    for k in np.flatnonzero(hi - lo >= MIN_MOTION_SAMPLES):
        stds[k] = np.std(magnitude[lo[k]:hi[k]])
    return stds


def motion_codes_windowwise(t_ms, ax, ay, az, boundaries, window_ms,
                            threshold_ms2) -> np.ndarray:
    """Motion code per boundary: 2 where the window's std exceeds the threshold."""
    stds = window_stds(t_ms, ax, ay, az, boundaries, window_ms)
    return np.where(stds > threshold_ms2, 2, 1)


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


@dataclass(frozen=True, slots=True)
class ContactEvent:
    """A merged encounter interval between one canonical pair."""
    pair: tuple[str, str]
    start_ms: int
    end_ms: int
    duration_s: float


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
