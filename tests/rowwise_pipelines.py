"""Reference motion feature: one `np.std` call per window.

This is the loop the windowed `motion_codes` kernel replaced: it takes the
acceleration magnitude of the node's whole series, then the standard
deviation of each window's slice of it.  Tests use it as the oracle: the
kernel must give the same code for every window, also with the threshold
set to a window's exact standard deviation.
"""

from __future__ import annotations

import numpy as np

from nearness.pipelines import MIN_MOTION_SAMPLES


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
