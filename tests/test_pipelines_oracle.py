"""The windowed motion kernel against the window-at-a-time reference loop in
`rowwise_pipelines.py`."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nearness.domain import MS_PER_MINUTE
from nearness.pipelines import motion_codes

from rowwise_pipelines import motion_codes_windowwise, window_stds

WINDOW_MS = 50_000
SPACING_MS = 50      # so a window holds up to 1000 samples


@st.composite
def accel_minutes(draw):
    """(t_ms, ax, ay, az, boundaries): per minute, a few samples before its
    window and 0-1000 inside it (10-1000 in most minutes), drawn around
    gravity at one of several noise scales; the axes are strided views of
    one (n, 3) block, as the simulator draws them."""
    minutes = draw(st.integers(1, 6))
    counts = draw(st.lists(st.one_of(st.integers(10, 1000), st.integers(0, 12)),
                           min_size=minutes, max_size=minutes))
    times = []
    for minute, count in enumerate(counts):
        start = minute * MS_PER_MINUTE
        times += sorted(draw(st.sets(st.integers(start, start + 9_999), max_size=3)))
        window = start + MS_PER_MINUTE - WINDOW_MS
        times += range(window, window + SPACING_MS * count, SPACING_MS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-6, 0.1, 0.5, 2.0, 50.0]))
    xyz = rng.normal(0.0, scale, (len(times), 3))
    xyz[:, 2] += 9.81
    boundaries = MS_PER_MINUTE * np.arange(1, minutes + 1, dtype=np.int64)
    return (np.array(times, dtype=np.int64), *xyz.T, boundaries)


@settings(max_examples=80, deadline=None)
@given(accel_minutes(), st.data())
def test_codes_match_the_window_loop(series, data):
    stds = window_stds(*series, WINDOW_MS)
    thresholds = [0.5, 0.0]
    full = np.flatnonzero(~np.isnan(stds))
    if len(full):
        # at a window's own std, a one-ulp change either way flips its code
        s = stds[data.draw(st.sampled_from(full.tolist()))]
        thresholds += [s, np.nextafter(s, -np.inf)]
    for threshold in thresholds:
        assert motion_codes(*series, WINDOW_MS, threshold).tolist() \
            == motion_codes_windowwise(*series, WINDOW_MS, threshold).tolist()
