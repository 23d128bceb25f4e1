"""The windowed motion kernel and the distance average against the reference
loops in `rowwise_pipelines.py`."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearness.domain import MS_PER_MINUTE
from nearness.engine import EngineConfig
from nearness.pipelines import (ema_update, estimate_distance_raw, motion_codes,
                                smoothed_distances)

from rowwise_pipelines import DistanceState, motion_codes_windowwise, window_stds
from rowwise_pipelines import ema_update as ema_update_rowwise

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


def ema_rowwise(raw_m, alpha) -> list[float]:
    """The running average after each estimate, one oracle step per estimate."""
    state = DistanceState(alpha=alpha)
    return [ema_update_rowwise(state, raw) for raw in raw_m]


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       st.lists(st.one_of(st.sampled_from([0.0, 0.5, 3.7, 1e-300]),
                          st.floats(min_value=0.0, max_value=1e6)), max_size=40))
@example(0.3, [])
@example(0.3, [2.5])
@example(1.0, [0.0, 0.0, 4.0, 4.0, 4.0])
def test_ema_matches_the_per_sighting_step(alpha, raw_m):
    # the fixed values drawn alongside give repeats and zeros
    kernel = ema_update(np.array(raw_m, dtype=np.float64), alpha)
    assert kernel.dtype == np.float64
    assert list(map(repr, kernel.tolist())) == list(map(repr, ema_rowwise(raw_m, alpha)))


@pytest.mark.parametrize("bundle", ["exp3_run", "exp3_noisy_run"])
def test_engine_distances_equal_the_per_sighting_chain(bundle, request):
    # noiseless RSSI repeats, so the per-distinct-value inverse is exercised;
    # 3 dB shadowing sets each direction's series apart
    run = request.getfixturevalue(bundle)
    result, rf, config = run.result, run.config.rf, EngineConfig()
    records = result.records
    boundaries = MS_PER_MINUTE * np.arange(1, result.minutes + 1, dtype=np.int64)
    directions = sorted(d for pair in result.contacts for d in (pair, pair[::-1]))
    assert len(directions) == 2
    for k, direction in enumerate(directions):
        series = run.traces.sightings[direction]
        raw = [estimate_distance_raw(rssi, rf.p_ref_dbm, rf.pathloss_exp)
               for rssi in series.rssi_dbm.tolist()]
        expected = smoothed_distances(series.t_ms,
                                      np.array(ema_rowwise(raw, config.alpha), dtype=np.float64),
                                      boundaries, config.staleness_ms)
        own = result.direction == k
        assert own.any()
        assert records.d_m[own].tobytes() == expected[records.minute[own]].tobytes()
    forward, backward = (records.d_m[result.direction == k] for k in (0, 1))
    assert (forward != backward).any() == (bundle == "exp3_noisy_run")
