"""Reference accelerometer traces: every node's series built up front.

This is the loop `generate` ran before its traces drew each node's series
on lookup, and it holds every node's samples at once.  Tests use it as the
oracle: every lookup must give its arrays bit for bit.  Its moving mask is
the one `GroundTruth.moving_mask` computed before it marked each moving
segment as a slice: each sample looks up its own waypoint segment.
"""

from __future__ import annotations

import numpy as np

from nearness.ingest import AccelSeries
from nearness.simulator import (
    ACCEL_INTERVAL_MS,
    GRAVITY_MS2,
    MOVING_TONE_HZ,
    MOVING_TONE_MS2,
    ScenarioConfig,
    _stream_rng,
)


def moving_mask_per_sample(config: ScenarioConfig, node: str, t_ms) -> np.ndarray:
    """True wherever `node`'s scripted path has nonzero velocity at t."""
    (agent,) = [a for a in config.agents if a.id == node]
    wp_t = np.array([w.t_ms for w in agent.waypoints], dtype=np.float64)
    x = np.array([w.x for w in agent.waypoints], dtype=np.float64)
    y = np.array([w.y for w in agent.waypoints], dtype=np.float64)
    seg_moving = (np.diff(x) != 0) | (np.diff(y) != 0)
    t = np.asarray(t_ms, dtype=np.float64)
    seg = np.searchsorted(wp_t, t, side="right") - 1
    inside = (seg >= 0) & (seg < len(wp_t) - 1)
    moving = np.zeros(len(t), dtype=bool)
    if inside.any():
        moving[inside] = seg_moving[seg[inside]]
    return moving


def eager_accel(config: ScenarioConfig) -> dict[str, AccelSeries]:
    """Every agent's accelerometer series, by agent id."""
    names = sorted(a.id for a in config.agents)
    t_acc = np.arange(0, config.duration_ms, ACCEL_INTERVAL_MS, dtype=np.int64)
    accel = {}
    for node in names:
        if config.accel_noise_sigma > 0:
            rng = _stream_rng(config.seed, "accel", node)
            noise = rng.normal(0.0, config.accel_noise_sigma, (len(t_acc), 3))
        else:
            noise = np.zeros((len(t_acc), 3))
        ax = noise[:, 0].copy()
        ay = noise[:, 1].copy()
        az = noise[:, 2] + GRAVITY_MS2
        moving = moving_mask_per_sample(config, node, t_acc)
        if moving.any():
            tone = MOVING_TONE_MS2 * np.sin(
                2.0 * np.pi * MOVING_TONE_HZ * (t_acc / 1000.0))
            az = az + np.where(moving, tone, 0.0)
        accel[node] = AccelSeries(t_acc.copy(), ax, ay, az)
    return accel
