"""Scenario writers for the benchmark workloads.

`crowd_scenario` and `time_scaled` return the text of a plain `.scn` file (the
grammar documented in `nearness.simulator`).  The output is a pure function of
the arguments: the same arguments give byte-identical text.  Randomness comes from
`random.Random`, whose `random()` stream is stable across Python versions.
"""

from __future__ import annotations

import math
import random

MS_PER_HOUR = 3_600_000
BOX_M = 40.0   # side of the square the crowd walks in

# Peak amplitudes that land in each class of the engine's sound ladder:
# quiet (-66 dB), normal (-34 dB), alert (-20 dB), noisy (-6 dB).
SOUND_LADDER = (0.0005, 0.02, 0.1, 0.5)


def crowd_scenario(agents: int, hours: float, seed: int) -> str:
    """Random-waypoint crowd in a square box with a random sound schedule.

    Each agent alternates a pause of 1-15 minutes with a straight walk at
    0.5-1.5 m/s to a uniformly drawn point of the `BOX_M` square.  Its sound
    schedule is a run of 5-30 minute phases, each at one rung of the sound
    ladder.  RF shadowing is on, so the two directions of a pair differ.
    """
    if agents < 2:
        raise ValueError(f"a crowd needs at least 2 agents, got {agents}")
    duration_ms = round(hours * MS_PER_HOUR)
    if duration_ms <= 0:
        raise ValueError(f"hours must be positive, got {hours}")
    rng = random.Random(seed)

    def point() -> tuple[float, float]:
        return (round(rng.random() * BOX_M, 2), round(rng.random() * BOX_M, 2))

    lines = [
        f"# Synthetic crowd: {agents} agents, {hours} h, {BOX_M} m box, seed {seed}.",
        f"duration_ms = {duration_ms}",
        f"seed = {seed}",
        "accel_noise_sigma = 0.1",
        "",
        "[rf]",
        "shadowing_sigma_db = 3",
    ]
    for k in range(agents):
        lines += ["", f"[agent n{k:03d}]"]
        x, y = point()
        t = 0
        lines.append(f"waypoint = 0 {x} {y}")
        while t < duration_ms:
            t += 60_000 + int(rng.random() * 840_000)
            lines.append(f"waypoint = {t} {x} {y}")
            nx, ny = point()
            speed = 0.5 + rng.random()
            t += max(1, round(math.hypot(nx - x, ny - y) / speed * 1000.0))
            x, y = nx, ny
            lines.append(f"waypoint = {t} {x} {y}")
        t = 0
        while t < duration_ms:
            end = min(duration_ms, t + 300_000 + int(rng.random() * 1_500_000))
            amplitude = SOUND_LADDER[int(rng.random() * len(SOUND_LADDER))]
            lines.append(f"sound = {t} {end} {amplitude}")
            t = end
    return "\n".join(lines) + "\n"


def time_scaled(text: str, factor: int) -> str:
    """The scenario `text` played `factor` times faster.

    Divides `duration_ms` and every waypoint and sound time by `factor`,
    rounding to whole milliseconds; positions, amplitudes, the seed and the
    RF settings stay as they are.  Every phase of the scenario is kept, only
    shorter, and walks are `factor` times faster.
    """
    def scaled(ms: str) -> str:
        return str(round(int(ms) / factor))

    lines = [f"# Played {factor}x faster by the benchmark; times below are scaled."]
    for line in text.splitlines():
        key, sep, value = (part.strip() for part in line.partition("="))
        fields = value.split()
        if sep and key == "duration_ms":
            line = f"duration_ms = {scaled(value)}"
        elif sep and key == "waypoint":
            line = f"waypoint = {scaled(fields[0])} {' '.join(fields[1:])}"
        elif sep and key == "sound":
            line = f"sound = {scaled(fields[0])} {scaled(fields[1])} {' '.join(fields[2:])}"
        lines.append(line)
    return "\n".join(lines) + "\n"
