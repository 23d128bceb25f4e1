"""Deterministic multi-agent encounter simulator.

Agents follow scripted piecewise-linear waypoint paths on a 2D plane.  The
simulator emits the three sensor streams the engine consumes:

* radio sightings for every ordered pair within range, every scan interval,
  with RSSI from a log-distance path loss model plus optional log-normal
  shadowing;
* accelerometer triples at 20 Hz (gravity plus noise; a 2 Hz tone on the
  gravity axis while the agent is moving, which gives the motion classifier
  its variance contrast);
* amplitude samples at 1 Hz from the scripted per-agent sound schedule.

Output is a pure function of the scenario (seed included): every noise draw
comes from an RNG substream keyed by (sensor, stream identity) and indexed
by tick, so generation order can never change the result.  The returned
ground truth doubles as the oracle for distance, contact, motion, and sound.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .domain import (MAX_SPAN_DAYS, MAX_SPAN_MS, RSSI_MAX_DBM, RSSI_MIN_DBM, DomainError,
                     validate_node_id)
from .ingest import DrawnAccel, SightingSeries, SoundSeries, TraceSet, _undecodable

ACCEL_INTERVAL_MS = 50      # 20 Hz
SOUND_INTERVAL_MS = 1000    # 1 Hz
GRAVITY_MS2 = 9.81
MOVING_TONE_HZ = 2.0
MOVING_TONE_MS2 = 2.0


class ConfigError(ValueError):
    """A scenario is invalid; `field` names the offending element."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


class ScenarioParseError(ConfigError):
    """A scenario file could not be parsed; message carries file and line."""

    def __init__(self, source: str, line: int, message: str):
        self.line = line
        super().__init__(f"{source}:{line}", message)


@dataclass(frozen=True, slots=True)
class Waypoint:
    t_ms: int
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class SoundPhase:
    from_ms: int
    to_ms: int
    amplitude: float


@dataclass(frozen=True)
class AgentSpec:
    id: str
    waypoints: tuple[Waypoint, ...]
    sound: tuple[SoundPhase, ...] = ()


@dataclass(frozen=True)
class RfParams:
    p_ref_dbm: float = -40.0        # received power at the 1 m reference
    pathloss_exp: float = 2.7       # indoor-office decay regime
    shadowing_sigma_db: float = 0.0
    scan_interval_ms: int = 60_000
    max_range_m: float = 30.0


@dataclass(frozen=True)
class ScenarioConfig:
    agents: tuple[AgentSpec, ...]
    duration_ms: int
    rf: RfParams = field(default_factory=RfParams)
    accel_noise_sigma: float = 0.1  # m/s^2, on every axis
    seed: int = 0


def validate_config(config: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant; raises ConfigError naming the field."""
    if not isinstance(config.duration_ms, int) or config.duration_ms <= 0:
        raise ConfigError("duration_ms", f"must be a positive integer, got {config.duration_ms}")
    if config.duration_ms > MAX_SPAN_MS:
        raise ConfigError("duration_ms", f"a run spans at most {MAX_SPAN_DAYS} days "
                          f"({MAX_SPAN_MS} ms), got {config.duration_ms}")
    if not isinstance(config.seed, int) or not 0 <= config.seed < 2 ** 64:
        raise ConfigError("seed", "must be a 64-bit unsigned integer")
    if not (math.isfinite(config.accel_noise_sigma) and config.accel_noise_sigma >= 0):
        raise ConfigError("accel_noise_sigma", f"must be >= 0, got {config.accel_noise_sigma}")

    rf = config.rf
    if not math.isfinite(rf.p_ref_dbm):
        raise ConfigError("rf.p_ref_dbm", "must be finite")
    if not (math.isfinite(rf.pathloss_exp) and rf.pathloss_exp > 0):
        raise ConfigError("rf.pathloss_exp", f"must be > 0, got {rf.pathloss_exp}")
    if not (math.isfinite(rf.shadowing_sigma_db) and rf.shadowing_sigma_db >= 0):
        raise ConfigError("rf.shadowing_sigma_db", f"must be >= 0, got {rf.shadowing_sigma_db}")
    if not isinstance(rf.scan_interval_ms, int) or rf.scan_interval_ms <= 0:
        raise ConfigError("rf.scan_interval_ms", f"must be a positive integer, got {rf.scan_interval_ms}")
    if not (math.isfinite(rf.max_range_m) and rf.max_range_m > 0):
        raise ConfigError("rf.max_range_m", f"must be > 0, got {rf.max_range_m}")

    if not config.agents:
        raise ConfigError("agents", "at least one agent is required")
    seen_ids = set()
    for a, agent in enumerate(config.agents):
        prefix = f"agents[{a}]"
        try:
            validate_node_id(agent.id)
        except DomainError as exc:
            raise ConfigError(f"{prefix}.id", str(exc)) from None
        if agent.id in seen_ids:
            raise ConfigError(f"{prefix}.id", f"duplicate agent id {agent.id!r}")
        seen_ids.add(agent.id)
        if not agent.waypoints:
            raise ConfigError(f"{prefix}.waypoints", "at least one waypoint is required")
        if agent.waypoints[0].t_ms != 0:
            raise ConfigError(f"{prefix}.waypoints[0].t_ms",
                              f"first waypoint must be at t=0, got {agent.waypoints[0].t_ms}")
        prev_t = -1
        for w, wp in enumerate(agent.waypoints):
            wp_prefix = f"{prefix}.waypoints[{w}]"
            if wp.t_ms <= prev_t:
                raise ConfigError(f"{wp_prefix}.t_ms",
                                  f"waypoint times must strictly increase, got {wp.t_ms}")
            prev_t = wp.t_ms
            if not (math.isfinite(wp.x) and math.isfinite(wp.y)):
                raise ConfigError(f"{wp_prefix}", "coordinates must be finite")
        prev_to = 0
        for k, phase in enumerate(agent.sound):
            ph_prefix = f"{prefix}.sound[{k}]"
            if phase.from_ms < prev_to:
                raise ConfigError(f"{ph_prefix}.from_ms",
                                  "sound phases must be sorted and non-overlapping")
            if phase.to_ms <= phase.from_ms:
                raise ConfigError(f"{ph_prefix}.to_ms", "phase must end after it starts")
            if phase.to_ms > config.duration_ms:
                raise ConfigError(f"{ph_prefix}.to_ms",
                                  f"phase ends after the scenario ({config.duration_ms} ms)")
            if not (0.0 <= phase.amplitude <= 1.0):
                raise ConfigError(f"{ph_prefix}.amplitude",
                                  f"must lie in [0, 1], got {phase.amplitude}")
            prev_to = phase.to_ms
    return config


# --- ground truth -------------------------------------------------------------

class GroundTruth:
    """Oracle view of a scenario: exact positions, motion, and sound."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._wp_t: dict[str, np.ndarray] = {}
        self._wp_x: dict[str, np.ndarray] = {}
        self._wp_y: dict[str, np.ndarray] = {}
        # [start, end) ms of each waypoint segment with nonzero velocity
        self._moving: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for agent in config.agents:
            t = np.array([w.t_ms for w in agent.waypoints], dtype=np.int64)
            x = np.array([w.x for w in agent.waypoints], dtype=np.float64)
            y = np.array([w.y for w in agent.waypoints], dtype=np.float64)
            self._wp_t[agent.id] = t.astype(np.float64)
            self._wp_x[agent.id] = x
            self._wp_y[agent.id] = y
            seg = np.flatnonzero((np.diff(x) != 0) | (np.diff(y) != 0))
            self._moving[agent.id] = (t[seg], t[seg + 1])
        self._sound = {a.id: a.sound for a in config.agents}

    def _require(self, node: str) -> None:
        if node not in self._wp_t:
            raise DomainError(f"unknown agent {node!r}")

    def positions(self, node: str, t_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._require(node)
        t = np.asarray(t_ms, dtype=np.float64)
        # np.interp clamps outside the waypoint span: holds the last position
        return (np.interp(t, self._wp_t[node], self._wp_x[node]),
                np.interp(t, self._wp_t[node], self._wp_y[node]))

    def moving_mask(self, node: str, t_ms: np.ndarray) -> np.ndarray:
        """True wherever the scripted path has nonzero velocity at t; the
        times `t_ms` are sorted."""
        self._require(node)
        t = np.asarray(t_ms)
        starts, ends = self._moving[node]
        moving = np.zeros(len(t), dtype=bool)
        for lo, hi in zip(np.searchsorted(t, starts).tolist(),
                          np.searchsorted(t, ends).tolist()):
            moving[lo:hi] = True
        return moving

    def amplitudes(self, node: str, t_ms: np.ndarray) -> np.ndarray:
        self._require(node)
        t = np.asarray(t_ms, dtype=np.int64)
        amp = np.zeros(len(t), dtype=np.float64)
        for phase in self._sound[node]:
            mask = (t >= phase.from_ms) & (t < phase.to_ms)
            amp[mask] = phase.amplitude
        return amp


# --- RF model -----------------------------------------------------------------

def rssi_from_distance(d_m, rf: RfParams, noise_db=0.0) -> np.ndarray:
    """Log-distance path loss at distances `d_m` (meters, an array or a
    number) plus `noise_db`, clamped to [-120, 0] dBm.

    At 0 m the loss is unbounded and the RSSI clamps to 0 dBm.
    """
    with np.errstate(divide="ignore"):
        raw = rf.p_ref_dbm - 10.0 * rf.pathloss_exp * np.log10(d_m) + noise_db
    return np.clip(raw, RSSI_MIN_DBM, RSSI_MAX_DBM)


def _stream_rng(seed: int, *labels: str) -> np.random.Generator:
    """Independent substream keyed by a stable label, decoupled from call order."""
    digest = hashlib.sha256("\x1f".join(labels).encode("utf-8")).digest()
    words = [int.from_bytes(digest[k:k + 4], "big") for k in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


# --- generation -----------------------------------------------------------------

def generate(config: ScenarioConfig) -> tuple[TraceSet, GroundTruth]:
    """Run a scenario and return its sensor traces plus the ground truth.

    Sightings and sound are built here: one series per direction that is
    ever in range, at the scan ticks where it is, and one per node.
    Accelerometer series are not: the traces' `accel` draws a node's series
    from its own substream each time it is looked up, so only the series in
    use is held, and every lookup gives the same bits.
    """
    validate_config(config)
    gt = GroundTruth(config)
    names = sorted(a.id for a in config.agents)
    rf = config.rf

    # radio sightings at every scan tick in range, one series per ordered pair
    t_scan = np.arange(0, config.duration_ms, rf.scan_interval_ms, dtype=np.int64)
    pos = {n: gt.positions(n, t_scan) for n in names}
    sightings = {}
    for observer in names:
        for subject in names:
            if observer == subject:
                continue
            dist = np.hypot(pos[observer][0] - pos[subject][0],
                            pos[observer][1] - pos[subject][1])
            if rf.shadowing_sigma_db > 0:
                rng = _stream_rng(config.seed, "bt", observer, subject)
                noise = rng.normal(0.0, rf.shadowing_sigma_db, len(t_scan))
            else:
                noise = 0.0
            rssi = rssi_from_distance(dist, rf, noise)
            mask = dist <= rf.max_range_m
            if mask.any():
                sightings[(observer, subject)] = SightingSeries(t_scan[mask], rssi[mask])

    # accelerometer at 20 Hz: gravity plus noise, a 2 Hz tone while moving.
    # The tone rides the gravity axis so the magnitude-std feature sees its
    # full amplitude (off-axis it would only enter at second order and stay
    # below any sensible threshold).
    t_acc = np.arange(0, config.duration_ms, ACCEL_INTERVAL_MS, dtype=np.int64)
    tone = MOVING_TONE_MS2 * np.sin(2.0 * np.pi * MOVING_TONE_HZ * (t_acc / 1000.0))

    def draw_accel(node: str) -> np.ndarray:
        moving = gt.moving_mask(node, t_acc)
        if config.accel_noise_sigma > 0:
            rng = _stream_rng(config.seed, "accel", node)
            xyz = rng.normal(0.0, config.accel_noise_sigma, (len(t_acc), 3))
        else:
            xyz = np.zeros((len(t_acc), 3))
        az = xyz[:, 2]
        az += GRAVITY_MS2
        np.add(az, tone, out=az, where=moving)
        return xyz.T

    # sound amplitude at 1 Hz, exactly the scripted schedule
    t_snd = np.arange(0, config.duration_ms, SOUND_INTERVAL_MS, dtype=np.int64)
    sound = {node: SoundSeries(t_snd.copy(), gt.amplitudes(node, t_snd))
             for node in names}

    return TraceSet(sightings, DrawnAccel(t_acc, names, draw_accel), sound), gt


# --- scenario file grammar -------------------------------------------------------
#
# Plain text, one statement per line; `#` starts a full-line comment.  The
# keys are the number fields of the dataclasses above, which hold each key's
# type and default:
#
#   duration_ms = 25200000          top level: ScenarioConfig's duration_ms,
#   seed = 7                        seed (integers) and accel_noise_sigma
#   [rf]                            optional: RfParams' fields, of which
#   p_ref_dbm = -40                 scan_interval_ms is an integer
#   [agent A]                       one section per agent
#   waypoint = 0 0.0 0.0            Waypoint's t_ms (integer), x, y; repeated
#   sound = 0 3600000 0.02          SoundPhase's from_ms, to_ms (integers), amplitude

def _number_fields(cls, prefix: str = "") -> dict[str, type]:
    """{prefix + name: int or float} over a dataclass's number fields, in order."""
    return {prefix + f.name: int if f.type == "int" else float
            for f in fields(cls) if f.type in ("int", "float")}


_TOP_FIELDS = _number_fields(ScenarioConfig)
_RF_FIELDS = _number_fields(RfParams)
# an agent key's dataclass, and its fields' (name in errors, type) in order
_AGENT_FIELDS = {key: (cls, list(_number_fields(cls, f"{key}.").items()))
                 for key, cls in (("waypoint", Waypoint), ("sound", SoundPhase))}


def _numbers(kinds, texts, source: str, line: int) -> list:
    """Each of `texts` converted by its (name in errors, int or float) pair in
    `kinds`; the first that does not convert fails the line."""
    numbers = []
    for (label, kind), text in zip(kinds, texts):
        try:
            numbers.append(kind(text))
        except ValueError:
            word = "integer" if kind is int else "number"
            raise ScenarioParseError(source, line, f"{label}: invalid {word} {text!r}") from None
    return numbers


def parse_scenario(text: str, source: str = "<scenario>") -> ScenarioConfig:
    top: dict[str, float | int] = {}
    rf: dict[str, float | int] = {}
    agents: dict[str, dict[str, list]] = {}     # id -> {"waypoint": [...], "sound": [...]}
    # the current section: its key table, its values and the word naming it
    # in errors, or the lists of the current agent
    keys, values, where, agent = _TOP_FIELDS, top, "", None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if _undecodable(raw):
            raise ScenarioParseError(source, lineno, f"invalid UTF-8 in {raw!r}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(source, lineno, "unterminated section header")
            name = line[1:-1].strip()
            if name == "rf":
                keys, values, where, agent = _RF_FIELDS, rf, "rf ", None
            elif name.startswith("agent "):
                # `name` is stripped, so the id after "agent " is never empty
                agent_id = name[len("agent "):].strip()
                if agent_id in agents:
                    raise ScenarioParseError(source, lineno, f"agent {agent_id!r} redefined")
                agent = agents[agent_id] = {key: [] for key in _AGENT_FIELDS}
            else:
                raise ScenarioParseError(source, lineno, f"unknown section [{name}]")
            continue
        if "=" not in line:
            raise ScenarioParseError(source, lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if agent is not None:
            if key not in _AGENT_FIELDS:
                raise ScenarioParseError(source, lineno, f"unknown agent key {key!r}")
            cls, kinds = _AGENT_FIELDS[key]
            parts = value.split()
            if len(parts) != len(kinds):
                raise ScenarioParseError(source, lineno,
                                         f"{key} needs: {' '.join(f.name for f in fields(cls))}")
            agent[key].append(cls(*_numbers(kinds, parts, source, lineno)))
        else:
            if key not in keys:
                raise ScenarioParseError(source, lineno, f"unknown {where}key {key!r}")
            if key in values:
                raise ScenarioParseError(source, lineno, f"duplicate {where}key {key!r}")
            values[key] = _numbers([(key, keys[key])], [value], source, lineno)[0]

    if "duration_ms" not in top:
        raise ScenarioParseError(source, 0, "missing required key duration_ms")
    config = ScenarioConfig(
        agents=tuple(AgentSpec(a, tuple(lists["waypoint"]), tuple(lists["sound"]))
                     for a, lists in agents.items()),
        rf=RfParams(**rf), **top)
    return validate_config(config)


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return parse_scenario(handle.read(), source=str(path))
