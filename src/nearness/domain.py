"""Core identities, time arithmetic, and the minute record.

Everything downstream (simulator, codecs, pipelines, fusion, store) shares
these value types.  All of them are immutable and safe to pass between
concurrent tasks.

Timestamps are scenario-relative milliseconds, never wall clock; mapping
wall-clock inputs onto the scenario epoch is a file-ingest concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000

MAX_NODE_ID_LEN = 64
RSSI_MIN_DBM = -120.0
RSSI_MAX_DBM = 0.0


class DomainError(ValueError):
    """A value violates one of the domain preconditions."""


def validate_node_id(node_id: str) -> str:
    """Check a node identity token; returns it unchanged if acceptable.

    Identities are opaque strings, non-empty, at most 64 characters, with no
    commas or line breaks (they must survive the CSV formats verbatim).
    """
    if not isinstance(node_id, str) or not node_id:
        raise DomainError("node id must be a non-empty string")
    if len(node_id) > MAX_NODE_ID_LEN:
        raise DomainError(f"node id longer than {MAX_NODE_ID_LEN} chars: {node_id[:16]}...")
    if any(c in node_id for c in ",\n\r"):
        raise DomainError(f"node id contains a comma or line break: {node_id!r}")
    return node_id


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    """Order two distinct node ids into their canonical (min, max) form.

    The ordering is plain lexicographic, so both argument orders map to the
    same pair key.
    """
    validate_node_id(a)
    validate_node_id(b)
    if a == b:
        raise DomainError(f"pair requires two distinct nodes, got {a!r} twice")
    return (a, b) if a < b else (b, a)


# --- tick arithmetic -------------------------------------------------------

def minute_index(t_ms: int) -> int:
    return t_ms // MS_PER_MINUTE


def hour_slot(t_ms: int) -> int:
    """Hour-of-day slot in 0..23 for the given scenario-relative instant."""
    return (t_ms // MS_PER_HOUR) % 24


def day_index(t_ms: int) -> int:
    return t_ms // MS_PER_DAY


class Nearness(Enum):
    LOW = "Low"
    AVG = "Avg"
    HIGH = "High"


@dataclass(frozen=True, slots=True)
class MinuteRecord:
    """The one persisted artifact: per-minute fused values for a node pair.

    `i` is the record owner: n_i, m_i and v_i are its node degree, motion
    code and sound class for that minute.  d_m is the smoothed distance
    estimate in meters, or ``inf`` when no fresh estimate exists (the
    records file writes it the same way); s_s is the social strength in
    seconds; p and si are the fused propinquity and social-interaction
    scores, both zero when d_m is ``inf``.
    """
    minute: int
    i: str
    j: str
    n_i: int
    m_i: int
    v_i: int
    d_m: float
    s_s: float
    p: float
    si: float
    nearness: Nearness

    def key(self) -> tuple[int, str, str]:
        return (self.minute, self.i, self.j)


