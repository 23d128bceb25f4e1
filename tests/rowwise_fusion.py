"""Reference scores, social strength and tercile labels, one record or one
minute at a time.

These are the scalar utility functions, the incremental strength
accumulator and the bisect-based session distribution that the array
kernels `propinquity`/`social_interaction`, `SocialStrengthState.accrue`
and `SessionStats`/`nearness_label` replaced.  Tests use them as oracles:
the kernels must give the same scores bit for bit, and the same strengths,
contact seconds and labels.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

from nearness.domain import MS_PER_DAY, MS_PER_HOUR, MS_PER_MINUTE
from nearness.fusion import DEFAULT_PARAMS, MIN_RECORDS_FOR_RANKING, FusionParams


def propinquity_rowwise(s: float, d: float, m: int) -> float:
    if d == math.inf or s <= 0.0:
        return 0.0
    return s / ((d + 1.0) * m)


def social_interaction_rowwise(s: float, v: int, d: float, m: int,
                               params: FusionParams = DEFAULT_PARAMS) -> float:
    if d == math.inf or s < params.s_floor:
        return 0.0
    sigma = math.sqrt(params.sigma2)
    gauss = math.exp(-((v - params.mu) ** 2) / (2.0 * params.sigma2)) \
        / (sigma * math.sqrt(2.0 * math.pi))
    return (math.log10(max(s, params.s_floor)) * gauss) \
        / (math.log10(d + 10.0) * m)


class StrengthAccumulator:
    """Per-pair contact seconds, bucketed by (day, hour slot) as coverage accrues."""

    def __init__(self):
        self.seconds: dict[tuple[int, int], float] = {}
        # per contact (keyed by start_ms): how far its coverage has been binned
        self._consumed_ms: dict[int, int] = {}

    def accrue(self, contacts, upto_ms: int) -> None:
        """Fold contact coverage earlier than `upto_ms` into the buckets."""
        contacts = sorted(contacts, key=lambda c: c.start_ms)
        for idx, contact in enumerate(contacts):
            cov_end = contact.start_ms + round(contact.duration_s * 1000.0)
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
            key = (t // MS_PER_DAY, (t // MS_PER_HOUR) % 24)
            self.seconds[key] = self.seconds.get(key, 0.0) + (chunk_end - t) / 1000.0
            t = chunk_end

    def strength(self, slot: int, days_elapsed: int) -> float:
        """Average contact seconds in `slot` over `days_elapsed` days."""
        total = sum(v for (d, h), v in self.seconds.items() if h == slot)
        return total / days_elapsed


def strengths_minutewise(contacts, first_minute: int, minutes: int):
    """(strength per minute from `first_minute` on, contact seconds), as the
    engine computed them: one accrue per minute, read for the slot of the
    minute's start and averaged over the days elapsed."""
    state = StrengthAccumulator()
    out = []
    for minute in range(first_minute, minutes):
        state.accrue(contacts, (minute + 1) * MS_PER_MINUTE)
        out.append(state.strength((minute // 60) % 24, minute // 1440 + 1))
    return out, sum(state.seconds.values())


class BisectSessionStats:
    """Running empirical distribution of p and si, as two insort-ed lists."""

    def __init__(self):
        self.p: list[float] = []
        self.si: list[float] = []

    def __len__(self) -> int:
        return len(self.p)

    def add(self, p: float, si: float) -> None:
        insort(self.p, p)
        insort(self.si, si)

    @staticmethod
    def _level(sorted_values: list[float], x: float) -> int:
        frac = bisect_left(sorted_values, x) / len(sorted_values)
        if frac >= 2.0 / 3.0:
            return 2
        if frac >= 1.0 / 3.0:
            return 1
        return 0

    def label(self, p: float, si: float) -> tuple[int, bool]:
        """(label code, provisional) of one record against the history."""
        if len(self) < MIN_RECORDS_FOR_RANKING:
            return (0, True)
        return ((self._level(self.p, p) + self._level(self.si, si)) // 2, False)
