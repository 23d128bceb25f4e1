"""Per-minute fusion of the pipeline outputs into nearness scores.

Two utility functions are evaluated for every pair each minute:

* propinquity        p  = s / ((d + 1) * m)
* social interaction si = log10(s) * G(v) / (log10(d + 10) * m)

where s is the social strength in seconds, d the smoothed relative distance
in meters, m the motion code (1 stationary, 2 moving), and G a Gaussian
weight centred on the target sound class.  Both are zero whenever the pair
has no strength or no fresh distance estimate (d is ``inf``).  The
qualitative nearness label is derived from the session's empirical terciles
of p and si.  `fuse_minute` scores one minute's rows with the scalar
functions below and returns them as one MinuteBatch.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from .domain import LABELS, MinuteBatch, Nearness

#: Below 10 records the tercile ranks are meaningless; labels are provisional.
MIN_RECORDS_FOR_RANKING = 10


@dataclass(frozen=True)
class FusionParams:
    """Shape of the sound weighting and the strength floor.

    sigma2 is the variance of the Gaussian over sound classes, mu the class
    where social interaction peaks (1, conversation-level sound), and
    s_floor the strength below which si is defined as zero so the logarithm
    never goes negative.
    """
    sigma2: float = 0.75
    mu: float = 1.0
    s_floor: float = 1.0


DEFAULT_PARAMS = FusionParams()


def propinquity(s: float, d: float, m: int) -> float:
    """Long-term tie score: grows with strength, shrinks with distance/motion."""
    if d == math.inf or s <= 0.0:
        return 0.0
    return s / ((d + 1.0) * m)


def social_interaction(s: float, v: int, d: float, m: int,
                       params: FusionParams = DEFAULT_PARAMS) -> float:
    """Instantaneous interaction score, Gaussian-weighted by sound class."""
    if d == math.inf or s < params.s_floor:
        return 0.0
    sigma = math.sqrt(params.sigma2)
    gauss = math.exp(-((v - params.mu) ** 2) / (2.0 * params.sigma2)) \
        / (sigma * math.sqrt(2.0 * math.pi))
    return (math.log10(max(s, params.s_floor)) * gauss) \
        / (math.log10(d + 10.0) * m)


class SessionStats:
    """Running empirical distribution of p and si over the session so far."""

    def __init__(self):
        self._p: list[float] = []    # kept sorted
        self._si: list[float] = []

    def __len__(self) -> int:
        return len(self._p)

    def add(self, p: float, si: float) -> None:
        insort(self._p, p)
        insort(self._si, si)

    @staticmethod
    def _level(sorted_values: list[float], x: float) -> int:
        # tercile rank by fraction of history strictly below x; ties (heavy
        # runs of zeros included) therefore sink to the bottom band
        frac = bisect_left(sorted_values, x) / len(sorted_values)
        if frac >= 2.0 / 3.0:
            return 2
        if frac >= 1.0 / 3.0:
            return 1
        return 0

    def level_p(self, p: float) -> int:
        return self._level(self._p, p)

    def level_si(self, si: float) -> int:
        return self._level(self._si, si)


def nearness_label(p: float, si: float, stats: SessionStats) -> tuple[Nearness, bool]:
    """Map a (p, si) pair onto {Low, Avg, High} by session terciles.

    Each score is ranked 0/1/2 against the session distribution and the
    label index is floor of their mean.  With fewer than 10 records on file
    the ranks are not trustworthy yet: the label is Low and flagged
    provisional.
    """
    if len(stats) < MIN_RECORDS_FOR_RANKING:
        return (Nearness.LOW, True)
    index = (stats.level_p(p) + stats.level_si(si)) // 2
    return (LABELS[index], False)


def fuse_minute(minute: int, i, j, n_i, m_i, v_i, d_m, s_s, stats: SessionStats,
                params: FusionParams = DEFAULT_PARAMS) -> MinuteBatch:
    """Evaluate both utility functions for every row of one minute.

    The rows, one per pair direction in (i, j) order, come as columns named
    like the MinuteBatch fields and go back as one batch in the same order.
    The whole minute enters the session distribution before any label is
    assigned.  Only these records are ever persisted; raw samples never
    leave the pipelines.
    """
    scores = [(propinquity(s, d, m), social_interaction(s, v, d, m, params)) for s, v, d, m
              in zip(s_s.tolist(), v_i.tolist(), d_m.tolist(), m_i.tolist())]
    for p_si in scores:
        stats.add(*p_si)
    labels = [LABELS.index(nearness_label(*p_si, stats)[0]) for p_si in scores]
    p, si = np.array(scores, dtype=np.float64).reshape(-1, 2).T
    return MinuteBatch(np.full(len(scores), minute, dtype=np.int64), i, j, n_i, m_i, v_i,
                       d_m, s_s, p, si, np.array(labels, dtype=np.int64))
