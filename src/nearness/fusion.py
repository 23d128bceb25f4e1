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
functions below (kept scalar because `math.log10` and `np.log10` differ in
the last bit on some inputs), merges the minute into the session's sorted
score arrays, labels the whole batch with one `np.searchsorted` per score,
and returns it as one MinuteBatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import MinuteBatch

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
    """Empirical distribution of p and si over the session so far: one
    sorted array per score, merged one minute batch at a time."""

    def __init__(self):
        self.p = np.empty(0, dtype=np.float64)
        self.si = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.p)

    def add(self, p: np.ndarray, si: np.ndarray) -> None:
        """Merge one minute's scores into the distribution."""
        self.p, self.si = _merged(self.p, p), _merged(self.si, si)


def _merged(values: np.ndarray, batch: np.ndarray) -> np.ndarray:
    # the batch must be sorted itself for the insert to keep `values` sorted
    batch = np.sort(batch)
    return np.insert(values, np.searchsorted(values, batch), batch)


def tercile_ranks(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rank 0/1/2 of each score in `x` against the sorted history `values`.

    The rank goes by the fraction of the history strictly below x, so ties
    (heavy runs of zeros included) sink to the bottom band.
    """
    frac = np.searchsorted(values, x, side="left") / len(values)
    return (frac >= 2.0 / 3.0).astype(np.int64) + (frac >= 1.0 / 3.0)


def nearness_label(p: np.ndarray, si: np.ndarray,
                   stats: SessionStats) -> tuple[np.ndarray, bool]:
    """Map (p, si) rows onto label codes (indices into LABELS) by session terciles.

    Each score is ranked 0/1/2 against the session distribution and the
    label index is floor of their mean.  With fewer than 10 records on file
    the ranks are not trustworthy yet: every label is Low and the batch is
    flagged provisional.
    """
    if len(stats) < MIN_RECORDS_FOR_RANKING:
        return (np.zeros(len(p), dtype=np.int64), True)     # code 0 is Low
    return ((tercile_ranks(stats.p, p) + tercile_ranks(stats.si, si)) // 2, False)


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
    p, si = np.array(scores, dtype=np.float64).reshape(-1, 2).T
    stats.add(p, si)
    labels, _provisional = nearness_label(p, si, stats)
    return MinuteBatch(np.full(len(scores), minute, dtype=np.int64), i, j, n_i, m_i, v_i,
                       d_m, s_s, p, si, labels)
