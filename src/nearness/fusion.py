"""Fusion of the pipeline outputs into nearness scores and labels.

Two utility functions are evaluated for every pair each minute:

* propinquity        p  = s / ((d + 1) * m)
* social interaction si = log10(s) * G(v) / (log10(d + 10) * m)

where s is the social strength in seconds, d the smoothed relative distance
in meters, m the motion code (1 stationary, 2 moving), and G a Gaussian
weight centred on the target sound class.  Both are zero whenever the pair
has no strength or no fresh distance estimate (d is ``inf``).  The
qualitative nearness label is derived from the session's empirical terciles
of p and si.  `propinquity` and `social_interaction` are array kernels: they
score whole columns (or scalars, giving a numpy float64) and mask the rows
the scalar definitions zero with the same comparisons.  The logarithms are
`math.log10`, one call per value, and G is the scalar expression taken once
per distinct v, because `np.log10` and `math.log10` differ in the last bit
on some inputs.  The engine scores the whole run's rows with one call to
each kernel; `fuse_minute` then takes one minute's scores at a time, merges
them into the session's sorted score arrays and labels the minute with one
`np.searchsorted` per score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def propinquity(s, d, m):
    """Long-term tie score: grows with strength, shrinks with distance/motion."""
    s, d, m = np.broadcast_arrays(np.asarray(s, dtype=np.float64),
                                  np.asarray(d, dtype=np.float64), m)
    p = np.zeros(s.shape)
    live = ~((d == np.inf) | (s <= 0.0))
    p[live] = s[live] / ((d[live] + 1.0) * m[live])
    return p[()]


def _gauss(v, params: FusionParams) -> float:
    """Gaussian weight G(v) of one sound class."""
    sigma = math.sqrt(params.sigma2)
    return math.exp(-((v - params.mu) ** 2) / (2.0 * params.sigma2)) \
        / (sigma * math.sqrt(2.0 * math.pi))


def _log10(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log10, x.tolist()), dtype=np.float64, count=len(x))


def social_interaction(s, v, d, m, params: FusionParams = DEFAULT_PARAMS):
    """Instantaneous interaction score, Gaussian-weighted by sound class."""
    s, v, d, m = np.broadcast_arrays(np.asarray(s, dtype=np.float64), v,
                                     np.asarray(d, dtype=np.float64), m)
    si = np.zeros(s.shape)
    live = ~((d == np.inf) | (s < params.s_floor))     # so s >= s_floor, or NaN
    if live.any():
        levels, level = np.unique(v[live], return_inverse=True)
        gauss = np.array([_gauss(x, params) for x in levels.tolist()])[level]
        si[live] = (_log10(s[live]) * gauss) / (_log10(d[live] + 10.0) * m[live])
    return si[()]


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


def fuse_minute(p: np.ndarray, si: np.ndarray, stats: SessionStats) -> np.ndarray:
    """Label one minute's scored rows: label codes, one per row, in row order.

    The whole minute enters the session distribution before any label is
    assigned.
    """
    stats.add(p, si)
    labels, _provisional = nearness_label(p, si, stats)
    return labels
