"""Reference symmetry of a pair's two directions, one minute at a time.

This is the rule `analyze` used before `engine.symmetry` became the one
symmetry rule of the report and `analyze`: each direction's (minute, value)
rows go into a per-minute dict that keeps the finite values, the two dicts
are matched on their common minutes in minute order, and the Pearson
correlation of the matched values is taken, or None when fewer than two
minutes match or either side is constant over them.  It carries its own
copy of the correlation, so it shares no code with what it checks.
"""

from __future__ import annotations

import numpy as np


def _pearson(a: list[float], b: list[float]) -> float | None:
    if len(a) < 2 or len(a) != len(b):
        return None
    x, y = np.asarray(a), np.asarray(b)
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def _finite_by_minute(rows) -> dict[int, float]:
    """{minute: value} over the (minute, value) rows whose value is finite."""
    return {m: float(v) for m, v in rows if v != float("inf")}


def symmetry_by_minute(forward_rows, reverse_rows) -> float | None:
    """Symmetry of two directions given as (minute, value) rows."""
    forward, reverse = _finite_by_minute(forward_rows), _finite_by_minute(reverse_rows)
    both = sorted(forward.keys() & reverse.keys())
    return _pearson([forward[m] for m in both], [reverse[m] for m in both])
