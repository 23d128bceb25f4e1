"""Independent arbitrary-precision mirror of the fusion formulas.

Used to freeze expected values and to gate the float implementation in the
acceptance suite.  Deliberately written against mpmath only, so it shares
no code path with the package.
"""

import math

import mpmath as mp

mp.mp.dps = 50


def propinquity_oracle(s, d, m) -> mp.mpf:
    if d == math.inf or s <= 0:
        return mp.mpf(0)
    return mp.mpf(s) / ((mp.mpf(d) + 1) * mp.mpf(m))


def social_interaction_oracle(s, v, d, m, sigma2=0.75, mu=1.0, s_floor=1.0) -> mp.mpf:
    if d == math.inf or s < s_floor:
        return mp.mpf(0)
    s, v, d, m = mp.mpf(s), mp.mpf(v), mp.mpf(d), mp.mpf(m)
    sigma2, mu, s_floor = mp.mpf(sigma2), mp.mpf(mu), mp.mpf(s_floor)
    sigma = mp.sqrt(sigma2)
    gauss = mp.exp(-((v - mu) ** 2) / (2 * sigma2)) / (sigma * mp.sqrt(2 * mp.pi))
    return mp.log(max(s, s_floor), 10) * gauss / (mp.log(d + 10, 10) * m)


def rel_error(value: float, expected: mp.mpf) -> float:
    if expected == 0:
        return abs(value)
    return float(abs((mp.mpf(value) - expected) / expected))
