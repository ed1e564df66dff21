"""The per-theta scalar sum of the exact engine, kept as a test oracle.

One theta at a time, in Python floats and the ``math`` module: the
pieces between the sorted distinct breakpoints {0, pi/2, t, v, t - v,
t + v} in [0, pi/2], then, flip by flip, the chi terms of the runs
between the flips strictly inside the flip's window, each chi from the
spherical-triangle antiderivative Phi.  Only the nonzero pieces and
runs are visited, in the order of that list.  The library evaluates
every theta of an array at once, with the breakpoints clipped and
zero-width pieces and runs masked, and must return these values bit
for bit wherever numpy's float64 sin, cos and sqrt round as libm's do.

Every function takes the atan2 of the triangle angles as ``atan2``.
The default is numpy's ``arctan2``, whose scalar calls round as its
array loop does, as the library takes it; ``math.atan2`` gives the
values of libm's atan2, which the library's stated error bound is
measured against.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np

PI = math.pi
HALF_PI = PI / 2


def _triangle_angle(sin_s, sin_x, sin_y, sin_z, atan2):
    opposite = math.sqrt(max(sin_y, 0.0)) * math.sqrt(max(sin_z, 0.0))
    adjacent = math.sqrt(max(sin_s, 0.0)) * math.sqrt(max(sin_x, 0.0))
    return 2.0 * float(atan2(opposite, adjacent))


def phi(theta, beta, alpha, atan2=np.arctan2):
    """Phi(beta) of ``spherebell.correlation.chi``."""
    if beta > HALF_PI:
        reflected = phi(theta, PI - beta, PI - alpha, atan2)
        return reflected + 2.0 * math.cos(alpha) - 2.0 * math.cos(beta)
    if beta == 0.0:
        return 0.0
    d = alpha - theta
    sin_s = math.sin(0.5 * (alpha + beta + theta))
    sin_alpha = math.sin(0.5 * (beta - d))
    sin_theta = math.sin(0.5 * (beta + d))
    sin_beta = math.sin(0.5 * (alpha + theta - beta))
    at_n = _triangle_angle(sin_s, sin_alpha, sin_beta, sin_theta, atan2)
    at_p = _triangle_angle(sin_s, sin_beta, sin_alpha, sin_theta, atan2)
    at_x = _triangle_angle(sin_s, sin_theta, sin_alpha, sin_beta, atan2)
    cb = math.cos(beta)
    return (2.0 / PI) * (at_x + math.cos(alpha) * at_p + cb * at_n) - 2.0 * cb


def chi(theta, a, b, alpha, atan2=np.arctan2):
    """chi over a window-interior interval, 0 if narrower than 1e-14."""
    if abs(b - a) < 1e-14:
        return 0.0
    return phi(theta, b, alpha, atan2) - phi(theta, a, alpha, atan2)


def exact_value(t, north, flips, atan2=np.arctan2):
    """C(t) for t in (0, pi/2] of the colouring with north-pole value
    ``north`` and sorted colour flips ``flips`` in (0, pi)."""
    level = [north if k % 2 == 0 else -north for k in range(len(flips) + 1)]
    breaks = {0.0, HALF_PI, t, *flips}
    for v in flips:
        breaks.update((t - v, t + v))
    cuts = sorted(x for x in breaks if 0.0 <= x <= HALF_PI)
    total = 0.0
    p, cos_p = 0.0, 1.0
    for q in cuts[1:]:
        cos_q = math.cos(q)
        m = 0.5 * (p + q)
        here = level[bisect_right(flips, m)]
        total += here * level[bisect_right(flips, abs(t - m))] * (cos_p - cos_q)
        p, cos_p = q, cos_q
    for i, v in enumerate(flips):
        lo, hi = abs(v - t), min(v + t, HALF_PI)
        if lo >= hi:
            continue
        j, k = bisect_right(flips, lo), bisect_left(flips, hi)
        bounds = [lo, *flips[j:k], hi]
        for r in range(len(bounds) - 1):
            run = level[i + 1] * level[j + r]
            total += run * chi(t, bounds[r], bounds[r + 1], v, atan2)
    return -total
