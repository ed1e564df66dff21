"""The scalar quadrature engine that the array engine replaced, kept as
a test oracle.

``integrand`` is the outer integrand in Python floats, one node per
call, and ``correlation_quadrature`` integrates it with scipy's QUADPACK
``quad`` over today's mandatory breakpoints.  QUADPACK picks its own
nodes and error estimate, independently of the array engine's
cosine-mapped Gauss-Kronrod pieces, so the two agree to their
tolerances, not bit for bit.
"""

import math
from bisect import bisect_left, bisect_right
from typing import Callable

import numpy as np
from scipy.integrate import quad

from spherebell.colourings import Colouring, ColouringPair
from spherebell.correlation import (
    HALF_PI,
    PI,
    SNAP,
    QuadratureError,
    _first_party,
    _flips_of,
)
from spherebell.geometry import arccos_clamped_array


def integrand(
    c: Colouring, theta: float, north: int, flips: tuple[float, ...]
) -> Callable[[float], float]:
    """The outer integrand eps -> sin(eps) a(eps) int_0^pi a[alpha] d omega
    of :func:`correlation_quadrature`, in Python floats.

    ``north`` and ``flips`` are ``_flips_of(c)``.  Consecutive flips
    alternate, so the colour at a polar angle x is north times
    (-1)^(number of flips <= x), and at a flip itself the colour above
    it.  As omega runs 0 -> pi the partner's polar angle alpha falls
    monotonically from theta + eps to |theta - eps|, so the inner
    integral is a signed sum of arcs whose colour changes at each flip
    v strictly inside that window, crossed at
    omega = arccos((cos theta cos eps - cos v) / (sin theta sin eps)).
    """
    cos_flips = [math.cos(v) for v in flips]
    st, ct = math.sin(theta), math.cos(theta)

    def f(eps: float) -> float:
        se, ce = math.sin(eps), math.cos(eps)
        a_here = -north if bisect_right(flips, eps) % 2 else north
        denom = st * se
        if denom < 1e-14:
            # collapsed circle: alpha is constant (removable limit)
            alpha = arccos_clamped_array(np.array([ct * ce]))
            return se * a_here * (PI * float(c.evaluate_polar(alpha)[0]))
        i0 = bisect_right(flips, abs(theta - eps))
        i1 = bisect_left(flips, theta + eps)
        # the first arc lies above the i1 flips below theta + eps, and
        # descending flips are crossed at ascending omegas
        colour = -north if i1 % 2 else north
        x = ct * ce
        inner = start = 0.0
        for cos_v in reversed(cos_flips[i0:i1]):
            omega = math.acos(min(max((x - cos_v) / denom, -1.0), 1.0))
            inner += colour * (omega - start)
            colour, start = -colour, omega
        inner += colour * (PI - start)
        return se * a_here * inner

    return f


def correlation_quadrature(
    c: Colouring | ColouringPair, theta: float, tol: float = 1e-8
) -> float:
    """Deterministic C(theta) for an anticorrelated azimuthal pair, by
    QUADPACK's adaptive ``quad`` over :func:`integrand`."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"quadrature tolerance {tol!r} must be finite and positive")
    c = _first_party(c)
    theta = float(theta)
    if not SNAP < theta <= HALF_PI + SNAP:
        raise ValueError(f"theta {theta!r} outside (0, pi/2]")
    theta = min(theta, HALF_PI)
    north, flips = _flips_of(c)
    breaks = {theta}
    for v in flips:
        for candidate in (v, v - theta, theta - v, v + theta):
            breaks.add(candidate)
    # coincident candidates land one ulp apart (theta = pi/4 makes
    # theta - pi/6 and pi/3 - theta the same point for the three-band
    # colouring) and the sliver between them wrecks the subdivision
    pts: list[float] = []
    for candidate in sorted(breaks):
        if not 1e-12 < candidate < HALF_PI - 1e-12:
            continue
        if pts and candidate - pts[-1] < 1e-9:
            continue
        pts.append(candidate)
    result, abserr, info, *tail = quad(
        integrand(c, theta, north, flips),
        0.0,
        HALF_PI,
        points=pts,
        limit=max(200, 20 * len(pts) + 50),
        epsabs=tol,
        epsrel=0.0,
        full_output=1,
    )
    if tail:
        raise QuadratureError(
            f"outer integral did not converge: {tail[0]}", best_estimate=-result / PI
        )
    return -result / PI
