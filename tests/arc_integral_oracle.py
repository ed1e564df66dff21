"""The numpy outer integrand of the quadrature engine, kept as a test oracle.

Per outer node it reads the colour at eps and at the midpoint of every
inner arc from ``evaluate_polar``, finds the flips inside the partner's
polar window with ``searchsorted``, and takes the arcs' omegas with
numpy's arccos and their signed total with ``np.sum``.  The library's
array integrand reads the same colours from the parity of the flips
below each angle, and sums pi a(|theta - eps|) + 2 sum_v s_v omega_v
over the flips instead of the arcs, so the two agree to rounding (a few
ulp), not bit for bit.  They part in two null sets of the outer
integral: at a flip itself, where a colouring's tie-break convention
and the flip parity may disagree, and where theta + eps or
|theta - eps| lies one ulp from a flip, where the oracle's midpoint of
the one-ulp arc can round onto the flip and read its tie-break instead
of the arc's colour.
"""

import math

import numpy as np

from spherebell.geometry import arccos_clamped_array

PI = math.pi


def inner_arc_integral(theta, eps, edges, colour_at):
    """int_0^pi a[alpha(theta, eps, omega)] d omega, analytically.

    As omega runs 0 -> pi the partner's polar angle alpha falls
    monotonically from theta + eps to |theta - eps|, so the integral is
    a signed sum of arcs between the crossings of the colouring's edge
    values, each crossing at
    omega = arccos((cos theta cos eps - cos v) / (sin theta sin eps)).
    """
    st, se = math.sin(theta), math.sin(eps)
    ct, ce = math.cos(theta), math.cos(eps)
    denom = st * se
    if denom < 1e-14:
        # collapsed circle: alpha is constant (removable limit)
        return PI * float(colour_at(arccos_clamped_array(np.array([ct * ce])))[0])
    lo, hi = abs(theta - eps), theta + eps
    i0, i1 = np.searchsorted(edges, lo, side="right"), np.searchsorted(
        edges, hi, side="left"
    )
    cuts = edges[i0:i1]
    if cuts.size:
        omegas = np.arccos(np.clip((ct * ce - np.cos(cuts)) / denom, -1.0, 1.0))
        # alpha decreasing in omega: descending cuts give ascending omegas
        bounds = np.concatenate(([0.0], omegas[::-1], [PI]))
        alphas = np.concatenate(([hi], cuts[::-1], [lo]))
    else:
        bounds = np.array([0.0, PI])
        alphas = np.array([hi, lo])
    mids = 0.5 * (alphas[:-1] + alphas[1:])
    return float(np.sum(colour_at(mids) * np.diff(bounds)))


def integrand(c, theta, north, flips):
    """The outer integrand eps -> sin(eps) a(eps) int_0^pi a[alpha] d omega
    of ``correlation_quadrature(c, theta)`` at one node (``north`` is not
    read)."""
    edges = np.array(flips)
    colour_at = c.evaluate_polar

    def f(eps):
        a_here = float(colour_at(np.array([eps]))[0])
        return math.sin(eps) * a_here * inner_arc_integral(theta, eps, edges, colour_at)

    return f
