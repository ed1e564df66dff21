"""Spherical geometry on arrays: the clamped arccos and the partner maps.

A measurement axis is a point on the unit sphere given in polar
coordinates (epsilon, phi), with epsilon in [0, pi] measured from the
north pole and phi in [0, 2pi).  Given Alice's axis and a separation
angle theta, the possible partner axes for Bob form a circle
parametrized by an angle omega in [0, 2pi).  ``partner_polar_many``
and ``partner_many`` map arrays of (epsilon, phi, omega) to the polar
coordinates of the points on those circles; the Monte Carlo engines
draw the arrays (``correlation.SamplingPlan.draws``) and move Bob with
these maps.  ``partner_cos_many`` is the one formula for the partner's
polar angle: it gives cos(alpha) from cos(epsilon), sin(epsilon) and
cos(omega), which a theta grid computes once per chunk of draws, and
``partner_polar_many`` is its clamped arccos.  A band colouring reads
cos(alpha) directly (``BandColouring.evaluate_cos``), so the band
engine needs no arccos.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# arccos arguments may drift outside [-1, 1] by rounding; excursions up
# to ARCCOS_HARD are clamped, anything larger is a caller bug.  Typical
# drift near band edges is below ARCCOS_SOFT.
ARCCOS_SOFT = 1e-9
ARCCOS_HARD = 1e-6

# Polar angles closer than this to 0 or pi are treated as poles.
POLE_TOL = 1e-12


class NumericalError(ValueError):
    """A quantity left its mathematical range by more than rounding
    allows: a formula or its inputs are wrong, not the caller's
    request."""


def arccos_clamped_array(x: np.ndarray, hard: float = ARCCOS_HARD) -> np.ndarray:
    """arccos with the argument clamped to [-1, 1].

    Excess magnitude up to ``hard`` is clamped away; beyond that a
    :class:`NumericalError` is raised, since errors that large indicate
    a wrong formula rather than rounding noise.
    """
    x = np.asarray(x, dtype=float)
    excess = np.max(np.abs(x), initial=0.0) - 1.0
    if excess > hard:
        raise NumericalError(
            f"arccos argument exceeds [-1, 1] by {excess:.3g} (> {hard})"
        )
    return np.arccos(np.clip(x, -1.0, 1.0))


def partner_cos_many(
    theta: float, cos_eps: np.ndarray, sin_eps: np.ndarray, cos_omega: np.ndarray
) -> np.ndarray:
    """Vectorized cos(alpha) of the partner axis,

        cos alpha = cos theta cos eps - sin theta sin eps cos omega,

    from the trig values of the draws, which do not depend on theta:
    a grid computes them once and calls this for each theta.  The
    result is unclamped; it may leave [-1, 1] by rounding."""
    ct, st = math.cos(theta), math.sin(theta)
    return ct * cos_eps - st * sin_eps * cos_omega


def partner_polar_many(
    theta: float, eps: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Vectorized polar angle alpha of the partner axis: the clamped
    arccos of :func:`partner_cos_many`."""
    return arccos_clamped_array(
        partner_cos_many(theta, np.cos(eps), np.sin(eps), np.cos(omega))
    )


def partner_many(
    theta: float, eps: np.ndarray, phi: np.ndarray, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (alpha, beta) of the partner axis.

    The polar angle of the partner is

        alpha = arccos(cos theta cos eps - sin theta sin eps cos omega)

    and its azimuth is

        beta = [phi + k arccos((cos eps sin theta cos omega
                                + sin eps cos theta) / sin alpha)] mod 2pi,

    where k = +1 for omega in [0, pi] and -1 for omega in (pi, 2pi).
    beta is undefined where the partner sits on a pole (sin alpha = 0);
    those rows get the canonical beta = 0.
    """
    ct, st = math.cos(theta), math.sin(theta)
    sin_eps, cos_eps, cos_omega = np.sin(eps), np.cos(eps), np.cos(omega)
    alpha = arccos_clamped_array(partner_cos_many(theta, cos_eps, sin_eps, cos_omega))
    sin_alpha = np.sin(alpha)
    pole = (alpha < POLE_TOL) | (math.pi - alpha < POLE_TOL)
    safe = np.where(pole, 1.0, sin_alpha)
    num = cos_eps * st * cos_omega + sin_eps * ct
    # Mathematically |num| <= sin_alpha (the quotient is a cosine).  The
    # overflow check is done before dividing: dividing first would let
    # harmless cancellation noise blow past the clamp when sin_alpha is
    # small.
    excess = np.max(np.abs(num) - sin_alpha, where=~pole, initial=-math.inf)
    if excess > ARCCOS_HARD:
        raise NumericalError(
            f"azimuth quotient overflows: |num| exceeds sin(alpha) by {excess:.3g}"
        )
    arg = np.clip(num / safe, -1.0, 1.0)
    k = np.where((omega % TWO_PI) <= math.pi, 1.0, -1.0)
    beta = np.where(pole, 0.0, (phi + k * np.arccos(arg)) % TWO_PI)
    return alpha, beta
