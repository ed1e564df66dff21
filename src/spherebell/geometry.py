"""Spherical geometry on arrays: the clamped arccos and the partner maps.

An axis is a unit vector, in Cartesian coordinates (x, y, z) or polar
ones (epsilon from the north pole, phi).  Bob's possible axes at angle
theta from Alice's axis a form a circle parametrized by omega, and Bob
moves as the vector

    b = cos theta a + sin theta u,   u = cos omega s + sin omega e,

with s and e the south- and east-pointing unit tangents at a.  The
Monte Carlo engines draw cos(epsilon), phi and omega once per chunk
(``correlation.SamplingPlan.draws``) and keep cos(epsilon) as drawn,
with sin(epsilon) = sqrt((1 - cos) (1 + cos)), so no trig call undoes
an arccos; the cosines and sines of phi and omega come from numpy's
vectorised tan by the half-angle formulas (``half_angle_cos_sin``),
within a stated bound of libm's.  ``partner_frame`` forms a and u from
the cosines and sines of the three angles, and ``partner_many`` moves
Bob per theta.  An azimuthally symmetric colouring needs only
b_z = cos(alpha): ``partner_cos_many`` gives it from cos(epsilon),
sin(epsilon) and cos(omega), and ``partner_polar_many`` is its clamped
arccos.  Alice is read by the same rule at theta = 0, where b = a and
b_z = cos(epsilon).
"""

from __future__ import annotations

import math

import numpy as np

# arccos arguments may drift outside [-1, 1] by rounding; excursions up
# to ARCCOS_HARD are clamped, anything larger is a caller bug
ARCCOS_HARD = 1e-6


class NumericalError(ValueError):
    """A quantity left its mathematical range by more than rounding
    allows: a formula or its inputs are wrong, not the caller's
    request."""


def clamp_cos(x: np.ndarray) -> np.ndarray:
    """A cosine clamped to [-1, 1].

    Excess magnitude up to ``ARCCOS_HARD`` is clamped away; beyond that
    a :class:`NumericalError` is raised, since errors that large
    indicate a wrong formula rather than rounding noise.  A nan passes
    through as nan and hides no other entry's excess.
    """
    x = np.asarray(x, dtype=float)
    # fmax skips nan, where max would return it and pass every check
    excess = np.fmax.reduce(np.abs(x), axis=None, initial=0.0) - 1.0
    if excess > ARCCOS_HARD:
        raise NumericalError(
            f"cosine exceeds [-1, 1] by {excess:.3g} (> {ARCCOS_HARD})"
        )
    return np.clip(x, -1.0, 1.0)


def arccos_clamped_array(x: np.ndarray) -> np.ndarray:
    """arccos of :func:`clamp_cos`."""
    return np.arccos(clamp_cos(x))


def unit_vectors(eps: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The unit vectors at polar coordinates (eps, phi), as a (3, ...)
    array of Cartesian coordinates."""
    eps, phi = np.broadcast_arrays(
        np.asarray(eps, dtype=float), np.asarray(phi, dtype=float)
    )
    sin_eps = np.sin(eps)
    return np.array([sin_eps * np.cos(phi), sin_eps * np.sin(phi), np.cos(eps)])


def cos_sin(*angles: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cosine and sine of each angle array in turn: for the angles
    (eps, phi, omega), the arguments of :func:`partner_frame`."""
    return tuple(f(v) for v in angles for f in (np.cos, np.sin))


# |half_angle_cos_sin - (np.cos, np.sin)| on angles in [0, 2pi); 2.22e-16
# was measured over 2e7 uniform angles under numpy's AVX-512 loop and
# with it switched off
HALF_ANGLE_TOL = 2.3e-16


def half_angle_cos_sin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos x, sin x) = ((1 - t^2) / (1 + t^2), 2 t / (1 + t^2)) with
    t = tan(x / 2), for the angles of the Monte Carlo draws.

    numpy takes float64 ``np.tan`` from its AVX-512 loop where the CPU
    has one, but ``np.cos`` and ``np.sin`` element by element from libm,
    so this is several times as fast as :func:`cos_sin` there (and, on
    libm's tan, still about a third faster).  It lies within
    ``HALF_ANGLE_TOL`` of :func:`cos_sin` on [0, 2pi), and 0 gives
    (1, 0) exactly; the last bits follow numpy's tan loop, so they may
    differ between CPUs.  It works in place, with one scratch array
    beside the two results."""
    t = np.multiply(x, 0.5)
    np.tan(t, out=t)
    d = np.multiply(t, t)
    cos = np.subtract(1.0, d)
    d += 1.0
    cos /= d
    t += t
    t /= d
    return cos, t


def partner_frame(
    cos_eps: np.ndarray,
    sin_eps: np.ndarray,
    cos_phi: np.ndarray,
    sin_phi: np.ndarray,
    cos_omega: np.ndarray,
    sin_omega: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's axis a at (eps, phi) and the unit tangent u at a towards
    the position omega on her partner circle, each a (3, n) array, from
    the cosines and sines of the three angles."""
    a = np.array([sin_eps * cos_phi, sin_eps * sin_phi, cos_eps])
    # cos omega s + sin omega e, with s = (cos eps cos phi, cos eps sin phi,
    # -sin eps) and e = (-sin phi, cos phi, 0)
    u = np.array(
        [
            cos_omega * cos_eps * cos_phi - sin_omega * sin_phi,
            cos_omega * cos_eps * sin_phi + sin_omega * cos_phi,
            -cos_omega * sin_eps,
        ]
    )
    return a, u


def partner_many(theta: float, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bob's axes b = cos theta a + sin theta u, a (3, n) array, from
    the frame of :func:`partner_frame`."""
    return math.cos(theta) * a + math.sin(theta) * u


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
