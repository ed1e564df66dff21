"""Spherical geometry: measurement directions, partner axes, pair sampling.

A measurement axis is a point on the unit sphere given in polar
coordinates (epsilon, phi), with epsilon in [0, pi] measured from the
north pole and phi in [0, 2pi).  Given Alice's axis and a separation
angle theta, the set of possible partner axes for Bob is a circle
parametrized by an angle omega in [0, 2pi]; ``partner_direction``
computes the polar coordinates of the point on that circle, and
``sample_axis_pair`` draws (axis, partner) pairs with the axis uniform
over the sphere and omega uniform over the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def arccos_clamped(x: float, hard: float = ARCCOS_HARD) -> float:
    """arccos with the argument clamped to [-1, 1].

    Excess magnitude up to ``hard`` is clamped away; beyond that a
    :class:`NumericalError` is raised, since errors that large indicate
    a wrong formula rather than rounding noise.
    """
    if x > 1.0:
        if x > 1.0 + hard:
            raise NumericalError(
                f"arccos argument {x!r} exceeds 1 by more than {hard}"
            )
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - hard:
            raise NumericalError(
                f"arccos argument {x!r} is below -1 by more than {hard}"
            )
        x = -1.0
    return math.acos(x)


def arccos_clamped_array(x: np.ndarray, hard: float = ARCCOS_HARD) -> np.ndarray:
    """Vectorized :func:`arccos_clamped`."""
    x = np.asarray(x, dtype=float)
    excess = np.max(np.abs(x), initial=0.0) - 1.0
    if excess > hard:
        raise NumericalError(
            f"arccos argument exceeds [-1, 1] by {excess:.3g} (> {hard})"
        )
    return np.arccos(np.clip(x, -1.0, 1.0))


@dataclass(frozen=True)
class Direction:
    """A point on the unit sphere in polar coordinates.

    epsilon is the polar angle in [0, pi]; phi the azimuth, normalized
    into [0, 2pi) and canonicalized to 0 at the poles, where the
    azimuth is degenerate.
    """

    epsilon: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        if not 0.0 <= eps <= math.pi:
            raise ValueError(f"polar angle {eps!r} outside [0, pi]")
        phi = float(self.phi) % TWO_PI
        if eps < POLE_TOL or math.pi - eps < POLE_TOL:
            phi = 0.0
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "phi", phi)

    def as_vector(self) -> np.ndarray:
        """Cartesian unit vector (x, y, z)."""
        s = math.sin(self.epsilon)
        return np.array(
            [s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.epsilon)]
        )

    @staticmethod
    def from_vector(v: np.ndarray) -> "Direction":
        """Direction of a nonzero Cartesian vector."""
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        eps = math.acos(min(1.0, max(-1.0, v[2] / norm)))
        phi = math.atan2(v[1], v[0])
        return Direction(eps, phi)


def angle_between(a: Direction, b: Direction) -> float:
    """Angle in radians between two directions: arccos of the dot product."""
    return arccos_clamped(float(np.dot(a.as_vector(), b.as_vector())))


def _angle_stable(a: Direction, b: Direction) -> float:
    """Angle via atan2(|a x b|, a.b); accurate near 0 and pi as well."""
    va, vb = a.as_vector(), b.as_vector()
    cross = float(np.linalg.norm(np.cross(va, vb)))
    return math.atan2(cross, float(np.dot(va, vb)))


@dataclass(frozen=True)
class AxisPair:
    """A pair of measurement axes at a fixed separation theta.

    The constructor checks that the realized angle matches theta to
    1e-12 rad, using the stable atan2 form of the angle.  Pairs built by
    ``partner_direction`` satisfy this except within ~1e-7 of a pole,
    where the conditioning of arccos genuinely limits the accuracy of
    polar coordinates.
    """

    a: Direction
    b: Direction
    theta: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"separation {theta!r} outside [0, pi]")
        realized = _angle_stable(self.a, self.b)
        if abs(realized - theta) > 1e-12:
            raise ValueError(
                f"axes are separated by {realized!r}, not theta={theta!r}"
            )
        object.__setattr__(self, "theta", theta)


def antipode(d: Direction) -> Direction:
    """The opposite point of the sphere: (pi - epsilon, phi + pi)."""
    return Direction(math.pi - d.epsilon, (d.phi + math.pi) % TWO_PI)


def partner_direction(a: Direction, theta: float, omega: float) -> Direction:
    """Partner axis at separation theta, position omega on the circle.

    The polar angle of the partner is

        alpha = arccos(cos theta cos eps - sin theta sin eps cos omega)

    and its azimuth is

        beta = [phi + k arccos((cos eps sin theta cos omega
                                + sin eps cos theta) / sin alpha)] mod 2pi,

    where k = +1 for omega in [0, pi] and -1 for omega in (pi, 2pi].
    beta is undefined when the partner sits at a pole (sin alpha = 0);
    the canonical phi = 0 pole is returned there.
    """
    theta = float(theta)
    omega = float(omega)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"separation {theta!r} outside [0, pi]")
    if theta < POLE_TOL:
        return a
    if math.pi - theta < POLE_TOL:
        return antipode(a)

    eps, phi = a.epsilon, a.phi
    cos_alpha = math.cos(theta) * math.cos(eps) - math.sin(theta) * math.sin(
        eps
    ) * math.cos(omega)
    alpha = arccos_clamped(cos_alpha)
    sin_alpha = math.sin(alpha)
    if alpha < POLE_TOL or math.pi - alpha < POLE_TOL:
        return Direction(0.0 if alpha < POLE_TOL else math.pi, 0.0)

    num = math.cos(eps) * math.sin(theta) * math.cos(omega) + math.sin(eps) * math.cos(
        theta
    )
    # Mathematically |num| <= sin_alpha (the quotient is a cosine).  The
    # overflow check is done before dividing: dividing first would let
    # harmless cancellation noise blow past the clamp when sin_alpha is
    # small.
    if abs(num) - sin_alpha > ARCCOS_HARD:
        raise NumericalError(
            f"azimuth quotient overflows: |{num!r}| > sin(alpha)={sin_alpha!r}"
        )
    arg = min(1.0, max(-1.0, num / sin_alpha))
    k = 1.0 if omega % TWO_PI <= math.pi else -1.0
    beta = (phi + k * math.acos(arg)) % TWO_PI
    return Direction(alpha, beta)


def sample_axis_pair(theta: float, rng: np.random.Generator) -> AxisPair:
    """Draw one axis pair at separation theta.

    The first axis is uniform over the sphere (cos eps uniform on
    [-1, 1], phi uniform on [0, 2pi)); the circle angle omega is uniform
    on [0, 2pi).
    """
    cos_eps = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, TWO_PI)
    omega = rng.uniform(0.0, TWO_PI)
    a = Direction(math.acos(cos_eps), phi)
    b = partner_direction(a, theta, omega)
    return AxisPair(a, b, theta)


def partner_polar_many(
    theta: float, eps: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Vectorized polar angle alpha of the partner axis."""
    ct, st = math.cos(theta), math.sin(theta)
    return arccos_clamped_array(ct * np.cos(eps) - st * np.sin(eps) * np.cos(omega))


def partner_many(
    theta: float, eps: np.ndarray, phi: np.ndarray, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (alpha, beta) of the partner axis.

    Matches ``partner_direction`` pointwise; rows whose partner falls on
    a pole get the canonical beta = 0.
    """
    ct, st = math.cos(theta), math.sin(theta)
    sin_eps, cos_eps = np.sin(eps), np.cos(eps)
    alpha = arccos_clamped_array(ct * cos_eps - st * sin_eps * np.cos(omega))
    sin_alpha = np.sin(alpha)
    pole = (alpha < POLE_TOL) | (math.pi - alpha < POLE_TOL)
    safe = np.where(pole, 1.0, sin_alpha)
    num = cos_eps * st * np.cos(omega) + sin_eps * ct
    # rounding can push |num| marginally past sin_alpha near the poles
    arg = np.clip(num / safe, -1.0, 1.0)
    k = np.where((omega % TWO_PI) <= math.pi, 1.0, -1.0)
    beta = np.where(pole, 0.0, (phi + k * np.arccos(arg)) % TWO_PI)
    return alpha, beta
