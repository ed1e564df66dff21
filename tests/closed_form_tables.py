"""The hand-written piecewise closed forms, kept as a test oracle.

Each piece is a sum of cosines plus signed ``chi`` terms, written out by
hand for one catalogue colouring on one theta interval: colourings 2, 3
and 4 on all of [0, pi/2], and the deformed family 3_delta on
[pi/3, pi/2] only (branch tables split on the sign of delta).  The
library derives the same pieces from a colouring's edge set; these
tables were derived independently and must agree with it.
"""

import math

from spherebell.correlation import chi

PI = math.pi
SNAP = 1e-12

# theta interval on which the 3_delta tables are defined
DEFORMED_DOMAIN = (PI / 3, PI / 2)


def _c2_piece1(t: float, X) -> float:
    return (
        -1.0
        + 2.0 * (math.cos(PI / 4) - math.cos(PI / 4 + t))
        + X(PI / 4 - t, PI / 4, PI / 4)
        - X(PI / 4, PI / 4 + t, PI / 4)
        + X(PI / 2 - t, PI / 2, PI / 2)
    )


def _c2_piece2(t: float, X) -> float:
    return (
        1.0
        + 2.0 * (math.cos(PI / 4) - math.cos(t - PI / 4))
        + X(t - PI / 4, PI / 4, PI / 4)
        - X(PI / 2 - t, PI / 4, PI / 2)
        + X(PI / 4, PI / 2, PI / 2)
        - X(PI / 4, PI / 2, PI / 4)
        - X(3 * PI / 4 - t, PI / 2, 3 * PI / 4)
    )


def _c3_piece1(t: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(PI / 6)
            - math.cos(PI / 6 + t)
            + math.cos(PI / 3)
            - math.cos(PI / 3 + t)
        )
        + X(PI / 6 - t, PI / 6, PI / 6)
        - X(PI / 6, PI / 6 + t, PI / 6)
        + X(PI / 3 - t, PI / 3, PI / 3)
        - X(PI / 3, PI / 3 + t, PI / 3)
        + X(PI / 2 - t, PI / 2, PI / 2)
    )


def _c3_piece2(t: float, X) -> float:
    return (
        1.0
        + 2.0
        * (
            math.cos(PI / 6)
            - math.cos(t - PI / 6)
            + math.cos(PI / 6 + t)
            - math.cos(PI / 3)
        )
        + X(t - PI / 6, PI / 6, PI / 6)
        - X(PI / 3 - t, PI / 6, PI / 3)
        + X(PI / 6, PI / 2 - t, PI / 3)
        - X(PI / 6, PI / 3, PI / 6)
        + X(PI / 2 - t, PI / 3, PI / 3)
        - X(PI / 2 - t, PI / 3, PI / 2)
        + X(PI / 3, PI / 6 + t, PI / 6)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        - X(2 * PI / 3 - t, PI / 2, 2 * PI / 3)
    )


def _c3_piece3(t: float, X) -> float:
    return (
        1.0
        + 2.0
        * (
            math.cos(PI / 6)
            - math.cos(t - PI / 6)
            + math.cos(PI / 6 + t)
            - math.cos(PI / 3)
        )
        - X(PI / 3 - t, PI / 6, PI / 3)
        + X(t - PI / 6, PI / 6, PI / 6)
        + X(PI / 6, PI / 3, PI / 3)
        - X(PI / 6, PI / 3, PI / 6)
        - X(PI / 2 - t, PI / 3, PI / 2)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        + X(PI / 3, PI / 6 + t, PI / 6)
        - X(2 * PI / 3 - t, PI / 2, 2 * PI / 3)
    )


def _c3_piece4(t: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(t - PI / 3)
            - math.cos(PI / 6)
            + math.cos(t - PI / 6)
            - math.cos(PI / 3)
        )
        - X(t - PI / 3, PI / 6, PI / 3)
        + X(PI / 2 - t, PI / 6, PI / 2)
        + X(PI / 6, PI / 3, PI / 3)
        - X(PI / 6, PI / 3, PI / 2)
        - X(t - PI / 6, PI / 3, PI / 6)
        + X(2 * PI / 3 - t, PI / 3, 2 * PI / 3)
        - X(PI / 3, PI / 2, 2 * PI / 3)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        + X(PI / 3, PI / 2, PI / 6)
        + X(5 * PI / 6 - t, PI / 2, 5 * PI / 6)
    )


def _c4_piece1(t: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(PI / 8)
            - math.cos(PI / 8 + t)
            + math.cos(PI / 4)
            - math.cos(PI / 4 + t)
            + math.cos(3 * PI / 8)
            - math.cos(3 * PI / 8 + t)
        )
        + X(PI / 8 - t, PI / 8, PI / 8)
        - X(PI / 8, PI / 8 + t, PI / 8)
        + X(PI / 4 - t, PI / 4, PI / 4)
        - X(PI / 4, PI / 4 + t, PI / 4)
        + X(3 * PI / 8 - t, 3 * PI / 8, 3 * PI / 8)
        - X(3 * PI / 8, 3 * PI / 8 + t, 3 * PI / 8)
        + X(PI / 2 - t, PI / 2, PI / 2)
    )


def _c4_piece2(t: float, X) -> float:
    return (
        1.0
        + 2.0
        * (
            math.cos(PI / 8)
            - math.cos(t - PI / 8)
            + math.cos(t + PI / 8)
            - math.cos(PI / 4)
            + math.cos(t + PI / 4)
            - math.cos(3 * PI / 8)
        )
        + X(t - PI / 8, PI / 8, PI / 8)
        - X(PI / 4 - t, PI / 8, PI / 4)
        + X(PI / 8, PI / 4, PI / 4)
        - X(PI / 8, PI / 4, PI / 8)
        - X(3 * PI / 8 - t, PI / 4, 3 * PI / 8)
        + X(PI / 4, PI / 8 + t, PI / 8)
        + X(PI / 4, 3 * PI / 8, 3 * PI / 8)
        - X(PI / 4, 3 * PI / 8, PI / 4)
        - X(PI / 2 - t, 3 * PI / 8, PI / 2)
        + X(3 * PI / 8, PI / 4 + t, PI / 4)
        + X(3 * PI / 8, PI / 2, PI / 2)
        - X(3 * PI / 8, PI / 2, 3 * PI / 8)
        - X(5 * PI / 8 - t, PI / 2, 5 * PI / 8)
    )


def _c4_piece3(t: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(t - PI / 4)
            - math.cos(PI / 8)
            + math.cos(t - PI / 8)
            - math.cos(PI / 4)
            + math.cos(3 * PI / 8)
            - math.cos(t + PI / 8)
        )
        - X(t - PI / 4, PI / 8, PI / 4)
        + X(3 * PI / 8 - t, PI / 8, 3 * PI / 8)
        - X(PI / 8, PI / 4, 3 * PI / 8)
        + X(PI / 8, PI / 4, PI / 4)
        - X(t - PI / 8, PI / 4, PI / 8)
        + X(PI / 2 - t, PI / 4, PI / 2)
        - X(PI / 4, 3 * PI / 8, PI / 2)
        + X(PI / 4, 3 * PI / 8, 3 * PI / 8)
        - X(PI / 4, 3 * PI / 8, PI / 4)
        + X(PI / 4, 3 * PI / 8, PI / 8)
        + X(5 * PI / 8 - t, 3 * PI / 8, 5 * PI / 8)
        - X(3 * PI / 8, PI / 2, 5 * PI / 8)
        + X(3 * PI / 8, PI / 2, PI / 2)
        - X(3 * PI / 8, PI / 2, 3 * PI / 8)
        + X(3 * PI / 8, PI / 2, PI / 4)
        - X(3 * PI / 8, PI / 8 + t, PI / 8)
        + X(3 * PI / 4 - t, PI / 2, 3 * PI / 4)
    )


def _c4_piece4(t: float, X) -> float:
    return (
        1.0
        + 2.0
        * (
            math.cos(PI / 8)
            - math.cos(t - 3 * PI / 8)
            + math.cos(PI / 4)
            - math.cos(t - PI / 4)
            + math.cos(3 * PI / 8)
            - math.cos(t - PI / 8)
        )
        + X(t - 3 * PI / 8, PI / 8, 3 * PI / 8)
        - X(PI / 2 - t, PI / 8, PI / 2)
        + X(PI / 8, PI / 4, PI / 2)
        - X(PI / 8, PI / 4, 3 * PI / 8)
        + X(t - PI / 4, PI / 4, PI / 4)
        - X(5 * PI / 8 - t, PI / 4, 5 * PI / 8)
        + X(PI / 4, 3 * PI / 8, 5 * PI / 8)
        - X(PI / 4, 3 * PI / 8, PI / 2)
        + X(PI / 4, 3 * PI / 8, 3 * PI / 8)
        - X(PI / 4, 3 * PI / 8, PI / 4)
        + X(t - PI / 8, 3 * PI / 8, PI / 8)
        - X(3 * PI / 4 - t, 3 * PI / 8, 3 * PI / 4)
        + X(3 * PI / 8, PI / 2, 3 * PI / 4)
        - X(3 * PI / 8, PI / 2, 5 * PI / 8)
        + X(3 * PI / 8, PI / 2, PI / 2)
        - X(3 * PI / 8, PI / 2, 3 * PI / 8)
        + X(3 * PI / 8, PI / 2, PI / 4)
        - X(3 * PI / 8, PI / 2, PI / 8)
        - X(7 * PI / 8 - t, PI / 2, 7 * PI / 8)
    )


def _c3d_low_neg(t: float, d: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(t - PI / 3)
            - math.cos(PI / 6 + d)
            + math.cos(t - PI / 6 - d)
            - math.cos(PI / 3)
            + math.cos(t + PI / 6 + d)
        )
        - X(t - PI / 3, PI / 6 + d, PI / 3)
        + X(PI / 6 + d, PI / 3, PI / 3)
        - X(PI / 2 - t, PI / 3, PI / 2)
        - X(t - PI / 6 - d, PI / 3, PI / 6 + d)
        + X(2 * PI / 3 - t, PI / 3, 2 * PI / 3)
        - X(PI / 3, PI / 2, 2 * PI / 3)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        + X(PI / 3, t + PI / 6 + d, PI / 6 + d)
    )


def _c3d_mid(t: float, d: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(t - PI / 3)
            - math.cos(PI / 6 + d)
            + math.cos(t - PI / 6 - d)
            - math.cos(PI / 3)
        )
        - X(t - PI / 3, PI / 6 + d, PI / 3)
        + X(PI / 2 - t, PI / 6 + d, PI / 2)
        - X(PI / 6 + d, PI / 3, PI / 2)
        + X(PI / 6 + d, PI / 3, PI / 3)
        - X(t - PI / 6 - d, PI / 3, PI / 6 + d)
        + X(2 * PI / 3 - t, PI / 3, 2 * PI / 3)
        - X(PI / 3, PI / 2, 2 * PI / 3)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        + X(PI / 3, PI / 2, PI / 6 + d)
        + X(5 * PI / 6 - d - t, PI / 2, 5 * PI / 6 - d)
    )


def _c3d_cap_neg(t: float, d: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(PI / 6 + d)
            - math.cos(t - PI / 3)
            + math.cos(PI / 3)
            - math.cos(t - PI / 6 - d)
        )
        + X(PI / 2 - t, PI / 6 + d, PI / 2)
        - X(PI / 6 + d, PI / 3, PI / 2)
        + X(t - PI / 3, PI / 3, PI / 3)
        + X(2 * PI / 3 - t, PI / 3, 2 * PI / 3)
        - X(PI / 3, PI / 2, 2 * PI / 3)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        + X(t - PI / 6 - d, PI / 2, PI / 6 + d)
        + X(5 * PI / 6 - d - t, PI / 2, 5 * PI / 6 - d)
    )


def _c3d_low_pos(t: float, d: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(t - PI / 3)
            - math.cos(t - PI / 6 - d)
            + math.cos(PI / 6 + d)
            - math.cos(PI / 3)
        )
        - X(t - PI / 3, PI / 6 + d, PI / 3)
        + X(t - PI / 6 - d, PI / 6 + d, PI / 6 + d)
        + X(PI / 2 - t, PI / 6 + d, PI / 2)
        - X(PI / 6 + d, PI / 3, PI / 2)
        + X(PI / 6 + d, PI / 3, PI / 3)
        - X(PI / 6 + d, PI / 3, PI / 6 + d)
        + X(2 * PI / 3 - t, PI / 3, 2 * PI / 3)
        - X(PI / 3, PI / 2, 2 * PI / 3)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        + X(PI / 3, PI / 2, PI / 6 + d)
        + X(5 * PI / 6 - d - t, PI / 2, 5 * PI / 6 - d)
    )


def _c3d_cap_pos(t: float, d: float, X) -> float:
    return (
        -1.0
        + 2.0
        * (
            math.cos(t - PI / 3)
            - math.cos(PI / 6 + d)
            + math.cos(t - PI / 6 - d)
            - math.cos(PI / 3)
        )
        + X(PI / 2 - t, PI / 6 + d, PI / 2)
        - X(t - PI / 3, PI / 6 + d, PI / 3)
        - X(2 * PI / 3 - t, PI / 6 + d, 2 * PI / 3)
        + X(PI / 6 + d, PI / 3, 2 * PI / 3)
        - X(PI / 6 + d, PI / 3, PI / 2)
        + X(PI / 6 + d, PI / 3, PI / 3)
        - X(t - PI / 6 - d, PI / 3, PI / 6 + d)
        - X(5 * PI / 6 - d - t, PI / 3, 5 * PI / 6 - d)
        + X(PI / 3, PI / 2, 5 * PI / 6 - d)
        - X(PI / 3, PI / 2, 2 * PI / 3)
        + X(PI / 3, PI / 2, PI / 2)
        - X(PI / 3, PI / 2, PI / 3)
        + X(PI / 3, PI / 2, PI / 6 + d)
    )


def table_value(label: str, t: float, delta: float | None = None, chi_fn=chi) -> float:
    """C(t) from the piece tables, for t in [0, pi/2] (3_delta: [pi/3, pi/2]),
    with each overlap integral from ``chi_fn(theta, a, b, alpha)``."""

    def X(a: float, b: float, alpha: float) -> float:
        return chi_fn(t, a, b, alpha)

    if label == "2":
        return _c2_piece1(t, X) if t <= PI / 4 + SNAP else _c2_piece2(t, X)
    if label == "3":
        if t <= PI / 6 + SNAP:
            return _c3_piece1(t, X)
        if t <= PI / 4 + SNAP:
            return _c3_piece2(t, X)
        if t <= PI / 3 + SNAP:
            return _c3_piece3(t, X)
        return _c3_piece4(t, X)
    if label == "4":
        if t <= PI / 8 + SNAP:
            return _c4_piece1(t, X)
        if t <= PI / 4 + SNAP:
            return _c4_piece2(t, X)
        if t <= 3 * PI / 8 + SNAP:
            return _c4_piece3(t, X)
        return _c4_piece4(t, X)
    if label != "3_delta":
        raise ValueError(f"no piece table for label {label!r}")
    if t < DEFORMED_DOMAIN[0] - SNAP:
        raise ValueError(f"the 3_delta tables start at pi/3; got theta={t / PI:g}*pi")
    d = float(delta)
    if d <= 0.0:
        if t <= PI / 3 - d + SNAP:
            return _c3d_low_neg(t, d, X)
        if t <= PI / 2 + d + SNAP:
            return _c3d_mid(t, d, X)
        return _c3d_cap_neg(t, d, X)
    if t <= PI / 3 + 2 * d + SNAP:
        return _c3d_low_pos(t, d, X)
    if t <= PI / 2 - d + SNAP:
        return _c3d_mid(t, d, X)
    return _c3d_cap_pos(t, d, X)
