"""The per-term real spherical harmonic, kept as a test oracle.

Each basis function is evaluated on its own: scipy's associated
Legendre function ``lpmv`` times the factorial normalization, with
cos(m phi) or sin(|m| phi).  The library builds the same functions
from one recurrence over all (l, m) and must agree with this formula.
"""

import math

import numpy as np
from scipy.special import lpmv


def real_spherical_harmonic(
    l: int, m: int, x: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Real orthonormal Y_{lm} at cos(polar) = x: m > 0 pairs with
    cos(m phi), m < 0 with sin(|m| phi), and the Condon-Shortley phase
    of ``lpmv`` is cancelled."""
    am = abs(m)
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - am) / math.factorial(l + am)
    )
    leg = lpmv(am, l, x)
    if m == 0:
        return norm * leg
    base = math.sqrt(2.0) * (-1.0) ** am * norm * leg
    if m > 0:
        return base * np.cos(am * phi)
    return base * np.sin(am * phi)
