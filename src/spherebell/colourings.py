"""Antipodal two-colourings of the sphere.

A colouring assigns +1 or -1 to every direction.  Two families are
provided: band colourings, which are azimuthally symmetric and defined
by the set of polar intervals where the value is +1, and harmonic-sign
colourings, the sign of a real linear combination of odd-degree real
spherical harmonics (odd degree makes them antipodal automatically).

The catalogue built by :func:`make_catalogue` contains the band
colourings used throughout: the hemisphere split (label 1), the
alternating families with 2, 3 and 4 northern bands per hemisphere
(labels 2, 3, 4), the one-parameter deformation of label 3 (label
3_delta, parameter delta in [-pi/18, pi/24]) and the one-parameter
deformation of label 2 (label 2_Delta, parameter Delta in [0, pi/12],
which narrows the polar cap band and widens its antipodal image).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np
from numpy.polynomial import legendre

from .geometry import arccos_clamped_array, clamp_cos, unit_vectors

EDGE_TOL = 1e-9


def _signed(plus: np.ndarray) -> np.ndarray:
    """+1 where ``plus`` holds and -1 elsewhere, an int64 array of its
    shape (a 0-d array for a 0-d or scalar ``plus``).  Signed in place:
    ``np.where(plus, 1, -1)`` took 0.41 ms per 65536 samples against
    0.09 ms (numpy 2.4.6, 2-core Xeon), and ``2 * plus - 1`` of a 0-d
    array is a scalar, which cannot be assigned into."""
    values = np.array(plus, dtype=np.int64)
    values *= 2
    values -= 1
    return values


@runtime_checkable
class Colouring(Protocol):
    """Anything that can be evaluated to +-1 on arrays of directions.

    ``correlation.Draws`` reads an azimuthally symmetric colouring by
    ``evaluate_cos`` (values from cos(polar) alone) and any other by
    ``evaluate_vectors`` (values at Cartesian unit vectors), for Monte
    Carlo and the sampled checks.  The exact engines read the ``flips``
    record (north value, flip angles) of an azimuthal colouring, which
    is no member here: a non-azimuthal harmonic's raises ``ValueError``,
    which ``isinstance`` does not catch on Python 3.10 and 3.11.
    """

    label: str
    is_azimuthal: bool

    def evaluate_cos(self, x: np.ndarray) -> np.ndarray: ...
    def evaluate_vectors(self, v: np.ndarray) -> np.ndarray: ...
    def evaluate_polar(self, eps: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class BandColouring:
    """Azimuthally symmetric colouring: +1 on closed polar bands.

    ``plus_bands`` are sorted intervals [lo, hi] within [0, pi] with
    disjoint interiors (touching endpoints are allowed).  Band edges
    take the value +1: edge points are a measure-zero set and may carry
    either colour, so a fixed convention keeps evaluation deterministic
    without affecting any integral.
    """

    plus_bands: tuple[tuple[float, float], ...]
    label: str = "bands"

    is_azimuthal = True

    def __post_init__(self) -> None:
        bands = tuple((float(lo), float(hi)) for lo, hi in self.plus_bands)
        if not bands:
            raise ValueError("at least one plus band is required")
        prev_hi = -math.inf
        for lo, hi in bands:
            if not (0.0 <= lo < hi <= math.pi):
                raise ValueError(f"band [{lo!r}, {hi!r}] not a proper interval in [0, pi]")
            if lo < prev_hi:
                raise ValueError("bands overlap or are out of order")
            prev_hi = hi
        object.__setattr__(self, "plus_bands", bands)

    @functools.cached_property
    def flips(self) -> tuple[int, tuple[float, ...]]:
        """(value at the north pole, sorted polar angles in (0, pi) where
        the colour flips).  The flips are the band endpoints in (0, pi)
        that exactly one band owns: where two bands touch, both sides
        are +1.  No endpoint is trimmed near a pole."""
        ends = [v for band in self.plus_bands for v in band if 0.0 < v < math.pi]
        flips = tuple(sorted(v for v in set(ends) if ends.count(v) == 1))
        return (1 if self.plus_bands[0][0] == 0.0 else -1), flips

    def evaluate_polar(self, eps: np.ndarray) -> np.ndarray:
        """Vectorized value from the polar angle alone."""
        eps = np.asarray(eps, dtype=float)
        inside = np.zeros(eps.shape, dtype=bool)
        for lo, hi in self.plus_bands:
            inside |= (eps >= lo) & (eps <= hi)
        return _signed(inside)

    # no engine reads this; kept because perfbench/spans.py rebinds it
    def evaluate_many(self, eps: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return self.evaluate_polar(eps)

    def evaluate_cos(self, x: np.ndarray) -> np.ndarray:
        """Values at the polar angles arccos(x), bit for bit
        ``evaluate_polar(arccos_clamped_array(x))``, mostly without the
        arccos.

        arccos is decreasing, so a sample x < cos v - EDGE_TOL lies
        below the flip v, and the colour is north times -1 for each
        flip below it.  A sample farther than EDGE_TOL from every flip
        cosine is decided so: since |d arccos / dx| >= 1, its polar
        angle is also farther than EDGE_TOL from every flip, which
        rounding cannot bridge.  Where two bands touch, both sides are
        +1, so no sample needs a check there.  The samples within
        EDGE_TOL of a flip cosine, of -1 or of 1, beyond +-1 (where
        the drift check of ``arccos_clamped_array`` raises) or nan take
        the arccos path.
        """
        x = np.asarray(x, dtype=float)
        north, flips = self.flips
        near = ~(np.abs(x) < 1.0 - EDGE_TOL)
        plus = np.full(x.shape, north > 0)
        for v in flips:
            c = math.cos(v)
            below = x < c - EDGE_TOL
            near |= (x <= c + EDGE_TOL) ^ below
            plus ^= below
        values = _signed(plus)
        if near.any():
            values[near] = self.evaluate_polar(arccos_clamped_array(x[near]))
        return values

    def evaluate_vectors(self, v: np.ndarray) -> np.ndarray:
        """Values at the unit vectors v, from their z coordinates."""
        return self.evaluate_cos(v[2])


@dataclass(frozen=True)
class HarmonicColouring:
    """Sign of a sum of real spherical harmonics of odd degree.

    ``terms`` is a sequence of (l, m, coefficient) with every l odd
    (odd-degree harmonics are odd under point inversion, which makes
    the sign function antipodal) and at least one nonzero coefficient.
    The tie value sgn(0) := +1 keeps evaluation deterministic on the
    measure-zero nodal set.
    """

    terms: tuple[tuple[int, int, float], ...]
    label: str = "harmonic"

    def __post_init__(self) -> None:
        terms = tuple((int(l), int(m), float(c)) for l, m, c in self.terms)
        if not terms:
            raise ValueError("at least one harmonic term is required")
        for l, m, c in terms:
            if l < 0 or l % 2 == 0:
                raise ValueError(f"degree {l} must be odd and non-negative")
            if abs(m) > l:
                raise ValueError(f"order {m} exceeds degree {l}")
            if not math.isfinite(c):
                raise ValueError(f"coefficient {c!r} of Y_{l},{m} is not finite")
        if all(c == 0.0 for _, _, c in terms):
            raise ValueError("all coefficients are zero")
        object.__setattr__(self, "terms", terms)

    @property
    def is_azimuthal(self) -> bool:
        return all(m == 0 for _, m, _ in self.terms)

    def amplitude_vectors(self, v: np.ndarray) -> np.ndarray:
        """The harmonic sum at the unit vectors v, a (3, ...) array of
        Cartesian coordinates: :meth:`amplitude_from_rows` of the basis
        rows from :func:`harmonic_rows`."""
        return self.amplitude_from_rows(harmonic_rows(self._live_modes(), v[2], v[:2]))

    def _live_modes(self) -> list[tuple[int, int]]:
        return [(l, m) for l, m, c in self.terms if c != 0.0]

    def amplitude_from_rows(
        self, rows: Iterable[tuple[int, int, np.ndarray]]
    ) -> np.ndarray:
        """The harmonic sum from basis rows (l, m, Y_lm), as
        :func:`harmonic_rows` yields them.

        c * Y_lm is added in term order as the rows arrive, and terms
        with c = 0 are skipped.  A row that arrives before its term's
        turn waits for it, and a row is dropped after its last term, so
        terms listed degree by degree (as the search and the colouring
        files list them) never hold more than one row.  Summing the
        same rows always takes the same steps, so cached rows give the
        amplitude bit for bit.
        """
        live = [(l, m, c) for l, m, c in self.terms if c != 0.0]
        last_use = {(l, m): k for k, (l, m, _) in enumerate(live)}
        waiting: dict[tuple[int, int], np.ndarray] = {}
        total = None
        k = 0
        for l, m, row in rows:
            waiting[l, m] = row
            while k < len(live) and live[k][:2] in waiting:
                mode, c = live[k][:2], live[k][2]
                if total is None:
                    total = c * waiting[mode]
                else:
                    total += c * waiting[mode]
                if last_use[mode] == k:
                    del waiting[mode]
                k += 1
        if k < len(live):
            raise ValueError(f"no basis row for the term {live[k]!r}")
        return total

    # no engine reads this; kept because perfbench/spans.py rebinds it
    def evaluate_many(self, eps: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return self.evaluate_vectors(unit_vectors(eps, phi))

    def evaluate_vectors(self, v: np.ndarray) -> np.ndarray:
        """Values at the unit vectors v, a (3, ...) array of Cartesian
        coordinates."""
        return _signed(self.amplitude_vectors(v) >= 0.0)

    def evaluate_cos(self, x: np.ndarray) -> np.ndarray:
        """Values of an azimuthally symmetric colouring at the polar
        angles arccos(x), from x alone.  x is clamped to [-1, 1], with
        the drift check of :func:`clamp_cos`."""
        if not self.is_azimuthal:
            raise ValueError("colouring is not azimuthally symmetric")
        rows = harmonic_rows(self._live_modes(), clamp_cos(x))
        return _signed(self.amplitude_from_rows(rows) >= 0.0)

    def evaluate_polar(self, eps: np.ndarray) -> np.ndarray:
        return self.evaluate_cos(np.cos(np.asarray(eps, dtype=float)))

    @functools.cached_property
    def flips(self) -> tuple[int, tuple[float, ...]]:
        """(value at the north pole, sorted polar angles where the colour
        flips) of an m = 0 harmonic, the sign of the Legendre series
        sum_l c_l sqrt((2l + 1) / 4 pi) P_l(cos eps): the arccos of its
        real roots in (-1, 1), each polished by one Newton step, where
        the midpoints on either side differ in colour.  Any other
        harmonic raises ``ValueError``."""
        if not self.is_azimuthal:
            raise ValueError("colouring is not azimuthally symmetric")
        series = np.zeros(max(l for l, _, _ in self.terms) + 1)
        for l, _, coefficient in self.terms:
            series[l] += coefficient * math.sqrt((2 * l + 1) / (4.0 * math.pi))
        # a trailing coefficient within rounding of the largest lies below
        # legroots' own backward error, and a subnormal one overflows
        # its companion matrix
        top = legendre.legtrim(series, np.finfo(float).eps * np.max(np.abs(series)))
        roots = legendre.legroots(top)
        roots = roots.real[(roots.imag == 0.0) & (np.abs(roots.real) < 1.0)]
        slope = legendre.legval(roots, legendre.legder(series))
        roots = roots - legendre.legval(roots, series) / np.where(slope == 0.0, np.inf, slope)
        edges = sorted(float(v) for v in np.arccos(np.clip(roots, -1.0, 1.0)))
        bounds = np.array([0.0, *edges, math.pi])
        values = self.evaluate_polar(0.5 * (bounds[:-1] + bounds[1:]))
        flips = tuple(v for v, lo, hi in zip(edges, values[:-1], values[1:]) if lo != hi)
        return int(values[0]), flips


_SQRT2 = math.sqrt(2.0)


def harmonic_rows(
    modes: Iterable[tuple[int, int]], z: np.ndarray, xy: Sequence[np.ndarray] | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Rows (l, m, Y_lm) of the real orthonormal spherical harmonics at
    the unit vectors (x, y, z), for each distinct requested mode.

    ``xy`` holds x and y and is read only when some m is nonzero, so an
    azimuthal basis needs z = cos(polar) alone.  Rows come degree by
    degree, l ascending and, within a degree, m from -l to l, in the
    broadcast shape of the coordinates and the convention of
    :func:`real_spherical_harmonic`.  One recurrence builds every row
    (Holmes and Featherstone 2002) with the sectoral factor split off:
    Y_lm is Q_lm(z) times sqrt(2) Re (x + i y)^m for m > 0, sqrt(2)
    Im (x + i y)^|m| for m < 0 and 1 for m = 0, where Q_lm is P_lm /
    sin^|m|(polar) and P_lm the normalized associated Legendre
    function (orthonormal with the sqrt(2) of m != 0, no Condon-Shortley
    phase).  Q_00 = 1 / sqrt(4 pi), the sectoral step is the constant
    Q_mm = sqrt((2m + 1) / 2m) Q_{m-1,m-1}, and the three-term step is

        Q_lm = a_lm z Q_{l-1,m} - b_lm Q_{l-2,m},
        a_lm = sqrt((4 l^2 - 1) / (l^2 - m^2)),
        b_lm = sqrt((2l + 1) ((l - 1)^2 - m^2) / ((2l - 3) (l^2 - m^2))),

    where b vanishes at m = l - 1.  The powers of x + i y follow by
    angle addition, so no coordinate passes through a sqrt or a trig
    call and the poles need no special case.  Only the current and the
    previous degree are held, for orders up to the largest |m|.
    """
    wanted = {(int(l), int(m)) for l, m in modes}
    for l, m in wanted:
        if l < 0 or abs(m) > l:
            raise ValueError(f"no spherical harmonic of degree {l} and order {m}")
    l_top = max(l for l, _ in wanted)
    m_top = max(abs(m) for _, m in wanted)
    if m_top:
        if xy is None:
            raise ValueError("orders m != 0 need the x and y coordinates")
        z, x, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (z, *xy)))
        # sqrt(2) Re and Im of (x + i y)^m, the factor of Y_lm at m != 0
        cos_m = [None, _SQRT2 * x]
        sin_m = [None, _SQRT2 * y]
    else:
        z = np.asarray(z, dtype=float)
    # Q[m] of the current and the previous degree, for m <= min(l, m_top)
    cur = [np.full(z.shape, 1.0 / math.sqrt(4.0 * math.pi))]
    prev: list[np.ndarray] = []
    for l in range(l_top + 1):
        if l:
            new = []
            for m in range(min(l - 1, m_top) + 1):
                lm = l * l - m * m
                a = math.sqrt((4 * l * l - 1) / lm)
                if m == l - 1:
                    new.append(a * z * cur[m])
                else:
                    b2 = (2 * l + 1) * ((l - 1) ** 2 - m * m) / ((2 * l - 3) * lm)
                    b = math.sqrt(b2)
                    new.append(a * z * cur[m] - b * prev[m])
            if l <= m_top:
                new.append(math.sqrt((2 * l + 1) / (2 * l)) * cur[l - 1])
                if l > 1:
                    cos_m.append(cos_m[l - 1] * x - sin_m[l - 1] * y)
                    sin_m.append(sin_m[l - 1] * x + cos_m[l - 1] * y)
            prev, cur = cur, new
        for m in range(-l, l + 1):
            if (l, m) not in wanted:
                continue
            if m == 0:
                yield l, m, cur[0]
            elif m > 0:
                yield l, m, cur[m] * cos_m[m]
            else:
                yield l, m, cur[-m] * sin_m[-m]


def real_spherical_harmonic(
    l: int, m: int, z: np.ndarray, xy: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Real orthonormal spherical harmonic Y_{lm} at the unit vectors
    (x, y, z), the one-mode view of :func:`harmonic_rows`.

    Standard tesseral convention: m > 0 pairs with cos(m phi), m < 0
    with sin(|m| phi), and the Condon-Shortley phase of the associated
    Legendre function is cancelled.
    """
    ((_, _, row),) = harmonic_rows([(l, m)], z, xy)
    return row


@dataclass(frozen=True)
class Negated:
    """The colour swap of another colouring."""

    inner: Colouring

    @property
    def label(self) -> str:
        return f"-{self.inner.label}"

    @property
    def is_azimuthal(self) -> bool:
        return self.inner.is_azimuthal

    @property
    def flips(self) -> tuple[int, tuple[float, ...]]:
        north, flips = self.inner.flips
        return -north, flips

    def evaluate_polar(self, eps: np.ndarray) -> np.ndarray:
        return -self.inner.evaluate_polar(eps)

    def evaluate_cos(self, x: np.ndarray) -> np.ndarray:
        return -self.inner.evaluate_cos(x)

    def evaluate_vectors(self, v: np.ndarray) -> np.ndarray:
        return -self.inner.evaluate_vectors(v)


def negate(c: Colouring) -> Colouring:
    if isinstance(c, Negated):
        return c.inner
    return Negated(c)


@dataclass(frozen=True)
class ColouringPair:
    """The two parties' colourings.  Pairs built by
    :meth:`anticorrelated` have gamma = 0 (gamma is 1 minus the
    probability of opposite values at zero separation): the partner is
    the colour swap of the first party."""

    alice: Colouring
    bob: Colouring

    @classmethod
    def anticorrelated(cls, alice: Colouring) -> "ColouringPair":
        return cls(alice=alice, bob=negate(alice))


DELTA_RANGE = (-math.pi / 18.0, math.pi / 24.0)
DELTA_CAP_RANGE = (0.0, math.pi / 12.0)


def make_catalogue(
    label: str | int,
    delta: float | None = None,
    Delta: float | None = None,
) -> BandColouring:
    """Build a catalogue band colouring by label.

    Labels: 1 (or "hemisphere"), 2, 3, 4, "3_delta" (requires ``delta``
    in [-pi/18, pi/24] radians) and "2_Delta" (requires ``Delta`` in
    [0, pi/12] radians).  A parameter may also be inlined in the label
    after a colon, in units of pi, e.g. "3_delta:-0.038".
    """
    name = str(label).strip()
    if ":" in name:
        name, _, arg = name.partition(":")
        value = float(arg) * math.pi
        if name == "3_delta":
            delta = value
        elif name == "2_Delta":
            Delta = value
        else:
            raise ValueError(f"label {name!r} takes no parameter")
    if name == "hemisphere":
        name = "1"

    def bands(k: int) -> list[list[float]]:
        # label k: the plus bands [j pi / 2k, (j + 1) pi / 2k], j even
        ends = [j * math.pi / (2 * k) for j in range(2 * k)]
        return [ends[j : j + 2] for j in range(0, 2 * k, 2)]

    if name in ("1", "2", "3", "4"):
        return BandColouring(bands(int(name)), label=name)
    if name == "3_delta":
        if delta is None:
            raise ValueError("label 3_delta requires the delta parameter")
        d = float(delta)
        if not DELTA_RANGE[0] - 1e-12 <= d <= DELTA_RANGE[1] + 1e-12:
            raise ValueError(f"delta {d!r} outside [-pi/18, pi/24]")
        plus, moves, tag = bands(3), (d, -d), f"3_delta:{d / math.pi:g}"
    elif name == "2_Delta":
        if Delta is None:
            raise ValueError("label 2_Delta requires the Delta parameter")
        d = float(Delta)
        if not DELTA_CAP_RANGE[0] - 1e-12 <= d <= DELTA_CAP_RANGE[1] + 1e-12:
            raise ValueError(f"Delta {d!r} outside [0, pi/12]")
        # the polar cap band shrinks by Delta and its antipodal image,
        # the band starting at pi/2, stretches to 3pi/4 + Delta
        plus, moves, tag = bands(2), (-d, d), f"2_Delta:{d / math.pi:g}"
    else:
        raise ValueError(f"unknown catalogue label {label!r}")
    # the deformations move the end of the first and of the last band
    plus[0][1] += moves[0]
    plus[-1][1] += moves[1]
    return BandColouring(plus, label=tag)


def catalogue_labels() -> tuple[str, ...]:
    """The parameter-free catalogue labels."""
    return ("1", "2", "3", "4")


def circle_colouring_value(n: int, epsilon: float) -> int:
    """The alternating arc colouring of the circle: (-1)^floor(n eps / pi).

    Only defined for odd n, where the 2n arcs of width pi/n form an
    antipodal colouring of the circle.
    """
    n = int(n)
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"arc count {n} must be an odd positive integer")
    eps = float(epsilon)
    if not -1e-12 <= eps <= 2.0 * math.pi + 1e-12:
        raise ValueError(f"circle angle {eps!r} outside [0, 2pi]")
    return -1 if math.floor(n * eps / math.pi) % 2 else 1


def colouring_from_spec(spec: dict) -> Colouring:
    """Build a colouring from a description mapping.

    Exactly one of the content fields must be present:

    - ``kind: "catalogue"`` with ``label`` (and ``delta`` / ``Delta`` in
      units of pi for the parametric labels),
    - ``kind: "bands"`` with ``bands``, a list of [lo, hi] pairs in
      units of pi (optional ``label``),
    - ``kind: "harmonic"`` with ``terms``, a list of [l, m, coefficient].
    """
    if not isinstance(spec, dict):
        raise ValueError("a colouring description must be a JSON object")
    kind = spec.get("kind")
    if kind == "catalogue":
        delta = spec.get("delta")
        Delta = spec.get("Delta")
        return make_catalogue(
            spec["label"],
            delta=None if delta is None else float(delta) * math.pi,
            Delta=None if Delta is None else float(Delta) * math.pi,
        )
    if kind == "bands":
        bands = tuple(
            (float(lo) * math.pi, float(hi) * math.pi) for lo, hi in spec["bands"]
        )
        return BandColouring(bands, label=str(spec.get("label", "bands")))
    if kind == "harmonic":
        terms = tuple((int(l), int(m), float(c)) for l, m, c in spec["terms"])
        return HarmonicColouring(terms, label=str(spec.get("label", "harmonic")))
    raise ValueError(f"unknown colouring kind {kind!r}")


def load_colouring(path: str) -> Colouring:
    """Read a colouring description file (JSON with the fields above)."""
    with open(path, "r", encoding="utf-8") as fh:
        return colouring_from_spec(json.load(fh))
