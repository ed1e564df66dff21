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
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np
from numpy.polynomial import legendre

from .geometry import arccos_clamped_array, clamp_cos, unit_vectors

# the reader's margin, in units of l1 + S (HarmonicColouring.read_margin)
READ_MARGIN = 1e-9


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
    """Anything that reads +-1 at arrays of directions.

    :meth:`read` takes axes as ``correlation.Draws.axes`` gives them:
    polar cosines for an azimuthally symmetric colouring, a (3, ...)
    Cartesian array for any other.  Monte Carlo and the sampled checks
    read a colouring only so.  The exact engines read the ``flips``
    record (north value, flip angles) of an azimuthal colouring, which
    is no member here: a non-azimuthal harmonic's raises ``ValueError``,
    which ``isinstance`` does not catch on Python 3.10 and 3.11.
    """

    label: str
    is_azimuthal: bool

    def read(self, axes: np.ndarray) -> np.ndarray: ...


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

    def read(self, x: np.ndarray) -> np.ndarray:
        """Values at the polar cosines x: the north value times -1 for
        each flip whose cosine lies above x, so arccos is never taken.
        A cosine equal to a flip's takes the colour on the flip's north
        side.  Only nan and cosines past +-1 are read as
        ``evaluate_polar(arccos_clamped_array(x))``, whose drift check
        raises beyond rounding and which reads nan as -1.
        """
        x = np.asarray(x, dtype=float)
        north, flips = self.flips
        plus = np.full(x.shape, north > 0)
        for v in flips:
            plus ^= x < math.cos(v)
        values = _signed(plus)
        # min and max are nan if any x is; they allocate no array
        if not (-1.0 <= x.min(initial=1.0) and x.max(initial=-1.0) <= 1.0):
            off = ~(np.abs(x) <= 1.0)
            values[off] = self.evaluate_polar(arccos_clamped_array(x[off]))
        return values


def _number(value, name: str) -> float:
    """``value`` as a float: a number, not a bool or a string."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{name} {value!r} is not a number")
    return float(value)


def _integer(value, name: str) -> int:
    """``value`` as an int: an integral number (3.0 is one)."""
    if not _number(value, name).is_integer():
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class HarmonicColouring:
    """Sign of a sum of real spherical harmonics of odd degree.

    ``terms`` is a sequence of (l, m, coefficient) with integers l and m
    (an integral float such as 3.0 is read as one) and every l odd
    (odd-degree harmonics are odd under point inversion, which makes
    the sign function antipodal).  They are kept as given, but the
    colouring is read from one coefficient vector (:attr:`_read_terms`):
    term order does not matter, repeated modes add, and a vector that
    sums to zero is refused.  The tie value sgn(0) := +1 keeps
    evaluation deterministic on the measure-zero nodal set.
    :meth:`read` gives the signs of :meth:`amplitude`, which reads
    ``Draws`` axes itself, from its several times faster
    :meth:`polynomial_amplitude`, certified by a margin."""

    terms: tuple[tuple[int, int, float], ...]
    label: str = "harmonic"

    def __post_init__(self) -> None:
        terms = tuple(
            (_integer(l, "degree"), _integer(m, "order"), _number(c, "coefficient"))
            for l, m, c in self.terms
        )
        if not terms:
            raise ValueError("at least one harmonic term is required")
        for l, m, c in terms:
            if l < 0 or l % 2 == 0:
                raise ValueError(f"degree {l} must be odd and non-negative")
            if abs(m) > l:
                raise ValueError(f"order {m} exceeds degree {l}")
            if not math.isfinite(c):
                raise ValueError(f"coefficient {c!r} of Y_{l},{m} is not finite")
        object.__setattr__(self, "terms", terms)
        if not self._read_terms:
            raise ValueError("all coefficients are zero once repeated modes are summed")

    @property
    def is_azimuthal(self) -> bool:
        return all(m == 0 for _, m, _ in self.terms)

    @functools.cached_property
    def _read_terms(self) -> tuple[tuple[int, int, float], ...]:
        """The coefficient vector every reader reads: (l, m, c) with
        c != 0 for each mode in (l, m) order, c the exact sum
        (``math.fsum``, of terms scaled so that none overflows) of the
        mode's coefficients times the power of two that brings the
        largest |c| into [0.5, 1).  So any order or exact splitting of
        the terms, and 2^k times them, read alike bit for bit, and no
        product overflows or goes subnormal at the ends of the range."""
        _, top = math.frexp(max(abs(c) for _, _, c in self.terms))
        sums: dict[tuple[int, int], list[float]] = {}
        for l, m, c in self.terms:
            sums.setdefault((l, m), []).append(math.ldexp(c, -top))
        vector = [(l, m, math.fsum(cs)) for (l, m), cs in sorted(sums.items())]
        vector = [term for term in vector if term[2] != 0.0]
        _, exponent = math.frexp(max((abs(c) for _, _, c in vector), default=0.0))
        return tuple((l, m, math.ldexp(c, -exponent)) for l, m, c in vector)

    @property
    def amplitude_bound(self) -> float:
        """sum |c| sqrt((2l + 1) / 4 pi) over the read terms, which bounds
        |:meth:`amplitude`|: |Y_lm| <= sqrt((2l + 1) / 4 pi)."""
        terms = self._read_terms
        return sum(abs(c) * math.sqrt((2 * l + 1) / (4.0 * math.pi)) for l, _, c in terms)

    def rows(self, axes: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
        """:func:`harmonic_rows` of the live modes at ``axes`` as
        ``correlation.Draws.axes`` gives them: polar cosines (clamped by
        :func:`clamp_cos`) if azimuthal, a (3, ...) Cartesian array if not."""
        modes = [(l, m) for l, m, _ in self._read_terms]
        if self.is_azimuthal:
            return harmonic_rows(modes, clamp_cos(axes))
        return harmonic_rows(modes, axes[2], axes[:2])

    def amplitude(self, axes: np.ndarray) -> np.ndarray:
        """The harmonic sum :meth:`read` signs, at the axes of :meth:`rows`:
        c * Y_lm over :attr:`_read_terms`, added in the (l, m) order in
        which :meth:`rows` yields the rows."""
        total = None
        for (_, _, row), (_, _, c) in zip(self.rows(axes), self._read_terms):
            if total is None:
                total = c * row
            else:
                total += c * row
        return total

    @functools.cached_property
    def _orders(self) -> tuple[list[tuple[int, list[float]]], float]:
        """([(m, coefficients of A_m = sum_l c_lm Q_lm in powers of z^2,
        highest first; A_m is odd in z for even m)], l1): l1 = sum |c_lm|
        (times sqrt(2) for m != 0) times the sum of |coefficients| of Q_lm
        bounds every partial sum of :meth:`polynomial_amplitude`."""
        terms = self._read_terms
        table = _q_coefficients(max(l for l, _, _ in terms), max(abs(m) for _, m, _ in terms))
        sums: dict[int, np.ndarray] = {}
        top: dict[int, int] = {}
        l1 = 0.0
        for l, m, c in terms:
            q = table[l][abs(m)]
            sums[m] = sums[m] + c * q if m in sums else c * q
            top[m] = max(top.get(m, 0), l)
            l1 += abs(c) * float(np.sum(np.abs(q))) * (_SQRT2 if m else 1.0)
        orders = sorted(sums, key=lambda m: (abs(m), m))
        return [(m, sums[m][top[m] - abs(m) :: -2].tolist()) for m in orders], l1

    @property
    def polynomial_bound(self) -> float:
        """l1 of :attr:`_orders`."""
        return self._orders[1]

    @property
    def read_margin(self) -> float | None:
        """READ_MARGIN (l1 + S), or None where that reaches S, which bounds
        |amplitude| (l1 grows about 4 times per two degrees)."""
        margin = READ_MARGIN * (self.polynomial_bound + self.amplitude_bound)
        return margin if margin < self.amplitude_bound else None

    def polynomial_amplitude(self, axes: np.ndarray) -> np.ndarray:
        """:meth:`amplitude` as the sum over orders m of A_m(z) (Horner's
        rule in z^2) times sqrt(2) Re or Im (x + i y)^|m|: the same
        function of (x, y, z), in about 70 array passes for l <= 5 and
        all m against 140.  On axes of length at most 1 it is within
        4 L 2^-53 l1 of the exact sum (3.1 L 2^-53 l1 measured, L <= 21)
        and :meth:`amplitude` within about 1e-14 S (L <= 11); l1 / S was
        5 to 7 at L = 5 and 300 to 400 at L = 11.  So for L < 200 the read
        margin is over 10^4 times both errors.  It is exactly odd: z^2 is
        even, and z and each power of x + i y change sign exactly."""
        orders, _ = self._orders
        if self.is_azimuthal:
            z, powers = clamp_cos(axes), iter(())
        else:
            x, y, z = np.asarray(axes, dtype=float)
            powers = _xy_powers(x, y, abs(orders[-1][0]))
        z2 = z * z
        total = None
        k = 0
        for m, (*high, low) in orders:
            while k < abs(m):
                power, k = next(powers), k + 1
            factors = ([z] if m % 2 == 0 else []) + ([power[m < 0]] if m else [])
            value = high[0] * z2 if high else low * factors.pop(0)
            for a in high[1:]:
                value += a
                value *= z2
            if high:
                value += low
            for f in factors:
                value *= f
            if total is None:
                total = value
            else:
                total += value
        return np.asarray(total)

    def read(self, axes: np.ndarray) -> np.ndarray:
        """The signs of :meth:`amplitude` at the axes of :meth:`rows`
        (polar cosines with the drift check of :func:`clamp_cos`, or
        Cartesian): those of :meth:`polynomial_amplitude`, re-read by
        :meth:`amplitude` where its size is at most :attr:`read_margin`
        or nan (or is None)."""
        axes = np.asarray(axes, dtype=float)
        margin = self.read_margin
        if margin is None:
            return _signed(self.amplitude(axes) >= 0.0)
        values = self.polynomial_amplitude(axes)
        size = np.abs(values)
        if not size.min(initial=np.inf) > margin:
            near = ~(size > margin)
            values[near] = self.amplitude(axes[..., near])
        return _signed(values >= 0.0)

    # no engine reads this; kept because perfbench/spans.py rebinds it
    def evaluate_many(self, eps: np.ndarray, phi: np.ndarray) -> np.ndarray:
        v = unit_vectors(eps, phi)
        return self.read(v[2] if self.is_azimuthal else v)

    def evaluate_polar(self, eps: np.ndarray) -> np.ndarray:
        """Values of an azimuthally symmetric colouring at the polar
        angles eps; any other raises ``ValueError``."""
        if not self.is_azimuthal:
            raise ValueError("colouring is not azimuthally symmetric")
        return self.read(np.cos(np.asarray(eps, dtype=float)))

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
        for l, _, coefficient in self._read_terms:
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
        powers = [(None, None), *_xy_powers(x, y, m_top)]
    else:
        z = np.asarray(z, dtype=float)
    start = np.full(z.shape, 1.0 / math.sqrt(4.0 * math.pi))
    for l, cur in enumerate(_q_recurrence(l_top, m_top, start, lambda a, q: a * z * q)):
        for m in range(-l, l + 1):
            if (l, m) not in wanted:
                continue
            if m == 0:
                yield l, m, cur[0]
            elif m > 0:
                yield l, m, cur[m] * powers[m][0]
            else:
                yield l, m, cur[-m] * powers[-m][1]


def _q_recurrence(
    l_top: int, m_top: int, start: np.ndarray, times_z: Callable[[float, np.ndarray], np.ndarray]
) -> Iterator[list[np.ndarray]]:
    """[Q_lm for m <= min(l, m_top)] for l = 0, ..., l_top in turn, from
    Q_00 = ``start`` by the steps of :func:`harmonic_rows`, with
    ``times_z(a, q)`` = a z q."""
    cur, prev = [start], []
    yield cur
    for l in range(1, l_top + 1):
        new = []
        for m in range(min(l - 1, m_top) + 1):
            lm = l * l - m * m
            a = math.sqrt((4 * l * l - 1) / lm)
            if m == l - 1:
                new.append(times_z(a, cur[m]))
            else:
                b = math.sqrt((2 * l + 1) * ((l - 1) ** 2 - m * m) / ((2 * l - 3) * lm))
                new.append(times_z(a, cur[m]) - b * prev[m])
        if l <= m_top:
            new.append(math.sqrt((2 * l + 1) / (2 * l)) * cur[l - 1])
        prev, cur = cur, new
        yield cur


def _xy_powers(x: np.ndarray, y: np.ndarray, m_top: int) -> Iterator[tuple[np.ndarray, ...]]:
    """sqrt(2) Re and Im of (x + i y)^m for m = 1, ..., m_top in turn, by
    angle addition: exactly (-1)^m times themselves at (-x, -y)."""
    c, s = _SQRT2 * x, _SQRT2 * y
    yield c, s
    for _ in range(1, m_top):
        c, s = c * x - s * y, s * x + c * y
        yield c, s


@functools.cache
def _q_coefficients(l_top: int, m_top: int) -> list[list[np.ndarray]]:
    """[l][m] -> the coefficients of Q_lm in powers of z, constant first,
    by the recurrence of :func:`harmonic_rows`, whose two terms never
    cancel here: each is within about 2 l 2^-53 of exact."""
    start = np.zeros(l_top + 1)
    start[0] = 1.0 / math.sqrt(4.0 * math.pi)
    times_z = lambda a, q: np.concatenate(([0.0], a * q[:-1]))
    return list(_q_recurrence(l_top, m_top, start, times_z))


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

    def read(self, axes: np.ndarray) -> np.ndarray:
        return -self.inner.read(axes)


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
    - ``kind: "harmonic"`` with ``terms``, a list of [l, m, coefficient]
      with integers l and m.
    """
    if not isinstance(spec, dict):
        raise ValueError("a colouring description must be a JSON object")
    kind = spec.get("kind")
    if kind == "catalogue":
        delta = spec.get("delta")
        Delta = spec.get("Delta")
        return make_catalogue(
            spec["label"],
            delta=None if delta is None else _number(delta, "delta") * math.pi,
            Delta=None if Delta is None else _number(Delta, "Delta") * math.pi,
        )
    if kind == "bands":
        bands = tuple(
            (_number(lo, "band edge") * math.pi, _number(hi, "band edge") * math.pi)
            for lo, hi in spec["bands"]
        )
        return BandColouring(bands, label=str(spec.get("label", "bands")))
    if kind == "harmonic":
        return HarmonicColouring(spec["terms"], label=str(spec.get("label", "harmonic")))
    raise ValueError(f"unknown colouring kind {kind!r}")


def load_colouring(path: str) -> Colouring:
    """Read a colouring description file (JSON with the fields above)."""
    with open(path, "r", encoding="utf-8") as fh:
        return colouring_from_spec(json.load(fh))
