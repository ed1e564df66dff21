"""Correlation of a colouring pair over random axis pairs at fixed angle.

The correlation C(theta) is the average of alice(a) * bob(b) over axis
pairs (a, b) separated by theta, with a uniform on the sphere and b
uniform on its circle of possible partners.  Three independent engines
compute it:

- ``correlation_mc``: direct Monte Carlo over sampled axis pairs, with
  deterministic chunked streams (bit-identical output for a given
  sampling plan, independent of scheduling); ``correlation_mc_grid``
  runs a whole theta grid on one set of draws, evaluating alice once
  per chunk; on a dense grid a band bob pays per draw, not per (draw,
  theta), by summing his certified colour flip events, and a harmonic
  bob pays L + 1 evaluations per draw, interpolating his amplitude (a
  trig polynomial along the grid) with a certified margin,
- ``correlation_quadrature``: for azimuthally symmetric, antipodal,
  perfectly anticorrelated pairs, the average reduces to

      C(theta) = -(1/pi) * int_0^{pi/2} d eps sin(eps) a(eps)
                           * int_0^pi d omega a[alpha(theta, eps, omega)]

  where the inner integral is done analytically as a signed sum of
  circle arcs between the crossings of the colour flips, each arc
  coloured by the parity of the flips below it, and the outer integral
  by QUADPACK's 21-point Gauss-Kronrod rule on cosine-mapped pieces
  between mandatory breakpoints at the jumps and square-root kinks,
  bisected where its estimate (the distance from the embedded Gauss
  rule) exceeds the tolerance.  It takes an array of theta and
  evaluates the pieces of every theta together, one numpy pass per
  round of bisection,
- ``closed_form``: the same pairs (catalogue labels, both deformed
  families, band files, m = 0 harmonics), with the outer integral done
  exactly as well: a sum of cosines and of the band-overlap integral
  ``chi`` over pieces derived from the colouring's flip edges.  ``chi``
  itself is elementary (a spherical-triangle antiderivative from
  Gauss-Bonnet), so this engine does no quadrature at all.  It takes
  an array of theta and evaluates it in one pass of numpy calls (a
  crossing scan or a curve is one call).  It takes the triangle angles
  from numpy's ``arctan2``, within a stated bound of the values libm's
  atan2 would give; a crossing scan reads the signs of its values
  minus a reference.

Every theta-taking function here has one array body; a float theta
runs as the 0-d case of the array path and gives a float.

The two exact engines share one front door (``_exact_engine``), which
gives their theta domain and reads the colouring's ``flips`` record, its
value at the north pole and the polar angles where its colour flips,
through one validated, cached pass (``_flips_of``).  The Monte Carlo event path
reads a band bob's record, and the sampled antipodality check thins at
a band colouring's flip cosines.

Shared plumbing: the sampled gamma and antipodality checks, curve
containers, finite mixtures, the exact circle-colouring correlation,
and the CSV schema.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .colourings import (
    BandColouring,
    Colouring,
    ColouringPair,
    HarmonicColouring,
    Negated,
    make_catalogue,
    negate,
)
from .geometry import (
    arccos_clamped_array,
    half_angle_cos_sin,
    partner_cos_many,
    partner_frame,
    partner_many,
)

PI = math.pi
HALF_PI = math.pi / 2.0
SNAP = 1e-12

METHODS = ("mc", "quadrature", "closed_form")


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first use.  No engine calls
    it: only ``perfbench/spans.py`` uses the name, which it rebinds.
    It needs scipy, which spherebell does not otherwise import."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach tolerance.

    ``best_estimate`` carries the value the integrator got to, and
    ``abserr`` the outer integral's error estimate there (C's is
    ``abserr / pi``).
    """

    def __init__(self, message: str, best_estimate: float, abserr: float = math.nan):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.abserr = abserr


class ClosedFormDomainError(ValueError):
    """The closed form does not cover the requested colouring or theta."""


# ---------------------------------------------------------------------------
# Sampling plans and deterministic chunked Monte Carlo


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic Monte Carlo schedule.

    Samples are generated in chunks; each chunk gets its own generator
    seeded from (master_seed, chunk_index), and chunk results are
    reduced in index order, so the estimate depends only on the three
    fields here.
    """

    master_seed: int
    n_samples: int
    chunk_size: int = 65536

    def __post_init__(self) -> None:
        for name in ("master_seed", "n_samples", "chunk_size"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2: one sample has no stderr")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")

    def chunks(self) -> Iterable[tuple[int, int]]:
        """(chunk_index, chunk_length) pairs covering n_samples."""
        full, rest = divmod(self.n_samples, self.chunk_size)
        for i in range(full):
            yield i, self.chunk_size
        if rest:
            yield full, rest

    def chunk_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([int(self.master_seed), int(index)])
        )

    def scaled(self, factor: int) -> "SamplingPlan":
        return SamplingPlan(self.master_seed, self.n_samples * factor, self.chunk_size)

    def draws(self) -> Iterator[Draws]:
        """The sample points chunk by chunk, one :class:`Draws` record
        each: alice's axis (eps, phi), uniform on the sphere, and bob's
        position omega on her partner circle, uniform on [0, 2pi).
        cos(eps) is drawn uniform on [-1, 1] and kept as drawn; no eps
        is formed, and phi and omega take the half-angle trig of
        :class:`Draws`."""
        for index, length in self.chunks():
            rng = self.chunk_rng(index)
            cos_eps = rng.uniform(-1.0, 1.0, length)
            phi = rng.uniform(0.0, 2.0 * PI, length)
            omega = rng.uniform(0.0, 2.0 * PI, length)
            yield Draws(cos_eps, phi, omega)


class Draws:
    """One chunk of sample points, as the trig values the partner maps
    read: cos(eps) as drawn, sin(eps) = sqrt((1 - cos eps)(1 + cos eps))
    (eps lies in [0, pi], so the root is its sine), and phi and omega.
    The cosines and sines of phi and omega are computed on first use,
    at most once per chunk, by ``geometry.half_angle_cos_sin`` from
    numpy's vectorised tan: each lies within 2.3e-16
    (``geometry.HALF_ANGLE_TOL``) of ``np.cos``/``np.sin`` on [0, 2pi),
    and omega = 0 gives (1, 0) exactly.  Every path of an engine reads these values from this one
    record, so the paths agree bit for bit with each other; against
    libm's trig a colour can differ only for a draw within about 1e-15
    of a colour boundary.

    This is the one place that forms and reads a party's axes, also for
    the sampled checks (at theta = 0, omega = 0).  :meth:`axes` gives
    them at separation theta from alice's in the form ``Colouring.read``
    takes: the polar cosine for an azimuthally symmetric colouring and
    the Cartesian axis for any other.  :meth:`colours` reads a colouring
    there; a harmonic colouring turns them into basis coordinates itself
    (``HarmonicColouring.rows``)."""

    def __init__(self, cos_eps: np.ndarray, phi: np.ndarray, omega: np.ndarray):
        self.cos_eps = cos_eps
        self.sin_eps = np.sqrt((1.0 - cos_eps) * (1.0 + cos_eps))
        self.phi = phi
        self.omega = omega

    @functools.cached_property
    def cos_omega(self) -> np.ndarray:
        return half_angle_cos_sin(self.omega)[0]

    @functools.cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Alice's axes a and the tangents u of ``partner_frame``.  Its
        cos omega becomes the record's unless that was read first, which
        no engine does (alice is read first, and an azimuthal reader
        takes cos eps at theta = 0), so omega's trig is taken once per
        chunk, and a chunk read only through cos omega keeps no sin."""
        cos_omega, sin_omega = half_angle_cos_sin(self.omega)
        self.__dict__.setdefault("cos_omega", cos_omega)
        return partner_frame(
            self.cos_eps,
            self.sin_eps,
            *half_angle_cos_sin(self.phi),
            cos_omega,
            sin_omega,
        )

    def axes(self, c: Colouring, theta: float = 0.0, cols=slice(None)) -> np.ndarray:
        """The axes at separation theta on the draws ``cols``, for
        ``c.read``: ``partner_cos_many`` of cos eps as drawn, sin
        eps and cos omega (unclamped) for an azimuthally symmetric
        colouring, ``partner_many`` of the frame for any other."""
        if c.is_azimuthal:
            if not theta:
                return self.cos_eps[cols]
            trig = self.cos_eps, self.sin_eps, self.cos_omega
            return partner_cos_many(theta, *(v[cols] for v in trig))
        a, u = self.frame
        return partner_many(theta, a[:, cols], u[:, cols]) if theta else a[:, cols]

    def colours(self, c: Colouring, theta: float = 0.0, cols=slice(None)) -> np.ndarray:
        """The colours of ``c`` at the axes at separation theta."""
        return c.read(self.axes(c, theta, cols))


def _as_pair(c: Colouring | ColouringPair) -> ColouringPair:
    if isinstance(c, ColouringPair):
        return c
    return ColouringPair.anticorrelated(c)


# The event path of correlation_mc_grid: a band bob on a dense grid.
# Margins of the certificate (see the docstring).
EVENT_SIGMA = 1e-6
EVENT_TAU = 1e-6
# A grid takes the event path when it has at least this many distinct
# points per colour flip of the bob.  Measured on one 65536-sample chunk
# (2-core Xeon, numpy 2.4.6) for bobs with 1 to 7 flips: at 8 points per
# flip the per-theta path took 6.8 to 30 ms and the event path 7.9 to
# 29 ms, at 16 points per flip 13 to 60 ms against 9.6 to 36 ms.
EVENT_POINTS_PER_FLIP = 8


def _event_flips(bob: Colouring) -> tuple[tuple[float, int], ...] | None:
    """(cos v, jump) for each colour flip v of a band bob or of its
    colour swap, where jump = +-2 is the change of his colour as his
    polar angle rises through v; None for any other bob, since an
    m = 0 harmonic's flips are roots correct only to rounding.  Flips
    alternate, so the jump at flip i is -2 north (-1)^i."""
    core = bob.inner if isinstance(bob, Negated) else bob
    if not isinstance(core, BandColouring):
        return None
    north, flips = bob.flips
    return tuple((math.cos(v), -2 * north * (-1) ** i) for i, v in enumerate(flips))


def _grid_slots(
    grid: list[float], t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(slot, below, above) of the times t on a sorted grid of distinct
    thetas: slot is ``np.searchsorted(grid, t)``, the number of grid
    thetas below t, and below < t <= above are the grid thetas around
    t (-inf before the first, inf after the last).

    The slot is guessed from the grid's mean spacing and checked; on an
    evenly spaced grid the guess is wrong only where rounding meets a
    grid theta.  The times that fail the check take ``np.searchsorted``,
    so every slot is searchsorted's."""
    guard = np.array([-np.inf, *grid, np.inf])
    lower, upper = guard[:-1], guard[1:]
    scale = (len(grid) - 1) / (grid[-1] - grid[0]) if len(grid) > 1 else 0.0
    slot = ((t - grid[0]) * scale + 1.0).astype(np.intp)
    np.clip(slot, 0, len(grid), out=slot)
    below, above = lower[slot], upper[slot]
    bad = np.flatnonzero((below >= t) | (above < t))
    if bad.size:
        fix = np.searchsorted(grid, t[bad])
        slot[bad] = fix
        below[bad], above[bad] = lower[fix], upper[fix]
    return slot, below, above


def _event_sums(
    bob: Colouring,
    flips: tuple[tuple[float, int], ...],
    a_vals: np.ndarray,
    draws: Draws,
    grid: list[float],
) -> np.ndarray:
    """The chunk's integer sums of alice * bob at each theta of a
    sorted grid of distinct thetas, from bob's crossing times of his
    flips (the event path of :func:`correlation_mc_grid`)."""
    cos_eps, sin_eps, cos_omega = draws.cos_eps, draws.sin_eps, draws.cos_omega
    first = draws.colours(bob, grid[0])
    # x(theta) = cos theta cos eps - sin theta (sin eps cos omega)
    #          = r cos(theta + psi)
    y = sin_eps * cos_omega
    r = np.sqrt(cos_eps * cos_eps + y * y)
    psi = np.arctan2(y, cos_eps)
    shaky = np.zeros(r.shape, dtype=bool)
    lo, hi = grid[0] - EVENT_TAU, grid[-1] + EVENT_TAU
    times, weights, owners = [], [], []
    for c, jump in flips:
        gap = r - abs(c)
        shaky |= np.abs(gap) < EVENT_SIGMA
        idx = np.flatnonzero(gap >= EVENT_SIGMA)
        h = np.arccos(c / r[idx])
        # at theta + psi = h, x falls and the polar angle rises through v
        for t, step in ((h - psi[idx], jump), (-h - psi[idx], -jump)):
            t += (t < 0.0) * (2.0 * PI)
            shaky[idx[(t < EVENT_TAU) | (t > 2.0 * PI - EVENT_TAU)]] = True
            keep = np.flatnonzero((t > lo) & (t < hi))
            owner = idx[keep]
            times.append(t[keep])
            owners.append(owner)
            weights.append(a_vals[owner] * float(step))
    t = np.concatenate(times)
    owners = np.concatenate(owners)
    slot, below, above = _grid_slots(grid, t)
    shaky[owners[(t - below < EVENT_TAU) | (above - t < EVENT_TAU)]] = True
    weights = np.concatenate(weights)
    weights[shaky[owners]] = 0.0
    # the slot is the number of grid thetas below the crossing, the
    # first grid index it affects; 0 (before grid[0]) and len(grid)
    # (after grid[-1]) drop out
    counts = np.bincount(slot, weights=weights, minlength=len(grid) + 1)
    sums = np.zeros(len(grid), dtype=np.int64)
    sums[1:] = np.cumsum(counts[1:-1]).astype(np.int64)
    sums += int(np.sum(a_vals[~shaky] * first[~shaky], dtype=np.int64))
    rest = np.flatnonzero(shaky)
    if rest.size:
        # partner_cos_many on the (grid x shaky draws) broadcast
        ct = np.array([[math.cos(theta)] for theta in grid])
        st = np.array([[math.sin(theta)] for theta in grid])
        x = ct * cos_eps[rest] - st * sin_eps[rest] * cos_omega[rest]
        sums += np.sum(a_vals[rest] * bob.read(x), axis=1, dtype=np.int64)
    return sums


# The trig path of correlation_mc_grid (a harmonic bob on a dense grid)
# is taken when the grid has more than this many distinct points per
# node (L + 1 nodes for degree L).  Measured on one chunk of
# 20000 and of 65536 samples (2-core Xeon, numpy 2.4.6, a noisy host)
# for L = 1 to 11, the per-theta path took 0.9 to 1.1, 1.0 to 1.7 and
# 1.1 to 2.2 times as long as the trig path at L + 2, 2 L + 3 and
# 3 L + 4 points for all-m bobs, and 0.5 to 1.1 times at 2 L + 3 and
# 0.7 to 1.4 times at 6 L + 7 to 10 L + 11 points for m = 0 bobs.
TRIG_POINTS_PER_NODE = 2
# interpolated grid rows held at once, which bounds the temporaries
TRIG_BLOCK = 4


def _trig_grid(
    bob: Colouring, grid: list[float]
) -> tuple[list[float], np.ndarray, float] | None:
    """(nodes, interpolation matrix K, certificate margin) of the trig
    path for a harmonic bob (or his colour swap) on a sorted grid of
    distinct thetas; None for any other bob, one with no ``read_margin``,
    or a grid with at most TRIG_POINTS_PER_NODE points per node.  For
    degree L there are L + 1 nodes pi j / (L + 1), and K[g, j] =
    (2 / (L + 1)) sum_{k = 1, 3, ..., L} cos(k (theta_g - node_j))."""
    core = bob.inner if isinstance(bob, Negated) else bob
    if not isinstance(core, HarmonicColouring) or core.read_margin is None:
        return None
    size = max(l for l, _, c in core.terms if c != 0.0) + 1
    if len(grid) <= TRIG_POINTS_PER_NODE * size:
        return None
    nodes = PI * np.arange(size) / size
    gaps = np.subtract.outer(np.array(grid), nodes)
    kernel = (2.0 / size) * sum(np.cos(k * gaps) for k in range(1, size, 2))
    lebesgue = float(np.max(np.sum(np.abs(kernel), axis=1)))
    return nodes.tolist(), kernel, core.read_margin * (1.0 + lebesgue)


def _harmonic_sums(
    bob: Colouring,
    interp: tuple[list[float], np.ndarray, float],
    a_vals: np.ndarray,
    draws: Draws,
    grid: list[float],
) -> np.ndarray:
    """The chunk's integer sums of alice * bob at each theta of a
    sorted grid of distinct thetas, from his amplitude at the nodes of
    :func:`_trig_grid` (the trig path of :func:`correlation_mc_grid`)."""
    nodes, kernel, margin = interp
    core, sign = (bob.inner, -1) if isinstance(bob, Negated) else (bob, 1)
    values = np.empty((len(nodes), a_vals.size))
    for j, t in enumerate(nodes):
        values[j] = core.polynomial_amplitude(draws.axes(core, t))
    weights = sign * a_vals.astype(float)
    sums = np.empty(len(grid), dtype=np.int64)
    for lo in range(0, len(grid), TRIG_BLOCK):
        # einsum, not a BLAS product: OpenBLAS threads these shapes and
        # a thread hand-off on a busy core costs milliseconds per call
        amp = np.einsum("gj,jn->gn", kernel[lo : lo + TRIG_BLOCK], values)
        colours = np.sign(amp)
        amp *= colours
        shaky = None
        if amp.min() <= margin:
            shaky = amp <= margin
            colours[shaky] = 0.0
        # integers below 2^53 in floats: the products sum exactly
        sums[lo : lo + TRIG_BLOCK] = np.einsum("gn,n->g", colours, weights)
        if shaky is not None:
            rows, cols = np.nonzero(shaky)
            for k in np.unique(rows).tolist():
                idx = cols[rows == k]
                exact = draws.colours(bob, grid[lo + k], idx)
                sums[lo + k] += np.sum(a_vals[idx] * exact, dtype=np.int64)
    return sums


def correlation_mc_grid(
    c: Colouring | ColouringPair,
    thetas: Sequence[float],
    plan: SamplingPlan,
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of C on a grid: (value, stderr) per theta.

    The loop is chunk-major: each chunk of ``plan`` is drawn once, as a
    :class:`Draws` record that keeps cos(eps) as drawn and takes each
    trig value of the draws at most once, and alice is evaluated on it
    once; then only bob moves, over the distinct thetas of the grid.
    Both are read by :meth:`Draws.colours`, alice at theta = 0 and bob
    per theta, by his ``read``: an azimuthally symmetric bob (bands, an
    m = 0 harmonic, or the colour swap of either) at his polar cosine
    alone (a band bob by comparison with its flips' cosines), any other
    at his Cartesian axis, from whose coordinates his harmonic basis is
    built.  Every theta sees the same draws it would see alone, and the
    products alice * bob are exactly +-1, so each chunk sum is an
    integer and every estimate is bit-identical to
    ``correlation_mc(c, theta, plan)``.  The standard
    error is sqrt((1 - mean^2) / (n - 1)).

    Two paths pay per draw rather than per (draw, theta) on a dense
    grid, and give every chunk the same integer sums.

    A band bob (or his colour swap) on a grid with at least
    ``EVENT_POINTS_PER_FLIP`` distinct thetas per colour flip takes the
    event path.  Along the grid his polar cosine is
    x(theta) = R cos(theta + psi), with R = hypot(cos eps,
    sin eps cos omega) and psi = atan2(sin eps cos omega, cos eps), so
    he crosses a flip v where R > |cos v| at the two times
    theta = +-arccos(cos v / R) - psi (mod 2 pi), and nowhere else; cos
    eps is the drawn one and sin eps its root, as in the per-theta
    path.  A chunk's sums over the sorted grid are its per-theta sum at
    the first theta plus a cumulative ``bincount`` of alice times bob's
    colour jump at the crossing times, each in the grid slot that
    :func:`_grid_slots` finds from the grid's mean spacing (checked,
    with ``np.searchsorted`` where the check fails).  A sample is
    certified when, for
    every flip, |R - |cos v|| >= EVENT_SIGMA and every crossing lies
    EVENT_TAU or more from every grid theta and from 0 and 2 pi.  Then
    at every grid theta |x - cos v| >= g sin(EVENT_TAU / 2), where
    g = sqrt(R^2 - cos^2 v) >= EVENT_SIGMA is the speed of the crossing
    (R cos phi - R cos h = -2R sin((phi - h)/2) sin((phi + h)/2), and
    the farther root is at least half the roots' separation away), or
    |x - cos v| >= EVENT_SIGMA if he never crosses v.  That is 5e-13,
    while ``partner_cos_many`` and the flip cosines that
    ``BandColouring.read`` compares with round by about 1e-15, and
    the computed crossing times are off by about 1e-16 / EVENT_SIGMA (arccos
    is conditioned by R / g and psi by 1 / R, both <= 1 / EVENT_SIGMA),
    far inside EVENT_TAU.  So the per-theta path gives every certified
    sample exactly the colours its events give.  The others, about
    2 * flips * (points + 2) * EVENT_TAU / pi of the samples, keep
    their events with weight 0 and are read per theta, in one (grid x
    samples) broadcast of ``partner_cos_many``'s expression, so every
    sum is the same integer.

    A harmonic bob of degree L (or his colour swap) on a grid with more
    than ``TRIG_POINTS_PER_NODE`` * (L + 1) distinct thetas takes the
    trig path.  Along the grid his axis is b = cos theta a + sin theta u,
    and every Y_lm is a homogeneous polynomial of degree l in b, so his
    amplitude p(theta) = sum c_lm Y_lm(b) is an odd trig polynomial:
    frequencies 1, 3, ..., L only, and p(theta + pi) = -p(theta).  Its
    L + 1 coefficients are fixed by its values at the L + 1 nodes
    pi j / (L + 1), where the cosines and sines of those frequencies
    are orthogonal, so p = K V exactly: V holds the chunk's amplitudes
    at the nodes (``HarmonicColouring.polynomial_amplitude`` at
    :meth:`Draws.axes`) and K is the interpolation matrix of
    :func:`_trig_grid`.  The node values and the sum whose sign the
    per-theta reader gives are within the errors that
    ``HarmonicColouring.polynomial_amplitude`` states, far inside the
    colouring's ``read_margin`` r; the interpolated value is off by
    Lambda times the node error plus the rounding of the product, where
    Lambda, the largest absolute row sum of K, is its Lebesgue constant
    (2.1 to 2.6 for L <= 11).  A pair (draw, theta) is certified when
    |K V| > r (1 + Lambda), and then the per-theta amplitude has the
    sign of K V and cannot be the tie 0.  The others, a fraction of
    about 2 r (1 + Lambda) rho, with rho the density of p at 0 (about
    2.5e-8 for a random unit coefficient vector over every (l, m) with
    l <= 5), are read per theta, so every sum is the same integer.
    """
    grid = checked_theta([float(t) for t in thetas]).tolist()
    if not grid:
        return []
    pair = _as_pair(c)
    bob = pair.bob
    distinct = sorted(set(grid))
    flips = _event_flips(bob)
    events = bool(flips) and len(distinct) >= EVENT_POINTS_PER_FLIP * len(flips)
    interp = _trig_grid(bob, distinct)
    totals = np.zeros(len(distinct), dtype=np.int64)
    for draws in plan.draws():
        a_vals = draws.colours(pair.alice)
        if events:
            totals += _event_sums(bob, flips, a_vals, draws, distinct)
        elif interp is not None:
            totals += _harmonic_sums(bob, interp, a_vals, draws, distinct)
        else:
            totals += [np.sum(a_vals * draws.colours(bob, t), dtype=np.int64) for t in distinct]
    by_theta = dict(zip(distinct, totals.tolist()))
    n = plan.n_samples
    values = [by_theta[t] / n for t in grid]
    return [(v, math.sqrt(max(0.0, 1.0 - v * v) / (n - 1))) for v in values]


def correlation_mc(
    c: Colouring | ColouringPair, theta: float, plan: SamplingPlan
) -> tuple[float, float]:
    """Monte Carlo estimate of C(theta): (value, standard error), the
    one-theta case of :func:`correlation_mc_grid`."""
    return correlation_mc_grid(c, [theta], plan)[0]


# ---------------------------------------------------------------------------
# The flip record and the front door of the exact engines


@functools.lru_cache(maxsize=256)
def _flips_of(
    c: Colouring | ColouringPair | str | int, delta: float | None = None
) -> tuple[int, tuple[float, ...]]:
    """The ``flips`` record (value at the north pole, polar angles where
    the colour flips) of the colouring an exact engine reads from ``c``:
    a colouring, a catalogue label (``delta`` as in :func:`closed_form`)
    or a pair.  The exact engines assume the second party holds the
    first's colour swap, so a pair passes only when its bob is
    ``negate(alice)``.

    Checks the exact engines' preconditions and raises
    :class:`ClosedFormDomainError` where one fails: the colouring must
    be azimuthally symmetric and antipodal.  Consecutive flips
    alternate, and the K flips f_i are antipodal when K is odd and each
    f_i + f_(K-1-i) is within 1e-9 of pi.
    """
    if isinstance(c, ColouringPair):
        if c.bob != negate(c.alice):
            raise ClosedFormDomainError(
                "deterministic engines assume the second party holds the colour swap"
            )
        c = c.alice
    if isinstance(c, (str, int)):
        try:
            c = make_catalogue(c, delta=delta, Delta=delta)
        except ValueError as exc:
            raise ClosedFormDomainError(str(exc)) from None
    if not c.is_azimuthal:
        raise ClosedFormDomainError(
            f"exact engines need an azimuthally symmetric colouring, got {c.label!r}"
        )
    north, flips = c.flips
    pairs = zip(flips, reversed(flips))
    if len(flips) % 2 == 0 or any(abs(lo + hi - PI) > 1e-9 for lo, hi in pairs):
        raise ClosedFormDomainError(f"colouring {c.label!r} is not antipodal")
    return north, flips


def closed_form_slope(c: Colouring | ColouringPair | str | int) -> float:
    """A bound L on the slope of ``closed_form(c, theta)`` in theta:
    |C(t1) - C(t2)| <= L |t1 - t2|, with L = (2/pi) sum_k sin v_k over
    the colour flips v_k.

    Move theta from t1 to t2 with alice's axis and bob's direction from
    it fixed: bob's axis sweeps a geodesic arc of length |t1 - t2| whose
    position and direction are uniformly random.  By Crofton's formula
    it crosses the flip circle at colatitude v on average
    |t1 - t2| sin v / pi times, and each crossing changes alice * bob by
    2.  The bound is tight for the hemisphere, whose slope is 2/pi.
    """
    return 2.0 / PI * sum(math.sin(v) for v in _flips_of(c)[1])


def _exact_engine(
    values_of: Callable[[np.ndarray, int, tuple[float, ...]], np.ndarray],
    rows: int,
    c: Colouring | ColouringPair | str | int,
    theta: float | np.ndarray,
    delta: float | None = None,
) -> float | np.ndarray:
    """C(theta) of the colouring that ``_flips_of(c, delta)`` reads from
    ``c``: the front door of both exact engines.  ``values_of(t, north,
    flips)`` gives C on a 1-d block of at most ``rows`` angles t in
    [1e-12, pi/2].

    theta is a float, which runs as the 0-d case and gives a float, or
    an array, which gives an array of its shape; each element is the
    value its float gives, bit for bit.  The domain is theta in [0, pi]:
    any theta outside [-1e-12, pi + 1e-12], nan included, raises
    :class:`ClosedFormDomainError` naming the first in units of pi,
    before the colouring is read, and theta is clamped into [0, pi].
    theta past pi/2 + 1e-12 is folded to pi - theta by the antisymmetry
    C(pi - theta) = -C(theta) of an antipodal colouring, and theta
    within 1e-12 past pi/2 is clamped to pi/2.  Where the angle so
    reached lies below ``SNAP`` = 1e-12, C is -1 (perfect
    anticorrelation) before the fold's sign and ``values_of`` is not
    called: theta = 0 gives -1 and theta = pi gives +1.
    """
    t, bad = clamp_angles(theta)
    if bad is not None:
        raise ClosedFormDomainError(bad)
    north, flips = _flips_of(c, delta)
    folded = t > HALF_PI + SNAP
    fold = folded.any()
    flat = np.ravel(np.minimum(np.where(folded, PI - t, t) if fold else t, HALF_PI))
    live = np.flatnonzero(flat >= SNAP)
    values = np.full(flat.size, -1.0)
    for i in range(0, live.size, rows):
        block = live[i : i + rows]
        values[block] = values_of(flat[block], north, flips)
    values = values.reshape(t.shape)
    return float_if_0d(np.where(folded, -values, values) if fold else values)


# ---------------------------------------------------------------------------
# Deterministic quadrature over the reduced integral


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21; Piessens et
# al., 1983): its nodes in [0, 1), largest first, which mirror about 0,
# their Kronrod weights, and the weights of the embedded 10-point Gauss
# rule, whose nodes are those of odd index here.
_KRONROD_X = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0,
)
_KRONROD_W = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169,
)
_GAUSS_W = (
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
    0.29552422471475287,
)
# theta rows per block of the quadrature engine, which bounds its
# temporaries (pieces x 21 nodes x flips per row)
_QUADRATURE_ROWS = 32


def _cosine_mapped_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """qk21's nodes on the piece [0, 1] under the map
    x -> (1 - cos u) / 2 = sin(u / 2)^2, u = (pi / 2)(1 + x), and its
    Kronrod and Gauss weights times the map's derivative (pi / 4) sin u.
    A square-root kink at an end of the piece is analytic in u."""
    half = np.array(_KRONROD_X)
    u = HALF_PI * (1.0 + np.concatenate((-half, half[-2::-1])))
    gauss = np.zeros(half.size)
    gauss[1::2] = _GAUSS_W
    kronrod, gauss = (
        np.concatenate((w, w[-2::-1])) * (0.25 * PI * np.sin(u))
        for w in (np.array(_KRONROD_W), gauss)
    )
    return np.sin(0.5 * u) ** 2, kronrod, gauss


_NODES, _KRONROD, _GAUSS = _cosine_mapped_rule()


def _quadrature_integrand(
    t: np.ndarray, eps: np.ndarray, north: int, flips: tuple[float, ...]
) -> np.ndarray:
    """The outer integrand sin(eps) a(eps) int_0^pi a[alpha] d omega of
    :func:`correlation_quadrature` at theta t and polar angle eps
    (broadcast), elementwise.

    ``north`` and ``flips`` are ``_flips_of(c)``: consecutive flips
    alternate, so the colour at a polar angle x is level[number of flips
    <= x], at a flip itself the colour above it.  As omega runs 0 -> pi
    the partner's polar angle alpha falls monotonically from t + eps to
    |t - eps|, so the inner integral is pi a(|t - eps|) + 2 sum_v s_v
    omega_v over the flips v strictly inside that window, with s_v the
    colour above v and v crossed at
    omega_v = arccos((cos t cos eps - cos v) / (sin t sin eps)).  Where
    sin t sin eps < 1e-14 the circle collapses to the point
    alpha = arccos(cos t cos eps) (a removable limit).
    """
    f = np.array(flips)
    level = north * (1.0 - 2.0 * (np.arange(f.size + 1) % 2))
    se = np.sin(eps)
    x = np.cos(t) * np.cos(eps)
    denom = np.sin(t) * se
    collapsed = denom < 1e-14
    low = np.abs(t - eps)
    active = (low[..., None] < f) & (f < (t + eps)[..., None])
    cos_omega = (x[..., None] - np.cos(f)) / np.where(collapsed, 1.0, denom)[..., None]
    omega = np.arccos(np.clip(cos_omega, -1.0, 1.0))
    arcs = np.cumsum(np.where(active, level[1:] * omega, 0.0), axis=-1)[..., -1]
    inner = PI * level[np.searchsorted(f, low, side="right")] + 2.0 * arcs
    if collapsed.any():
        alpha = arccos_clamped_array(x[collapsed])
        inner[collapsed] = PI * level[np.searchsorted(f, alpha, side="right")]
    return se * level[np.searchsorted(f, eps, side="right")] * inner


def _breakpoints(theta: float, flips: tuple[float, ...]) -> list[float]:
    """The outer integral's mandatory breakpoints in (0, pi/2), where
    its integrand jumps or has a square-root kink: theta and every v,
    v - theta, theta - v and v + theta over the flips v."""
    breaks = {theta, *(b for v in flips for b in (v, v - theta, theta - v, v + theta))}
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
    return pts


def _gauss_kronrod(
    t: np.ndarray, lo: np.ndarray, hi: np.ndarray, north: int, flips: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The cosine-mapped qk21 integral of :func:`_quadrature_integrand`
    over each piece [lo, hi] at theta t (1-d arrays of one length), and
    its estimate |K21 - G10|, floored as in QUADPACK at 50 eps times
    the Kronrod rule on |f| for the rounding.  Each piece's weighted
    nodes are added in node order by ``cumsum``."""
    h = (hi - lo)[:, None]
    f = h * _quadrature_integrand(t[:, None], lo[:, None] + h * _NODES, north, flips)
    kronrod, gauss, rounding = (
        np.cumsum(g * w, axis=1)[:, -1]
        for g, w in ((f, _KRONROD), (f, _GAUSS), (np.abs(f), _KRONROD))
    )
    floor = 50.0 * np.finfo(float).eps * rounding
    return kronrod, np.maximum(np.abs(kronrod - gauss), floor)


def _outer_integrals(
    t: np.ndarray, north: int, flips: tuple[float, ...], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The outer integrals over [0, pi/2] of :func:`correlation_quadrature`
    at each theta of the 1-d array t, in [1e-12, pi/2], and their error
    estimates, each at most tol.

    Each theta's pieces lie between its :func:`_breakpoints`, and all
    are evaluated in one call of :func:`_gauss_kronrod`; a theta's
    integral and estimate are its pieces' sums.  While a theta's
    estimate exceeds tol, its pieces whose estimate exceeds tol / (its
    number of pieces) are bisected, and only the halves are evaluated.
    A theta that would pass the subdivision limit of QUADPACK's calls,
    max(200, 20 (breakpoints) + 50) pieces, raises
    :class:`QuadratureError`.  The order of a theta's pieces depends on
    its own bisections alone, and ``bincount`` adds them in that order,
    so every value is independent of the rest of the array.
    """
    pts = [_breakpoints(theta, flips) for theta in t.tolist()]
    limit = np.array([max(200, 20 * len(p) + 50) for p in pts])
    owner = np.repeat(np.arange(t.size), [len(p) + 1 for p in pts])
    lo = np.concatenate([[0.0, *p] for p in pts])
    hi = np.concatenate([[*p, HALF_PI] for p in pts])
    values, errors = _gauss_kronrod(t[owner], lo, hi, north, flips)
    while True:
        count = np.bincount(owner, minlength=t.size)
        total, estimate = (np.bincount(owner, w, t.size) for w in (values, errors))
        unsettled = ~(estimate <= tol)  # nan included
        split = unsettled[owner] & (errors > tol / count[owner])
        grown = count + np.bincount(owner[split], minlength=t.size)
        failed = unsettled & ((grown > limit) | (grown == count))
        if failed.any():
            i = int(np.argmax(failed))
            raise QuadratureError(
                f"outer integral did not converge at theta={float(t[i])!r}: error "
                f"estimate {estimate[i]:.3g} above tol {tol!r} at {count[i]} subintervals",
                best_estimate=-total[i] / PI,
                abserr=float(estimate[i]),
            )
        if not split.any():
            return total, estimate
        mid = 0.5 * (lo[split] + hi[split])
        owners = np.tile(owner[split], 2)
        ends = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        halves = (owners, *ends, *_gauss_kronrod(t[owners], *ends, north, flips))
        owner, lo, hi, values, errors = (
            np.concatenate((old[~split], new))
            for old, new in zip((owner, lo, hi, values, errors), halves)
        )


def correlation_quadrature(
    c: Colouring | ColouringPair | str | int,
    theta: float | np.ndarray,
    tol: float = 1e-8,
) -> float | np.ndarray:
    """Deterministic C(theta) for an anticorrelated azimuthal pair, by
    quadrature of the outer integral.

    ``c`` and theta are read by the front door :func:`_exact_engine`,
    which gives their domain; each block of ``_QUADRATURE_ROWS`` angles
    is one pass of :func:`_outer_integrals`.  Raises
    :class:`QuadratureError` carrying the best estimate if the outer
    integral at some theta does not converge.  ``tol``, the outer
    integral's absolute tolerance, must be finite and positive.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"quadrature tolerance {tol!r} must be finite and positive")
    values_of = lambda t, north, flips: -_outer_integrals(t, north, flips, tol)[0] / PI
    return _exact_engine(values_of, _QUADRATURE_ROWS, c, theta)


# ---------------------------------------------------------------------------
# The band-overlap integral chi


def _triangle_angles(
    sin_s: np.ndarray, sin_a: np.ndarray, sin_t: np.ndarray, sin_b: np.ndarray
) -> np.ndarray:
    """The angles at N, P and X of the spherical triangle of :func:`chi`
    (sides NP = theta, NX = beta, PX = alpha), elementwise over 1-d
    arrays, from the sines of its half-perimeter s and of s - alpha,
    s - theta, s - beta (the half-angle formula).  Clamping the sines
    at 0 saturates an angle to 0 or pi off the triangle, which keeps Phi
    exact there."""
    r_s, r_a, r_t, r_b = (
        np.sqrt(np.where(x < 0.0, 0.0, x)) for x in (sin_s, sin_a, sin_t, sin_b)
    )
    opposite = np.concatenate((r_b * r_t, r_a * r_t, r_a * r_b))
    adjacent = np.concatenate((r_s * r_a, r_s * r_b, r_s * r_t))
    return 2.0 * np.arctan2(opposite, adjacent).reshape(3, -1)


def _chi_antiderivative(
    theta: float | np.ndarray, beta: np.ndarray, alpha: float | np.ndarray
) -> np.ndarray:
    """Phi(beta) of :func:`chi`, elementwise: ``beta`` is a 1-d array,
    and ``theta`` and ``alpha`` broadcast against it."""
    south = beta > HALF_PI
    if south.any():
        # X -> -X: Phi(beta; alpha) = Phi(pi - beta; pi - alpha)
        # + 2 cos(alpha) - 2 cos(beta), exact near the south pole
        phi = _chi_antiderivative(
            theta,
            np.where(south, PI - beta, beta),
            np.where(south, PI - alpha, alpha),
        )
        return np.where(south, phi + 2.0 * np.cos(alpha) - 2.0 * np.cos(beta), phi)
    # sines of the half-perimeter s and of s - alpha, s - theta, s - beta
    d = alpha - theta
    at_n, at_p, at_x = _triangle_angles(
        np.sin(0.5 * (alpha + beta + theta)),
        np.sin(0.5 * (beta - d)),
        np.sin(0.5 * (beta + d)),
        np.sin(0.5 * (alpha + theta - beta)),
    )
    cb = np.cos(beta)
    phi = (2.0 / PI) * (at_x + np.cos(alpha) * at_p + cb * at_n) - 2.0 * cb
    # the north-pole limit
    return np.where(beta == 0.0, 0.0, phi)


def chi(theta: float, a: float, b: float, alpha: float) -> float:
    """The overlap integral
    (2/pi) int_a^b d eps sin(eps) arccos((cos theta cos eps - cos alpha)
                                         / (sin theta sin eps)),
    in closed form: Phi(b) - Phi(a).

    The arccos is pi - N, where N is the angle at the pole of the
    spherical triangle with vertices N (the pole), P (at angle theta
    from N) and X, with sides NP = theta, NX = eps and PX = alpha.  So
    Phi(eps) is 1/pi times the area of the polar cap of radius eps
    that lies farther than alpha from P: the cap minus its lens of
    overlap with the cap of radius alpha around P.  Gauss-Bonnet gives
    the lens area, 2 pi - 2 (X + cos(alpha) P + cos(eps) N), through
    the triangle's angles (each from the half-angle formula), hence

        Phi(eps) = (2/pi) (X + cos(alpha) P + cos(eps) N) - 2 cos(eps).

    The differences s - alpha, s - theta and s - eps of the
    half-perimeter s are formed directly, so they keep full relative
    precision where the triangle degenerates at the window's edges.  At
    the north pole eps = 0 the triangle collapses and Phi takes its
    limit 0; eps > pi/2 is mapped there by reflecting X through the
    centre, which gives the south-pole limit Phi(pi) = 2 + 2 cos(alpha).

    Zero-width intervals return 0; otherwise theta must lie in
    (0, pi/2], a, b, alpha in [0, pi], and [a, b] inside the window
    [|alpha - theta|, min(alpha + theta, 2 pi - alpha - theta)] where
    the triangle exists, to within 1e-9.  This is the scalar view of
    the elementwise Phi that :func:`closed_form` evaluates on arrays.
    """
    a, b, alpha = float(a), float(b), float(alpha)
    if abs(b - a) < 1e-14:
        return 0.0
    if not SNAP < theta <= HALF_PI + SNAP:
        raise ValueError(f"theta {theta!r} outside (0, pi/2]")
    for name, v in (("a", a), ("b", b), ("alpha", alpha)):
        if not -1e-12 <= v <= PI + 1e-12:
            raise ValueError(f"{name}={v!r} outside [0, pi]")
    lo, hi = abs(alpha - theta), min(alpha + theta, 2.0 * PI - alpha - theta)
    for name, v in (("a", a), ("b", b)):
        if not lo - 1e-9 <= v <= hi + 1e-9:
            raise ValueError(f"{name}={v!r} outside the window [{lo!r}, {hi!r}]")
    a, b = min(max(a, lo), hi), min(max(b, lo), hi)
    phi_b, phi_a = _chi_antiderivative(float(theta), np.array([b, a]), alpha)
    return float(phi_b - phi_a)


# ---------------------------------------------------------------------------
# The exact engine: sums of cosines and chi terms over derived pieces


def clamp_angles(theta: float | np.ndarray) -> tuple[np.ndarray, str | None]:
    """theta as an array clamped into [0, pi] (a float runs as the 0-d
    case), and a message naming its first element outside
    [-SNAP, pi + SNAP] (nan included) in units of pi, or None if there
    is none."""
    t = np.asarray(theta, dtype=float)
    outside = t[~((-SNAP <= t) & (t <= PI + SNAP))]
    bad = f"theta={float(outside[0]) / PI:g}*pi outside [0, pi]" if outside.size else None
    return np.clip(t, 0.0, PI), bad


def checked_theta(theta: float | np.ndarray) -> np.ndarray:
    """theta as an array clamped into [0, pi] by :func:`clamp_angles`.
    Any theta outside [-1e-12, pi + 1e-12], nan included, raises
    ``ValueError`` naming the first in units of pi."""
    t, bad = clamp_angles(theta)
    if bad is not None:
        raise ValueError(bad)
    return t


# rows per engine block, which bounds its temporary arrays
_ENGINE_ROWS = 128


def _exact_values(t: np.ndarray, north: int, flips: tuple[float, ...]) -> np.ndarray:
    """C(t) for a 1-d array of t in [1e-12, pi/2] from the colour-flip
    structure.  A single flip at the equator is the hemisphere, whose
    value is the linear law -(1 - 2 t / pi) with no ``chi`` term at all.

    The inner omega integral of ``correlation_quadrature`` is
    pi a(|t - eps|) + 2 sum_v s_v omega_v(eps), summed over the flips v
    in (|t - eps|, t + eps) with s_v the jump sign at v.  The outer
    integral -(1/pi) int_0^{pi/2} sin(eps) a(eps) [...] d eps is then

        C(t) = -sum_pieces a a_bottom (cos p - cos q)
               - sum_v s_v sum_runs a chi(t, p, q, v)

    where a a_bottom = a(eps) a(|t - eps|) is constant on the pieces
    between the breakpoints {t, v, t - v, t + v}, flip v is active for
    eps in (|v - t|, v + t), and its runs split that interval where
    a(eps) flips.

    Every row has the same columns, so the whole array is one set of
    numpy calls.  The pieces' breakpoints {0, pi/2, t, v, t - v, t + v}
    are clipped into [0, pi/2] and sorted per row: a repeated or
    out-of-range breakpoint gives a zero-width piece, whose cosine
    difference is exactly 0.  Flip v's runs are cut at every flip
    clipped into [|v - t|, min(v + t, pi/2)], so a flip outside that
    interval, or an inactive v, gives zero-width runs; like ``chi``,
    a run narrower than 1e-14 adds 0, and Phi is evaluated only at the
    ends of the others.  Each row's terms are added in column order by
    ``cumsum``, which is the order of the per-theta sum, so every value
    is independent of the rest of the array.
    """
    if len(flips) == 1 and abs(flips[0] - HALF_PI) < SNAP:
        return -(1.0 - 2.0 * t / PI)
    f = np.array(flips)
    n = t.size
    # level[k] is a(eps) between flips k - 1 and k; the jump at flip i
    # goes to level[i + 1]
    level = north * (1.0 - 2.0 * (np.arange(f.size + 1) % 2))
    col = t[:, None]
    fixed = np.broadcast_to(np.concatenate(([0.0, HALF_PI], f)), (n, f.size + 2))
    cuts = np.concatenate((fixed, col, col - f, col + f), axis=1)
    np.clip(cuts, 0.0, HALF_PI, out=cuts)
    cuts.sort(axis=1)
    cos_cuts = np.cos(cuts)
    mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    here = level[np.searchsorted(f, mids, side="right")]
    bottom = level[np.searchsorted(f, np.abs(col - mids), side="right")]
    pieces = here * bottom * (cos_cuts[:, :-1] - cos_cuts[:, 1:])

    # bounds[row, i] = [lo, flips clipped into [lo, hi], hi] of flip i
    lo = np.abs(f - col)
    hi = np.maximum(np.minimum(f + col, HALF_PI), lo)
    lo, hi = lo[..., None], hi[..., None]
    bounds = np.concatenate((lo, np.clip(f, lo, hi), hi), axis=2)
    runs = bounds[..., 1:] - bounds[..., :-1] >= 1e-14
    ends = np.zeros(bounds.shape, dtype=bool)
    ends[..., 1:] = runs
    ends[..., :-1] |= runs
    row, flip, _ = np.nonzero(ends)
    phi = np.zeros(bounds.shape)
    phi[ends] = _chi_antiderivative(t[row], bounds[ends], f[flip])
    chis = np.where(runs, phi[..., 1:] - phi[..., :-1], 0.0)
    # run r of flip i has a = level[r] and jumps to level[i + 1]
    signs = level[1:, None] * level[None, :]
    terms = (np.zeros((n, 1)), pieces, (signs * chis).reshape(n, -1))
    return -np.cumsum(np.concatenate(terms, axis=1), axis=1)[:, -1]


def closed_form(
    c: Colouring | ColouringPair | str | int,
    theta: float | np.ndarray,
    delta: float | None = None,
) -> float | np.ndarray:
    """Exact C(theta) for an antipodal azimuthal colouring.

    ``c`` is a colouring, a catalogue label, built by
    :func:`make_catalogue`, or a pair whose second party holds the
    first's colour swap; ``delta`` is the parameter of 3_delta or
    2_Delta when the label does not inline it.  ``c`` and theta are read
    by the front door :func:`_exact_engine`, which gives their domain
    and raises :class:`ClosedFormDomainError` outside it; an array runs
    in blocks of ``_ENGINE_ROWS`` rows of :func:`_exact_values` (a
    crossing scan or a curve is one call).  The value is a sum of
    cosines and closed-form ``chi`` terms over pieces derived from the
    colouring's flip edges, so it carries rounding error only and has no
    tolerance to set.

    The triangle angles of Phi come from numpy's ``arctan2``.  With K
    flips each value lies within K (K + 2) 5e-14 of the one libm's
    atan2 gives (1.75e-12 for the five flips of the three-band
    colourings; at most 3.2e-15 measured over the catalogue and both
    deformed families).  Both atan2 are within about an ulp, so each
    triangle angle (twice an atan2 in [0, pi/2]) moves by at most
    3.6e-15 and each Phi, whose eight further roundings are within an
    ulp of |Phi| <= 12, by at most 2e-14; a row evaluates Phi at no
    more than K (K + 2) run ends, each shared by at most two runs.  The
    last bits may differ between numpy's AVX-512 loop and its other
    loops, so between hosts; reruns on one host are identical.
    """
    return _exact_engine(_exact_values, _ENGINE_ROWS, c, theta, delta)


# ---------------------------------------------------------------------------
# Curves, gamma, mixtures, the circle counterexample, CSV schema


@dataclass(frozen=True)
class CurvePoint:
    theta: float
    value: float
    stderr: float | None = None


@dataclass(frozen=True)
class CorrelationCurve:
    """C(theta) on a sorted grid, by one method.  The error-bar contract
    is stated here only: a point is tested statistically exactly when it
    carries a stderr, a stderr is finite and >= 0, and every point of an
    ``mc`` curve carries one."""

    colouring_label: str
    method: str
    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method {self.method!r} not one of {METHODS}")
        pts = tuple(self.points)
        thetas = [p.theta for p in pts]
        if any(b < a for a, b in zip(thetas, thetas[1:])):
            raise ValueError("curve points must be sorted by theta")
        for p in pts:
            if not -1.0 - 1e-9 <= p.value <= 1.0 + 1e-9:
                raise ValueError(f"correlation value {p.value!r} outside [-1, 1]")
            missing = self.method == "mc" and p.stderr is None
            if missing or not (p.stderr is None or 0.0 <= p.stderr < math.inf):
                raise ValueError(
                    f"curve point at theta {p.theta!r} has stderr {p.stderr!r}, "
                    "which bounds no statistical test"
                )
        object.__setattr__(self, "points", pts)

    def thetas(self) -> np.ndarray:
        return np.array([p.theta for p in self.points])

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points])


def curve_for(
    c: Colouring | ColouringPair,
    thetas: Sequence[float],
    method: str,
    plan: SamplingPlan | None = None,
    tol: float = 1e-8,
) -> CorrelationCurve:
    """Evaluate C(theta) on a grid with the requested engine.

    ``closed_form`` and ``quadrature`` evaluate the whole grid in one
    call of :func:`closed_form` or :func:`correlation_quadrature`;
    ``tol`` is the outer-integral tolerance of ``quadrature``, and the
    closed form has none.  ``mc`` runs the whole grid in one
    chunk-major pass of :func:`correlation_mc_grid`, so every theta
    shares the plan's draws and alice's values on them.
    """
    if method not in METHODS:
        raise ValueError(f"method {method!r} not one of {METHODS}")
    pair = _as_pair(c)
    grid = [float(t) for t in thetas]
    if method == "mc":
        if plan is None:
            raise ValueError("mc requires a sampling plan")
        estimates = correlation_mc_grid(pair, grid, plan)
    elif method == "closed_form":
        estimates = [(v, None) for v in closed_form(pair, grid).tolist()]
    else:
        estimates = [(v, None) for v in correlation_quadrature(pair, grid, tol).tolist()]
    points = tuple(CurvePoint(t, v, s) for t, (v, s) in zip(grid, estimates))
    return CorrelationCurve(colouring_label=pair.alice.label, method=method, points=points)


def float_if_0d(values: np.ndarray) -> float | np.ndarray:
    """A 0-d array (the value of a float theta) as a float."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class GammaEstimate:
    """Sampled gamma with its zero-angle consistency check.

    gamma is 1 minus the probability of opposite values at coincident
    axes; the correlation at theta = 0 must equal -1 + 2 gamma, and
    ``c0_value`` is an independent estimate of it from fresh samples.
    """

    gamma: float
    gamma_stderr: float
    c0_value: float
    c0_stderr: float

    @property
    def c0_predicted(self) -> float:
        return -1.0 + 2.0 * self.gamma


def _sampled_axes(rng: np.random.Generator, n: int) -> Draws:
    """n uniform axes from ``rng``, cos eps then phi; omega is 0."""
    cos_eps = rng.uniform(-1.0, 1.0, n)
    return Draws(cos_eps, rng.uniform(0.0, 2.0 * PI, n), np.zeros(n))


def gamma_of(
    pair: ColouringPair, n_samples: int, rng: np.random.Generator
) -> GammaEstimate:
    """Sampled gamma of a pair, and C(0) from fresh samples: each batch
    reads both parties by :meth:`Draws.colours` at ``n_samples`` axes
    of :func:`_sampled_axes`."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2: one sample has no stderr")
    n = int(n_samples)

    def batch() -> tuple[np.ndarray, np.ndarray]:
        draws = _sampled_axes(rng, n)
        return draws.colours(pair.alice), draws.colours(pair.bob)

    a_vals, b_vals = batch()
    p_opposite = float(np.mean(a_vals == -b_vals))
    gamma = 1.0 - p_opposite
    gamma_stderr = math.sqrt(max(0.0, gamma * (1.0 - gamma)) / n)

    a2, b2 = batch()
    c0 = float(np.mean(a2 * b2))
    c0_stderr = math.sqrt(max(0.0, 1.0 - c0 * c0) / (n - 1))
    return GammaEstimate(gamma, gamma_stderr, c0, c0_stderr)


@dataclass(frozen=True)
class AntipodalReport:
    n_tested: int
    n_violations: int

    @property
    def violation_fraction(self) -> float:
        return self.n_violations / self.n_tested if self.n_tested else 0.0


def check_antipodal(
    c: Colouring, n_samples: int, rng: np.random.Generator
) -> AntipodalReport:
    """Sampled antipodality check: c(-a) must equal -c(a), with ``c``
    read by ``c.read`` at the axes a of :func:`_sampled_axes` and at
    their exact negations.  A band colouring (or its swap) redraws
    axes whose polar cosine is within 1e-9 of +-(a flip cosine), where
    cos(pi - v) and -cos v may round apart, so either colour is
    legitimate.  A harmonic needs no thinning: every step of its
    per-order polynomial, of ``harmonic_rows`` and of the sum over its
    coefficient vector is sign-symmetric in IEEE arithmetic, so both
    amplitudes at -a are exactly minus those at a."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    core = c.inner if isinstance(c, Negated) else c
    edges = np.abs(np.cos(c.flips[1])) if isinstance(core, BandColouring) else []
    tested = violations = 0
    while tested < n_samples:
        draws = _sampled_axes(rng, n_samples - tested)
        # |x| - |e| is x - e or x + e up to sign, exactly
        gaps = np.subtract.outer(np.abs(draws.cos_eps), edges)
        ok = np.all(np.abs(gaps) > 1e-9, axis=1)
        axes = draws.axes(c)[..., ok]
        violations += int(np.count_nonzero(c.read(axes) != -c.read(-axes)))
        tested += int(np.count_nonzero(ok))
    return AntipodalReport(n_tested=n_samples, n_violations=violations)


def mixture_correlation(
    components: Sequence[tuple[float, CorrelationCurve]],
) -> CorrelationCurve:
    """Pointwise convex combination of curves sharing a theta grid.  Its
    method is the first of ``METHODS`` among the components' (``mc`` if
    any is); an ``mc`` mixture carries the stderr sqrt(sum (w sigma)^2),
    where an exact component counts as sigma = 0, and any other none."""
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if not np.all(weights >= 0.0):  # a nan weight too
        raise ValueError("mixture weights must be non-negative")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, not 1")
    base = components[0][1].thetas()
    for _, curve in components[1:]:
        other = curve.thetas()
        if other.shape != base.shape or np.any(np.abs(other - base) > 1e-12):
            raise ValueError("mixture curves must share a theta grid")
    values = sum(w * curve.values() for w, curve in components)
    method = min((curve.method for _, curve in components), key=METHODS.index)
    stderrs: list[float | None] = [None] * base.size
    if method == "mc":
        stderrs = [
            math.sqrt(sum((w * (p.stderr or 0.0)) ** 2 for w, p in zip(weights, col)))
            for col in zip(*(curve.points for _, curve in components))
        ]
    label = "+".join(f"{w:g}*{curve.colouring_label}" for w, curve in components)
    points = tuple(
        CurvePoint(float(t), float(v), s) for t, v, s in zip(base, values, stderrs)
    )
    return CorrelationCurve(colouring_label=label, method=method, points=points)


def circle_correlation(n: int, theta: float) -> float:
    """Exact correlation of the circle's alternating arc pair.

    The pair a = -b = (-1)^floor(n eps / pi) has a piecewise-linear
    overlap correlation: node values -(-1)^k at theta = k pi / n and
    straight lines between, which is what the shift integral of two
    ideal square waves evaluates to.  Node hits (within 1e-12 of an
    integer multiple of pi/n) are snapped so that, e.g., separation
    2 pi / n returns -1 exactly.
    """
    n = int(n)
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"arc count {n} must be an odd positive integer")
    t = float(theta)
    if not 0.0 <= t < 2.0 * PI:
        raise ValueError(f"theta {t!r} outside [0, 2pi)")
    u = n * t / PI
    nearest = round(u)
    if abs(u - nearest) < 1e-12:
        return -1.0 if nearest % 2 == 0 else 1.0
    k = math.floor(u)
    frac = u - k
    value = (1.0 - 2.0 * frac) if k % 2 == 0 else (2.0 * frac - 1.0)
    return -value


# ---------------------------------------------------------------------------
# CSV schema

CSV_COLUMNS = ("theta_over_pi", "value", "stderr", "method", "colouring_label")


def format_sig(x: float) -> str:
    """Floating-point formatting used in every CSV: 12 significant digits."""
    return f"{x:.12g}"


def write_curve_csv(
    curve: CorrelationCurve,
    fh,
    references: dict[str, Callable[[np.ndarray], np.ndarray]] | None = None,
) -> None:
    """Write a curve as CSV.  Each optional reference column is one
    call of its callable on the array of the curve's thetas (the curve
    functions' array path, of which a float theta is the 0-d case)."""
    writer = csv.writer(fh, lineterminator="\n")
    references = references or {}
    writer.writerow(CSV_COLUMNS + tuple(references))
    columns = [ref(curve.thetas()).tolist() for ref in references.values()]
    for p, *refs in zip(curve.points, *columns):
        writer.writerow([
            format_sig(p.theta / PI),
            format_sig(p.value),
            "" if p.stderr is None else format_sig(p.stderr),
            curve.method,
            curve.colouring_label,
            *map(format_sig, refs),
        ])


def read_curve_csv(fh) -> CorrelationCurve:
    """Read back a curve CSV (reference columns are ignored).  Every row
    must carry the first row's method and colouring label; the stderrs
    are checked by :class:`CorrelationCurve`."""
    reader = csv.reader(fh)
    header = next(reader, [])
    if tuple(header[:5]) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    points = []
    first = None
    for row in reader:
        if not row:
            continue
        if len(row) < len(CSV_COLUMNS):
            raise ValueError(f"CSV row {row!r} has fewer than {len(CSV_COLUMNS)} fields")
        try:
            theta = float(row[0]) * PI
            value = float(row[1])
            stderr = float(row[2]) if row[2] else None
        except ValueError as exc:
            raise ValueError(f"CSV row {row!r}: {exc}") from None
        first = first or row
        if row[3:5] != first[3:5]:
            raise ValueError(
                f"CSV row {row!r}: method and label differ from the first row's "
                f"{first[3]!r}, {first[4]!r}"
            )
        points.append(CurvePoint(theta, value, stderr))
    if first is None:
        raise ValueError("CSV contains no data rows")
    return CorrelationCurve(colouring_label=first[4], method=first[3], points=tuple(points))
