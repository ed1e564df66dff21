"""Crossing detection and colouring searches.

Everything here asks one of two questions about correlation curves:
where does one curve pass another (the witness angles for beating the
linear law or the quantum curve, and the band-exit angles that cap the
monogamy thresholds), and how negative can C(theta) be made at a fixed
angle over a family of sign-of-harmonics colourings.  A slope probe at
theta = pi/2 backs the linear-response claim for the three-band
colouring.

Every crossing search goes through :func:`all_crossings`: it reads the
signs of f - g on a fixed grid of ``SCAN_POINTS`` angles through array
calls of each curve (``closed_form``, the linear law and the singlet
curve all take theta arrays), takes the sign changes between
consecutive nonzero samples as brackets, and bisects each bracket down
to ``tol``; the reported angle is the final bracket's midpoint.  The
bisection reads ``BISECT_DEPTH`` levels of midpoints per call.  When f
is a colouring, the signs are those of its closed form minus g; the
sweeps and the threshold estimates pass colourings.

The scan of a colouring against a sweep reference or its negation is
certified.  The colouring's closed form has slope at most
(2/pi) sum_k sin v_k over its flips v_k (Crofton's formula, see
:func:`closed_form_slope`), the linear law 2/pi and the singlet curve
1; L_total is their sum.  f - g is computed at every ``SCAN_STRIDE``-th
grid point and the last; a grid point x takes the sign of the
difference d_c at a computed point c when |d_c| - 4 EXACT_SLACK >
L_total |x - c|, and one more call computes the points left open.  Each
curve's computed value is within ``EXACT_SLACK`` of its exact one, so
the exact difference keeps the sign of d_c from c to x with more than
2 EXACT_SLACK to spare, and so would the value computed at x.  The
signs, and so the crossings, are the full scan's, bit for bit.  Any
other scan computes its whole grid in one call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import EXACT_SLACK, theorem1_bounds
from .colourings import (
    DELTA_CAP_RANGE,
    DELTA_RANGE,
    Colouring,
    ColouringPair,
    HarmonicColouring,
    make_catalogue,
)
from .correlation import (
    Draws,
    SamplingPlan,
    closed_form,
    closed_form_slope,
    correlation_mc,
    format_sig,
)
from .quantum import singlet_correlation

PI = math.pi
HALF_PI = math.pi / 2.0

SCAN_POINTS = 400

# Grid step between the points a certified scan computes first.  Per
# scan of the README sweep (the 25 3_delta members against c1; 2-core
# Xeon, numpy 2.4.6), strides 4, 8, 16 and 32 computed 118, 85, 90 and
# 133 of the 400 points in 0.86, 0.77, 0.78 and 0.87 ms (medians of 21
# runs), against 1.58 ms for all 400 in one call.
SCAN_STRIDE = 8

# The Nelder-Mead simplex stops once its vertices lie within XATOL of
# the best in every coordinate and within FATOL of it in value.
XATOL = 1e-3
FATOL = 1e-4


def _nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_iter: int,
    adaptive: bool,
) -> tuple[np.ndarray, float]:
    """The Nelder-Mead simplex from the float vector ``x0``: (x, fun),
    the best vertex and its value.

    It is scipy's ``minimize(method="Nelder-Mead")`` with the options
    ``maxiter``, ``adaptive``, ``xatol=XATOL`` and ``fatol=FATOL``
    (scipy 1.17, ``_minimize_neldermead``, BSD-3-Clause), operation for
    operation but for its factors rho = 1, which leave every product
    exact, so that x, fun and the objective's calls are scipy's bit for
    bit.  The first simplex moves each coordinate of x0 by 5% (a zero
    one to 0.00025); ``adaptive`` takes Gao and Han's parameters for the
    dimension (Comput. Optim. Appl. 51, 259 (2012)).  The vertices are
    reordered by ``np.argsort`` after every step, as scipy reorders
    them: on a quantised objective with many ties, a stable sort would
    order tied vertices differently and walk another path.  The
    search stops once every vertex is within ``XATOL`` of the best in
    every coordinate and within ``FATOL`` of it in value, or after
    ``max_iter`` - 1 steps.  ``objective`` must leave its argument
    unchanged.
    """
    n = x0.size
    if adaptive:
        chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        chi, psi, sigma = 2, 0.5, 0.5
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([objective(x) for x in sim], dtype=float)
    for _ in range(2):  # scipy sorts the first simplex twice
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    for _ in range(max_iter - 1):
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= XATOL
            and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]  # reflect
        fxr = objective(xr)
        if fxr < fsim[0]:  # expand
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = objective(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contract outside
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc = objective(xc)
                keep = fxc <= fxr
            else:  # contract inside
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = objective(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = objective(sim[j])
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], float(np.min(fsim))


class NoCrossingError(RuntimeError):
    """The scan grid found no sign change of f - g."""


@dataclass(frozen=True)
class CrossingResult:
    theta_star: float
    left_sign: int  # sign of f - g just below the crossing
    bracket_width: float


# Bisection levels read per call of the sign reader: the midpoints of
# every bracket the next BISECT_DEPTH steps can reach, up to
# 2**BISECT_DEPTH - 1 of them.  A call's fixed cost (about 120 us for a
# 3_delta member) dwarfs its cost per point (about 3 us), so a deeper
# read saves calls until the points spent on branches not taken
# outweigh them.  Per crossing of the README sweep (the 25 3_delta
# members against c1; 2-core Xeon, numpy 2.4.6), depths 1 to 6 took
# 0.77, 0.43, 0.45, 0.28, 0.28, 0.28 ms at tol 1e-4, which the 400-point
# scan's brackets reach in 4 steps, and 1.95, 1.18, 0.86, 0.75, 0.88,
# 0.81 ms at tol 1e-6 (11 steps).
BISECT_DEPTH = 4


def _reachable_midpoints(lo: float, hi: float, tol: float) -> list[float]:
    """The midpoints of the brackets the next ``BISECT_DEPTH`` steps of
    :func:`_bisect_crossing` from [lo, hi] can reach, breadth first:
    those wider than ``tol`` whose midpoint is neither end."""
    level, mids = [(lo, hi)], []
    for _ in range(BISECT_DEPTH):
        below = []
        for a, b in level:
            mid = 0.5 * (a + b)
            if b - a > tol and mid != a and mid != b:
                mids.append(mid)
                below += [(a, mid), (mid, b)]
        level = below
    return mids


def _bisect_crossing(
    signs: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    left: float,
    tol: float,
) -> tuple[float, float]:
    """Bisect [lo, hi] to ``tol``, given the sign ``left`` of f - g at lo.

    This is the sequential loop, one midpoint per step, except that the
    sign at a midpoint is looked up in a batch read by one call of
    ``signs`` for all the midpoints the next steps can reach.  A step's
    midpoint is missing from the batch only once the walk has left it,
    since the batch holds no midpoint inside a bracket it has not split.
    """
    read: dict[float, float] = {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: the bracket is final
            break
        if mid not in read:
            mids = _reachable_midpoints(lo, hi, tol)
            read = dict(zip(mids, signs(np.array(mids)).tolist()))
        s_mid = read[mid]
        if s_mid == 0.0:
            return mid, 0.0
        if (left > 0.0) == (s_mid > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def _scan_signs(
    diff: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, slope: float
) -> np.ndarray:
    """``np.sign(diff(xs))``, computing ``diff`` first at every
    ``SCAN_STRIDE``-th point and the last (so that a domain error at
    either end still fires), then only at the points whose sign
    ``slope``, a bound on the slope of ``diff``, does not fix from a
    computed neighbour on either side (the certificate of the module
    docstring).  An infinite slope computes the grid in one call.
    """
    if not math.isfinite(slope):
        return np.sign(diff(xs))
    n = xs.size
    read = np.unique(np.append(np.arange(0, n, SCAN_STRIDE), n - 1))
    d = diff(xs[read])
    margin = np.abs(d) - 4.0 * EXACT_SLACK
    below = np.searchsorted(read, np.arange(n), side="right") - 1
    ds = np.full(n, np.nan)
    for near in (below, np.minimum(below + 1, read.size - 1)):
        sure = margin[near] > slope * np.abs(xs - xs[read[near]])
        ds[sure] = np.sign(d[near[sure]])
    ds[read] = np.sign(d)
    rest = np.flatnonzero(np.isnan(ds))
    if rest.size:
        ds[rest] = np.sign(diff(xs[rest]))
    return ds


def all_crossings(
    f: Colouring | Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    bracket: tuple[float, float],
    tol: float = 1e-4,
) -> list[CrossingResult]:
    """Every sign change of f - g on the bracket, smallest first.

    f and g take an array of theta and return an array of its values,
    each the value its float gives.  A fixed-density scan reads the
    signs of f - g on a ``SCAN_POINTS`` grid to locate brackets, and
    each bracket is then bisected to the requested width, several
    levels per read (see :func:`_bisect_crossing`).  f may instead be a
    colouring, which stands for its closed form.  ``tol`` must be
    finite and positive; a bracket narrows no further than adjacent
    floats.

    When f is a colouring and g a sweep reference or its negation, the
    scan is certified (:func:`_scan_signs`).  The closed form is
    computed at every ``SCAN_STRIDE``-th point and the last, then only
    where the slope bound (2/pi) sum_k sin v_k over the colouring's
    flips v_k plus the reference's does not fix the sign from a computed
    neighbour.  The signs, and so the crossings, are the full scan's,
    bit for bit.  Any other f or g has its whole grid read in one call.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"crossing tolerance {tol!r} must be finite and positive")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"empty bracket {bracket!r}")
    if isinstance(f, Colouring):
        curve = lambda ts: closed_form(f, ts)
        slope = closed_form_slope(f) + _reference_slope(g)
    else:
        curve, slope = f, math.inf
    diff = lambda ts: np.broadcast_to(curve(ts) - g(ts), ts.shape)
    signs = lambda ts: np.sign(diff(ts))
    xs = np.linspace(lo, hi, SCAN_POINTS)
    ds = _scan_signs(diff, xs, slope)
    out: list[CrossingResult] = []
    # sign changes between consecutive nonzero samples; exact zeros in
    # between belong to the same crossing, and an identically zero
    # difference is no crossing at all
    nonzero = np.flatnonzero(ds)
    above = ds[nonzero] > 0.0
    for k in np.flatnonzero(above[:-1] != above[1:]):
        i, j = nonzero[k], nonzero[k + 1]
        a = ds[i]
        star, width = _bisect_crossing(signs, float(xs[i]), float(xs[j]), a, tol)
        out.append(CrossingResult(star, 1 if a > 0.0 else -1, width))
    return out


def find_crossing(
    f: Colouring | Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    bracket: tuple[float, float],
    tol: float = 1e-4,
) -> CrossingResult:
    """Smallest crossing of f and g on the bracket (f a curve or a
    colouring, as in :func:`all_crossings`).

    Raises :class:`NoCrossingError` when the scan finds no sign change.
    """
    crossings = all_crossings(f, g, bracket, tol)
    if not crossings:
        raise NoCrossingError(
            f"no sign change of f - g on [{bracket[0]!r}, {bracket[1]!r}] "
            f"({SCAN_POINTS}-point scan)"
        )
    return crossings[0]


# ---------------------------------------------------------------------------
# Family sweeps and the threshold estimates

# scan window for catalogue crossings: away from the pi/2 degeneracy
# where every curve pinches to zero and float noise owns the sign
CROSSING_BRACKET = (PI / 3.0 + 1e-9, HALF_PI - 1e-4)

# default parameter grids of the two deformed families
DELTA_GRID = tuple(float(d) for d in np.linspace(*DELTA_RANGE, 25))
TWO_DELTA_GRID = tuple(float(d) for d in np.linspace(*DELTA_CAP_RANGE, 13))

# each reference a sweep crosses, its negation, and a bound on the slope
# of both: 2/pi for the linear law, |sin theta| <= 1 for -cos theta.
# The functions live as long as the module, so a scan can tell them
# apart by identity.  The curve command's reference columns are these.
REFERENCES = {
    "c1": (lambda t: closed_form("1", t), lambda t: -closed_form("1", t), 2.0 / PI),
    "singlet": (singlet_correlation, lambda t: -singlet_correlation(t), 1.0),
}


def reference_curve(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """The reference a sweep crosses: "c1" (the linear law) or "singlet",
    a function of a theta array (a float runs as its 0-d case)."""
    if name not in REFERENCES:
        raise ValueError(f"reference {name!r} not one of {sorted(REFERENCES)}")
    return REFERENCES[name][0]


def _reference_slope(g: Callable) -> float:
    """The slope bound of a reference curve or its negation; inf for
    any other curve."""
    for curve, negation, slope in REFERENCES.values():
        if g is curve or g is negation:
            return slope
    return math.inf


@dataclass(frozen=True)
class SweepRow:
    delta: float
    theta_star: float  # nan when the curves do not cross


@dataclass(frozen=True)
class SweepResult:
    reference: str
    rows: tuple[SweepRow, ...]
    best_delta: float
    best_theta: float
    parameter: str = "delta"  # the swept parameter's name, for the CSV header


def _first_crossing_with_sign(
    f: Colouring | Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    wanted_left_sign: int | None,
    tol: float,
) -> float | None:
    """The first crossing of f and g in ``CROSSING_BRACKET`` whose left
    sign is the wanted one (any sign when None)."""
    for hit in all_crossings(f, g, CROSSING_BRACKET, tol):
        if wanted_left_sign is None or hit.left_sign == wanted_left_sign:
            return hit.theta_star
    return None


# each family's parameter (its make_catalogue keyword), default grid,
# and the left sign of the crossing reported (None: any)
_FAMILIES = {
    "3_delta": ("delta", DELTA_GRID, None),
    "2_Delta": ("Delta", TWO_DELTA_GRID, -1),
}


def sweep(
    family: str,
    grid: Sequence[float] | None = None,
    reference: str = "c1",
    tol: float = 1e-4,
) -> SweepResult:
    """Closed-form crossing angle of each member of a deformed family
    (``grid``: its parameters, the family's default grid when None).

    A 3_delta member's is its first crossing of the reference; a
    2_Delta member's is its first exit above the negated reference, as
    colouring 2 exits the band, labelled ``neg_<reference>``.  Rows
    without a crossing carry nan; the arg-min row is reported too.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family {family!r} not one of {sorted(_FAMILIES)}")
    parameter, default, left_sign = _FAMILIES[family]
    ref = reference_curve(reference)
    if left_sign is None:
        target, label = ref, reference
    else:
        target, label = REFERENCES[reference][1], f"neg_{reference}"
    members = [
        (float(d), make_catalogue(family, **{parameter: float(d)}))
        for d in (default if grid is None else grid)
    ]
    rows = []
    for value, colouring in members:
        star = _first_crossing_with_sign(colouring, target, left_sign, tol)
        rows.append(SweepRow(value, math.nan if star is None else star))
    finite = [(r.theta_star, r.delta) for r in rows if not math.isnan(r.theta_star)]
    if not finite:
        raise NoCrossingError(f"no {parameter} in the grid crosses {label}")
    best_theta, best_delta = min(finite)
    return SweepResult(label, tuple(rows), best_delta, best_theta, parameter)


def sweep_to_csv(result: SweepResult, fh) -> None:
    fh.write(f"{result.parameter}_over_pi,theta_star_over_pi,reference\n")
    for r in result.rows:
        star = "" if math.isnan(r.theta_star) else format_sig(r.theta_star / PI)
        fh.write(f"{format_sig(r.delta / PI)},{star},{result.reference}\n")


@dataclass(frozen=True)
class ThetaMaxEstimate:
    """Upper bounds on the last angle a colouring can beat the linear
    law (weak) or escape the linear band entirely (strong)."""

    upper_bound_w: float
    upper_bound_s: float
    witnesses: dict


def estimate_theta_max(
    include_two_delta: bool = False, tol: float = 1e-4
) -> ThetaMaxEstimate:
    """Threshold estimates from the catalogue plus the swept families.

    The weak bound is the smallest angle from which some perfectly
    anticorrelated colouring stays below the linear law: catalogue
    crossings against it, improved by the deformed three-band sweep.
    The strong bound is the smallest angle where any colouring exits
    the band between the linear law and its negative; the two-band
    upper exit supplies it from the catalogue, and the widened two-band
    family pushes it lower when ``include_two_delta`` is set.  Every
    curve is evaluated with :func:`closed_form`.

    Both bounds range over azimuthally symmetric colourings only (the
    catalogue and the two one-parameter families): colourings without
    that symmetry are not searched.
    """
    c1, neg_c1, _ = REFERENCES["c1"]
    witnesses: dict = {}

    w_candidates: list[tuple[float, str]] = []
    s_candidates: list[tuple[float, str]] = []
    for label in ("2", "3", "4"):
        fam = make_catalogue(label)
        below = _first_crossing_with_sign(fam, c1, +1, tol)
        if below is not None:
            w_candidates.append((below, label))
            s_candidates.append((below, label))
        above = _first_crossing_with_sign(fam, neg_c1, -1, tol)
        if above is not None:
            s_candidates.append((above, label))

    deformed = sweep("3_delta", DELTA_GRID, "c1", tol)
    w_candidates.append((deformed.best_theta, f"3_delta:{deformed.best_delta / PI:g}"))
    s_candidates.append((deformed.best_theta, f"3_delta:{deformed.best_delta / PI:g}"))

    if include_two_delta:
        widened = sweep("2_Delta", TWO_DELTA_GRID, "c1", tol)
        s_candidates.extend(
            (r.theta_star, f"2_Delta:{r.delta / PI:g}")
            for r in widened.rows
            if not math.isnan(r.theta_star)
        )

    upper_w, w_witness = min(w_candidates)
    upper_s, s_witness = min(s_candidates)
    witnesses["weak"] = {"colouring": w_witness, "theta_star_over_pi": upper_w / PI}
    witnesses["strong"] = {"colouring": s_witness, "theta_star_over_pi": upper_s / PI}
    witnesses["candidates"] = {
        "weak": [(t / PI, lab) for t, lab in sorted(w_candidates)],
        "strong": [(t / PI, lab) for t, lab in sorted(s_candidates)],
    }
    return ThetaMaxEstimate(
        upper_bound_w=upper_w, upper_bound_s=upper_s, witnesses=witnesses
    )


# ---------------------------------------------------------------------------
# Slope at the zero crossing

SLOPE_REFERENCE_THREE_BANDS = (6.0 - 4.0 * (math.sqrt(3.0) - math.sqrt(2.0))) / PI


@dataclass(frozen=True)
class SlopeEstimate:
    slope: float  # d C(pi/2 - tau) / d tau at tau -> 0+
    step: float
    c_at_half_pi: float
    reference: float | None  # |slope| reference, three-band colouring only


def slope_at_half_pi(c: Colouring | str | int, h: float = 1e-3) -> SlopeEstimate:
    """One-sided slope of C just below pi/2, on the closed form.

    C(pi/2) = 0 is checked first; antisymmetry makes the one-sided
    quotient C(pi/2 - tau)/tau a genuine central difference.  Band
    edges entering or leaving the reachable ring produce half-power
    terms, so C(pi/2 - tau) expands in powers of sqrt(tau); the
    Richardson pass over steps h, 2h, 4h cancels both the tau^(1/2)
    and tau^1 error terms of the quotient.  One closed-form call reads
    C at pi/2 and at the quotient points pi/2 - k h; the closed form
    carries rounding error only, so the quotients lose no more than
    about 1e-15 / h to it.  h must lie in (0, pi/8), so that every
    quotient point stays in (0, pi/2).
    """
    if not 0.0 < h < PI / 8.0:
        raise ValueError(f"slope step h must lie in (0, pi/8); got {h!r}")
    colouring = make_catalogue(c) if isinstance(c, (str, int)) else c
    steps = (1, 2, 4)
    thetas = np.array([HALF_PI] + [HALF_PI - k * h for k in steps])
    c_half, *values = closed_form(colouring, thetas).tolist()
    if abs(c_half) > 1e-8:
        raise ValueError(
            f"slope probe needs C(pi/2) = 0, got {c_half!r} for {colouring.label!r}"
        )
    quotients = [v / (k * h) for v, k in zip(values, steps)]
    root2 = math.sqrt(2.0)
    slope = (
        (4.0 + 2.0 * root2) * quotients[0]
        - (4.0 + 3.0 * root2) * quotients[1]
        + (1.0 + root2) * quotients[2]
    )
    reference = (
        SLOPE_REFERENCE_THREE_BANDS if getattr(colouring, "label", "") == "3" else None
    )
    return SlopeEstimate(slope=slope, step=h, c_at_half_pi=c_half, reference=reference)


# ---------------------------------------------------------------------------
# Spherical-harmonic colouring search


@dataclass(frozen=True)
class SearchOutcome:
    colouring_params: tuple[tuple[int, int, float], ...]
    objective_theta: float
    objective_value: float
    objective_stderr: float
    evaluations: int
    seed: int
    l_max: int
    restarts: int

    def __post_init__(self) -> None:
        if not -1.0 <= self.objective_value <= 1.0:
            raise ValueError("objective outside [-1, 1]")

    def colouring(self) -> HarmonicColouring:
        return HarmonicColouring(self.colouring_params)


def _search_modes(l_max: int, azimuthal_only: bool) -> list[tuple[int, int]]:
    modes = []
    for l in range(1, l_max + 1, 2):
        ms = (0,) if azimuthal_only else range(-l, l + 1)
        modes.extend((l, m) for m in ms)
    return modes


# float32 unit roundoff, and the largest error of a float32 rounding
# that lands in the subnormal range
_U32 = 2.0**-24
_ETA32 = 2.0**-150


class _RowStack:
    """One chunk's basis rows of ``modes`` at alice's axes and, beside
    them, at bob's at theta, as one (len(modes), 2n) float32 matrix.

    It keeps beside them each row's largest |Y_k| in float64 (``M_k``,
    from the float64 row) and the points' axes, alice's beside bob's in
    the form ``Draws.axes`` gives every colouring over ``modes``, at a
    few of which :meth:`reread` reads a colouring in float64."""

    def __init__(self, draws: Draws, modes: Sequence[tuple[int, int]], theta: float):
        basis = HarmonicColouring(tuple((l, m, 1.0) for l, m in modes))
        self.modes = list(modes)
        self.size = draws.cos_eps.size
        self.axes = np.concatenate([draws.axes(basis, t) for t in (0.0, theta)], axis=-1)
        self.rows = np.empty((len(modes), 2 * self.size), dtype=np.float32)
        self.row_max = np.empty(len(modes))
        slots: dict[tuple[int, int], list[int]] = {}
        for k, mode in enumerate(self.modes):
            slots.setdefault(mode, []).append(k)
        for l, m, row in basis.rows(self.axes):
            for k in slots[l, m]:
                self.rows[k] = row
                self.row_max[k] = np.abs(row).max()
        self.floor = 2.0 * _ETA32 * float(np.sum(self.row_max + 2.0))

    def bound(self, c: np.ndarray) -> float:
        """B of :func:`common_random_correlation` for the vector c."""
        scale = 2.0 * (len(self.modes) + 3) * _U32
        bound = scale * float(np.abs(c).dot(self.row_max)) + self.floor
        if not math.isfinite(bound):
            raise ValueError(f"coefficients {c!r} are not finite")
        return bound

    def amplitude(self, c32: np.ndarray, out: np.ndarray, term: np.ndarray) -> None:
        """Sum c32[k] * rows[k] in mode order into the float32 ``out``,
        with ``term`` as scratch; both are 2n long."""
        np.multiply(self.rows[0], c32[0], out=out)
        for k in range(1, len(self.modes)):
            np.multiply(self.rows[k], c32[k], out=term)
            out += term

    def reread(self, c: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The signs at the points ``idx`` of the colouring of c, read
        by its ``read`` in float64 as the Monte Carlo engine reads it."""
        terms = tuple((l, m, ck) for (l, m), ck in zip(self.modes, c.tolist()))
        return HarmonicColouring(terms).read(self.axes[..., idx])


def common_random_correlation(
    theta: float, modes: Sequence[tuple[int, int]], plan: SamplingPlan
) -> Callable[[np.ndarray], float]:
    """C(theta) on the fixed sample points of ``plan``, as a function of
    the unit coefficient vector c over ``modes`` (in that order) of a
    sign-of-harmonics colouring h whose partner is its colour swap: the
    value ``correlation_mc(ColouringPair.anticorrelated(h), theta,
    plan)[0]``, bit for bit.

    The points never change, so each chunk's basis is built here once,
    as a float32 stack of the rows ``HarmonicColouring.rows`` gives at
    alice's axes beside bob's (:class:`_RowStack`).  A call rounds c
    to float32 and sums c_k * Y_k in mode order in float32 buffers
    reused from call to call.  With K = len(modes), S = sum_k |c_k| M_k
    and M_k the largest |Y_k| on the chunk, the float32 amplitude is
    within

        B = 2 (K + 3) 2^-24 S + 2^-149 sum_k (M_k + 2)

    of the float64 amplitude the colouring's ``read`` signs, over the
    exact power-of-two scale of its coefficients: rounding c and the
    rows to float32, the products and the K - 1 sums take at most
    K + 2 relative roundings of 2^-24 per term, the float64 sum at
    most K + 1 of 2^-53, and the second term bounds the absolute error
    of float32 roundings into the subnormal range (at most 2^-150
    each; |c_k| <= 1).  The factor 2 also covers rounding B to
    float32 for the comparison.  Where |amplitude| > B the float32
    sign is the float64 one; the points where |amplitude| <= B are
    re-read by ``read`` (:meth:`_RowStack.reread`).  Over every step of
    five searches (the README one, all-m l <= 3 and 5, m = 0 l <= 7)
    the float32 error was at most 0.88 K 2^-24 S, under a quarter of
    B, and 2 to 13 points in a million were re-read (2 on the README
    search).  With the tie sgn(0) := +1, alice * (-bob) is +1 where
    the two signs differ and -1 where they agree, so a chunk adds twice
    its count of sign disagreements minus its length, the integer
    ``correlation_mc`` sums.

    A vector of the wrong length, with a non-finite entry or all zero
    is an error.  Zero entries (also -0.0) are skipped, as
    ``HarmonicColouring`` skips them.
    """
    stacks = [_RowStack(d, modes, theta) for d in plan.draws()]
    width = 2 * max(s.size for s in stacks)
    amp = np.empty(width, dtype=np.float32)
    term = np.empty(width, dtype=np.float32)
    plus = np.empty(width, dtype=bool)
    differ = np.empty(width // 2, dtype=bool)

    def correlation(c: np.ndarray) -> float:
        if c.shape != (len(modes),):
            raise ValueError(f"{c.size} coefficients for {len(modes)} modes")
        c32 = c.astype(np.float32)
        total = 0
        for s in stacks:
            n = s.size
            bound = s.bound(c)
            a, t, p = amp[: 2 * n], term[: 2 * n], plus[: 2 * n]
            s.amplitude(c32, a, t)
            np.greater_equal(a, 0.0, out=p)
            np.abs(a, out=t)
            if t.min() <= bound:
                idx = np.flatnonzero(t <= bound)
                p[idx] = s.reread(c, idx) > 0
            np.not_equal(p[:n], p[n:], out=differ[:n])
            total += 2 * int(np.count_nonzero(differ[:n])) - n
        return total / plan.n_samples

    return correlation


def harmonic_search(
    theta: float,
    l_max: int,
    restarts: int = 16,
    plan: SamplingPlan | None = None,
    azimuthal_only: bool = False,
    max_iter: int = 400,
) -> SearchOutcome:
    """Minimize C(theta) over sign-of-harmonics colourings.

    Coefficients run over odd l up to l_max (all m, or m = 0 only);
    the sign is scale invariant so winners are reported unit-norm.
    Each restart runs a Nelder-Mead simplex (:func:`_nelder_mead`) from
    a random start, with a fixed per-restart sampling plan so every
    comparison inside the simplex uses common random numbers: the basis
    rows at the restart's sample and partner points are built once,
    alice's beside bob's, as one float32 stack
    (:func:`common_random_correlation`).  A simplex
    step divides its vector by its norm, sums the rows in float32,
    re-reads in float64 the few points whose float32 amplitude is
    within the stated bound of zero, and counts the points where the
    two signs disagree: the value ``correlation_mc`` gives the unit
    vector's colouring, bit for bit.
    The restarts run one after another, each on its own seeds.  The
    winning restart is re-evaluated at 10x samples with
    :func:`correlation_mc`, and the result is checked against the chain
    lower bound.
    """
    t = float(theta)
    if not 0.0 < t < HALF_PI:
        raise ValueError(f"theta {t!r} outside (0, pi/2)")
    if l_max < 1 or l_max % 2 == 0:
        raise ValueError(f"l_max {l_max} must be a positive odd integer")
    if restarts < 1:
        raise ValueError(f"restarts {restarts} must be at least 1")
    if max_iter < 1:
        raise ValueError(f"max_iter {max_iter} must be at least 1")
    if plan is None:
        plan = SamplingPlan(master_seed=0x42D, n_samples=20_000)
    modes = _search_modes(l_max, azimuthal_only)
    dim = len(modes)

    def colouring_from(x: np.ndarray, norm: float) -> HarmonicColouring:
        """The unit-norm colouring of x, given its norm."""
        if norm < 1e-9:
            raise ValueError("degenerate coefficient vector")
        return HarmonicColouring(
            tuple((l, m, float(v / norm)) for (l, m), v in zip(modes, x))
        )

    def run_restart(k: int) -> tuple[float, np.ndarray, int]:
        seed = int(
            np.random.SeedSequence([plan.master_seed, 0x5EED, k]).generate_state(
                1, dtype=np.uint64
            )[0]
        )
        restart_plan = SamplingPlan(seed, plan.n_samples, plan.chunk_size)
        x0 = np.random.default_rng(
            np.random.SeedSequence([plan.master_seed, 0xD1CE, k])
        ).standard_normal(dim)
        x0 /= np.linalg.norm(x0)
        correlation = common_random_correlation(t, modes, restart_plan)
        evals = 0

        def objective(x: np.ndarray) -> float:
            nonlocal evals
            # np.linalg.norm of a float vector is this, bit for bit
            norm = math.sqrt(x.dot(x))
            if norm < 1e-9:
                return 2.0
            evals += 1
            return correlation(x / norm)

        x, fun = _nelder_mead(objective, x0, max_iter, dim > 2)
        return fun, x, evals

    outcomes = [run_restart(k) for k in range(restarts)]
    best_k = min(range(restarts), key=lambda k: (outcomes[k][0], k))
    best_x = outcomes[best_k][1]
    total_evals = sum(o[2] for o in outcomes)

    winner = colouring_from(best_x, float(np.linalg.norm(best_x)))
    pair = ColouringPair.anticorrelated(winner)
    value, stderr = correlation_mc(pair, t, plan.scaled(10))
    frame = theorem1_bounds(t)
    if value < frame.lower - 3.0 * stderr - 1e-9:
        raise RuntimeError(
            f"search produced {value!r} below the chain bound {frame.lower!r}: "
            "correlation engine inconsistency"
        )
    return SearchOutcome(
        colouring_params=winner.terms,
        objective_theta=t,
        objective_value=value,
        objective_stderr=stderr,
        evaluations=total_evals,
        seed=plan.master_seed,
        l_max=l_max,
        restarts=restarts,
    )


def search_report_json(outcome: SearchOutcome) -> str:
    payload = {
        "theta_over_pi": outcome.objective_theta / PI,
        "L_max": outcome.l_max,
        "best_coefficients": [
            {"l": l, "m": m, "a": a} for l, m, a in outcome.colouring_params
        ],
        "objective": outcome.objective_value,
        "objective_stderr": outcome.objective_stderr,
        "evaluations": outcome.evaluations,
        "seed": outcome.seed,
    }
    return json.dumps(payload, indent=2)
