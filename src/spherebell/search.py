"""Crossing detection and colouring searches.

Everything here asks one of two questions about correlation curves:
where does one curve pass another (the witness angles for beating the
linear law or the quantum curve, and the band-exit angles that cap the
monogamy thresholds), and how negative can C(theta) be made at a fixed
angle over a family of sign-of-harmonics colourings.  A slope probe at
theta = pi/2 backs the linear-response claim for the three-band
colouring.

Every crossing search goes through :func:`all_crossings`: it scans
f - g on a fixed grid of ``SCAN_POINTS`` angles with one array call of
each curve (``closed_form``, the linear law and the singlet curve all
take theta arrays), takes the sign changes between consecutive nonzero
samples as brackets, and bisects each bracket with float calls down to
``tol``; the reported angle is the final bracket's midpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import theorem1_bounds
from .colourings import (
    DELTA_CAP_RANGE,
    DELTA_RANGE,
    Colouring,
    ColouringPair,
    HarmonicColouring,
    make_catalogue,
)
from .correlation import SamplingPlan, closed_form, correlation_mc
from .quantum import singlet_correlation

PI = math.pi
HALF_PI = math.pi / 2.0

SCAN_POINTS = 400


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use, so that
    importing spherebell does not load scipy.optimize."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


class NoCrossingError(RuntimeError):
    """The scan grid found no sign change of f - g."""


@dataclass(frozen=True)
class CrossingResult:
    theta_star: float
    left_sign: int  # sign of f - g just below the crossing
    bracket_width: float


def _bisect_crossing(
    diff: Callable[[float], float], lo: float, hi: float, d_lo: float, tol: float
) -> tuple[float, float]:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d_mid = diff(mid)
        if d_mid == 0.0:
            return mid, 0.0
        if (d_lo > 0.0) == (d_mid > 0.0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def all_crossings(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    bracket: tuple[float, float],
    tol: float = 1e-4,
    scan_points: int = SCAN_POINTS,
) -> list[CrossingResult]:
    """Every sign change of f - g on the bracket, smallest first.

    f and g take an array of theta (and a float, giving a float): the
    fixed-density scan evaluates each once on the whole grid to locate
    brackets, and each bracket is then bisected to the requested width
    with float calls.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"empty bracket {bracket!r}")
    xs = np.linspace(lo, hi, scan_points)
    ds = np.broadcast_to(f(xs) - g(xs), xs.shape)
    diff = lambda t: f(t) - g(t)
    out: list[CrossingResult] = []
    # sign changes between consecutive nonzero samples; exact zeros in
    # between belong to the same crossing, and an identically zero
    # difference is no crossing at all
    nonzero = np.flatnonzero(ds)
    above = ds[nonzero] > 0.0
    for k in np.flatnonzero(above[:-1] != above[1:]):
        i, j = nonzero[k], nonzero[k + 1]
        a = ds[i]
        star, width = _bisect_crossing(diff, float(xs[i]), float(xs[j]), a, tol)
        out.append(CrossingResult(star, 1 if a > 0.0 else -1, width))
    return out


def find_crossing(
    f: Callable[[float], float],
    g: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-4,
    scan_points: int = SCAN_POINTS,
) -> CrossingResult:
    """Smallest crossing of f and g on the bracket.

    Raises :class:`NoCrossingError` when the scan finds no sign change.
    """
    crossings = all_crossings(f, g, bracket, tol, scan_points)
    if not crossings:
        raise NoCrossingError(
            f"no sign change of f - g on [{bracket[0]!r}, {bracket[1]!r}] "
            f"({scan_points}-point scan)"
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

_REFERENCES: dict[str, Callable[[float], float]] = {
    "c1": lambda t: closed_form("1", t),
    "singlet": singlet_correlation,
}


def reference_curve(name: str) -> Callable[[float], float]:
    """The reference a sweep crosses: "c1" (the linear law) or "singlet"."""
    if name not in _REFERENCES:
        raise ValueError(f"reference {name!r} not one of {sorted(_REFERENCES)}")
    return _REFERENCES[name]


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
    f: Callable[[float], float],
    g: Callable[[float], float],
    wanted_left_sign: int | None,
    tol: float,
) -> float | None:
    """The first crossing of f and g in ``CROSSING_BRACKET`` whose left
    sign is the wanted one (any sign when None)."""
    for hit in all_crossings(f, g, CROSSING_BRACKET, tol):
        if wanted_left_sign is None or hit.left_sign == wanted_left_sign:
            return hit.theta_star
    return None


def _sweep(
    parameter: str,
    members: Sequence[tuple[float, Colouring]],
    target: Callable[[float], float],
    left_sign: int | None,
    reference: str,
    tol: float,
) -> SweepResult:
    """First crossing (with the given left sign) of ``target`` by each
    (parameter value, colouring) member, evaluated in closed form."""

    def row(member: tuple[float, Colouring]) -> SweepRow:
        value, colouring = member
        star = _first_crossing_with_sign(
            lambda t: closed_form(colouring, t), target, left_sign, tol
        )
        return SweepRow(value, math.nan if star is None else star)

    rows = tuple(row(m) for m in members)
    finite = [(r.theta_star, r.delta) for r in rows if not math.isnan(r.theta_star)]
    if not finite:
        raise NoCrossingError(f"no {parameter} in the grid crosses {reference}")
    best_theta, best_delta = min(finite)
    return SweepResult(
        reference=reference,
        rows=rows,
        best_delta=best_delta,
        best_theta=best_theta,
        parameter=parameter,
    )


def sweep_delta(
    delta_grid: Sequence[float] = DELTA_GRID,
    reference: str = "c1",
    tol: float = 1e-4,
) -> SweepResult:
    """Crossing angle of the deformed three-band family against a
    reference curve, for each deformation in the grid.

    Rows without a crossing carry nan; the arg-min row is reported
    alongside the table.
    """
    target = reference_curve(reference)
    members = [
        (float(d), make_catalogue("3_delta", delta=float(d))) for d in delta_grid
    ]
    return _sweep("delta", members, target, None, reference, tol)


def sweep_two_delta(
    two_delta_grid: Sequence[float] = TWO_DELTA_GRID,
    reference: str = "c1",
    tol: float = 1e-4,
) -> SweepResult:
    """Upper exit angle of the widened two-band family: for each Delta in
    the grid, the first angle where C(theta) rises above the negated
    reference curve, as colouring 2 does.
    """
    ref = reference_curve(reference)
    members = [
        (float(d), make_catalogue("2_Delta", Delta=float(d))) for d in two_delta_grid
    ]
    return _sweep("Delta", members, lambda t: -ref(t), -1, f"neg_{reference}", tol)


def sweep_to_csv(result: SweepResult, fh) -> None:
    from .correlation import format_sig

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
    include_two_delta: bool = False,
    delta_grid: Sequence[float] = DELTA_GRID,
    two_delta_grid: Sequence[float] = TWO_DELTA_GRID,
    tol: float = 1e-4,
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
    """
    c1 = _REFERENCES["c1"]
    neg_c1 = lambda t: -c1(t)
    witnesses: dict = {}

    w_candidates: list[tuple[float, str]] = []
    s_candidates: list[tuple[float, str]] = []
    for label in ("2", "3", "4"):
        fam = lambda t, lab=label: closed_form(lab, t)
        below = _first_crossing_with_sign(fam, c1, +1, tol)
        if below is not None:
            w_candidates.append((below, label))
            s_candidates.append((below, label))
        above = _first_crossing_with_sign(fam, neg_c1, -1, tol)
        if above is not None:
            s_candidates.append((above, label))

    sweep = sweep_delta(delta_grid, "c1", tol)
    w_candidates.append((sweep.best_theta, f"3_delta:{sweep.best_delta / PI:g}"))
    s_candidates.append((sweep.best_theta, f"3_delta:{sweep.best_delta / PI:g}"))

    if include_two_delta:
        widened = sweep_two_delta(two_delta_grid, "c1", tol)
        s_candidates.extend(
            (r.theta_star, f"2_Delta:{r.delta / PI:g}")
            for r in widened.rows
            if not math.isnan(r.theta_star)
        )

    if not w_candidates or not s_candidates:
        raise NoCrossingError("catalogue produced no threshold witnesses")
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
    and tau^1 error terms of the quotient.  The closed form carries
    rounding error only, so the quotients lose no more than about
    1e-15 / h to it.  h must lie in (0, pi/8), so that every quotient
    point pi/2 - k h stays in (0, pi/2).
    """
    if not 0.0 < h < PI / 8.0:
        raise ValueError(f"slope step h must lie in (0, pi/8); got {h!r}")
    colouring = make_catalogue(c) if isinstance(c, (str, int)) else c
    c_half = closed_form(colouring, HALF_PI)
    if abs(c_half) > 1e-8:
        raise ValueError(
            f"slope probe needs C(pi/2) = 0, got {c_half!r} for {colouring.label!r}"
        )
    quotients = [closed_form(colouring, HALF_PI - k * h) / (k * h) for k in (1, 2, 4)]
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


def common_random_correlation(
    theta: float, modes: Sequence[tuple[int, int]], plan: SamplingPlan
) -> Callable[[HarmonicColouring], float]:
    """C(theta) on the fixed sample points of ``plan``, as a function of
    a sign-of-harmonics colouring over ``modes`` whose partner is its
    colour swap.

    The points never change, so each chunk's basis is built here once:
    :meth:`~spherebell.correlation.Draws.rows` of ``modes`` at alice's
    axes and, beside them, at bob's axes at theta, in the form the
    colouring's reader takes.  A call sums the rows by
    :meth:`HarmonicColouring.amplitude_from_rows` and takes one sign of
    the amplitude.  alice * (-bob) is +1 where the two signs differ and
    -1 where they agree, so a chunk adds twice its count of sign
    disagreements minus its length: the same integer as
    ``correlation_mc(ColouringPair.anticorrelated(h), theta, plan)[0]``
    sums, bit for bit.
    """
    # is_azimuthal reads only the orders, so the rows come in the form
    # every colouring over modes is read in
    basis = HarmonicColouring(tuple((l, m, 1.0) for l, m in modes))
    chunks = [(d.cos_eps.size, list(d.rows(basis, [0.0, theta]))) for d in plan.draws()]

    def correlation(h: HarmonicColouring) -> float:
        total = 0
        for size, rows in chunks:
            plus = h.amplitude_from_rows(rows) >= 0.0
            total += 2 * int(np.count_nonzero(plus[:size] != plus[size:])) - size
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
    Each restart runs a Nelder-Mead simplex from a random start, with a
    fixed per-restart sampling plan so every comparison inside the
    simplex uses common random numbers: the basis rows at the restart's
    sample and partner points are built once, alice's beside bob's
    (:func:`common_random_correlation`), and each simplex step only
    recombines them and counts the points where the two signs disagree.
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
            norm = float(np.linalg.norm(x))
            if norm < 1e-9:
                return 2.0
            evals += 1
            return correlation(colouring_from(x, norm))

        result = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": max_iter,
                "xatol": 1e-3,
                "fatol": 1e-4,
                "adaptive": dim > 2,
            },
        )
        return float(result.fun), np.asarray(result.x), evals

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
