"""Bell-type bounds on antipodal-colouring correlations.

Covers the chained inequalities (CHSH and its N-term generalization)
and the angle-dependent constraints they imply on a single curve
C(theta):

- the chain bound pair: for N = max(2, ceil(pi / 2 theta)),
  -(1 - 1/N) <= C(theta) <= 1 - 1/N, degenerating to (0, 0) at
  theta = pi/2,
- the coincident-axis bound -1 + (2/3) gamma <= C <= 1/3 + (2/3) gamma
  for theta up to 2 pi/3,
- the chain lower bound -1 + 2/N - 2 gamma on [pi/N, pi/(N-1)),
- the reflection angles pi/(M+1-j) - theta paired with the side of
  theta each lands on,
- the strict quantum sandwich -cos(theta) < C(theta) < cos(theta) on
  (0, pi/3).

``verify_colouring`` drives the applicable checks over a computed
curve and emits one report per check per grid point, with a
three-state status.  A Monte Carlo point outside a bound is violated
only beyond z* stderr, with z* = Phi^-1(1 - alpha / 2m) for the m
statistical checks of the curve and alpha = ``FAMILY_ALPHA``, so that a
correct curve reports a violation in at most about one run in 1000
however long its grid; nearer the bound it is inconclusive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .colourings import Colouring, ColouringPair
from .correlation import SNAP, CorrelationCurve, SamplingPlan, curve_for

PI = math.pi
HALF_PI = math.pi / 2.0

# exact methods get a hair of float slack; MC gets a statistical band
EXACT_SLACK = 1e-9
# the family-wise error rate: the largest share of runs in which a
# correct curve may report a Monte Carlo violation
FAMILY_ALPHA = 1e-3
# a Monte Carlo point within this many stderr of a bound edge touches it
SATURATION_SIGMAS = 3.0

STATUS_SATISFIED = "satisfied"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_VIOLATED = "violated"


@dataclass(frozen=True)
class BoundReport:
    theta: float
    n_chain: int
    lower: float
    upper: float
    tested_value: float
    satisfied: bool
    source: str
    status: str = STATUS_SATISFIED
    saturated: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper + SNAP:
            raise ValueError("bound pair with lower > upper")
        if self.n_chain < 2:
            raise ValueError("chain length must be at least 2")


@dataclass(frozen=True)
class ChainCorrelations:
    """Correlations entering the N-term chained inequality."""

    diagonal: tuple[float, ...]
    offdiagonal: tuple[float, ...]
    wrap: float

    def __post_init__(self) -> None:
        diag = tuple(float(x) for x in self.diagonal)
        off = tuple(float(x) for x in self.offdiagonal)
        if len(diag) < 2 or len(off) != len(diag) - 1:
            raise ValueError(
                f"chain needs N>=2 diagonal and N-1 offdiagonal terms, got "
                f"{len(diag)} and {len(off)}"
            )
        for x in diag + off + (float(self.wrap),):
            if not -1.0 - SNAP <= x <= 1.0 + SNAP:
                raise ValueError(f"correlation {x!r} outside [-1, 1]")
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "offdiagonal", off)
        object.__setattr__(self, "wrap", float(self.wrap))

    @property
    def n(self) -> int:
        return len(self.diagonal)


def chsh_value(c00: float, c11: float, c10: float, c01: float) -> float:
    """|C(0,0) + C(1,1) + C(1,0) - C(0,1)|."""
    for x in (c00, c11, c10, c01):
        if not -1.0 - SNAP <= x <= 1.0 + SNAP:
            raise ValueError(f"correlation {x!r} outside [-1, 1]")
    return abs(c00 + c11 + c10 - c01)


def braunstein_caves_value(chain: ChainCorrelations) -> float:
    """|sum diagonal + sum offdiagonal - wrap|, bounded by 2N - 2
    classically and 2N cos(pi / 2N) quantum-mechanically."""
    return abs(sum(chain.diagonal) + sum(chain.offdiagonal) - chain.wrap)


def _snapped(t: float | np.ndarray, k: float, rounding: Callable) -> np.ndarray:
    """rounding(pi / (k t)), as floats, except that a t within SNAP of
    pi / (k n) gives that n; ``rounding`` is ``np.ceil`` or
    ``np.floor``."""
    ratio = PI / (k * t)
    nearest = np.round(ratio)
    return np.where(np.abs(t - PI / (k * nearest)) < SNAP, nearest, rounding(ratio))


def chain_bounds(theta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = max(2, ceil(pi / 2 theta)) and the bound 1 - 1/N, 0 at pi/2,
    on an array of theta in (0, pi/2], with 1e-12 snapping; a float is
    the 0-d case."""
    t = np.asarray(theta, dtype=float)
    outside = t[~((SNAP < t) & (t <= HALF_PI + SNAP))]
    if outside.size:
        raise ValueError(f"theta {float(outside[0])!r} outside (0, pi/2]")
    at_half_pi = np.abs(t - HALF_PI) < SNAP
    n = np.maximum(_snapped(np.minimum(t, HALF_PI), 2.0, np.ceil), 2.0)
    return n.astype(int), np.where(at_half_pi, 0.0, 1.0 - 1.0 / n)


def theorem1_bounds(theta: float) -> BoundReport:
    """The chain bound pair -(1 - 1/N) <= C(theta) <= 1 - 1/N.

    At theta = pi/2 exactly the chain argument closes both sides and
    the report degenerates to (0, 0).
    """
    t = float(theta)
    n, upper = chain_bounds(t)
    return BoundReport(
        theta=t,
        n_chain=int(n),
        lower=0.0 - float(upper),
        upper=float(upper),
        tested_value=math.nan,
        satisfied=True,
        source="theorem1",
    )


def lemma1_bounds(theta: float, gamma: float) -> BoundReport:
    t = float(theta)
    if not SNAP < t <= 2.0 * PI / 3.0 + SNAP:
        raise ValueError(f"theta {t!r} outside (0, 2pi/3]")
    g = float(gamma)
    if not -SNAP <= g <= 1.0 + SNAP:
        raise ValueError(f"gamma {g!r} outside [0, 1]")
    return BoundReport(
        theta=t,
        n_chain=3,
        lower=-1.0 + (2.0 / 3.0) * g,
        upper=1.0 / 3.0 + (2.0 / 3.0) * g,
        tested_value=math.nan,
        satisfied=True,
        source="lemma1",
    )


def lemma2_bound(theta: float, gamma: float) -> float:
    """Lower bound -1 + 2/N - 2 gamma with N picked so that
    theta lies in [pi/N, pi/(N-1))."""
    t = float(theta)
    if not SNAP < t < HALF_PI - SNAP:
        raise ValueError(f"theta {t!r} outside (0, pi/2)")
    g = float(gamma)
    if not -SNAP <= g <= 1.0 + SNAP:
        raise ValueError(f"gamma {g!r} outside [0, 1]")
    return -1.0 + 2.0 / int(_snapped(t, 1.0, np.ceil)) - 2.0 * g


@dataclass(frozen=True)
class ReflectionAngle:
    j: int
    theta_j: float
    side: str  # "below": 0 <= theta_j < theta; "above": theta < theta_j < pi/2


def lemma3_reflection_angles(theta: float) -> list[ReflectionAngle]:
    """The angles pi/(M+1-j) - theta, j = 1..M-1, where M is fixed by
    theta in (pi/(M+1), pi/M].  Each angle is tagged with the side of
    theta it is predicted to land on (j below M/2 + 1 lands below)."""
    t = float(theta)
    if not SNAP < t <= HALF_PI + SNAP:
        raise ValueError(f"theta {t!r} outside (0, pi/2]")
    t = min(t, HALF_PI)
    m = int(_snapped(t, 1.0, np.floor))
    out = []
    for j in range(1, m):
        theta_j = PI / (m + 1 - j) - t
        side = "below" if j < m / 2.0 + 1.0 else "above"
        out.append(ReflectionAngle(j=j, theta_j=theta_j, side=side))
    return out


def lemma4_check(theta: float, value: float) -> bool:
    """Strict sandwich -cos(theta) < value < cos(theta) on (0, pi/3)."""
    t = float(theta)
    checks = {source: (lo, hi) for source, lo, hi in _checks(t, 1.0)}
    if "lemma4" not in checks:
        raise ValueError(f"theta {t!r} outside (0, pi/3)")
    return checks["lemma4"][0] < float(value) < checks["lemma4"][1]


def _classify(
    value: float, lower: float, upper: float, slack: float, statistical: bool
) -> str:
    """A statistical point within its slack of the bounds is inconclusive,
    and so is one outside them with slack 0: its samples all agreed, and
    C = +-1 on (0, pi/2], where |C| <= 1 - 1/N < 1, is sampling noise."""
    if lower - slack <= value <= upper + slack:
        if statistical and not lower <= value <= upper:
            return STATUS_INCONCLUSIVE
        return STATUS_SATISFIED
    return STATUS_INCONCLUSIVE if statistical and slack == 0.0 else STATUS_VIOLATED


def _checks(theta: float, upper: float) -> list[tuple[str, float, float]]:
    """(source, lower, upper) of each check at theta: the chain bound
    pair, and the strict quantum sandwich on (0, pi/3)."""
    checks = [("theorem1", 0.0 - upper, upper)]
    if SNAP < theta < PI / 3.0 - SNAP:
        edge = math.cos(theta)
        checks.append(("lemma4", -edge, edge))
    return checks


def _chain_point(theta: float) -> bool:
    """Whether a verification checks a grid point: theta must lie in
    [0, pi/2], and theta = 0, where no chain bound applies, is skipped."""
    if not -SNAP <= theta <= HALF_PI + SNAP:
        raise ValueError(
            f"verification grid point theta={theta / PI:g}*pi outside [0, pi/2]"
        )
    return theta > SNAP


def verify_colouring(
    c: Colouring | ColouringPair,
    theta_grid: Sequence[float],
    method: str,
    plan: SamplingPlan | None = None,
    tol: float = 1e-8,
) -> list[BoundReport]:
    """Evaluate the curve with :func:`curve_for` and check the chain
    bounds at every grid point, plus the strict quantum sandwich where
    it applies.

    Exact methods use a 1e-9 slack.  A Monte Carlo point outside a
    bound is inconclusive within the family-wise z* stderr of the module
    docstring, and violated only beyond it.  The grid is checked as
    :func:`verify_curve` checks, before any work.
    """
    grid = [t for t in map(float, theta_grid) if _chain_point(t)]
    curve = curve_for(c, grid, method, plan=plan, tol=tol)
    return verify_curve(curve)


def verify_curve(curve: CorrelationCurve) -> list[BoundReport]:
    """Check an already-computed curve against the chain bounds (and
    the strict quantum sandwich where it applies).

    Grid points must sit in [0, pi/2]; theta = 0, where no chain bound
    applies, is skipped.  Points carrying a stderr get the statistical
    treatment, others the strict one: m counts the checks of the points
    with a stderr (166 on the 100-point grid 0.005:0.5:100, so
    z* = 4.53).  The chain-bound report carries a ``saturated`` flag
    marking equality with either edge within the slack, 3 stderr for a
    statistical point, the way the hemisphere curve touches the lower
    bound at theta = pi / 2N.  The chain bounds of the whole grid are
    one call of :func:`chain_bounds`.
    """
    points = [p for p in curve.points if _chain_point(p.theta)]
    chains, uppers = chain_bounds(np.array([p.theta for p in points]))
    checks = [_checks(p.theta, upper) for p, upper in zip(points, uppers.tolist())]
    tests = sum(len(c) for p, c in zip(points, checks) if p.stderr is not None)
    sigmas = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * tests)) if tests else 0.0
    reports: list[BoundReport] = []
    for point, n_chain, point_checks in zip(points, chains.tolist(), checks):
        statistical = point.stderr is not None
        slack = sigmas * point.stderr if statistical else EXACT_SLACK
        touch = SATURATION_SIGMAS * point.stderr if statistical else EXACT_SLACK
        for source, lo, hi in point_checks:
            status = _classify(point.value, lo, hi, slack, statistical)
            touches = abs(point.value - lo) <= touch or abs(point.value - hi) <= touch
            reports.append(
                BoundReport(
                    theta=point.theta,
                    n_chain=n_chain,
                    lower=lo,
                    upper=hi,
                    tested_value=point.value,
                    satisfied=status != STATUS_VIOLATED,
                    source=source,
                    status=status,
                    saturated=source == "theorem1" and status != STATUS_VIOLATED and touches,
                )
            )
    return reports


def report_to_json(
    colouring_label: str, method: str, reports: Sequence[BoundReport]
) -> str:
    """Serialize verification output: one grid entry per theta with the
    chain bounds; entries are marked unsatisfied if any check at that
    theta failed."""
    by_theta: dict[float, dict] = {}
    for r in reports:
        entry = by_theta.setdefault(
            r.theta,
            {
                "theta_over_pi": r.theta / PI,
                "value": r.tested_value,
                "lower": None,
                "upper": None,
                "satisfied": True,
                "status": STATUS_SATISFIED,
                "saturated": False,
            },
        )
        if r.source == "theorem1":
            entry["lower"] = r.lower
            entry["upper"] = r.upper
            entry["saturated"] = r.saturated
        if not r.satisfied:
            entry["satisfied"] = False
        if r.status == STATUS_VIOLATED or (
            r.status == STATUS_INCONCLUSIVE and entry["status"] == STATUS_SATISFIED
        ):
            entry["status"] = r.status
    payload = {
        "colouring": colouring_label,
        "method": method,
        "grid": [by_theta[t] for t in sorted(by_theta)],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
