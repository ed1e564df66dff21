"""Output checks of the benchmark jobs.

Each check compares one job's output with a reference that does not
come from the engine that produced it: the linear law for colouring 1,
quadrature for closed forms and closed forms for quadrature, the five
criterion-3 crossing angles, the pi/2 slope reference, -cos(theta) and
the analytic Werner curve for the quantum engine, and a fresh-seed
estimate for harmonic colourings, which have no exact engine.

Monte Carlo values must lie within ``MC_SIGMAS`` combined standard
errors of their reference.  At six sigma the chance of a false failure
is about 2e-9 per point, so a few hundred points per run on any fresh
seed practically never fail by chance.

Checks run after the timed rounds and return a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from spherebell.colourings import load_colouring, make_catalogue
from spherebell.correlation import (
    SamplingPlan,
    closed_form,
    correlation_mc,
    correlation_quadrature,
)
from spherebell.quantum import parse_state_text, twirl, werner_correlation
from spherebell.search import SLOPE_REFERENCE_THREE_BANDS

PI = math.pi
MC_SIGMAS = 6.0
ENGINE_TOL = 1e-6  # closed form (chi tol 1e-9) vs quadrature
QUAD_TOL = 1e-8  # reference quadratures
PRINT_TOL = 1e-11  # values are printed with 12 significant digits
CRITERION3_TOL = 0.003  # units of pi
SLOPE_TOL = 1e-3
FRESH_MC_N = 20_000


class Outcome:
    """What one job did: exit code (None when it raised), captured
    stdout and stderr, the text of its ``--out`` file, and the
    exception it raised, if any."""

    __slots__ = ("code", "stdout", "stderr", "out_text", "error")

    def __init__(self, code, stdout, stderr, out_text=None, error=None):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.out_text = out_text
        self.error = error

    def key(self) -> tuple:
        """Everything the job emitted, for byte-identity comparisons."""
        return (self.code, self.stdout, self.stderr, self.out_text, self.error)

    def text(self) -> str:
        return self.out_text if self.out_text is not None else self.stdout


def check_job(job, outcome: Outcome, produced: dict) -> list[str]:
    """Problems with one job's outcome; ``produced`` maps each ``--out``
    path of the round to the text written there."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    if job.known_defect and outcome.code == 2:
        return []
    if outcome.code != 0:
        return [f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}"]
    try:
        return CHECKS[job.check](job, outcome, produced)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def mc_samples(job, outcome: Outcome) -> tuple[str, int] | None:
    """(engine, samples drawn) of one job, None when it drew none."""
    if job.check == "search" and outcome.code == 0:
        evaluations = json.loads(outcome.text())["evaluations"]
        # every objective evaluation draws n samples; the winner is
        # re-evaluated once at 10 n
        return "classical", (evaluations + 10) * job.params["n"]
    return job.mc


# ---------------------------------------------------------------------------
# helpers


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [row for row in reader if row]


def _parse_grid(spec: str) -> np.ndarray:
    start, stop, count = spec.split(":")
    return np.linspace(float(start), float(stop), int(count))


def _linear(t: float) -> float:
    """Colouring 1, the linear law, on [0, pi]."""
    return -(1.0 - 2.0 * t / PI)


def _reference(name: str):
    return {"c1": _linear, "singlet": lambda t: -math.cos(t)}[name]


def _quadrature(label: str, t: float) -> float:
    return correlation_quadrature(make_catalogue(label), t, QUAD_TOL)


def _closed(label: str, t: float) -> float:
    base, _, arg = label.partition(":")
    if base == "3_delta":
        return closed_form("3_delta", t, delta=float(arg) * PI)
    return closed_form(base, t)


def _exact(label: str, t: float, engine: str) -> float:
    if t < 1e-12:
        return -1.0  # perfect anticorrelation at coincident axes
    return _closed(label, t) if engine == "closed_form" else _quadrature(label, t)


def _sign_change(f, g, star: float, half_width: float) -> bool:
    """f - g changes sign across [star - w, star + w]."""
    lo, hi = star - half_width, star + half_width
    return (f(lo) - g(lo) > 0.0) != (f(hi) - g(hi) > 0.0)


def _fresh_mc(path: str, t: float, seed: int) -> tuple[float, float]:
    """An independent estimate of a harmonic colouring's C(theta)."""
    return correlation_mc(load_colouring(path), t, SamplingPlan(seed, FRESH_MC_N))


def _mc_close(value, stderr, ref, ref_stderr=0.0) -> bool:
    return abs(value - ref) <= MC_SIGMAS * math.hypot(stderr, ref_stderr) + 1e-12


def _ref_seed(job, row: int) -> int:
    """A reference seed that differs from the job's own."""
    argv = job.argv
    own = int(argv[argv.index("--seed") + 1], 0)
    return (own * 7919 + 104729 + row) % 2**63


# ---------------------------------------------------------------------------
# deterministic jobs


def _check_delta_sweep(job, outcome, produced):
    header, rows = _rows(outcome.stdout)
    problems = []
    if header != ["delta_over_pi", "theta_star_over_pi", "reference"]:
        return [f"header {header}"]
    ref = job.params["reference"]
    if "deltas" in job.params:
        lo, hi, count = job.params["deltas"]
        expected = np.linspace(float(lo), float(hi), int(count))
        got = np.array([float(r[0]) for r in rows])
        if got.shape != expected.shape or np.max(np.abs(got - expected)) > PRINT_TOL:
            problems.append(f"delta column {got} is not the grid {expected}")
    stars = [(float(r[0]), float(r[1])) for r in rows if r[1]]
    if not stars:
        problems.append("no delta crosses the reference")
    if any(r[2] != ref for r in rows):
        problems.append("reference column")
    best = re.search(r"crossing theta/pi = ([0-9.]+)", outcome.stderr)
    if stars and (best is None or abs(float(best.group(1)) - min(s for _, s in stars)) > 1e-6):
        problems.append("reported best crossing is not the table minimum")
    # the crossings are found on closed forms; they must bracket a sign
    # change of the quadrature engine too
    for delta, star in stars[: job.params["spot"]]:
        col = make_catalogue("3_delta", delta=delta * PI)
        if not _sign_change(
            lambda t: correlation_quadrature(col, t, QUAD_TOL), _reference(ref), star * PI, 2e-4
        ):
            problems.append(f"delta {delta}: no quadrature sign change at {star}")
    return problems


def _check_delta_table(job, outcome, produced):
    header, rows = _rows(outcome.stdout)
    if header != ["theta_over_pi", "c_3_delta", "c_3", "c_1", "q_singlet"]:
        return [f"header {header}"]
    problems = []
    delta = float(job.params["delta"])
    label = f"3_delta:{job.params['delta']}"
    thetas = np.array([float(r[0]) for r in rows]) * PI
    if len(rows) != 81 or abs(thetas[0] - 0.34 * PI) > 1e-9 or abs(thetas[-1] - PI / 2) > 1e-9:
        problems.append("theta column is not the default 0.34:0.5:81 grid")
    for t, row in zip(thetas, rows):
        if abs(float(row[3]) - _linear(t)) > PRINT_TOL:
            problems.append(f"c_1 at {row[0]} is not the linear law")
        if abs(float(row[4]) + math.cos(t)) > PRINT_TOL:
            problems.append(f"q_singlet at {row[0]} is not -cos")
    for i in job.params["spot"]:
        t = thetas[i]
        if abs(float(rows[i][1]) - _quadrature(label, t)) > ENGINE_TOL:
            problems.append(f"c_3_delta at {rows[i][0]} disagrees with quadrature")
    hit = re.search(r"theta/pi = ([0-9.]+)", outcome.stderr)
    if hit is None:
        return problems + ["no crossing reported"]
    star = float(hit.group(1))
    expect = job.params["expect"]
    if expect is not None and abs(star - expect) > CRITERION3_TOL:
        problems.append(f"crossing {star} is not the criterion-3 angle {expect}")
    col = make_catalogue("3_delta", delta=delta * PI)
    # the crossing is printed to 6 decimals of pi
    half_width = max(job.params["tol"], 1e-6 * PI) + 1e-6 * PI
    if not _sign_change(
        lambda t: correlation_quadrature(col, t, QUAD_TOL),
        _reference(job.params["reference"]),
        star * PI,
        half_width,
    ):
        problems.append(f"no quadrature sign change at the crossing {star}")
    return problems


def _check_two_delta_table(job, outcome, produced):
    header, rows = _rows(outcome.stdout)
    if header != ["Delta_over_pi", "theta_star_over_pi", "reference"] or len(rows) != 1:
        return [f"unexpected table {header} with {len(rows)} rows"]
    cap, star, ref = rows[0]
    problems = []
    if float(cap) != 0.0 or ref != "neg_c1":
        problems.append(f"row {rows[0]}")
    star = float(star)
    if abs(star - job.params["expect"]) > CRITERION3_TOL:
        problems.append(f"crossing {star} is not the criterion-3 angle {job.params['expect']}")
    # cap 0 is colouring 2, whose closed form is independent of the
    # quadrature the sweep ran on
    if not _sign_change(lambda t: closed_form("2", t), lambda t: -_linear(t), star * PI, 2e-4):
        problems.append(f"no closed-form sign change at {star}")
    return problems


def _richardson(c, h: float) -> float:
    root2 = math.sqrt(2.0)
    q = [c(PI / 2 - k * h) / (k * h) for k in (1, 2, 4)]
    return (4 + 2 * root2) * q[0] - (4 + 3 * root2) * q[1] + (1 + root2) * q[2]


def _check_slope(job, outcome, produced):
    payload = json.loads(outcome.stdout)
    label = job.params["colouring"]
    problems = []
    if abs(payload["c_at_half_pi"]) > 1e-8:
        problems.append(f"C(pi/2) = {payload['c_at_half_pi']}")
    if label == "3":
        if abs(payload["abs_slope"] - SLOPE_REFERENCE_THREE_BANDS) > SLOPE_TOL:
            problems.append(f"slope {payload['abs_slope']} is not (6 - 4(sqrt3 - sqrt2))/pi")
    else:
        # the same extrapolation on the closed-form engine
        ref = _richardson(lambda t: closed_form(label, t), payload["step"])
        if abs(payload["slope"] - ref) > 1e-4:
            problems.append(f"slope {payload['slope']} disagrees with closed form {ref}")
    return problems


def _check_curve_deterministic(job, outcome, produced):
    header, rows = _rows(outcome.text())
    problems = []
    label = job.params["label"]
    grid = _parse_grid(job.params["grid"])
    thetas = np.array([float(r[0]) for r in rows])
    if thetas.shape != grid.shape or np.max(np.abs(thetas - grid)) > PRINT_TOL:
        return [f"theta column is not the grid {job.params['grid']}"]
    method = job.argv[job.argv.index("--method") + 1]
    cols = {name: k for k, name in enumerate(header)}
    for row in rows:
        if row[3] != method or row[4] != make_catalogue(label).label:
            problems.append(f"method/label columns {row[3:5]}")
        t = float(row[0]) * PI
        if abs(float(row[cols["c1"]]) - _linear(t)) > PRINT_TOL:
            problems.append(f"c1 column at {row[0]}")
        if abs(float(row[cols["q_singlet"]]) + math.cos(t)) > PRINT_TOL:
            problems.append(f"q_singlet column at {row[0]}")
    other = "quadrature" if method == "closed_form" else "closed_form"
    for i in job.params["spot"]:
        t = float(rows[i][0]) * PI
        if abs(float(rows[i][1]) - _exact(label, t, other)) > ENGINE_TOL:
            problems.append(f"value at {rows[i][0]} disagrees with {other}")
    return problems


def _check_verify_deterministic(job, outcome, produced):
    payload = json.loads(outcome.stdout)
    grid = _parse_grid(job.params["grid"])
    entries = payload["grid"]
    label = job.params["label"]
    if len(entries) != len(grid):
        return [f"{len(entries)} grid entries, expected {len(grid)}"]
    problems = []
    for entry, x in zip(entries, grid):
        t = x * PI
        if abs(entry["theta_over_pi"] - x) > 1e-12:
            problems.append(f"theta {entry['theta_over_pi']} is not {x}")
        if not entry["satisfied"] or entry["status"] != "satisfied":
            problems.append(f"bound not satisfied at {x}")
        if not entry["lower"] - 1e-9 <= entry["value"] <= entry["upper"] + 1e-9:
            problems.append(f"value outside its reported bounds at {x}")
        if label == "1" and abs(entry["value"] - _linear(t)) > 1e-12:
            problems.append(f"value at {x} is not the linear law")
    for i in job.params["spot"]:
        t = grid[i] * PI
        if abs(entries[i]["value"] - _quadrature(label, t)) > ENGINE_TOL:
            problems.append(f"value at {grid[i]} disagrees with quadrature")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo jobs


def _check_curve_mc(job, outcome, produced):
    header, rows = _rows(outcome.text())
    grid = _parse_grid(job.params["grid"])
    thetas = np.array([float(r[0]) for r in rows])
    if thetas.shape != grid.shape or np.max(np.abs(thetas - grid)) > PRINT_TOL:
        return [f"theta column is not the grid {job.params['grid']}"]
    problems = []
    reference = job.params["reference"]
    if reference == "fresh_mc":
        for i in job.params["spot"]:
            t = thetas[i] * PI
            ref, ref_err = _fresh_mc(job.params["file"], t, _ref_seed(job, i))
            if not _mc_close(float(rows[i][1]), float(rows[i][2]), ref, ref_err):
                problems.append(f"value at {rows[i][0]} is off the fresh-seed estimate {ref}")
        return problems
    label = job.params["label"]
    for row in rows:
        if row[3] != "mc" or row[4] != make_catalogue(label).label:
            problems.append(f"method/label columns {row[3:5]}")
        value, stderr = float(row[1]), float(row[2])
        if not _mc_close(value, stderr, _exact(label, float(row[0]) * PI, reference)):
            problems.append(f"value {value} +- {stderr} at {row[0]} is off the {reference} value")
    return problems


def _check_verify_curve_file(job, outcome, produced):
    payload = json.loads(outcome.stdout)
    _, rows = _rows(produced[job.params["curve"]])
    entries = payload["grid"]
    if len(entries) != len(rows):
        # a fixed verify may skip theta = 0, which has no chain bound
        rows = [r for r in rows if float(r[0]) > 0.0]
    if len(entries) != len(rows):
        return [f"{len(entries)} entries for a {len(rows)}-point curve"]
    problems = []
    for entry, row in zip(entries, rows):
        if abs(entry["theta_over_pi"] - float(row[0])) > 1e-12 or entry["value"] != float(row[1]):
            problems.append(f"entry at {row[0]} does not echo the curve")
        if not entry["satisfied"]:
            problems.append(f"bound violated at {row[0]}")
    return problems


def _check_verify_mc(job, outcome, produced):
    payload = json.loads(outcome.stdout)
    grid = _parse_grid(job.params["grid"])
    entries = payload["grid"]
    if len(entries) != len(grid):
        return [f"{len(entries)} grid entries, expected {len(grid)}"]
    problems = [f"bound violated at {e['theta_over_pi']}" for e in entries if not e["satisfied"]]
    n = job.params["n"]
    for i in job.params["spot"]:
        value = entries[i]["value"]
        # +-1 products: the stderr follows from the mean
        stderr = math.sqrt(max(0.0, 1.0 - value * value) / (n - 1))
        ref, ref_err = _fresh_mc(job.params["file"], grid[i] * PI, _ref_seed(job, i))
        if not _mc_close(value, stderr, ref, ref_err):
            problems.append(f"value at {grid[i]} is off the fresh-seed estimate {ref}")
    return problems


def _check_search(job, outcome, produced):
    from spherebell.bounds import theorem1_bounds
    from spherebell.colourings import HarmonicColouring

    payload = json.loads(outcome.stdout)
    theta = job.params["theta"] * PI
    problems = []
    if payload["L_max"] != job.params["l_max"] or payload["evaluations"] < 1:
        problems.append(f"L_max {payload['L_max']}, evaluations {payload['evaluations']}")
    value, stderr = payload["objective"], payload["objective_stderr"]
    if value < theorem1_bounds(theta).lower - MC_SIGMAS * stderr:
        problems.append(f"objective {value} below the chain bound")
    winner = HarmonicColouring(
        tuple((c["l"], c["m"], c["a"]) for c in payload["best_coefficients"])
    )
    ref, ref_err = correlation_mc(winner, theta, SamplingPlan(0x5EA4C4, FRESH_MC_N))
    if not _mc_close(value, stderr, ref, ref_err):
        problems.append(f"objective {value} is off the fresh-seed estimate {ref}")
    return problems


def _check_quantum_mc(job, outcome, produced):
    header, rows = _rows(outcome.stdout)
    grid = _parse_grid(job.params["grid"])
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    with open(job.params["state_file"]) as fh:
        r = twirl(parse_state_text(fh.read())).r
    problems = []
    for row, x in zip(rows, grid):
        value, stderr = float(row[1]), float(row[2])
        if abs(float(row[0]) - x) > PRINT_TOL or row[3] != "mc":
            problems.append(f"row {row[:4]}")
        if abs(float(row[4]) - r) > PRINT_TOL:
            problems.append(f"state_r {row[4]} is not the singlet fidelity {r}")
        if not _mc_close(value, stderr, werner_correlation(r, x * PI)):
            problems.append(f"value {value} +- {stderr} at {x} is off the Werner curve")
    return problems


def _check_quantum_analytic(job, outcome, produced):
    header, rows = _rows(outcome.stdout)
    grid = _parse_grid(job.params["grid"])
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    return [
        f"value at {row[0]} is not -cos(theta)"
        for row, x in zip(rows, grid)
        if abs(float(row[1]) + math.cos(x * PI)) > PRINT_TOL
    ]


CHECKS = {
    "delta_sweep": _check_delta_sweep,
    "delta_table": _check_delta_table,
    "two_delta_table": _check_two_delta_table,
    "slope": _check_slope,
    "curve_deterministic": _check_curve_deterministic,
    "verify_deterministic": _check_verify_deterministic,
    "curve_mc": _check_curve_mc,
    "verify_curve_file": _check_verify_curve_file,
    "verify_mc": _check_verify_mc,
    "search": _check_search,
    "quantum_mc": _check_quantum_mc,
    "quantum_analytic": _check_quantum_analytic,
}
