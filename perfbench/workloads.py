"""Job lists of the spherebell benchmark.

A job is one in-process ``spherebell.cli.main(argv)`` call.  Each
workload is built from its seed alone: the seed picks deltas, grids,
Monte Carlo seeds, harmonic colourings and density matrices, and the
generated input files are written next to the jobs.  README commands
appear verbatim, except the 13-cap ``sweep --family 2_Delta``, which is
run on one cap (the full grid takes minutes).

``smoke=True`` shrinks every job so that a whole workload finishes in
seconds; the benchmark's self-tests use it, the benchmark never does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("thresholds", "mc_harmonic", "mc_band_quantum")

# separates the random streams of the three workloads under one seed
_STREAM = {name: k for k, name in enumerate(WORKLOADS)}

# the five crossing angles of acceptance criterion 3, in units of pi
CRITERION3 = {
    ("0", "c1"): 0.405,
    ("0", "singlet"): 0.467,
    ("-0.038", "c1"): 0.386,
    ("-0.046", "singlet"): 0.431,
    "2_Delta:0": 0.375,
}

README_SWEEP_DEFECT = (
    "README `sweep --family 3_delta --reference c1`: the default delta grid "
    "-0.0556:0.0417:25 lies outside [-pi/18, pi/24] at both ends, so it exits 2"
)
README_VERIFY_DEFECT = (
    "README `verify --curve-file c2.csv`: the README curve grid starts at "
    "theta = 0, which verify_curve rejects, so it exits 2"
)


@dataclass(frozen=True)
class Job:
    """One CLI call plus what the output check needs to know about it.

    ``check`` names a function in ``checks.CHECKS``; ``params`` holds
    its JSON-able arguments.  ``out`` is the file the job writes with
    ``--out`` (None: the output is stdout).  A job with ``known_defect``
    may exit 2 for that documented reason; it counts against ``ok_frac``
    but not as a benchmark failure.  ``mc`` is ("classical" or
    "quantum", samples drawn), None for deterministic jobs; a search
    job's sample count depends on its output and is set by its check.
    """

    name: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)
    out: str | None = None
    known_defect: str | None = None
    mc: tuple[str, int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    files: dict  # relative path -> text of each generated input file


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The job list and input files of workload ``name`` for ``seed``."""
    if name not in _STREAM:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([int(seed), _STREAM[name]])
    files: dict[str, str] = {}
    jobs = _JOB_LISTS[name](rng, files, smoke)
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in {name}")
    return Workload(name=name, jobs=tuple(jobs), files=files)


def _f(x: float) -> str:
    """Four decimals: grid and parameter values in units of pi."""
    return f"{x:.4f}"


def _grid(rng, lo: float, hi: float, count: int, min_span: float) -> str:
    """A start:stop:count grid inside [lo, hi] spanning at least min_span."""
    start = rng.uniform(lo, hi - min_span)
    stop = rng.uniform(start + min_span, hi)
    return f"{_f(start)}:{_f(stop)}:{count}"


def _mc_seed(rng) -> str:
    return str(int(rng.integers(1, 2**31)))


def _spots(rng, count: int, k: int) -> list[int]:
    """k distinct row indices out of count, sorted."""
    return sorted(int(i) for i in rng.choice(count, size=min(k, count), replace=False))


def _grid_count(spec: str) -> int:
    return int(spec.split(":")[2])


# ---------------------------------------------------------------------------
# thresholds: deterministic crossing work, no Monte Carlo


def _thresholds(rng, files, smoke):
    n_deltas = 2 if smoke else 5
    defect = Job(
        "readme_sweep_3delta_c1",
        ("sweep", "--family", "3_delta", "--reference", "c1"),
        "delta_sweep",
        {"reference": "c1", "spot": 2},
        known_defect=README_SWEEP_DEFECT,
    )
    # valid twins of the README sweep: the same family on grids that
    # stay inside [-pi/18, pi/24]
    sweeps = []
    for ref in ("c1", "singlet"):
        lo = rng.uniform(-0.0555, -0.045)
        hi = rng.uniform(0.030, 0.0416)
        sweeps.append(
            Job(
                f"sweep_3delta_{ref}",
                ("sweep", "--family", "3_delta",
                 f"--delta-grid={_f(lo)}:{_f(hi)}:{n_deltas}", "--reference", ref),
                "delta_sweep",
                {"reference": ref, "deltas": [_f(lo), _f(hi), n_deltas], "spot": 2},
            )
        )
    # single-delta tables: the four criterion-3 cases, the README one
    # verbatim, plus two deltas drawn from the seed inside the range
    # where the family crosses its reference
    singles = [
        ("-0.046", "singlet", ()),
        ("-0.038", "c1", ()),
        ("0", "c1", ("--tol", "1e-6")),
        ("0", "singlet", ()),
        (_f(rng.uniform(-0.05, 0.01)), "c1", ()),
        (_f(rng.uniform(-0.05, -0.005)), "singlet", ()),
    ]
    if smoke:
        singles = singles[:1] + singles[4:5]
    tables = []
    for k, (delta, ref, extra) in enumerate(singles):
        name = "readme_sweep_3delta_-0.046_singlet" if k == 0 else f"table_3delta_{delta}_{ref}"
        if extra:
            name += "_tol1e-6"
        tables.append(
            Job(
                name,
                ("sweep", "--family", "3_delta", "--delta", delta, "--reference", ref)
                + extra,
                "delta_table",
                {
                    "delta": delta,
                    "reference": ref,
                    "tol": float(extra[1]) if extra else 1e-4,
                    "expect": CRITERION3.get((delta, ref)),
                    "spot": _spots(rng, 81, 1),
                },
            )
        )
    others = [
        Job(
            "readme_curve_3_closed_form",
            ("curve", "--colouring", "3", "--method", "closed_form", "--grid", "0:0.5:101"),
            "curve_deterministic",
            {"label": "3", "grid": "0:0.5:101", "spot": _spots(rng, 101, 3)},
        ),
        Job("readme_slope_3", ("slope", "--colouring", "3"), "slope", {"colouring": "3"}),
        Job(
            "readme_verify_1",
            ("verify", "--colouring", "1", "--grid", "0.005:0.5:100"),
            "verify_deterministic",
            {"label": "1", "grid": "0.005:0.5:100", "spot": []},
        ),
        Job("slope_4", ("slope", "--colouring", "4"), "slope", {"colouring": "4"}),
    ]
    grid = _grid(rng, 0.01, 0.5, 41, 0.2)
    others.append(
        Job(
            "curve_4_closed_form",
            ("curve", "--colouring", "4", "--method", "closed_form", "--grid", grid),
            "curve_deterministic",
            {"label": "4", "grid": grid, "spot": _spots(rng, 41, 3)},
        )
    )
    grid = _grid(rng, 0.01, 0.5, 3 if smoke else 6, 0.2)
    others.append(
        Job(
            "curve_4_quadrature",
            ("curve", "--colouring", "4", "--method", "quadrature", "--grid", grid),
            "curve_deterministic",
            {"label": "4", "grid": grid, "spot": list(range(_grid_count(grid)))},
        )
    )
    delta = _f(rng.uniform(-0.0555, 0.0416))
    grid = _grid(rng, 0.34, 0.5, 21, 0.08)
    others.append(
        Job(
            "curve_3delta_closed_form",
            ("curve", "--colouring", f"3_delta:{delta}", "--method", "closed_form",
             "--grid", grid),
            "curve_deterministic",
            {"label": f"3_delta:{delta}", "grid": grid, "spot": _spots(rng, 21, 2)},
        )
    )
    grid = _grid(rng, 0.005, 0.5, 50, 0.2)
    others += [
        Job(
            "verify_2",
            ("verify", "--colouring", "2", "--grid", grid),
            "verify_deterministic",
            {"label": "2", "grid": grid, "spot": _spots(rng, 50, 2)},
        ),
        defect,
    ]
    long = [(sweeps[0],), (sweeps[1],)]
    if not smoke:
        # the README 13-cap 2_Delta sweep, reduced to its first cap
        two_delta = Job(
            "sweep_2Delta_cap0",
            ("sweep", "--family", "2_Delta", "--delta-grid", "0:0.0833:1"),
            "two_delta_table",
            {"expect": CRITERION3["2_Delta:0"]},
        )
        long.insert(1, (two_delta,))
    short = [(job,) for job in _round_robin(tables, others)]
    return _interleave(short, long)


# ---------------------------------------------------------------------------
# mc_harmonic: sign-of-harmonics colourings, built basis-first


_ALL_MODES = [(l, m) for l in (1, 3, 5) for m in range(-l, l + 1)]


def _harmonic_file(rng, files, name: str) -> str:
    """A random unit coefficient vector over odd l <= 5, all m."""
    coeffs = rng.standard_normal(len(_ALL_MODES))
    coeffs /= np.linalg.norm(coeffs)
    terms = [[l, m, float(a)] for (l, m), a in zip(_ALL_MODES, coeffs)]
    files[name] = json.dumps({"kind": "harmonic", "label": name[:-5], "terms": terms})
    return name


def _mc_harmonic(rng, files, smoke):
    n = 2000 if smoke else 20_000
    search_n = 20_000
    readme = ("search", "--theta", "0.45", "--lmax", "5", "--azimuthal-only")
    if smoke:
        readme += ("--restarts", "1", "--max-iter", "10", "--n", "2000")
        search_n = 2000
    search = Job("readme_search", readme, "search", {"theta": 0.45, "n": search_n, "l_max": 5})
    # criterion 6 in miniature: one random harmonic over every (l, m),
    # verified on its 100-point grid
    grid = "0.005:0.5:10" if smoke else "0.005:0.5:100"
    path = _harmonic_file(rng, files, "harmonic_full.json")
    verify_full = Job(
        "verify_harmonic_full",
        ("verify", "--colouring", f"@{path}", "--method", "mc", "--n", str(n),
         "--grid", grid, "--seed", _mc_seed(rng)),
        "verify_mc",
        {"file": path, "n": n, "grid": grid, "spot": _spots(rng, _grid_count(grid), 2)},
        mc=("classical", n * _grid_count(grid)),
    )
    # short curves of further random harmonics; five are then verified
    # from their CSVs.  Ten curves put the tail percentile (ten jobs
    # beyond it) among the curves rather than the millisecond verifies.
    short = []
    for k in range(10):
        path = _harmonic_file(rng, files, f"harmonic_{k}.json")
        grid = _grid(rng, 0.02, 0.5, 3, 0.1)
        out = f"harmonic_{k}.csv"
        item = (
            Job(
                f"curve_harmonic_{k}",
                ("curve", "--colouring", f"@{path}", "--method", "mc", "--n", str(n),
                 "--grid", grid, "--seed", _mc_seed(rng), "--out", out),
                "curve_mc",
                {"file": path, "grid": grid, "reference": "fresh_mc", "spot": _spots(rng, 3, 1)},
                out=out,
                mc=("classical", n * 3),
            ),
        )
        if k < 5:
            item += (
                Job(
                    f"verify_curve_harmonic_{k}",
                    ("verify", "--curve-file", out),
                    "verify_curve_file",
                    {"curve": out},
                ),
            )
        short.append(item)
    return _interleave(short, [(search,), (verify_full,)])


# ---------------------------------------------------------------------------
# mc_band_quantum: band colourings and the quantum engine


def _state_text(rho: np.ndarray) -> str:
    rows = []
    for i in range(4):
        rows.append(" ".join(f"{float(z.real)!r}{float(z.imag):+.17g}i" for z in rho[i]))
    return "\n".join(rows) + "\n"


def _werner_rho(r: float) -> np.ndarray:
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    p_minus = np.outer(psi, psi)
    return r * p_minus + (1.0 - r) / 3.0 * (np.eye(4) - p_minus)


def _random_rho(rng) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    upper = np.triu(rho, 1)
    # exactly Hermitian after printing: the lower triangle is written
    # as the conjugate of the upper one
    return upper + upper.conj().T + np.diag(np.diag(rho).real)


def _mc_band_quantum(rng, files, smoke):
    readme_n, readme_points = 1_000_000, 101
    readme_curve = ("curve", "--colouring", "2", "--method", "mc", "--n", "1000000",
                    "--seed", "0x42d", "--out", "c2.csv")
    if smoke:
        readme_curve += ("--n", "2000", "--grid", "0:0.5:11")
        readme_n, readme_points = 2000, 11
    readme = (
        Job(
            "readme_curve_2_mc",
            readme_curve,
            "curve_mc",
            {"label": "2", "grid": f"0:0.5:{readme_points}", "reference": "closed_form"},
            out="c2.csv",
            mc=("classical", readme_n * readme_points),
        ),
        Job(
            "readme_verify_curve_file",
            ("verify", "--curve-file", "c2.csv"),
            "verify_curve_file",
            {"curve": "c2.csv"},
            known_defect=README_VERIFY_DEFECT,
        ),
    )
    # valid twin: the same check on a colouring-2 curve whose grid
    # starts inside (0, pi/2]
    n = 500 if smoke else 20_000
    twin = (
        Job(
            "curve_2_mc_twin",
            ("curve", "--colouring", "2", "--method", "mc", "--n", str(n),
             "--seed", _mc_seed(rng), "--grid", "0.005:0.5:100", "--out", "c2_twin.csv"),
            "curve_mc",
            {"label": "2", "grid": "0.005:0.5:100", "reference": "closed_form"},
            out="c2_twin.csv",
            mc=("classical", n * 100),
        ),
        Job(
            "verify_curve_file_twin",
            ("verify", "--curve-file", "c2_twin.csv"),
            "verify_curve_file",
            {"curve": "c2_twin.csv"},
        ),
    )
    n = 2000 if smoke else 200_000
    # the two families get 7 points so that all five curves take about
    # as long, and the median and tail jobs come from one even group
    labels = [
        ("1", 0.01, 0.5, 5, "closed_form"),
        ("3", 0.01, 0.5, 5, "closed_form"),
        ("4", 0.01, 0.5, 5, "closed_form"),
        (f"3_delta:{_f(rng.uniform(-0.0555, 0.0416))}", 0.34, 0.5, 7, "closed_form"),
        (f"2_Delta:{_f(rng.uniform(0.0, 0.0833))}", 0.01, 0.5, 7, "quadrature"),
    ]
    bands = []
    for label, lo, hi, points, reference in labels:
        grid = _grid(rng, lo, hi, points, 0.08)
        out = f"band_{label.replace(':', '_')}.csv"
        bands.append(
            (
                Job(
                    f"curve_{label}_mc",
                    ("curve", "--colouring", label, "--method", "mc", "--n", str(n),
                     "--seed", _mc_seed(rng), "--grid", grid, "--out", out),
                    "curve_mc",
                    {"label": label, "grid": grid, "reference": reference},
                    out=out,
                    mc=("classical", n * points),
                ),
                Job(
                    f"verify_curve_{label}",
                    ("verify", "--curve-file", out),
                    "verify_curve_file",
                    {"curve": out},
                ),
            )
        )
    n = 500 if smoke else 20_000
    werner = []
    for k in range(4):
        r = float(rng.uniform(0.0, 1.0))
        path = f"werner_{k}.txt"
        files[path] = _state_text(_werner_rho(r))
        grid = _grid(rng, 0.0, 1.0, 5, 0.2)
        werner.append(
            (
                Job(
                    f"quantum_werner_{k}_mc",
                    ("quantum", "--state-file", path, "--mc", "--n", str(n),
                     "--seed", _mc_seed(rng), "--grid", grid),
                    "quantum_mc",
                    {"state_file": path, "grid": grid},
                    mc=("quantum", n * 5),
                ),
            )
        )
    files["rho.txt"] = _state_text(_random_rho(rng))
    readme_quantum = ("quantum", "--state-file", "rho.txt", "--mc", "--n", "100000")
    quantum_n, quantum_points = 100_000, 51
    if smoke:
        readme_quantum += ("--n", "500", "--grid", "0:0.5:6")
        quantum_n, quantum_points = 500, 6
    quantum = Job(
        "readme_quantum_rho_mc",
        readme_quantum,
        "quantum_mc",
        {"state_file": "rho.txt", "grid": f"0:0.5:{quantum_points}"},
        mc=("quantum", quantum_n * quantum_points),
    )
    singlet = Job(
        "readme_quantum_singlet",
        ("quantum", "--state", "singlet", "--grid", "0:1:101"),
        "quantum_analytic",
        {"grid": "0:1:101"},
    )
    short = _round_robin(bands, werner, [twin, (singlet,)])
    return _interleave(short, [readme, (quantum,)])


def _round_robin(*groups: list) -> list:
    """One item from each group in turn."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out += [g[k] for g in groups if k < len(g)]
    return out


def _interleave(short: list[tuple], long: list[tuple]) -> list[Job]:
    """Job order for a round: the long items evenly between clusters of
    short ones.  The host's speed drifts over seconds, so short jobs that
    run together would all share one slow spell and move the median and
    tail latency together; spread out, a spell hits only some of them.
    Each item is a tuple of jobs that run in that order (a curve and the
    verify that reads it)."""
    clusters = len(long) + 1
    out: list[Job] = []
    for k in range(clusters):
        for item in short[k * len(short) // clusters : (k + 1) * len(short) // clusters]:
            out += item
        if k < len(long):
            out += long[k]
    return out


_JOB_LISTS = {
    "thresholds": _thresholds,
    "mc_harmonic": _mc_harmonic,
    "mc_band_quantum": _mc_band_quantum,
}
