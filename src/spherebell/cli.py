"""Command-line front end.

Subcommands: curve (correlation curves as CSV with reference columns),
verify (bound checks as JSON), sweep (deformed-family crossing tables),
search (harmonic colouring search), quantum (reference curves), slope
(the pi/2 slope probe).  Angles cross the boundary in units of pi;
radians stay internal.

Each subcommand's ``run_*`` function computes its whole text from the
library and returns it with its exit code (``sweep`` also prints a
summary to stderr); :func:`main` writes the text.  The --out path's
directory is checked before the command runs, so that a bad path fails
before any work, and the file is opened only once the text exists, so
that a failed run leaves no file behind.  Without --out (or with "-")
the text goes to stdout.

Exit codes: 0 success, 1 a definite bound violation was found, 2 bad
usage or configuration, 3 numerical failure.

Heap policy: on its first entry, :func:`main` asks glibc's malloc to
keep freed memory (``mallopt``: mmap threshold 32 MiB, trim threshold
1 GiB).  By default glibc maps each Monte Carlo temporary above 128 KiB
afresh and unmaps or trims it when freed, so the next chunk's
temporaries fault in as new zero pages: a second README ``curve
--colouring 2 --method mc`` in one process took about 21,000 minor
faults (13 with the policy), the README ``search`` about 12,000 (15).
The policy belongs to the command-line process: importing spherebell
leaves a host program's allocator alone, and off glibc nothing is done.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from . import search as search_mod
from .colourings import load_colouring, make_catalogue
from .correlation import (
    METHODS,
    SamplingPlan,
    closed_form,
    curve_for,
    format_sig,
    read_curve_csv,
    write_curve_csv,
)
from .geometry import NumericalError
from .quantum import (
    TwoQubitState,
    mc_quantum_curve,
    parse_state_text,
    singlet_correlation,
    twirl,
    werner_correlation,
)

PI = math.pi

DEFAULT_SEED = 0x42D
DEFAULT_N = 1_000_000
DEFAULT_TOL = 1e-8
TOL_HELP = "outer-integral tolerance, read by --method quadrature only"


class UsageError(ValueError):
    pass


# glibc's mallopt parameters (malloc.h) and the heap policy's values
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


@functools.cache
def _keep_freed_heap() -> None:
    """Set the heap policy of the module docstring, once per process,
    where the C library is glibc; elsewhere do nothing."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if not glibc:
        return
    try:
        import ctypes
    except ImportError:  # a Python built without _ctypes
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # either value alone switches off glibc's adaptive mmap threshold
    # and leaves more faults than the default, so the trim threshold is
    # set only where the mmap threshold is accepted (glibc refuses more
    # than half its heap size, which is 32 MiB on 64-bit builds)
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _split_grid(spec: str, name: str) -> tuple[float, float, int]:
    """The start, stop and count of "start:stop:count", called ``name``."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name} {spec!r} must be start:stop:count")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad {name} {spec!r}: {exc}") from None


def parse_grid(spec: str) -> np.ndarray:
    """Parse "start:stop:count" (units of pi) into a radian grid."""
    start, stop, count = _split_grid(spec, "grid")
    if not 0.0 <= start < stop <= 1.0:
        raise UsageError(f"grid {spec!r} must satisfy 0 <= start < stop <= 1")
    if count < 2:
        raise UsageError(f"grid count {count} must be at least 2")
    return np.linspace(start * PI, stop * PI, count)


def _config_argv(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """The --config file's keys as flags of the subcommand parser
    ``sub``: ``--flag=value`` for each key, a bare ``--flag`` for true,
    nothing for null and false.  Parsed before the command line's own
    flags, so each value goes through its flag's parsing and the flags
    win."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    flags = {a.dest: a.option_strings[-1] for a in sub._actions if a.option_strings}
    argv = []
    for key, value in config.items():
        if key in ("help", "config") or key not in flags:
            raise UsageError(f"config {path!r} has the unknown key {key!r}")
        if value is True:
            argv.append(flags[key])
        elif value is not None and value is not False:
            argv.append(f"{flags[key]}={value}")
    return argv


def _resolve_colouring(label: str):
    if not (label.startswith("@") or label.endswith(".json")):
        return make_catalogue(label)
    path = label.removeprefix("@")
    try:
        return load_colouring(path)
    except OSError as exc:
        raise UsageError(f"cannot read colouring {path!r}: {exc}") from None
    except KeyError as exc:
        raise UsageError(f"colouring {path!r} lacks the field {exc}") from None
    except TypeError as exc:
        raise UsageError(f"colouring {path!r} is malformed: {exc}") from None


def _out_path(args: argparse.Namespace) -> str | None:
    """The --out path, None for stdout (absent or "-").  Its directory
    is checked here, before any work, so that a bad path fails at once."""
    path = args.out
    if path in (None, "-"):
        return None
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write {path!r}: no directory {folder!r}")
    return path


def _mc_plan(args: argparse.Namespace) -> SamplingPlan:
    """The sampling plan of a Monte Carlo estimate from --seed and --n;
    --n must be at least 2, since one sample has no standard error."""
    if args.n < 2:
        raise UsageError(
            f"--n must be at least 2 for Monte Carlo, not {args.n}: "
            "one sample has no standard error"
        )
    return SamplingPlan(args.seed, args.n)


def _sampled_colouring(args: argparse.Namespace):
    """--grid, --colouring and (for --method mc) the plan, in that order."""
    grid = parse_grid(args.grid)
    colouring = _resolve_colouring(args.colouring)
    plan = _mc_plan(args) if args.method == "mc" else None
    return grid, colouring, plan


def _theorem1_upper(thetas: np.ndarray) -> np.ndarray:
    """Theorem 1's upper bound at each theta folded into [0, pi/2], and
    1 at 0 and pi."""
    folded = np.minimum(thetas, PI - thetas)
    inside = folded > bounds_mod.SNAP
    upper = np.ones(folded.shape)
    upper[inside] = bounds_mod.chain_bounds(folded[inside])[1]
    return upper


REFERENCE_COLUMNS = {
    "c1": search_mod.REFERENCES["c1"][0],
    "neg_c1": search_mod.REFERENCES["c1"][1],
    "q_singlet": search_mod.REFERENCES["singlet"][0],
    # 0.0 - upper keeps +0.0 at pi/2, where -upper would print -0
    "theorem1_lower": lambda ts: 0.0 - _theorem1_upper(ts),
    "theorem1_upper": _theorem1_upper,
}


def run_curve(args: argparse.Namespace) -> tuple[int, str]:
    if args.colouring is None:
        raise UsageError("curve requires --colouring")
    grid, colouring, plan = _sampled_colouring(args)
    curve = curve_for(colouring, grid, args.method, plan=plan, tol=args.tol)
    text = io.StringIO()
    write_curve_csv(curve, text, references=REFERENCE_COLUMNS)
    return 0, text.getvalue()


def run_verify(args: argparse.Namespace) -> tuple[int, str]:
    curve_file = args.curve_file
    if curve_file:
        # pre-computed curve: check it as given, no recomputation
        try:
            with open(curve_file, newline="") as fh:
                curve = read_curve_csv(fh)
        except OSError as exc:
            raise UsageError(f"cannot read curve {curve_file!r}: {exc}") from None
        reports = bounds_mod.verify_curve(curve)
        label, method = curve.colouring_label, curve.method
    else:
        if args.colouring is None:
            raise UsageError("verify requires --colouring or --curve-file")
        method = args.method
        grid, colouring, plan = _sampled_colouring(args)
        reports = bounds_mod.verify_colouring(
            colouring, grid, method, plan=plan, tol=args.tol
        )
        label = colouring.label
    text = bounds_mod.report_to_json(label, method, reports) + "\n"
    return (0 if all(r.satisfied for r in reports) else 1), text


def _parse_delta_grid(spec: str) -> np.ndarray:
    """Parse "start:stop:count" (units of pi) into a radian grid."""
    start, stop, count = _split_grid(spec, "delta grid")
    if count < 1:
        raise UsageError("delta grid count must be at least 1")
    return np.linspace(start * PI, stop * PI, count)


def run_sweep(args: argparse.Namespace) -> tuple[int, str]:
    family, reference, tol = args.family, args.reference, args.tol
    delta, delta_grid, theta_grid = args.delta, args.delta_grid, args.grid
    if delta is not None and family != "3_delta":
        raise UsageError(f"--delta deforms 3_delta only, not {family}")
    if delta is not None and delta_grid is not None:
        raise UsageError("--delta and --delta-grid exclude each other")
    if theta_grid is not None and delta is None:
        raise UsageError("--grid sets the theta grid of a single --delta table only")
    if delta is not None:
        # single-deformation mode: curve table plus crossing summary
        d = delta * PI
        grid = parse_grid(theta_grid or "0.34:0.5:81")
        columns = (
            grid / PI,
            closed_form("3_delta", grid, delta=d),
            closed_form("3", grid),
            closed_form("1", grid),
            singlet_correlation(grid),
        )
        hit = search_mod.find_crossing(
            make_catalogue("3_delta", delta=d),
            search_mod.reference_curve(reference),
            search_mod.CROSSING_BRACKET,
            tol,
        )
        summary = (
            f"crossing vs {reference}: theta/pi = {hit.theta_star / PI:.6f} "
            f"(bracket width {hit.bracket_width / PI:.2e} pi)"
        )
        rows = [",".join(map(format_sig, row)) + "\n" for row in zip(*columns)]
        text = "theta_over_pi,c_3_delta,c_3,c_1,q_singlet\n" + "".join(rows)
    else:
        grid = None if delta_grid is None else _parse_delta_grid(delta_grid)
        result = search_mod.sweep(family, grid, reference, tol)
        found = "crossing" if family == "3_delta" else "exit"
        summary = (
            f"best {result.parameter}/pi = {result.best_delta / PI:.6f} with "
            f"{found} theta/pi = {result.best_theta / PI:.6f}"
        )
        buffer = io.StringIO()
        search_mod.sweep_to_csv(result, buffer)
        text = buffer.getvalue()
    print(summary, file=sys.stderr)
    return 0, text


def run_search(args: argparse.Namespace) -> tuple[int, str]:
    if args.theta is None:
        raise UsageError("search requires --theta (units of pi)")
    if not 0.0 < args.theta < 0.5:
        raise UsageError(f"--theta {args.theta!r} outside (0, 0.5) (units of pi)")
    outcome = search_mod.harmonic_search(
        args.theta * PI,
        args.lmax,
        restarts=args.restarts,
        plan=_mc_plan(args),
        azimuthal_only=args.azimuthal_only,
        max_iter=args.max_iter,
    )
    return 0, search_mod.search_report_json(outcome) + "\n"


def _resolve_state(args: argparse.Namespace) -> TwoQubitState:
    state_file = args.state_file
    if state_file:
        try:
            with open(state_file) as fh:
                return parse_state_text(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read state file {state_file!r}: {exc}") from None
    return TwoQubitState.named(args.state)


def run_quantum(args: argparse.Namespace) -> tuple[int, str]:
    state = _resolve_state(args)
    grid = parse_grid(args.grid)
    w = twirl(state)
    if args.mc:
        plan = _mc_plan(args)
        rows = [
            (value, format_sig(stderr), "mc")
            for value, stderr in mc_quantum_curve(state, grid, plan)
        ]
    else:
        rows = [(value, "", "werner") for value in werner_correlation(w, grid).tolist()]
    lines = ["theta_over_pi,value,stderr,method,state_r\n"]
    for t, (value, stderr, method) in zip(grid, rows):
        row = (format_sig(t / PI), format_sig(value), stderr, method, format_sig(w.r))
        lines.append(",".join(row) + "\n")
    return 0, "".join(lines)


def run_slope(args: argparse.Namespace) -> tuple[int, str]:
    label = args.colouring
    estimate = search_mod.slope_at_half_pi(_resolve_colouring(label), h=args.h)
    payload = {
        "colouring": label,
        "slope": estimate.slope,
        "abs_slope": abs(estimate.slope),
        "step": estimate.step,
        "c_at_half_pi": estimate.c_at_half_pi,
        "reference_abs_slope": estimate.reference,
    }
    return 0, json.dumps(payload, indent=2) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="spherebell",
        description="Correlations of antipodal sphere colourings and their "
        "Bell-type bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = lambda s: int(s, 0)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(parser=p)

    def sampling(p: argparse.ArgumentParser, n: int, n_help: str) -> None:
        p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
        p.add_argument("--n", type=int, default=n, help=n_help)

    def sampled_curve(p: argparse.ArgumentParser, grid: str) -> None:
        p.add_argument("--colouring", help="catalogue label, label:param, or @file.json")
        p.add_argument("--method", choices=METHODS, default="closed_form")
        p.add_argument("--grid", default=grid, help="start:stop:count in units of pi")
        sampling(p, DEFAULT_N, "Monte Carlo samples")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help=TOL_HELP)

    p_curve = sub.add_parser("curve", help="correlation curve as CSV")
    common(p_curve)
    sampled_curve(p_curve, "0:0.5:101")
    p_curve.set_defaults(func=run_curve)

    p_verify = sub.add_parser("verify", help="bound verification as JSON")
    common(p_verify)
    sampled_curve(p_verify, "0.005:0.5:100")
    p_verify.add_argument(
        "--curve-file",
        dest="curve_file",
        help="verify a curve CSV as-is instead of computing one",
    )
    p_verify.set_defaults(func=run_verify)

    p_sweep = sub.add_parser("sweep", help="deformation sweeps and crossing tables")
    common(p_sweep)
    p_sweep.add_argument("--family", choices=("3_delta", "2_Delta"), default="3_delta")
    p_sweep.add_argument("--delta", type=float, help="single deformation, units of pi")
    p_sweep.add_argument(
        "--delta-grid", dest="delta_grid", help="start:stop:count, units of pi"
    )
    p_sweep.add_argument("--reference", choices=("c1", "singlet"), default="c1")
    p_sweep.add_argument("--grid", help="theta grid for single-delta tables")
    p_sweep.add_argument(
        "--tol", type=float, default=1e-4, help="crossing bisection tolerance"
    )
    p_sweep.set_defaults(func=run_sweep)

    p_search = sub.add_parser("search", help="harmonic colouring search")
    common(p_search)
    p_search.add_argument("--theta", type=float, help="angle in units of pi")
    p_search.add_argument("--lmax", type=int, default=3)
    p_search.add_argument("--restarts", type=int, default=16)
    sampling(p_search, 20_000, "Monte Carlo samples per evaluation")
    p_search.add_argument("--max-iter", dest="max_iter", type=int, default=400)
    p_search.add_argument(
        "--azimuthal-only",
        dest="azimuthal_only",
        action="store_true",
        help="restrict the ansatz to m = 0",
    )
    p_search.set_defaults(func=run_search)

    p_quantum = sub.add_parser("quantum", help="quantum reference curves")
    common(p_quantum)
    p_quantum.add_argument(
        "--state", default="singlet", help="singlet|phi+|phi-|psi+|mixed (default singlet)"
    )
    p_quantum.add_argument(
        "--state-file", dest="state_file", help="plain-text 4x4 density matrix"
    )
    p_quantum.add_argument("--grid", default="0:0.5:51")
    p_quantum.add_argument(
        "--mc", action="store_true", help="Monte Carlo instead of analytic"
    )
    sampling(p_quantum, 100_000, "Monte Carlo samples, read by --mc only")
    p_quantum.set_defaults(func=run_quantum)

    p_slope = sub.add_parser("slope", help="slope of C at pi/2")
    common(p_slope)
    p_slope.add_argument("--colouring", default="3")
    p_slope.add_argument(
        "--h", type=float, default=1e-3, help="finite-difference step (radians)"
    )
    p_slope.set_defaults(func=run_slope)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; return its exit code.

    The first call sets the heap policy and builds the parser; later
    calls in the process reuse that parser, which keeps no state between
    parses.  Building it takes about 1.3 ms, parsing a command line
    about 0.03 ms (2-core Xeon, Python 3.11).
    """
    _keep_freed_heap()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argv[0] is the command: the top-level parser has no options
            tokens = _config_argv(args.config, args.parser)
            args = parser.parse_args([argv[0], *tokens, *argv[1:]])
        out = _out_path(args)
        code, text = args.func(args)
        try:
            fh = nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from None
        with fh as stream:
            stream.write(text)
        return code
    except NumericalError as exc:  # a ValueError, but not the input's fault
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError, ClosedFormDomainError, bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # QuadratureError, NoCrossingError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
