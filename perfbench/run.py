"""The spherebell benchmark.

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets the workload up several times in fresh processes
(import spherebell, numpy and scipy, write the generated inputs) and
reports the median as ``setup_s``.  It then runs the workload's job
list back to back in this process, one client at ``--jobs 1``, for as
many whole rounds as fit in ``--seconds`` (at least one), and checks
every output after the timed rounds.  Job latencies are scaled to a
reference machine speed measured while they run (``speed.py``); the raw
times are kept in the provenance line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced round,
and ``trace.overhead_frac`` compares it with an untraced round run in
the same process.  The line before it records provenance: machine,
versions, job counts, Monte Carlo sample totals and per-job latencies.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # jobs beyond the reported tail percentile
WORK_ROOT = ".perfbench_work"
QUAD = frozenset({"correlation.quad"})

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh-process set-up step, timed by the parent
    p.add_argument("--setup-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _use_source(root: Path) -> None:
    """Import spherebell from the checkout's src/, never an installed copy."""
    src = root / "src"
    if not (src / "spherebell" / "__init__.py").is_file():
        raise SystemExit(f"error: no spherebell sources under {src}")
    sys.path.insert(0, str(src))


def setup_only(args) -> None:
    """Import the stack and write the workload's inputs into a directory."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import spherebell.cli  # noqa: F401

    workload = workloads.build(args.workload, args.seed)
    target = Path(args.setup_dir)
    target.mkdir(parents=True)
    for name, text in workload.files.items():
        (target / name).write_text(text)


def time_setups(args, root: Path, work: Path) -> tuple[list[float], Path]:
    """Set-up times, and the input directory of the last set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        target = work / f"setup{k}"
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-dir", str(target),
        ]
        start = perf_counter()
        subprocess.run(cmd, cwd=root, check=True, timeout=120)
        times.append(perf_counter() - start)
    return times, target


def run_round(cli, jobs, tracer=None):
    """One pass over the job list: ((start, end) of each job, outcomes)."""
    from checks import Outcome

    for job in jobs:
        if job.out and os.path.exists(job.out):
            os.remove(job.out)
    times, outcomes = [], []
    gc.collect()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a job that raises is a failed job
                error = "".join(traceback.format_exception_only(exc)).strip()
            times.append((t0, perf_counter()))
        outcomes.append(Outcome(code, out.getvalue(), err.getvalue(), None, error))
    for job, outcome in zip(jobs, outcomes):
        if job.out and os.path.exists(job.out):
            outcome.out_text = Path(job.out).read_text()
    return times, outcomes


def _raw_wall(round_) -> float:
    times = round_[0]
    return times[-1][1] - times[0][0]


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args, root: Path) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_lines": _src_lines(root),
    }


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based
    return ordered[rank - 1], 100.0 * rank / n


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    _use_source(root)
    if args.setup_dir:
        setup_only(args)
        return 0

    workload = workloads.build(args.workload, args.seed)
    work = root / WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, inputs = time_setups(args, root, work)
        same_inputs = all(
            (inputs / name).read_text() == text for name, text in workload.files.items()
        )
        os.chdir(inputs)
        result, info = measure(workload, args.seconds, bool(args.trace))
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_ROOT).rmdir()
        except OSError:
            pass
    if not same_inputs:
        result["correct"] = False
        info["problems"]["setup"] = ["generated inputs differ between processes"]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    provenance = _provenance(args, root)
    provenance.update(info, setup_s=setup_times)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def measure(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run and check ``workload`` in the current directory, which holds
    its input files.  Returns the result line (without ``setup_s``) and
    the provenance fields of the run."""
    import checks
    import spans
    import speed
    import spherebell.cli as cli

    jobs = workload.jobs
    plain, traced = [], []
    tracer = spans.Tracer() if trace else None
    with speed.Speedometer() as meter:
        start = perf_counter()
        while True:
            plain.append(run_round(cli, jobs))
            if tracer is not None:
                with spans.patched(tracer):
                    traced.append(run_round(cli, jobs, tracer))
            per_pass = statistics.median(_raw_wall(r) for r in plain + traced)
            if perf_counter() - start + per_pass * (2 if tracer else 1) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the first round is checked against references; every later round,
    # traced or not, must reproduce it byte for byte
    first = plain[0][1]
    produced = {job.out: o.out_text for job, o in zip(jobs, first) if job.out}
    problems: dict[str, list[str]] = {}
    for index, (job, outcome) in enumerate(zip(jobs, first)):
        found = checks.check_job(job, outcome, produced)
        if any(r[1][index].key() != outcome.key() for r in plain[1:] + traced):
            found.append("output differs between rounds")
        if found:
            problems[job.name] = found
    rounds = len(plain) + len(traced)
    attempted = rounds * len(jobs)
    failed = rounds * len(problems)
    defects = [job for job, o in zip(jobs, first) if job.known_defect and o.code == 2]
    not_ok = failed + rounds * len(defects)

    # job latencies at the reference machine speed (see speed.py)
    normalized = [[(b - a) * meter.factor(a, b) for a, b in r[0]] for r in plain]
    wall_s = statistics.median(sum(r) for r in normalized)
    per_job = [statistics.median(r[k] for r in normalized) for k in range(len(jobs))]
    raw_per_job = [
        statistics.median(r[0][k][1] - r[0][k][0] for r in plain) for k in range(len(jobs))
    ]
    tail_s, tail_pct = _tail(per_job)

    samples = {"classical": 0, "quantum": 0}
    for job, outcome in zip(jobs, first):
        drawn = checks.mc_samples(job, outcome)
        if drawn:
            samples[drawn[0]] += drawn[1]
    mc_total = samples["classical"] + samples["quantum"]
    info = {
        "jobs_per_round": len(jobs),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "mc_samples_per_round": dict(samples, total=mc_total),
        "job_tail": {"percentile": tail_pct, "jobs": len(jobs), "beyond": TAIL_BEYOND},
        "known_defects": {job.name: job.known_defect for job in defects},
        "raw_wall_s": statistics.median(_raw_wall(r) for r in plain),
        "raw_job_latency_s": {job.name: t for job, t in zip(jobs, raw_per_job)},
        "job_latency_s": {job.name: t for job, t in zip(jobs, per_job)},
        "problems": problems,
    }

    if tracer is None:
        metrics = {
            "wall_s": wall_s,
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail_s,
            "ok_frac": 1.0 - not_ok / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        traced_wall = statistics.median(
            sum((b - a) * meter.factor(a, b) for a, b in r[0]) for r in traced
        )
        metrics = spans.layer_metrics(
            tracer,
            [job.name for job in jobs],
            len(traced),
            statistics.median(_raw_wall(r) for r in traced),
        )
        metrics["trace.overhead_frac"] = (traced_wall - wall_s) / wall_s
        metrics["workload.fail_frac"] = not_ok / attempted
        metrics["workload.mc_samples"] = mc_total
        metrics["workload.mc_samples_per_s"] = mc_total / wall_s
        units = dict(spans.LAYER_METRICS)
        info["trace_overhead_frac"] = metrics["trace.overhead_frac"]
        for key, fold in (("top_self_s", frozenset()), ("top_self_s_quad_in_caller", QUAD)):
            self_s = spans.self_times(tracer.spans, fold)
            info[key] = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
        missing = sorted(set(units) - set(metrics))
        if missing:
            problems["trace"] = [f"no value for {missing}"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    return result, info


if __name__ == "__main__":
    sys.exit(main())
