"""Spans around the public functions of spherebell's layers.

``patched(tracer)`` wraps each function in ``TARGETS`` by rebinding its
name in every spherebell module that holds it (``search.closed_form``
as well as ``correlation.closed_form``; methods on their class), and
restores the originals on exit.  A span records its name, start, end,
parent span and job index; spans stay in memory until the run ends and
are then reduced to per-layer metrics by ``layer_metrics``.

Self time is a span's duration minus the durations of its child spans.
Children never overlap because the benchmark runs every job at
``--jobs 1``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of every wrapped function
TARGETS = (
    ("cli", "main"),
    ("correlation", "chi"),
    ("correlation", "quad"),  # scipy's quad, as correlation.py imports it
    ("correlation", "closed_form"),
    ("correlation", "correlation_quadrature"),
    ("correlation", "correlation_mc"),
    ("correlation", "SamplingPlan.chunk_rng"),
    ("search", "all_crossings"),
    ("search", "harmonic_search"),
    ("colourings", "HarmonicColouring.evaluate_many"),
    ("colourings", "BandColouring.evaluate_many"),
    ("colourings", "real_spherical_harmonic"),
    ("geometry", "partner_many"),
    ("geometry", "partner_polar_many"),
    ("quantum", "mc_quantum_correlation"),
    ("quantum", "haar_unitaries"),
    ("bounds", "verify_curve"),
)


def _plan_samples(args, kwargs, result):
    plan = kwargs["plan"] if "plan" in kwargs else args[2]
    return plan.n_samples


# the one number a span records besides its times
QUANTITY = {
    "cli.main": lambda args, kwargs, result: result,  # exit code
    "correlation.quad": lambda args, kwargs, result: (
        result[2]["neval"] if kwargs.get("full_output") else 0
    ),
    "correlation.correlation_mc": _plan_samples,
    "quantum.mc_quantum_correlation": _plan_samples,
    "colourings.HarmonicColouring.evaluate_many": lambda a, k, result: result.size,
    "colourings.BandColouring.evaluate_many": lambda a, k, result: result.size,
    "geometry.partner_many": lambda a, k, result: result[0].size,
    "geometry.partner_polar_many": lambda a, k, result: result.size,
    "search.all_crossings": lambda a, k, result: len(result),
    "search.harmonic_search": lambda a, k, result: result.evaluations,
}

# span fields
_ID, _NAME, _JOB, _PARENT, _START, _END, _QTY = range(7)


class Tracer:
    """In-memory span store.  Set ``job`` before each job runs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.raised: dict[str, int] = defaultdict(int)
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        quantity = QUANTITY.get(name)
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [next(ids), name, self.job, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[_ID])
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception where it first leaves a span, not
                # again in every enclosing one
                if local.__dict__.get("propagating") is not exc:
                    self.raised[type(exc).__name__] += 1
                    local.propagating = exc
                raise
            finally:
                span[_END] = perf_counter()
                stack.pop()
            if quantity is not None:
                span[_QTY] = quantity(args, kwargs, result)
            return result

        return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every call to a ``TARGETS`` function through ``tracer``."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spherebell"]
    undo = []
    try:
        for module_name, qualname in TARGETS:
            module = sys.modules[f"spherebell.{module_name}"]
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(name, original))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

# the jobs whose spans reproduce the baseline numbers quoted in ROADMAP.md
BASELINE_JOBS = {
    "closed_form_c4": "curve_4_closed_form",
    "quadrature_c4": "curve_4_quadrature",
    "quadrature_2Delta": "sweep_2Delta_cap0",
    "harmonic_35modes": "verify_harmonic_full",
    "find_crossing_tol1e-6": "table_3delta_0_c1_tol1e-6",
}

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("cli.main.self_s", "s"),
    ("cli.main.exit2", "count"),
    ("cli.main.exit3", "count"),
    ("correlation.chi.calls", "count"),
    ("correlation.chi.self_s", "s"),
    ("correlation.chi.us_per_call", "us"),
    ("correlation.quad.calls", "count"),
    ("correlation.quad.neval", "count"),
    ("correlation.closed_form.calls", "count"),
    ("correlation.closed_form.self_s", "s"),
    ("correlation.closed_form.ms_per_point", "ms"),
    ("correlation.correlation_quadrature.calls", "count"),
    ("correlation.correlation_quadrature.self_s", "s"),
    ("correlation.correlation_quadrature.ms_per_point", "ms"),
    ("correlation.QuadratureError.count", "count"),
    ("search.all_crossings.calls", "count"),
    ("search.all_crossings.crossings", "count"),
    ("search.all_crossings.evals", "count"),
    ("search.all_crossings.evals_per_crossing", "count"),
    ("search.all_crossings.self_s", "s"),
    ("search.harmonic_search.objective_evals", "count"),
    ("search.harmonic_search.self_s", "s"),
    ("correlation.correlation_mc.calls", "count"),
    ("correlation.correlation_mc.samples", "count"),
    ("correlation.correlation_mc.self_s", "s"),
    ("correlation.correlation_mc.samples_per_s", "1/s"),
    ("correlation.correlation_mc.wall_share", "ratio"),
    ("correlation.SamplingPlan.chunk_rng.calls", "count"),
    ("colourings.HarmonicColouring.evaluate_many.calls", "count"),
    ("colourings.HarmonicColouring.evaluate_many.points", "count"),
    ("colourings.HarmonicColouring.evaluate_many.self_s", "s"),
    ("colourings.real_spherical_harmonic.calls", "count"),
    ("colourings.BandColouring.evaluate_many.points", "count"),
    ("colourings.BandColouring.evaluate_many.self_s", "s"),
    ("geometry.partner_many.points", "count"),
    ("geometry.partner_many.self_s", "s"),
    ("geometry.partner_polar_many.points", "count"),
    ("geometry.partner_polar_many.self_s", "s"),
    ("quantum.mc_quantum_correlation.samples", "count"),
    ("quantum.mc_quantum_correlation.self_s", "s"),
    ("quantum.mc_quantum_correlation.wall_share", "ratio"),
    ("quantum.haar_unitaries.self_s", "s"),
    ("bounds.verify_curve.calls", "count"),
    ("bounds.verify_curve.self_s", "s"),
    ("baseline.closed_form_c4.ms_per_point", "ms"),
    ("baseline.quadrature_c4.ms_per_point", "ms"),
    ("baseline.quadrature_2Delta.ms_per_point", "ms"),
    ("baseline.harmonic_35modes.evaluate_many_ms", "ms"),
    ("baseline.find_crossing_tol1e-6.chi_calls", "count"),
    ("trace.overhead_frac", "ratio"),
    ("workload.fail_frac", "ratio"),
    ("workload.mc_samples", "count"),
    ("workload.mc_samples_per_s", "1/s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[list], fold: frozenset = frozenset()) -> dict[str, float]:
    """Total self time per span name.  The self time of a span named in
    ``fold`` counts toward its parent instead: scipy's ``quad`` spends
    its time in the caller's integrand."""
    by_id = {s[_ID]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[_PARENT] >= 0:
            child[s[_PARENT]] += s[_END] - s[_START]
    out = defaultdict(float)
    for s in spans:
        name = s[_NAME]
        if name in fold and s[_PARENT] >= 0:
            name = by_id[s[_PARENT]][_NAME]
        out[name] += s[_END] - s[_START] - child[s[_ID]]
    return dict(out)


def layer_metrics(tracer: Tracer, job_names: list[str], rounds: int, wall_s: float) -> dict:
    """Per-layer metrics of ``rounds`` traced passes over the job list,
    per pass; ``wall_s`` is the median traced pass time."""
    spans = tracer.spans
    by_id = {s[_ID]: s for s in spans}
    job_of = {name: k for k, name in enumerate(job_names)}
    calls = defaultdict(int)
    total = defaultdict(float)
    qty = defaultdict(float)
    for s in spans:
        calls[s[_NAME]] += 1
        total[s[_NAME]] += s[_END] - s[_START]
        if s[_QTY] is not None:
            qty[s[_NAME]] += s[_QTY]
    self_s = self_times(spans)

    def name_of(span_id):
        return by_id[span_id][_NAME] if span_id >= 0 else None

    def crossing_scan(span):
        """The all_crossings span enclosing ``span``, or None."""
        parent = span[_PARENT]
        while parent >= 0:
            if by_id[parent][_NAME] == "search.all_crossings":
                return parent
            parent = by_id[parent][_PARENT]
        return None

    # closed-form points that needed chi quadrature (the linear law of
    # colouring 1 needs none and is left out of the per-point time)
    with_chi = {
        s[_PARENT] for s in spans
        if s[_NAME] == "correlation.chi" and name_of(s[_PARENT]) == "correlation.closed_form"
    }
    scan_evals = 0
    baseline = defaultdict(list)
    for s in spans:
        name = s[_NAME]
        if name in ("correlation.closed_form", "correlation.correlation_quadrature"):
            if crossing_scan(s) is not None:
                scan_evals += 1
        duration = s[_END] - s[_START]
        job = s[_JOB]
        if name == "correlation.closed_form" and s[_ID] in with_chi:
            baseline["cf_points", job].append(duration)
        elif name == "correlation.correlation_quadrature":
            baseline["quad_points", job].append(duration)
        elif name == "colourings.HarmonicColouring.evaluate_many":
            baseline["harmonic", job].append(duration)
        elif name == "correlation.chi" and job == job_of.get(BASELINE_JOBS["find_crossing_tol1e-6"]):
            if crossing_scan(s) is not None:
                baseline["scan_chi", job].append(duration)
        elif name == "search.all_crossings":
            baseline["scans", job].append(duration)

    def mean_ms(kind: str, key: str) -> float:
        values = baseline.get((kind, job_of.get(BASELINE_JOBS[key])), [])
        return 1e3 * sum(values) / len(values) if values else 0.0

    cf_points = [d for (kind, _), ds in baseline.items() if kind == "cf_points" for d in ds]
    crossing_job = job_of.get(BASELINE_JOBS["find_crossing_tol1e-6"])
    per = 1.0 / rounds
    m = {
        "cli.main.self_s": self_s.get("cli.main", 0.0) * per,
        "cli.main.exit2": sum(1 for s in spans if s[_NAME] == "cli.main" and s[_QTY] == 2) * per,
        "cli.main.exit3": sum(1 for s in spans if s[_NAME] == "cli.main" and s[_QTY] == 3) * per,
        "correlation.QuadratureError.count": tracer.raised.get("QuadratureError", 0) * per,
        "correlation.chi.us_per_call": 1e6 * _ratio(total["correlation.chi"], calls["correlation.chi"]),
        "correlation.quad.neval": qty["correlation.quad"] * per,
        "correlation.closed_form.ms_per_point": 1e3 * _ratio(sum(cf_points), len(cf_points)),
        "correlation.correlation_quadrature.ms_per_point": 1e3 * _ratio(
            total["correlation.correlation_quadrature"], calls["correlation.correlation_quadrature"]
        ),
        "search.all_crossings.crossings": qty["search.all_crossings"] * per,
        "search.all_crossings.evals": scan_evals * per,
        "search.all_crossings.evals_per_crossing": _ratio(scan_evals, qty["search.all_crossings"]),
        "search.harmonic_search.objective_evals": qty["search.harmonic_search"] * per,
        "correlation.correlation_mc.samples": qty["correlation.correlation_mc"] * per,
        "correlation.correlation_mc.samples_per_s": _ratio(
            qty["correlation.correlation_mc"], total["correlation.correlation_mc"]
        ),
        "correlation.correlation_mc.wall_share": _ratio(
            total["correlation.correlation_mc"] * per, wall_s
        ),
        "quantum.mc_quantum_correlation.samples": qty["quantum.mc_quantum_correlation"] * per,
        "quantum.mc_quantum_correlation.wall_share": _ratio(
            total["quantum.mc_quantum_correlation"] * per, wall_s
        ),
        "baseline.closed_form_c4.ms_per_point": mean_ms("cf_points", "closed_form_c4"),
        "baseline.quadrature_c4.ms_per_point": mean_ms("quad_points", "quadrature_c4"),
        "baseline.quadrature_2Delta.ms_per_point": mean_ms("quad_points", "quadrature_2Delta"),
        "baseline.harmonic_35modes.evaluate_many_ms": mean_ms("harmonic", "harmonic_35modes"),
        "baseline.find_crossing_tol1e-6.chi_calls": _ratio(
            len(baseline.get(("scan_chi", crossing_job), [])),
            len(baseline.get(("scans", crossing_job), [])),
        ),
    }
    points = {
        "colourings.HarmonicColouring.evaluate_many",
        "colourings.BandColouring.evaluate_many",
        "geometry.partner_many",
        "geometry.partner_polar_many",
    }
    for name, unit in LAYER_METRICS:
        if name in m:
            continue
        layer, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = calls[layer] * per
        elif field == "self_s":
            m[name] = self_s.get(layer, 0.0) * per
        elif field == "points" and layer in points:
            m[name] = qty[layer] * per
    return m
