"""Self-tests of the benchmark: deterministic inputs, checks that catch
wrong values, transparent tracing wrappers, and smoke-sized runs.

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
import spans
import workloads
import spherebell.cli
import spherebell.correlation as correlation
from spherebell.correlation import QuadratureError

from conftest import BENCH


def _modules():
    return [m for n, m in sys.modules.items() if n.split(".")[0] == "spherebell"]


def _bindings():
    """Identity of every global and class attribute of spherebell."""
    out = {}
    for module in _modules():
        for key, value in vars(module).items():
            out[module.__name__, key] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[module.__name__, key, attr] = id(member)
    return out


def _measure(tmp_path, monkeypatch, name, trace=False):
    workload = workloads.build(name, 11, smoke=True)
    for path, text in workload.files.items():
        (tmp_path / path).write_text(text)
    monkeypatch.chdir(tmp_path)
    return run.measure(workload, 0.0, trace)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_job_list_is_a_function_of_the_seed(name):
    a, b, other = (workloads.build(name, s) for s in (5, 5, 6))
    assert a == b
    assert [j.argv for j in a.jobs] != [j.argv for j in other.jobs]


def test_readme_defects_are_marked():
    defects = {
        j.argv: j.known_defect
        for name in workloads.WORKLOADS
        for j in workloads.build(name, 1).jobs
        if j.known_defect
    }
    assert set(defects) == {
        ("sweep", "--family", "3_delta", "--reference", "c1"),
        ("verify", "--curve-file", "c2.csv"),
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_runs_in_seconds(tmp_path, monkeypatch, name):
    start = time.perf_counter()
    result, info = _measure(tmp_path, monkeypatch, name)
    assert time.perf_counter() - start < 30
    assert result["correct"], info["problems"]
    assert result["failed"] == 0
    jobs = info["jobs_per_round"]
    defects = len(info["known_defects"])
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - defects / jobs)
    assert defects == (0 if name == "mc_harmonic" else 1)


def test_traced_round_reports_every_layer_metric(tmp_path, monkeypatch):
    before = _bindings()
    result, info = _measure(tmp_path, monkeypatch, "mc_band_quantum", trace=True)
    assert result["correct"], info["problems"]
    assert list(result["metrics"]) == [name for name, _ in spans.LAYER_METRICS]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.exit2"] == 1  # the README verify defect
    assert metrics["quantum.mc_quantum_correlation.samples"] > 0
    assert metrics["colourings.BandColouring.evaluate_many.points"] > 0
    assert _bindings() == before


def test_planted_wrong_value_is_a_failure(tmp_path, monkeypatch):
    exact = spherebell.cli.werner_correlation
    monkeypatch.setattr(
        spherebell.cli, "werner_correlation", lambda w, t: exact(w, t) + 1e-6
    )
    result, info = _measure(tmp_path, monkeypatch, "mc_band_quantum")
    assert not result["correct"]
    assert result["failed"] == 1
    assert list(info["problems"]) == ["readme_quantum_singlet"]


def test_check_rejects_an_edited_output(tmp_path, monkeypatch):
    workload = workloads.build("thresholds", 2, smoke=True)
    job = next(j for j in workload.jobs if j.name == "readme_slope_3")
    monkeypatch.chdir(tmp_path)
    _, (outcome,) = run.run_round(spherebell.cli, [job])
    assert checks.check_job(job, outcome, {}) == []
    outcome.stdout = outcome.stdout.replace('"abs_slope": 1.', '"abs_slope": 1.01', 1)
    assert checks.check_job(job, outcome, {})


def test_wrappers_are_transparent_and_restored(tmp_path):
    slope = ["slope", "--colouring", "3", "--out", str(tmp_path / "slope.json")]
    before = _bindings()
    original_chi = correlation.chi
    plain_value = correlation.closed_form("4", 1.1)
    plain_code = spherebell.cli.main(slope)
    with pytest.raises(ValueError) as plain_error:
        correlation.chi(0.0, 0.1, 0.2, 0.3)

    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert correlation.chi is not original_chi
        assert correlation.closed_form("4", 1.1) == plain_value
        assert spherebell.cli.main(slope) == plain_code
        with pytest.raises(ValueError) as traced_error:
            correlation.chi(0.0, 0.1, 0.2, 0.3)
    assert str(traced_error.value) == str(plain_error.value)
    assert _bindings() == before
    assert tracer.raised == {"ValueError": 1}
    names = {s[1] for s in tracer.spans}
    assert {"cli.main", "correlation.closed_form", "correlation.chi", "correlation.quad"} <= names


def test_exception_counted_once_where_it_starts():
    tracer = spans.Tracer()

    def inner():
        raise QuadratureError("planted", best_estimate=0.0)

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: traced_inner())
    with pytest.raises(QuadratureError):
        outer()
    assert tracer.raised == {"QuadratureError": 1}
    outer_span, inner_span = tracer.spans
    assert (outer_span[1], inner_span[1]) == ("outer", "inner")
    assert inner_span[3] == outer_span[0]  # parent
    assert outer_span[4] <= inner_span[4] <= inner_span[5] <= outer_span[5]


def test_no_sources_means_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thresholds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
