import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spherebell import cli, correlation
from spherebell.cli import main, parse_grid
from spherebell.correlation import read_curve_csv

PI = math.pi

CURVE_HEADER = [
    "theta_over_pi",
    "value",
    "stderr",
    "method",
    "colouring_label",
    "c1",
    "neg_c1",
    "q_singlet",
    "theorem1_lower",
    "theorem1_upper",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def avx512_loops():
    """Whether numpy dispatches its AVX-512 loops, which round np.cos,
    np.sin and np.arccos differently in the last bit; CI runs the pinned
    tests again with them switched off (NPY_DISABLE_CPU_FEATURES)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX", False))


class TestParseGrid:
    def test_units_of_pi(self):
        grid = parse_grid("0:0.5:3")
        assert list(grid) == pytest.approx([0.0, PI / 4, PI / 2], abs=1e-15)

    @pytest.mark.parametrize("bad", ["1:2", "0.5:0.2:10", "0:1.5:10", "0:0.5:1", "a:b:c"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)


class TestCurveCommand:
    def test_three_band_table(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--colouring", "3", "--method", "closed_form",
            "--grid", "0:0.5:101",
        )
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == CURVE_HEADER
        assert len(rows) == 102
        by_theta = {row[0]: row for row in rows[1:]}
        near = by_theta["0.45"]
        # past the linear law but not yet past the quantum curve
        assert float(near[1]) < float(near[5])
        assert float(near[1]) > float(near[7])
        far = by_theta["0.48"]
        assert float(far[1]) < float(far[7])

    def test_hemisphere_values(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--colouring", "1", "--grid", "0:0.5:3"
        )
        assert code == 0
        rows = rows_of(out)[1:]
        values = [float(r[1]) for r in rows]
        assert values == pytest.approx([-1.0, -0.5, 0.0], abs=1e-12)
        assert all(r[3] == "closed_form" and r[4] == "1" for r in rows)

    def test_mc_runs_are_reproducible(self, tmp_path, capsys):
        args = (
            "curve", "--colouring", "2", "--method", "mc", "--n", "20000",
            "--seed", "7", "--grid", "0.1:0.4:4",
        )
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(capsys, *args, "--out", str(path))
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # the README curve: 101 angles of colouring 2, the event path
            (
                ("--colouring", "2", "--n", "1000000", "--seed", "0x42d"),
                "bde5c1692dca52165be67af021b244da663b9396ab8917d428fbb2d30b1e6da4",
            ),
            # 5 angles of colouring 4, the per-angle loop
            (
                ("--colouring", "4", "--n", "200000", "--seed", "7", "--grid", "0.1:0.4:5"),
                "f7fe4956c232e150cef6feec738901b8434bbe2995334eaefe2c06c25c88bfbe",
            ),
        ],
        ids=["readme_event_path", "per_theta_band"],
    )
    def test_band_mc_output_is_pinned(self, argv, digest, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "curve", "--method", "mc", *argv, "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_hemisphere_closed_form_output_is_pinned(self, tmp_path, capsys):
        # every reference column, and the fold past pi/2; the hemisphere
        # values and np.cos round alike with and without AVX-512 dispatch
        out = tmp_path / "c1.csv"
        code, _, _ = run(
            capsys, "curve", "--colouring", "1", "--method", "closed_form",
            "--grid", "0:1:201", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d9b9a459f50112ca05d190afcef40f6801ca1a8445fc9fd43bdc3871c45b34e0"
        )

    def test_folded_quadrature_curve_is_pinned(self, tmp_path, capsys):
        # 23 angles over [0, pi]: the last 11 are folded by antisymmetry;
        # the engine's values at pi/2 differ in the last bit with and
        # without AVX-512 dispatch, so each loop has its digest
        out = tmp_path / "q4.csv"
        code, _, _ = run(
            capsys, "curve", "--colouring", "4", "--method", "quadrature",
            "--grid", "0:1:23", "--out", str(out),
        )
        assert code == 0
        digest = {
            True: "74190e178e68750ceaad0bbe6225878af6a69a07822de67efd479beefa80a993",
            False: "1823f8680f0a022f70fa7c8b35670974e3a13ba945aa29c000891bb8186c9a37",
        }[avx512_loops()]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "--colouring", "2", "--method", "mc", "--grid", "0.1:0.4:3"),
            ("verify", "--colouring", "2", "--method", "mc", "--grid", "0.1:0.4:3"),
            ("quantum", "--mc", "--grid", "0.1:0.4:3"),
            ("search", "--theta", "0.45", "--lmax", "1", "--restarts", "1"),
        ],
        ids=["curve", "verify", "quantum", "search"],
    )
    @pytest.mark.parametrize("n", ["1", "0"])
    def test_monte_carlo_needs_two_samples(self, argv, n, capsys):
        # one sample has no standard error; verify used to read its nan
        # stderr as a violation and exit 1
        code, out, err = run(capsys, *argv, "--n", n)
        assert code == 2
        assert out == ""
        assert "--n must be at least 2" in err and "standard error" in err

    def test_one_sample_curve_file_is_usage_error(self, tmp_path, capsys):
        curve = tmp_path / "one.csv"
        curve.write_text(
            "theta_over_pi,value,stderr,method,colouring_label\n"
            "0.1,-1,nan,mc,2\n0.25,1,nan,mc,2\n"
        )
        code, out, err = run(capsys, "verify", "--curve-file", str(curve))
        assert code == 2
        assert out == ""
        assert "stderr nan" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            (
                "theta_over_pi,value,stderr,method,colouring_label\n"
                "0.1,-0.5\n0.25,0,,closed_form,1\n",
                "'0.1', '-0.5'",
            ),
            ("", "header []"),
            (
                "theta_over_pi,value,stderr,method,colouring_label\n"
                "0.1,abc,,mc,2\n",
                "CSV row ['0.1', 'abc', '', 'mc', '2']: could not convert",
            ),
            (
                "theta_over_pi,value,stderr,method,colouring_label\n"
                "0.1,-0.5,-1,mc,2\n",
                "has stderr -1.0",
            ),
            (
                "theta_over_pi,value,stderr,method,colouring_label\n"
                "0.1,-0.5,0.01,mc,2\n0.2,-0.3,,closed_form,2\n",
                "CSV row ['0.2', '-0.3', '', 'closed_form', '2']: method and label",
            ),
            (
                "theta_over_pi,value,stderr,method,colouring_label\n"
                "0.1,-0.5,,closed_form,2\n0.2,-0.3,,closed_form,3\n",
                "CSV row ['0.2', '-0.3', '', 'closed_form', '3']: method and label",
            ),
            (
                "theta_over_pi,value,stderr,method,colouring_label\n"
                "0.1,-0.5,0.01,mc,2\n0.2,-0.3,,mc,2\n",
                "CSV row ['0.2', '-0.3', '', 'mc', '2']: an mc row needs a stderr",
            ),
        ],
        ids=[
            "short-row",
            "empty-file",
            "non-numeric-field",
            "negative-stderr",
            "mixed-methods",
            "mixed-labels",
            "mc-without-stderr",
        ],
    )
    def test_malformed_curve_file_is_usage_error(self, text, named, tmp_path, capsys):
        # a row of fewer than five fields used to raise IndexError, and an
        # empty file StopIteration: tracebacks with exit 1; a field that
        # is not a number is named with its row; a negative stderr gave
        # a negative slack and read as a bound violation (exit 1); rows
        # of mixed methods or labels took the last row's, so an mc row
        # without a stderr was verified with the exact slack
        curve = tmp_path / "malformed.csv"
        curve.write_text(text)
        code, out, err = run(capsys, "verify", "--curve-file", str(curve))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_numerical_failure_exits_three(self, monkeypatch, capsys):
        # a cos(alpha) drift far beyond rounding in the cosine partner
        # map, which a band bob reads without an arccos
        def drifting(theta, cos_eps, sin_eps, cos_omega):
            return np.full(cos_eps.shape, 1.5)

        monkeypatch.setattr(correlation, "partner_cos_many", drifting)
        code, _, err = run(
            capsys, "curve", "--colouring", "2", "--method", "mc", "--n", "100",
            "--grid", "0.1:0.4:2",
        )
        assert code == 3
        assert "numerical failure" in err

    def test_numerical_failure_of_an_azimuthal_harmonic_exits_three(
        self, monkeypatch, tmp_path, capsys
    ):
        # an m = 0 harmonic bob reads cos(alpha) from the cosine partner
        # map too, through its own drift check
        def drifting(theta, cos_eps, sin_eps, cos_omega):
            return np.full(cos_eps.shape, 1.5)

        path = tmp_path / "h.json"
        terms = [[3, 0, 1.0], [1, 0, 0.4]]
        path.write_text(json.dumps({"kind": "harmonic", "terms": terms}))
        monkeypatch.setattr(correlation, "partner_cos_many", drifting)
        code, _, err = run(
            capsys, "curve", "--colouring", f"@{path}", "--method", "mc", "--n", "100",
            "--grid", "0.1:0.4:2",
        )
        assert code == 3
        assert "numerical failure" in err

    def test_csv_survives_a_round_trip(self, tmp_path, capsys):
        path = tmp_path / "c3.csv"
        assert run(
            capsys, "curve", "--colouring", "3", "--grid", "0.1:0.5:9",
            "--out", str(path),
        )[0] == 0
        with open(path, newline="") as fh:
            curve = read_curve_csv(fh)
        assert curve.colouring_label == "3"
        assert curve.method == "closed_form"
        assert len(curve.points) == 9
        from spherebell.correlation import closed_form

        for p in curve.points:
            assert p.value == pytest.approx(closed_form("3", p.theta), abs=1e-11)

    def test_missing_colouring_is_usage_error(self, capsys):
        code, _, err = run(capsys, "curve")
        assert code == 2
        assert "colouring" in err

    def test_unknown_label_is_usage_error(self, capsys):
        code, _, err = run(capsys, "curve", "--colouring", "zebra")
        assert code == 2
        assert "zebra" in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_bad_quadrature_tolerance_is_usage_error(self, tol, capsys):
        # a nan tolerance used to exit 3, as if the integral had not
        # converged
        code, out, err = run(
            capsys, "curve", "--colouring", "3", "--method", "quadrature",
            "--grid", "0.1:0.4:2", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: quadrature tolerance")

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "curve", "--colouring", "1", "--grid", "0.5:0.2:10")
        assert code == 2

    def test_missing_colouring_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "curve", "--colouring", f"@{tmp_path / 'missing.json'}")
        assert code == 2
        assert err.startswith("error: cannot read colouring")

    def test_colouring_file_missing_a_field_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"kind": "harmonic"}))
        code, _, err = run(capsys, "curve", "--colouring", f"@{path}")
        assert code == 2
        assert err.startswith("error:") and "'terms'" in err

    @pytest.mark.parametrize("spec", [{"kind": "harmonic", "terms": 5}, [1, 2]])
    def test_malformed_colouring_file_is_usage_error(self, spec, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "curve", "--colouring", f"@{path}")
        assert code == 2
        assert err.startswith("error:")

    def test_non_finite_harmonic_coefficient_is_usage_error(self, tmp_path, capsys):
        # JSON admits NaN, and the sign of a nan amplitude reads as -1
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"kind": "harmonic", "terms": [[1, 0, math.nan]]}))
        assert "NaN" in path.read_text()
        code, out, err = run(
            capsys, "curve", "--colouring", f"@{path}", "--method", "mc", "--n", "100",
            "--grid", "0.1:0.4:2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not finite" in err

    def test_out_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "c.csv"
        code, _, err = run(
            capsys, "curve", "--colouring", "1", "--grid", "0:0.5:3", "--out", str(out)
        )
        assert code == 2
        assert err.startswith("error: cannot write")

    def test_out_in_missing_directory_fails_before_the_work(self, tmp_path, capsys):
        # the README Monte Carlo curve takes seconds; a bad --out must not
        out = tmp_path / "nodir" / "c2.csv"
        start = time.perf_counter()
        code, _, err = run(
            capsys, "curve", "--colouring", "2", "--method", "mc", "--n", "1000000",
            "--out", str(out),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error: cannot write")

    def test_failed_run_leaves_no_out_file(self, monkeypatch, tmp_path, capsys):
        def drifting(theta, cos_eps, sin_eps, cos_omega):
            return np.full(cos_eps.shape, 1.5)

        monkeypatch.setattr(correlation, "partner_cos_many", drifting)
        out = tmp_path / "c2.csv"
        code, _, _ = run(
            capsys, "curve", "--colouring", "2", "--method", "mc", "--n", "100",
            "--grid", "0.1:0.4:2", "--out", str(out),
        )
        assert code == 3
        assert not out.exists()

    def test_quadrature_failure_exits_three_and_leaves_no_out_file(self, tmp_path, capsys):
        # tol 1e-16 lies below the rounding floor of every piece
        out = tmp_path / "c3.csv"
        code, _, err = run(
            capsys, "curve", "--colouring", "3", "--method", "quadrature",
            "--grid", "0.1:0.4:4", "--tol", "1e-16", "--out", str(out),
        )
        assert code == 3
        assert err.startswith("numerical failure: outer integral did not converge")
        assert not out.exists()

    @staticmethod
    def values_by_method(capsys, label, grid):
        values = {}
        for method in ("closed_form", "quadrature"):
            code, out, _ = run(
                capsys, "curve", "--colouring", label, "--method", method,
                "--grid", grid, "--tol", "1e-10",
            )
            assert code == 0
            values[method] = [float(r[1]) for r in rows_of(out)[1:]]
        return values

    def test_widened_two_band_closed_form_matches_quadrature(self, capsys):
        values = self.values_by_method(capsys, "2_Delta:0.02", "0.35:0.5:3")
        assert values["closed_form"] == pytest.approx(values["quadrature"], abs=1e-9)

    def test_deformed_family_below_the_tables_matches_quadrature(self, capsys):
        values = self.values_by_method(capsys, "3_delta:-0.03", "0.2:0.4:3")
        assert values["closed_form"] == pytest.approx(values["quadrature"], abs=1e-9)

    def test_band_file_has_a_closed_form(self, tmp_path, capsys):
        path = tmp_path / "bands.json"
        path.write_text(json.dumps(
            {"kind": "bands", "bands": [[0, 0.2], [0.3, 0.5], [0.7, 0.8]]}
        ))
        code, out, _ = run(capsys, "curve", "--colouring", str(path), "--grid", "0:1:5")
        assert code == 0
        rows = rows_of(out)[1:]
        assert [r[4] for r in rows] == ["bands"] * 5
        values = [float(r[1]) for r in rows]
        assert values[0] == -1.0 and values[-1] == 1.0
        assert values[1] == pytest.approx(-values[3], abs=1e-15)

    def test_widened_two_band_by_quadrature(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--colouring", "2_Delta:0.02", "--method", "quadrature",
            "--grid", "0.35:0.45:3", "--tol", "1e-8",
        )
        assert code == 0
        rows = rows_of(out)[1:]
        assert len(rows) == 3
        assert all(-1.0 <= float(r[1]) <= 1.0 for r in rows)


class TestJobsFlag:
    @pytest.mark.parametrize(
        "command", ["curve", "verify", "sweep", "search", "slope", "quantum"]
    )
    def test_serial_commands_take_no_jobs(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestVerifyCommand:
    def test_hemisphere_passes_with_saturation_marks(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--colouring", "1", "--grid", "0.125:0.5:4"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["colouring"] == "1"
        grid = {round(e["theta_over_pi"], 6): e for e in payload["grid"]}
        assert all(e["satisfied"] for e in payload["grid"])
        # the flat curve touches the chain bound exactly at pi/2N
        assert grid[0.125]["saturated"] is True
        assert grid[0.25]["saturated"] is True
        assert grid[0.375]["saturated"] is False

    def test_four_band_passes_dense_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--colouring", "4")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["grid"]) == 100
        assert all(e["satisfied"] for e in payload["grid"])

    def test_synthetic_curve_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "fake.csv"
        path.write_text(
            "theta_over_pi,value,stderr,method,colouring_label\n"
            "0.3,-0.9,,closed_form,synthetic\n"
        )
        code, out, _ = run(capsys, "verify", "--curve-file", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["colouring"] == "synthetic"
        entry = payload["grid"][0]
        assert entry["satisfied"] is False
        assert entry["status"] == "violated"
        # -0.9 undercuts the two-chain floor -0.5
        assert entry["lower"] == -0.5

    def test_written_curve_verifies_clean(self, tmp_path, capsys):
        path = tmp_path / "c1.csv"
        assert run(
            capsys, "curve", "--colouring", "1", "--grid", "0.01:0.5:40",
            "--out", str(path),
        )[0] == 0
        code, out, _ = run(capsys, "verify", "--curve-file", str(path))
        assert code == 0
        assert all(e["satisfied"] for e in json.loads(out)["grid"])

    def test_curve_on_its_default_grid_verifies(self, tmp_path, capsys):
        # the default grid starts at theta = 0, where no chain bound applies
        path = tmp_path / "c2.csv"
        assert run(
            capsys, "curve", "--colouring", "2", "--method", "mc", "--n", "20000",
            "--seed", "0x42d", "--out", str(path),
        )[0] == 0
        code, out, _ = run(capsys, "verify", "--curve-file", str(path))
        assert code == 0
        grid = json.loads(out)["grid"]
        assert len(grid) == 100
        assert grid[0]["theta_over_pi"] == pytest.approx(0.005, abs=1e-12)

    @pytest.mark.parametrize("method", ["closed_form", "mc"])
    def test_colouring_grid_from_zero_skips_it_as_the_curve_file_does(
        self, method, tmp_path, capsys
    ):
        args = ("--colouring", "2", "--method", method, "--n", "20000", "--grid", "0:0.5:5")
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        direct = json.loads(out)["grid"]
        path = tmp_path / "c2.csv"
        assert run(capsys, "curve", *args, "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "verify", "--curve-file", str(path))
        assert code == 0
        from_file = json.loads(out)["grid"]
        assert [e["theta_over_pi"] for e in direct] == pytest.approx(
            [0.125, 0.25, 0.375, 0.5], abs=1e-12
        )
        assert len(from_file) == len(direct)
        for a, b in zip(direct, from_file):
            # the file holds theta and the value to 12 digits
            assert a["theta_over_pi"] == pytest.approx(b["theta_over_pi"], abs=1e-12)
            assert a["value"] == pytest.approx(b["value"], abs=1e-11)
            keys = ("lower", "upper", "satisfied", "status", "saturated")
            assert [a[k] for k in keys] == [b[k] for k in keys]

    def test_grid_past_half_pi_exits_before_monte_carlo(self, monkeypatch, capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("Monte Carlo ran before the grid check")

        monkeypatch.setattr(correlation, "correlation_mc_grid", no_sampling)
        code, _, err = run(
            capsys, "verify", "--colouring", "2", "--method", "mc", "--n", "20000",
            "--grid", "0:0.6:5",
        )
        assert code == 2
        assert "theta=0.6*pi outside [0, pi/2]" in err

    def test_dense_all_m_mc_output_is_pinned(self, tmp_path, capsys):
        # 40 angles of an all-m l <= 5 colouring: the grid takes the
        # trig path, whose output must stay the per-angle loop's, byte
        # for byte (digest of the per-angle output)
        terms = [
            [1, -1, 0.11], [1, 0, -0.155], [1, 1, -0.249], [3, -3, -0.463],
            [3, -2, -0.056], [3, -1, 0.198], [3, 0, 0.005], [3, 1, 0.081],
            [3, 2, 0.162], [3, 3, -0.14], [5, -5, 0.42], [5, -4, -0.139],
            [5, -3, 0.059], [5, -2, 0.434], [5, -1, -0.018], [5, 0, 0.018],
            [5, 1, -0.081], [5, 2, 0.053], [5, 3, -0.337], [5, 4, -0.102],
            [5, 5, 0.268],
        ]
        spec = tmp_path / "pinned.json"
        spec.write_text(json.dumps({"kind": "harmonic", "label": "pinned", "terms": terms}))
        out = tmp_path / "v.json"
        code, _, _ = run(
            capsys, "verify", "--colouring", f"@{spec}", "--method", "mc", "--n", "20000",
            "--seed", "0x51", "--grid", "0.005:0.5:40", "--out", str(out),
        )
        assert code == 0
        values = [p["value"] for p in json.loads(out.read_text())["grid"]]
        assert (values[0], values[19], values[-1]) == (-0.9655, 0.1568, 0.0075)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8315307fda49429cd693e1e25d5598e52703cc151e4b360365f983e78ede1a8b"
        )

    def test_readme_hemisphere_verification_is_pinned(self, capsys):
        # the README verify: the chain bounds at 100 angles, their
        # saturation marks and the quantum sandwich below pi/3
        code, out, _ = run(capsys, "verify", "--colouring", "1", "--grid", "0.005:0.5:100")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3db6ad3943c2495c1153885f073dbf547413a5c2dfb3450f8fcb17883307af88"
        )

    def test_quadrature_verification_is_pinned(self, capsys):
        # the quadrature engine at the 100 default angles, printed in
        # full precision: each loop has its digest, as above
        code, out, _ = run(capsys, "verify", "--colouring", "3", "--method", "quadrature")
        assert code == 0
        digest = {
            True: "4e12827f1314349ba9f66481ae74536e4bc2a93a73eb9e20b08daf0667121dde",
            False: "f9ec88f07e7c720fcbdea6905a28e993ea63cd0c9d6b7efbc2701b2b4884f8de",
        }[avx512_loops()]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_missing_curve_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "verify", "--curve-file", str(tmp_path / "absent.csv")
        )
        assert code == 2
        assert "cannot read" in err

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert "--colouring or --curve-file" in err


class TestSweepCommand:
    def test_single_deformation_table_and_crossing(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--family", "3_delta", "--delta", "-0.046",
            "--reference", "singlet", "--grid", "0.34:0.5:17", "--tol", "1e-5",
        )
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["theta_over_pi", "c_3_delta", "c_3", "c_1", "q_singlet"]
        assert len(rows) == 18
        match = re.search(r"crossing vs singlet: theta/pi = ([0-9.]+)", err)
        assert match, err
        assert float(match.group(1)) == pytest.approx(0.431, abs=0.003)

    def test_single_deformation_table_past_half_pi(self, capsys):
        # the table used to stop at pi/2 (exit 2, "closed forms cover
        # theta in [0, pi/2]"); past it each column is the fold
        code, out, _ = run(
            capsys, "sweep", "--family", "3_delta", "--delta", "0", "--grid", "0.34:0.7:5",
        )
        assert code == 0
        rows = rows_of(out)[1:]
        grid = parse_grid("0.34:0.7:5")
        assert [float(r[0]) for r in rows] == pytest.approx(grid / PI, abs=1e-12)
        past = [(t, r) for t, r in zip(grid.tolist(), rows) if t > PI / 2]
        assert len(past) == 3
        for t, row in past:
            folded = [
                -correlation.closed_form("3_delta", PI - t, delta=0.0),
                -correlation.closed_form("3", PI - t),
                -correlation.closed_form("1", PI - t),
            ]
            assert row[1:4] == [correlation.format_sig(v) for v in folded]

    def test_delta_grid_mode(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", "--family", "3_delta", "--delta-grid=-0.038:-0.038:1",
            "--reference", "c1", "--tol", "1e-5", "--out", str(path),
        )
        assert code == 0
        rows = rows_of(path.read_text())
        assert rows[0] == ["delta_over_pi", "theta_star_over_pi", "reference"]
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(0.386, abs=0.003)
        match = re.search(r"best delta/pi = (-?[0-9.]+)", err)
        assert match and float(match.group(1)) == pytest.approx(-0.038, abs=1e-9)

    def test_readme_default_delta_grid(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "3_delta", "--reference", "c1")
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["delta_over_pi", "theta_star_over_pi", "reference"]
        assert len(rows) == 26
        assert float(rows[1][0]) == pytest.approx(-1 / 18, abs=1e-11)
        assert float(rows[-1][0]) == pytest.approx(1 / 24, abs=1e-11)
        assert "best delta/pi" in err

    @pytest.mark.parametrize(
        "reference, digest, summary",
        [
            # the README sweep
            (
                "c1",
                "7f9e5454d8877e2a9b1c7fb8232410813f37d69c95ba5b15439e223d1a725268",
                "best delta/pi = -0.039352 with crossing theta/pi = 0.386229\n",
            ),
            (
                "singlet",
                "3a51f282ac232fe4e9f474edfca24f6c8b2a43713295786298f7e95e2711a763",
                "best delta/pi = -0.047454 with crossing theta/pi = 0.430915\n",
            ),
        ],
        ids=["readme_c1", "singlet"],
    )
    def test_default_delta_grid_sweep_is_pinned(self, reference, digest, summary, capsys):
        code, out, err = run(capsys, "sweep", "--family", "3_delta", "--reference", reference)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == summary

    def test_readme_delta_table_is_pinned(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--family", "3_delta", "--delta", "-0.046", "--reference", "singlet"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bfc806d3e7f4d5c1ed82ca22a5ef7d576c5556de85f861660355fb76617964ae"
        )
        assert err == "crossing vs singlet: theta/pi = 0.430889 (bracket width 2.61e-05 pi)\n"

    def test_widened_two_band_exit_scan(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--family", "2_Delta", "--delta-grid", "0:0.02:2",
            "--reference", "c1", "--tol", "1e-3",
        )
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["Delta_over_pi", "theta_star_over_pi", "reference"]
        assert len(rows) == 3
        # the unwidened member is the plain two-band colouring
        assert float(rows[1][1]) == pytest.approx(0.3754, abs=0.003)
        assert rows[1][2] == "neg_c1"
        # widening pulls the exit angle down
        assert float(rows[2][1]) < float(rows[1][1])
        assert "best Delta/pi" in err

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # the README 2_Delta sweep: exits above -c1
            (
                ("--delta-grid", "0:0.0833:13"),
                "7df90b55a7cd556a7d41ca69d1fc713ef8ab13cb7fb34c1c351b32a55642c1fa",
            ),
            # the default grid: exits above the negated singlet curve
            (
                ("--reference", "singlet"),
                "261794f19bdd2cdb6875e3846c91429fae3cee3f7b019a0e84f9a367f4c7a111",
            ),
        ],
        ids=["readme_delta_grid", "singlet_default_grid"],
    )
    def test_widened_two_band_sweep_is_pinned(self, argv, digest, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "2_Delta", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_unknown_family_from_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"family": "zebra"}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config)])
        assert exc.value.code == 2
        assert "zebra" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "2_Delta", "--delta", "0.02"),
            ("--delta", "-0.02", "--delta-grid=-0.04:0:3"),
            ("--delta-grid=-0.04:0:3", "--grid", "0.34:0.5:9"),
            ("--family", "2_Delta", "--grid", "0.34:0.5:9"),
        ],
        ids=["delta_with_2_Delta", "delta_with_delta_grid", "grid_with_delta_grid",
             "grid_with_2_Delta"],
    )
    def test_conflicting_flags_are_usage_errors(self, argv, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "sweep", *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --")
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            # the table computes, then the crossing search finds no
            # sign change
            (("--delta", "0.04", "--reference", "singlet", "--grid", "0.34:0.36:3"), 3),
            # the sweep reaches a delta outside the family's range
            (("--delta-grid=-0.2:0:3",), 2),
        ],
        ids=["no_crossing", "delta_out_of_range"],
    )
    def test_failed_sweep_leaves_no_out_file(self, argv, code, tmp_path, capsys):
        path = tmp_path / "nc.csv"
        exit_code, out, _ = run(
            capsys, "sweep", "--family", "3_delta", *argv, "--out", str(path)
        )
        assert exit_code == code
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bad_crossing_tolerance_is_usage_error(self, tol, capsys):
        # a tolerance of 0 or below used to bisect forever, and a nan
        # one to report the scan bracket unrefined
        code, out, err = run(capsys, "sweep", "--delta", "0", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error: crossing tolerance")

    def test_bad_delta_grid_names_the_spec(self, capsys):
        code, _, err = run(capsys, "sweep", "--delta-grid", "a:0.02:2")
        assert code == 2
        assert err.startswith("error: bad delta grid 'a:0.02:2'")

    def test_unknown_family_flag_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "zebra"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSearchCommand:
    def test_small_search_report(self, capsys):
        code, out, _ = run(
            capsys, "search", "--theta", "0.3", "--lmax", "1", "--restarts", "2",
            "--n", "5000", "--azimuthal-only",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["L_max"] == 1
        assert payload["theta_over_pi"] == pytest.approx(0.3, abs=1e-12)
        # a single azimuthal dipole is the hemisphere in disguise
        assert abs(payload["objective"] + 0.4) <= 3 * payload["objective_stderr"] + 1e-12

    def test_requires_theta(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == 2
        assert "theta" in err

    @pytest.mark.parametrize("theta", ["0.6", "0.5", "0", "-0.1", "nan"])
    def test_theta_out_of_range_is_reported_in_units_of_pi(self, capsys, theta):
        # the library's radian message ("theta 1.88... outside (0, pi/2)")
        # named a number the user never typed
        code, out, err = run(capsys, "search", "--theta", theta, "--lmax", "1")
        assert code == 2
        assert out == ""
        assert f"--theta {float(theta)!r} outside (0, 0.5) (units of pi)" in err

    @pytest.mark.parametrize("flag", ["--restarts", "--max-iter"])
    def test_rejects_a_zero_count(self, capsys, flag):
        code, out, err = run(
            capsys, "search", "--theta", "0.45", "--lmax", "3", "--azimuthal-only",
            flag, "0",
        )
        assert code == 2
        assert out == ""
        assert f"{flag[2:].replace('-', '_')} 0 must be at least 1" in err


class TestQuantumCommand:
    def test_singlet_curve(self, capsys):
        code, out, _ = run(capsys, "quantum", "--state", "singlet", "--grid", "0:0.5:11")
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["theta_over_pi", "value", "stderr", "method", "state_r"]
        assert len(rows) == 12
        for row in rows[1:]:
            theta = float(row[0]) * PI
            assert float(row[1]) == pytest.approx(-math.cos(theta), abs=1e-12)
            assert row[2] == ""
            assert row[3] == "werner"
            assert float(row[4]) == 1.0

    def test_readme_singlet_curve_is_pinned(self, capsys):
        # the README quantum curve over [0, pi], whose values take np.cos
        code, out, _ = run(capsys, "quantum", "--state", "singlet", "--grid", "0:1:101")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ca5deac9b6d8ed4f8236075dbddec6ca22766e5ca5554d80694e7b23cbc26e6b"
        )

    def test_mixed_state_is_flat_zero(self, capsys):
        code, out, _ = run(capsys, "quantum", "--state", "mixed", "--grid", "0:0.5:5")
        assert code == 0
        rows = rows_of(out)[1:]
        assert all(abs(float(r[1])) < 1e-12 for r in rows)
        assert all(float(r[4]) == 0.25 for r in rows)

    def test_monte_carlo_mode_tracks_twirl(self, capsys):
        code, out, _ = run(
            capsys, "quantum", "--state", "phi+", "--mc", "--n", "20000",
            "--seed", "5", "--grid", "0:0.5:3",
        )
        assert code == 0
        rows = rows_of(out)[1:]
        for row in rows:
            theta = float(row[0]) * PI
            value, stderr = float(row[1]), float(row[2])
            assert row[3] == "mc"
            assert abs(value - math.cos(theta) / 3.0) <= 5 * stderr + 1e-12

    def test_state_file_input(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        path.write_text(
            "0.25 0 0 0\n0 0.25 0 0\n0 0 0.25 0\n0 0 0 0.25\n"
        )
        code, out, _ = run(
            capsys, "quantum", "--state-file", str(path), "--grid", "0:0.5:3"
        )
        assert code == 0
        assert all(float(r[4]) == 0.25 for r in rows_of(out)[1:])

    def test_unknown_state_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "quantum", "--state", "ghz")
        assert code == 2

    @pytest.mark.parametrize("mc", [(), ("--mc", "--n", "100")], ids=["analytic", "mc"])
    def test_non_finite_state_file_is_usage_error(self, mc, tmp_path, capsys):
        # a nan entry passes every tolerance check that compares with <
        path = tmp_path / "nan.txt"
        path.write_text("nan 0 0 0\n0 0.5 -0.5 0\n0 -0.5 0.5 0\n0 0 0 0\n")
        code, out, err = run(
            capsys, "quantum", "--state-file", str(path), "--grid", "0:0.5:3", *mc
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "non-finite" in err


class TestSlopeCommand:
    def test_three_band_report(self, capsys):
        code, out, _ = run(capsys, "slope", "--colouring", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["colouring"] == "3"
        assert payload["abs_slope"] == pytest.approx(
            payload["reference_abs_slope"], abs=1e-3
        )
        assert abs(payload["abs_slope"] - 1.5) < 0.01
        assert abs(payload["c_at_half_pi"]) < 1e-10

    @pytest.mark.parametrize("h", ["0", "-1", "1"])
    def test_step_outside_the_range_is_usage_error(self, h, capsys):
        # h must keep every quotient point pi/2 - k h, k = 1, 2, 4, in
        # (0, pi/2); h = 0 used to divide by zero
        code, out, err = run(capsys, "slope", "--colouring", "3", "--h", h)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "(0, pi/8)" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_hemisphere_has_no_reference(self, capsys):
        code, out, _ = run(capsys, "slope", "--colouring", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["reference_abs_slope"] is None
        assert payload["slope"] == pytest.approx(-2.0 / PI, abs=1e-8)


class TestConfigMerge:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"colouring": "1", "grid": "0:0.5:3"}))
        code, out, _ = run(capsys, "curve", "--config", str(config))
        assert code == 0
        rows = rows_of(out)[1:]
        assert [r[4] for r in rows] == ["1", "1", "1"]

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"colouring": "1", "grid": "0:0.5:3"}))
        code, out, _ = run(
            capsys, "curve", "--config", str(config), "--colouring", "3"
        )
        assert code == 0
        assert all(r[4] == "3" for r in rows_of(out)[1:])

    def test_unreadable_config(self, tmp_path, capsys):
        code, _, err = run(capsys, "curve", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "config" in err

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "curve", "--config", str(path))
        assert code == 2
        assert "JSON object" in err

    @pytest.mark.parametrize("key", ["sed", "jobs", "config", "func"])
    def test_unknown_key_is_usage_error(self, key, tmp_path, capsys):
        # no command has a jobs flag
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"colouring": "1", "grid": "0:0.5:3", key: 7}))
        code, out, err = run(capsys, "curve", "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize(
        "argv, key, value, expected",
        [
            (("curve", "--colouring", "2", "--method", "mc", "--n", "1000",
              "--grid", "0.1:0.4:3"), "seed", "0x42d", 0),
            (("search", "--theta", "0.3", "--lmax", "3", "--restarts", "1",
              "--n", "500"), "azimuthal_only", "false", 2),
            (("quantum", "--grid", "0.1:0.4:3", "--n", "1000"), "mc", "no", 2),
            (("curve", "--colouring", "2", "--method", "mc",
              "--grid", "0.1:0.4:3"), "n", 1000.5, 2),
        ],
    )
    def test_config_value_parses_as_its_flag(
        self, argv, key, value, expected, tmp_path, capsys
    ):
        # each config value goes through its flag's own parsing: the
        # same exit code and output as --flag=value on the command line
        def outcome(*args):
            try:
                code = main([*argv, *args])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        from_config = outcome("--config", str(config))
        assert from_config[0] == expected
        flag = "--" + key.replace("_", "-")
        assert from_config == outcome(f"{flag}={value}")

    def test_every_flag_is_a_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "colouring": "3", "method": "mc", "grid": "0.1:0.5:3", "seed": 5,
            "n": 1000, "tol": 1e-8, "out": str(tmp_path / "c.csv"),
        }))
        code, _, _ = run(capsys, "curve", "--config", str(config))
        assert code == 0
        assert len(rows_of((tmp_path / "c.csv").read_text())) == 4


def run_probe(probe, *args):
    """stdout of ``python -c probe args...`` in a fresh interpreter that
    imports spherebell from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), *sys.path]))
    result = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout.strip()


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    # both are imported on first use; they dominate a cold import
    probe = (
        "import sys, spherebell.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    assert run_probe(probe) == "[]"


def test_quadrature_curve_leaves_scipy_integrate_unloaded(tmp_path):
    # the quadrature engine is numpy alone
    probe = (
        "import sys; from spherebell import cli; "
        "argv = ['curve', '--colouring', '4', '--method', 'quadrature', "
        "'--grid', '0.1:0.5:5', '--out', sys.argv[1]]; "
        "print(cli.main(argv), 'scipy.integrate' in sys.modules)"
    )
    assert run_probe(probe, str(tmp_path / "c4.csv")) == "0 False"
    assert len(rows_of((tmp_path / "c4.csv").read_text())) == 6


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestHeapPolicy:
    @pytest.mark.skipif(not _glibc(), reason="the heap policy is set through glibc")
    def test_second_monte_carlo_curve_reuses_the_heap(self, tmp_path):
        # without the policy glibc unmaps each freed temporary, and a
        # second identical curve faulted its pages in again (about 4,500
        # minor faults); with it the second call finds them mapped
        probe = (
            "import resource, sys\n"
            "from spherebell.cli import main\n"
            "argv = ['curve', '--colouring', '2', '--method', 'mc', '--n', '200000',\n"
            "        '--out', sys.argv[1]]\n"
            "assert main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(run_probe(probe, str(tmp_path / "c2.csv"))) < 500

    @pytest.mark.parametrize("confstr", ["raises", "none"])
    def test_no_glibc_is_a_no_op(self, confstr, monkeypatch):
        import ctypes

        def no_glibc(name):
            if confstr == "raises":
                raise ValueError(f"unrecognized configuration name {name!r}")
            return None

        def untouched(*args, **kwargs):
            raise AssertionError("ctypes was loaded off glibc")

        monkeypatch.setattr(os, "confstr", no_glibc)
        monkeypatch.setattr(ctypes, "CDLL", untouched)
        cli._keep_freed_heap.__wrapped__()

    @pytest.mark.parametrize("accepted", [1, 0])
    def test_glibc_gets_both_thresholds_or_neither(self, accepted, monkeypatch):
        # either mallopt call alone switches off glibc's dynamic mmap
        # threshold and leaves more faults than the default, so the trim
        # threshold follows only an accepted mmap threshold
        import ctypes

        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return accepted

        class FakeLibc:
            mallopt = Mallopt()

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.99")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc())
        cli._keep_freed_heap.__wrapped__()
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)][: 1 + accepted]
        assert FakeLibc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_import_leaves_the_heap_alone(self):
        # the policy is set by main, not by importing the package
        probe = (
            "import spherebell, spherebell.cli as cli; "
            "print(cli._keep_freed_heap.cache_info().currsize)"
        )
        assert run_probe(probe) == "0"


class TestParserCache:
    def test_import_builds_no_parser(self):
        # the parser is built by main, not by importing the package
        probe = (
            "import spherebell, spherebell.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)"
        )
        assert run_probe(probe) == "0"

    def test_main_builds_the_parser_once(self):
        probe = (
            "import os, spherebell.cli as cli\n"
            "for _ in range(2):\n"
            "    assert cli.main(['quantum', '--grid', '0:0.5:3', '--out', os.devnull]) == 0\n"
            "print(cli.build_parser.cache_info().currsize)\n"
        )
        assert run_probe(probe) == "1"

    def test_earlier_runs_leave_the_parser_unchanged(self, tmp_path):
        # a --config run and a run argparse rejects, then a plain run,
        # in one process: the plain run prints what it prints alone
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"state": "phi+", "grid": "0.1:0.3:3"}))
        plain = "from spherebell.cli import main\nmain(['quantum'])\n"
        probe = (
            "import contextlib, io, sys\n"
            "from spherebell.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    assert main(['quantum', '--config', sys.argv[1]]) == 0\n"
            "assert out.getvalue().count('\\n') == 4\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        main(['quantum', '--grid'])\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 2\n"
            "    else:\n"
            "        raise AssertionError('argparse took a flag without its value')\n"
            "main(['quantum'])\n"
        )
        alone = run_probe(plain)
        assert alone.count("\n") == 51
        assert run_probe(probe, str(config)) == alone
