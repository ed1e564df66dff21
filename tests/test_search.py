import functools
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bisection_oracle import bisect_crossing
from spherebell.bounds import EXACT_SLACK, theorem1_bounds
from spherebell.colourings import (
    BandColouring,
    ColouringPair,
    HarmonicColouring,
    make_catalogue,
)
from spherebell.correlation import (
    ClosedFormDomainError,
    Draws,
    SamplingPlan,
    closed_form,
    closed_form_slope,
    correlation_mc,
    correlation_quadrature,
)
from spherebell.quantum import singlet_correlation
from spherebell import search
from spherebell.cli import main
from spherebell.search import (
    BISECT_DEPTH,
    CROSSING_BRACKET,
    DELTA_GRID,
    SLOPE_REFERENCE_THREE_BANDS,
    TWO_DELTA_GRID,
    CrossingResult,
    NoCrossingError,
    SearchOutcome,
    SweepResult,
    SweepRow,
    _bisect_crossing,
    all_crossings,
    common_random_correlation,
    estimate_theta_max,
    find_crossing,
    harmonic_search,
    reference_curve,
    search_report_json,
    slope_at_half_pi,
    sweep,
    sweep_to_csv,
)

PI = math.pi
HALF_PI = math.pi / 2
BRACKET = (PI / 3 + 1e-9, PI / 2 - 1e-4)


def c1(theta):
    return closed_form("1", theta)


def c3(theta):
    return closed_form("3", theta)


@pytest.mark.loop_dependent
class TestFindCrossing:
    def test_three_band_passes_linear_law(self):
        hit = find_crossing(c3, c1, BRACKET, tol=1e-6)
        assert hit.theta_star == pytest.approx(0.405 * PI, abs=0.003 * PI)
        # three-band sits above at small theta, below past the crossing
        assert hit.left_sign == 1
        assert c3(hit.theta_star + 0.01) < c1(hit.theta_star + 0.01)

    def test_three_band_passes_quantum_curve(self):
        hit = find_crossing(c3, singlet_correlation, BRACKET, tol=1e-6)
        assert hit.theta_star == pytest.approx(0.467 * PI, abs=0.003 * PI)

    def test_identical_curves_have_no_crossing(self):
        with pytest.raises(NoCrossingError):
            find_crossing(c1, c1, BRACKET)

    def test_tightening_tol_is_stable(self):
        coarse = find_crossing(c3, c1, BRACKET, tol=1e-4)
        fine = find_crossing(c3, c1, BRACKET, tol=5e-5)
        assert abs(coarse.theta_star - fine.theta_star) <= 2e-4
        assert fine.bracket_width <= 5e-5

    def test_empty_bracket_rejected(self):
        with pytest.raises(ValueError):
            find_crossing(c1, c3, (1.0, 1.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # tol <= 0 used to bisect forever, a nan tol to return the scan
        # bracket unrefined
        with pytest.raises(ValueError, match="crossing tolerance"):
            find_crossing(c3, c1, BRACKET, tol=tol)

    def test_bisection_stops_at_adjacent_floats(self):
        hit = find_crossing(c3, c1, BRACKET, tol=1e-300)
        coarse = find_crossing(c3, c1, BRACKET, tol=1e-12)
        assert 0.0 < hit.bracket_width <= math.ulp(hit.theta_star)
        assert abs(hit.theta_star - coarse.theta_star) <= 1e-12

    def test_all_crossings_ordered_with_signs(self):
        hits = all_crossings(lambda t: np.cos(4 * t), lambda t: 0.0, (0.1, 1.5), tol=1e-9)
        assert len(hits) == 2
        assert hits[0].theta_star == pytest.approx(PI / 8, abs=1e-8)
        assert hits[1].theta_star == pytest.approx(3 * PI / 8, abs=1e-8)
        assert hits[0].left_sign == 1
        assert hits[1].left_sign == -1


def per_point_crossings(f, g, bracket, tol=1e-4, scan_points=400):
    """The crossing scan one float call at a time: every sign change
    between consecutive nonzero samples of f - g, bisected to ``tol``."""
    xs = np.linspace(bracket[0], bracket[1], scan_points)
    diff = lambda t: f(t) - g(t)
    ds = [diff(float(t)) for t in xs]
    nonzero = [i for i in range(scan_points) if ds[i] != 0.0]
    out = []
    for i, j in zip(nonzero, nonzero[1:]):
        if (ds[i] > 0.0) != (ds[j] > 0.0):
            star, width = bisect_crossing(diff, float(xs[i]), float(xs[j]), ds[i], tol)
            out.append(CrossingResult(star, 1 if ds[i] > 0.0 else -1, width))
    return out


CROSSING_FAMILIES = {
    "catalogue": [make_catalogue(label) for label in ("2", "3", "4")],
    "3_delta": [make_catalogue("3_delta", delta=d) for d in DELTA_GRID],
    "2_Delta": [make_catalogue("2_Delta", Delta=d) for d in TWO_DELTA_GRID],
}


@functools.lru_cache(maxsize=None)
def family_crossings(family, reference):
    """``per_point_crossings`` of each member of a family against a
    reference, on ``CROSSING_BRACKET``."""
    g = reference_curve(reference)
    return [
        per_point_crossings(lambda t: closed_form(c, t), g, CROSSING_BRACKET)
        for c in CROSSING_FAMILIES[family]
    ]


@pytest.mark.loop_dependent
class TestCrossingScan:
    @pytest.mark.parametrize("reference", ["c1", "singlet"])
    @pytest.mark.parametrize("family", sorted(CROSSING_FAMILIES))
    def test_array_scan_finds_the_per_point_crossings(self, family, reference):
        g = reference_curve(reference)
        expected = family_crossings(family, reference)
        for colouring, hits in zip(CROSSING_FAMILIES[family], expected):
            f = lambda t: closed_form(colouring, t)
            assert all_crossings(f, g, CROSSING_BRACKET) == hits, colouring.label

    @pytest.mark.parametrize("reference", ["c1", "singlet"])
    @pytest.mark.parametrize("family", sorted(CROSSING_FAMILIES))
    def test_colouring_scan_finds_the_per_point_crossings(self, family, reference):
        # the scan reads the closed form's array calls; the crossings
        # are those of its float calls
        g = reference_curve(reference)
        expected = family_crossings(family, reference)
        for colouring, hits in zip(CROSSING_FAMILIES[family], expected):
            assert all_crossings(colouring, g, CROSSING_BRACKET) == hits, colouring.label

    def test_colouring_scan_and_bisection_read_the_closed_form(self, monkeypatch):
        calls = []

        def values_spy(c, theta, delta=None):
            calls.append((getattr(c, "label", c), np.shape(theta)))
            return closed_form(c, theta, delta)

        # through the module's name, which perfbench's tracing rebinds
        monkeypatch.setattr(search, "closed_form", values_spy)
        c1_reference = reference_curve("c1")
        hit = find_crossing(make_catalogue("3"), c1_reference, BRACKET, tol=1e-6)
        monkeypatch.undo()
        assert hit == find_crossing(c3, c1, BRACKET, tol=1e-6)
        # a certified scan computes 51 points (every 8th and the last),
        # then the 31 its slope bound leaves open; 11 bisection steps
        # read 4, 4 and 3 levels at a time, each an array call of the
        # colouring and of the linear law; no float call
        shapes = [(51,), (31,), (15,), (15,), (7,)]
        assert calls == [(label, shape) for shape in shapes for label in ("3", "1")]

    def test_curve_scan_and_bisection_share_one_reader(self):
        calls = []

        def f(t):
            calls.append(np.shape(t))
            return c3(t)

        hits = all_crossings(f, c1, BRACKET, tol=1e-6)
        assert len(hits) == 1
        assert calls[0] == (400,)
        assert len(calls) == 4
        assert all(len(shape) == 1 and shape[0] <= 15 for shape in calls[1:])

    def test_references_take_arrays(self):
        thetas = np.linspace(0.0, HALF_PI, 9)
        for name in ("c1", "singlet"):
            values = reference_curve(name)(thetas)
            assert values.tolist() == [reference_curve(name)(float(t)) for t in thetas]


@st.composite
def antipodal_band_colourings(draw):
    """An antipodal band colouring: up to seven northern flips, the
    equator and their mirror images, either colour at the north pole."""
    north = sorted(
        draw(
            st.lists(
                st.floats(0.01, HALF_PI - 0.01), max_size=7, unique_by=lambda v: round(v, 3)
            )
        )
    )
    bounds = [0.0, *north, HALF_PI, *(PI - v for v in reversed(north)), PI]
    first = draw(st.integers(0, 1))
    return BandColouring(tuple(zip(bounds[first::2], bounds[first + 1 :: 2])))


CERTIFIED_COLOURINGS = [make_catalogue(label) for label in ("1", "2", "3", "4")] + [
    c for family in ("3_delta", "2_Delta") for c in CROSSING_FAMILIES[family]
]


@pytest.mark.loop_dependent
class TestCrossingCertificate:
    """The slope bound of ``closed_form_slope`` and the certified scan
    that skips the closed form where it fixes a sign."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        antipodal_band_colourings(),
        st.floats(0.0, HALF_PI),
        st.floats(-12.0, -0.3),
        st.booleans(),
        st.integers(0, 10**6),
    )
    def test_slope_bound_holds_for_antipodal_bands(self, c, theta, log_step, at_kink, pick):
        flips = c.flips[1]
        if at_kink:
            # straddle a kink |v - w| = theta or v + w = theta
            kinks = sorted(
                k for v in flips for w in flips for k in (abs(v - w), v + w)
                if 0.0 < k < HALF_PI
            )
            assume(kinks)
            theta = kinks[pick % len(kinks)]
        step = 10.0**log_step
        t = np.array([max(theta - step, 0.0), min(theta + step, HALF_PI)])
        low, high = closed_form(c, t)
        assert abs(high - low) <= closed_form_slope(c) * (t[1] - t[0]) + 1e-12

    def test_hemisphere_slope_bound_is_its_exact_slope(self):
        assert closed_form_slope("1") == 2.0 / PI
        t = np.linspace(0.1, 1.5, 8)
        quotients = np.diff(closed_form("1", t)) / np.diff(t)
        assert quotients == pytest.approx(2.0 / PI, rel=1e-12)

    @pytest.mark.parametrize("negated", [False, True])
    @pytest.mark.parametrize("reference", ["c1", "singlet"])
    def test_certified_signs_are_the_full_scan(self, reference, negated):
        g = search.REFERENCES[reference][negated]
        xs = np.linspace(*CROSSING_BRACKET, search.SCAN_POINTS)
        for c in CERTIFIED_COLOURINGS:
            slope = closed_form_slope(c) + search._reference_slope(g)
            assert math.isfinite(slope)
            diff = lambda ts: closed_form(c, ts) - g(ts)
            expected = np.sign(diff(xs))
            assert np.array_equal(search._scan_signs(diff, xs, slope), expected), c.label

    def test_certificate_leaves_rounding_to_the_computation(self):
        # the exact difference is 1e-9 everywhere, with slope 0, and its
        # computed values are within 2 EXACT_SLACK of it, of either sign
        xs = np.linspace(*CROSSING_BRACKET, search.SCAN_POINTS)
        diff = lambda ts: 1e-9 + 2.0 * EXACT_SLACK * np.cos(1e4 * ts)
        expected = np.sign(diff(xs))
        assert (expected < 0.0).any()
        assert np.array_equal(search._scan_signs(diff, xs, 1e-12), expected)

    @pytest.mark.parametrize("f_kind", ["curve", "colouring"])
    def test_scan_without_a_slope_reads_the_grid_in_one_call(self, f_kind):
        # a curve f, or a colouring against a curve outside the
        # reference registry, has no known slope
        calls = []

        def spy(curve):
            def read(t):
                calls.append(np.shape(t))
                return curve(t)

            return read

        if f_kind == "colouring":
            f, g = make_catalogue("3"), spy(reference_curve("c1"))
        else:
            f, g = spy(c3), reference_curve("c1")
        hits = all_crossings(f, g, BRACKET)
        assert hits == all_crossings(make_catalogue("3"), reference_curve("c1"), BRACKET)
        # the scan, then one bisection read
        assert calls == [(400,), (15,)]

    def test_scan_past_half_pi_still_raises(self):
        # past pi/2 the certified scan reads the fold, as the full scan
        # of the array engine does; its last point past pi raises
        three, end = make_catalogue("3"), HALF_PI + 1e-3
        assert closed_form(three, end) == -closed_form(three, PI - end)
        full = lambda t: closed_form(three, t)
        hits = all_crossings(three, singlet_correlation, (1.0, end))
        assert hits == all_crossings(full, singlet_correlation, (1.0, end))
        with pytest.raises(ClosedFormDomainError):
            all_crossings(three, singlet_correlation, (1.0, PI + 1e-9))


def walk_both(diff, lo, hi, tol):
    """The oracle's bisection of [lo, hi] and the batched walk's, given
    f - g as ``diff`` on floats, with the number of points the oracle
    evaluated and the sizes of the batched walk's sign reads."""
    evals = []

    def counted(t):
        evals.append(t)
        return diff(t)

    expected = bisect_crossing(counted, lo, hi, diff(lo), tol)
    reads = []

    def signs(ts):
        reads.append(ts.size)
        return np.sign([diff(t) for t in ts.tolist()])

    got = _bisect_crossing(signs, lo, hi, float(np.sign(diff(lo))), tol)
    return expected, got, len(evals), reads


brackets = st.tuples(
    st.floats(-2.0, 2.0),  # lo
    st.floats(-12.0, 0.5),  # log10 of the width
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),  # root, as a fraction
)


@pytest.mark.loop_dependent
class TestCrossingBisection:
    """The batched walk of ``_bisect_crossing`` against the sequential
    float loop of ``bisection_oracle``."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        brackets,
        st.floats(-300.0, -2.0),
        st.sampled_from([-1.0, 1.0]),
        st.floats(0.0, 50.0),
    )
    def test_batched_walk_is_the_sequential_loop(self, bracket, log_tol, sign, w):
        lo, log_width, frac = bracket
        hi = lo + 10.0**log_width
        root = lo + frac * (hi - lo)
        assume(lo < root < hi)
        diff = lambda t: sign * (t - root) * (2.0 + math.cos(w * t))
        expected, got, evals, reads = walk_both(diff, lo, hi, 10.0**log_tol)
        assert got == expected
        # one read per BISECT_DEPTH steps, each of at most 15 points
        assert len(reads) == -(-evals // BISECT_DEPTH)
        assert all(size <= 2**BISECT_DEPTH - 1 for size in reads)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        brackets,
        st.lists(st.booleans(), max_size=30),
        st.floats(-300.0, -20.0),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_exact_zero_at_a_midpoint_ends_both(self, bracket, path, log_tol, sign):
        lo, log_width, _ = bracket
        hi = lo + 10.0 ** max(log_width, -6.0)
        # the midpoint reached by following ``path`` down the tree
        a, b = lo, hi
        for right in path:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if right else (a, mid)
        root = 0.5 * (a + b)
        diff = lambda t: sign * (t - root)
        expected, got, _, _ = walk_both(diff, lo, hi, 10.0**log_tol)
        assert expected == (root, 0.0)
        assert got == expected

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(brackets, st.floats(0.0, 3.0))
    def test_bracket_narrower_than_tol_reads_nothing(self, bracket, log_excess):
        lo, log_width, frac = bracket
        hi = lo + 10.0**log_width
        tol = (hi - lo) * 10.0**log_excess
        diff = lambda t: t - (lo + frac * (hi - lo))
        expected, got, evals, reads = walk_both(diff, lo, hi, tol)
        assert got == expected == (0.5 * (lo + hi), hi - lo)
        assert evals == 0 and reads == []

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.floats(-2.0, 2.0), st.floats(-300.0, -2.0))
    def test_adjacent_floats_read_nothing(self, lo, log_tol):
        hi = math.nextafter(lo, math.inf)
        diff = lambda t: t - hi
        expected, got, evals, reads = walk_both(diff, lo, hi, 10.0**log_tol)
        assert got == expected
        assert got[1] == hi - lo
        assert evals == 0 and reads == []


@pytest.mark.loop_dependent
class TestSweepDelta:
    GRID = (-0.046 * PI, -0.038 * PI, 0.0)

    def test_against_linear_law(self):
        result = sweep("3_delta", self.GRID, "c1", tol=1e-6)
        stars = {round(r.delta / PI, 3): r.theta_star for r in result.rows}
        assert stars[0.0] == pytest.approx(0.405 * PI, abs=0.003 * PI)
        assert stars[-0.038] == pytest.approx(0.386 * PI, abs=0.003 * PI)
        # pulling the caps in moves the crossing down
        assert stars[-0.038] < stars[0.0]
        assert result.best_theta == min(r.theta_star for r in result.rows)

    def test_against_quantum_curve(self):
        result = sweep("3_delta", self.GRID, "singlet", tol=1e-6)
        stars = {round(r.delta / PI, 3): r.theta_star for r in result.rows}
        assert stars[-0.046] == pytest.approx(0.431 * PI, abs=0.003 * PI)
        assert result.best_delta == pytest.approx(-0.046 * PI, abs=1e-12)

    def test_readme_sweep_matches_the_oracle(self, capsys):
        # the README sweep through the CLI: every DELTA_GRID member's
        # first crossing of c1, as the sequential float bisection finds it
        assert main(["sweep", "--family", "3_delta", "--reference", "c1"]) == 0
        out, err = capsys.readouterr()
        rows = tuple(
            SweepRow(d, hits[0].theta_star if hits else math.nan)
            for d, hits in zip(DELTA_GRID, family_crossings("3_delta", "c1"))
        )
        best_theta, best_delta = min(
            (r.theta_star, r.delta) for r in rows if not math.isnan(r.theta_star)
        )
        expected = io.StringIO()
        sweep_to_csv(SweepResult("c1", rows, best_delta, best_theta), expected)
        assert out == expected.getvalue()
        assert err == (
            f"best delta/pi = {best_delta / PI:.6f} "
            f"with crossing theta/pi = {best_theta / PI:.6f}\n"
        )

    def test_rejects_out_of_range_delta(self):
        with pytest.raises(ValueError):
            sweep("3_delta", [0.1 * PI], "c1")
        with pytest.raises(ValueError):
            sweep("3_delta", [-0.06 * PI], "c1")

    def test_rejects_unknown_reference(self):
        with pytest.raises(ValueError):
            sweep("3_delta", [0.0], "chsh")

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family '4_delta'"):
            sweep("4_delta")

    def test_csv_layout(self):
        result = sweep("3_delta", (0.0,), "c1", tol=1e-5)
        buf = io.StringIO()
        sweep_to_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "delta_over_pi,theta_star_over_pi,reference"
        fields = lines[1].split(",")
        assert float(fields[0]) == 0.0
        assert float(fields[1]) == pytest.approx(result.best_theta / PI, rel=1e-11)
        assert fields[2] == "c1"


@pytest.mark.loop_dependent
class TestSweepTwoDelta:
    def test_default_grid_sweep_matches_the_oracle(self, capsys):
        # the default-grid 2_Delta sweep through the CLI: every
        # TWO_DELTA_GRID member's first exit above -c1 (left sign -1),
        # as the sequential float bisection finds it
        assert main(["sweep", "--family", "2_Delta", "--reference", "c1"]) == 0
        out, err = capsys.readouterr()
        c1_curve = reference_curve("c1")
        neg_c1 = lambda t: -c1_curve(t)
        rows = []
        for d, colouring in zip(TWO_DELTA_GRID, CROSSING_FAMILIES["2_Delta"]):
            f = lambda t: closed_form(colouring, t)
            exits = [
                hit.theta_star
                for hit in per_point_crossings(f, neg_c1, CROSSING_BRACKET)
                if hit.left_sign == -1
            ]
            rows.append(SweepRow(d, exits[0] if exits else math.nan))
        best_theta, best_delta = min(
            (r.theta_star, r.delta) for r in rows if not math.isnan(r.theta_star)
        )
        expected = io.StringIO()
        sweep_to_csv(
            SweepResult("neg_c1", tuple(rows), best_delta, best_theta, "Delta"), expected
        )
        assert out == expected.getvalue()
        assert err == (
            f"best Delta/pi = {best_delta / PI:.6f} "
            f"with exit theta/pi = {best_theta / PI:.6f}\n"
        )


class TestThetaMax:
    def test_catalogue_thresholds(self):
        est = estimate_theta_max(tol=1e-5)
        assert est.upper_bound_w <= 0.389 * PI
        assert est.upper_bound_s <= 0.378 * PI
        assert est.upper_bound_s <= est.upper_bound_w
        assert est.witnesses["weak"]["colouring"].startswith("3_delta")
        weak_candidates = est.witnesses["candidates"]["weak"]
        assert weak_candidates == sorted(weak_candidates)

    @pytest.mark.loop_dependent
    def test_bounds_and_witnesses_are_pinned(self):
        # recorded from the per-point scan the array scan replaced
        est = estimate_theta_max(include_two_delta=True, tol=1e-5)
        assert est.upper_bound_w == float.fromhex("0x1.36a1302818594p+0")
        assert est.upper_bound_s == float.fromhex("0x1.152894c701dc7p+0")
        assert est.witnesses == {
            "weak": {"colouring": "3_delta:-0.0393519", "theta_star_over_pi": 0.3862362722330898},
            "strong": {"colouring": "2_Delta:0.0347222", "theta_star_over_pi": 0.34461834768674066},
            "candidates": {
                "weak": [(0.3862362722330898, "3_delta:-0.0393519"), (0.40467892979243575, "3")],
                "strong": [
                    (0.34461834768674066, "2_Delta:0.0347222"),
                    (0.3454014061235815, "2_Delta:0.0416667"),
                    (0.3454960256846997, "2_Delta:0.0277778"),
                    (0.3477717892667686, "2_Delta:0.0486111"),
                    (0.3482905654811757, "2_Delta:0.0208333"),
                    (0.3519024225211042, "2_Delta:0.0555556"),
                    (0.35348485311222017, "2_Delta:0.0138889"),
                    (0.35863183096270546, "2_Delta:0.0625"),
                    (0.36195493520404903, "2_Delta:0.00694444"),
                    (0.37545127363735015, "2"),
                    (0.37545127363735015, "2_Delta:0"),
                    (0.3773273511422814, "2_Delta:0.0694444"),
                    (0.3862362722330898, "3_delta:-0.0393519"),
                    (0.40467892979243575, "3"),
                    (0.41284883948347556, "2_Delta:0.0763889"),
                    (0.42242988573257234, "4"),
                ],
            },
        }

    def test_two_band_exit_supplies_strong_witness(self):
        est = estimate_theta_max(tol=1e-5)
        strong = dict((lab, t) for t, lab in est.witnesses["candidates"]["strong"])
        assert strong["2"] == pytest.approx(0.3754, abs=0.002)


@pytest.mark.loop_dependent
class TestSlope:
    def test_hemisphere_slope_is_linear_law(self):
        est = slope_at_half_pi("1")
        assert est.slope == pytest.approx(-2.0 / PI, abs=1e-8)
        assert est.reference is None
        assert abs(est.c_at_half_pi) < 1e-10

    def test_three_band_slope_matches_closed_form(self):
        est = slope_at_half_pi("3")
        assert est.slope < 0.0
        assert abs(est.slope) == pytest.approx(SLOPE_REFERENCE_THREE_BANDS, abs=1e-3)
        assert abs(abs(est.slope) - 1.5) < 0.01
        assert est.reference == pytest.approx(SLOPE_REFERENCE_THREE_BANDS)

    def test_steeper_than_linear(self):
        # the whole point: the three-band response beats 2/pi
        assert abs(slope_at_half_pi("3").slope) > 2.0 / PI

    def test_four_band_slope_against_quadrature(self):
        # the same Richardson pass on the independent engine
        est = slope_at_half_pi("4")
        root2 = math.sqrt(2.0)
        q = [
            correlation_quadrature(make_catalogue("4"), HALF_PI - k * est.step, 1e-12)
            / (k * est.step)
            for k in (1, 2, 4)
        ]
        slope = (4 + 2 * root2) * q[0] - (4 + 3 * root2) * q[1] + (1 + root2) * q[2]
        assert est.slope == pytest.approx(slope, abs=1e-9)

    def test_rejects_a_non_antipodal_colouring(self):
        with pytest.raises(ValueError):
            slope_at_half_pi(BandColouring(((0.0, 0.6 * PI),)))

    @pytest.mark.parametrize("label", ["1", "2", "3", "4"])
    @pytest.mark.parametrize("h", [1e-3, 0.05])
    def test_slope_is_the_richardson_pass_over_float_closed_forms(self, label, h):
        est = slope_at_half_pi(label, h=h)
        c_half = closed_form(label, HALF_PI)
        q = [closed_form(label, HALF_PI - k * h) / (k * h) for k in (1, 2, 4)]
        root2 = math.sqrt(2.0)
        slope = (4 + 2 * root2) * q[0] - (4 + 3 * root2) * q[1] + (1 + root2) * q[2]
        assert type(est.slope) is float and type(est.c_at_half_pi) is float
        assert est.slope == slope
        assert est.c_at_half_pi == c_half


class TestHarmonicSearch:
    def test_dipoles_recover_the_hemisphere(self):
        # every unit l=1 combination is a rotated hemisphere, so the
        # optimum at 0.2 pi is the linear-law value -0.6 regardless of
        # where the simplex wanders
        out = harmonic_search(
            0.2 * PI, 1, restarts=4, plan=SamplingPlan(0x42D, 20_000)
        )
        assert abs(out.objective_value + 0.6) <= 3 * out.objective_stderr + 1e-12
        assert out.l_max == 1
        assert len(out.colouring_params) == 3
        assert out.evaluations > 0

    def test_azimuthal_quintupole_beats_linear_law(self):
        theta = 0.45 * PI
        out = harmonic_search(
            theta,
            5,
            restarts=8,
            plan=SamplingPlan(0x42D, 20_000),
            azimuthal_only=True,
        )
        target = c1(theta)
        assert target == pytest.approx(-0.1, abs=1e-12)
        assert out.objective_value < target
        # deterministic confirmation on the winning colouring
        quad = correlation_quadrature(out.colouring(), theta, 1e-6)
        assert quad < target
        assert quad >= theorem1_bounds(theta).lower - 1e-9

    def test_unit_norm_winner(self):
        out = harmonic_search(
            0.3 * PI, 1, restarts=2, plan=SamplingPlan(3, 5_000), azimuthal_only=True
        )
        norm = math.sqrt(sum(a * a for _, _, a in out.colouring_params))
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        kwargs = dict(restarts=2, plan=SamplingPlan(7, 5_000), azimuthal_only=True)
        a = harmonic_search(0.3 * PI, 3, **kwargs)
        b = harmonic_search(0.3 * PI, 3, **kwargs)
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            harmonic_search(0.3 * PI, 2)
        with pytest.raises(ValueError):
            harmonic_search(0.0, 1)
        with pytest.raises(ValueError):
            harmonic_search(PI / 2, 1)
        with pytest.raises(ValueError, match="restarts"):
            harmonic_search(0.3 * PI, 1, restarts=0)
        with pytest.raises(ValueError, match="max_iter"):
            harmonic_search(0.3 * PI, 1, max_iter=0)

    @pytest.mark.loop_dependent
    def test_readme_search_is_pinned(self):
        # `spherebell search --theta 0.45 --lmax 5 --azimuthal-only` at the
        # default seed, 16 restarts and 20,000 samples
        out = harmonic_search(0.45 * PI, 5, azimuthal_only=True)
        assert out.evaluations == 1451
        assert out.objective_value == -0.18133

    @pytest.mark.loop_dependent
    def test_full_m_search_is_pinned(self):
        # the all-m branch (Cartesian partner axes, 10 modes) at the
        # default seed and 20,000 samples
        out = harmonic_search(0.3 * PI, 3, restarts=3, max_iter=150)
        assert out.evaluations == 1043
        assert out.objective_value == -0.38148

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            SearchOutcome(((1, 0, 1.0),), 0.3, -1.5, 0.01, 10, 0, 1, 1)


def test_search_report_layout():
    out = harmonic_search(
        0.3 * PI, 1, restarts=2, plan=SamplingPlan(5, 5_000), azimuthal_only=True
    )
    payload = json.loads(search_report_json(out))
    assert set(payload) == {
        "theta_over_pi",
        "L_max",
        "best_coefficients",
        "objective",
        "objective_stderr",
        "evaluations",
        "seed",
    }
    assert payload["L_max"] == 1
    assert payload["seed"] == 5
    assert payload["best_coefficients"][0]["l"] == 1
    assert payload["theta_over_pi"] == pytest.approx(0.3, abs=1e-12)


def nelder_mead_objective(kind, dim):
    """A smooth objective, the same rounded to steps of 1/16, or a
    fraction of 512 sign disagreements, which ties as the search's does."""
    rng = np.random.default_rng(dim)
    centre, weights = rng.standard_normal(dim), rng.uniform(0.5, 2.0, dim)
    a, b = rng.standard_normal((2, 512, dim))
    smooth = lambda x: float(np.sum(weights * (x - centre) ** 2))
    return {
        "smooth": smooth,
        "rounded": lambda x: round(16 * smooth(x)) / 16,
        "signs": lambda x: np.count_nonzero((a @ x >= 0) != (b @ x >= 0)) / 512,
    }[kind]


# 12 steps stop every run of dimension 3 or more at max_iter; with 3000
# the runs stop on the tolerances, except the smooth ones in 21 and 25
# dimensions
@pytest.mark.loop_dependent
@pytest.mark.parametrize("max_iter", [12, 3000])
@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("kind", ["smooth", "rounded", "signs"])
@pytest.mark.parametrize("dim", [2, 3, 8, 21, 25])
def test_nelder_mead_is_scipys_bit_for_bit(dim, kind, adaptive, max_iter):
    from scipy.optimize import minimize

    objective = nelder_mead_objective(kind, dim)
    x0 = np.random.default_rng(100 + dim).standard_normal(dim)
    x0[dim // 2] = 0.0  # a zero coordinate starts its own simplex step
    calls = {"ours": [], "scipy": []}

    def counted(side):
        def f(x):
            calls[side].append(x.tobytes())
            return objective(x)

        return f

    x, fun = search._nelder_mead(counted("ours"), x0, max_iter, adaptive)
    options = {
        "maxiter": max_iter,
        "xatol": search.XATOL,
        "fatol": search.FATOL,
        "adaptive": adaptive,
    }
    ref = minimize(counted("scipy"), x0, method="Nelder-Mead", options=options)
    assert calls["ours"] == calls["scipy"]
    assert x.tobytes() == ref.x.tobytes()
    assert fun == ref.fun


# two chunks, the second one short
TWO_CHUNKS = SamplingPlan(29, 3000, chunk_size=2048)
ALL_M_L3 = [(l, m) for l in (1, 3) for m in range(-l, l + 1)]


def unit_colouring(modes, vector):
    """The unit coefficient vector of ``vector`` and its colouring."""
    c = np.asarray(vector, dtype=float)
    c = c / np.linalg.norm(c)
    return c, HarmonicColouring(tuple((l, m, float(v)) for (l, m), v in zip(modes, c)))


def side_by_side(draws, c, theta):
    """The axes of ``c`` at alice's points and, beside them, at bob's at
    theta, as ``search._RowStack`` keeps them."""
    return np.concatenate([draws.axes(c, t) for t in (0.0, theta)], axis=-1)


def mc_value(h, theta, plan=TWO_CHUNKS):
    return correlation_mc(ColouringPair.anticorrelated(h), theta, plan)[0]


@pytest.mark.parametrize(
    "modes, vectors",
    [
        ([(1, 0), (3, 0), (5, 0)], [(0.3, -0.9, 0.5)]),
        ([(1, 0), (3, 0), (5, 0)], np.random.default_rng(3).standard_normal((3, 3))),
        (ALL_M_L3, np.random.default_rng(4).standard_normal((3, len(ALL_M_L3)))),
        ([(1, -1), (1, 0), (1, 1), (3, 2)], [(0.0, 0.4, -0.2, 0.7)]),
        ([(1, 0), (3, 0), (5, 0)], [(0.3, -0.0, -0.5)]),
    ],
    ids=[
        "azimuthal",
        "azimuthal_random",
        "all_m_lmax3",
        "zero_coefficient",
        "negative_zero_coefficient",
    ],
)
def test_cached_objective_is_correlation_mc(modes, vectors):
    theta = 0.35 * PI
    cached = common_random_correlation(theta, modes, TWO_CHUNKS)
    for v in vectors:
        c, h = unit_colouring(modes, v)
        assert cached(c) == mc_value(h, theta)


def test_cached_objective_reuses_its_buffers_safely():
    # A, B, A: nothing of one call's float32 sums leaks into the next
    theta = 0.3 * PI
    vectors = np.random.default_rng(8).standard_normal((2, len(ALL_M_L3)))
    cached = common_random_correlation(theta, ALL_M_L3, TWO_CHUNKS)
    (a, ha), (b, hb) = (unit_colouring(ALL_M_L3, v) for v in vectors)
    values = [cached(a), cached(b), cached(a)]
    assert values == [mc_value(ha, theta), mc_value(hb, theta), mc_value(ha, theta)]
    assert values[0] != values[1]


def test_planted_near_zero_amplitudes_are_reread_in_float64(monkeypatch):
    # a vector orthogonal, up to rounding, to six points' columns of
    # basis values puts their amplitudes far inside the float32 bound,
    # where the float32 signs are noise: only the float64 re-read gives
    # the six signs the Monte Carlo reader takes
    theta = 0.3 * PI
    draws = next(TWO_CHUNKS.draws())
    basis = HarmonicColouring(tuple((l, m, 1.0) for l, m in ALL_M_L3))
    points = [5, 311, 1500, 2048 + 5, 2048 + 700, 2048 + 2047]  # alice's, bob's
    rows = np.array([row for _, _, row in basis.rows(side_by_side(draws, basis, theta))])
    q, _ = np.linalg.qr(rows[:, points])
    v = np.random.default_rng(12).standard_normal(len(ALL_M_L3))
    c, h = unit_colouring(ALL_M_L3, v - q @ (q.T @ v))
    planted = h.amplitude(side_by_side(draws, h, theta))[points]
    assert np.all(np.abs(planted) < 1e-14)
    cached = common_random_correlation(theta, ALL_M_L3, TWO_CHUNKS)
    reread = search._RowStack.reread
    seen = []

    def recording(stack, c, idx):
        seen.append((stack.size, idx.tolist()))
        return reread(stack, c, idx)

    monkeypatch.setattr(search._RowStack, "reread", recording)
    assert cached(c) == mc_value(h, theta)
    first_chunk = [p for size, idx in seen if size == 2048 for p in idx]
    assert set(points) <= set(first_chunk)


@pytest.mark.parametrize("modes", [[(1, 0), (3, 0), (5, 0), (7, 0)], ALL_M_L3])
def test_float32_amplitude_is_within_the_stated_bound(modes):
    theta = 0.4 * PI
    rng = np.random.default_rng(len(modes))
    for draws in SamplingPlan(5, 30_000, chunk_size=20_000).draws():
        stack = search._RowStack(draws, modes, theta)
        basis = HarmonicColouring(tuple((l, m, 1.0) for l, m in modes))
        rows = {(l, m): row for l, m, row in basis.rows(side_by_side(draws, basis, theta))}
        rows64 = np.array([rows[mode] for mode in modes])
        assert np.array_equal(stack.rows, rows64.astype(np.float32))
        assert np.array_equal(stack.row_max, np.abs(rows64).max(axis=1))
        amp = np.empty(stack.rows.shape[1], dtype=np.float32)
        term = np.empty_like(amp)
        K, u = len(modes), 2.0**-24
        # equal entries make max |c| = K^-1/2, below 0.5 for K > 4
        exponents = []
        for v in [*rng.standard_normal((20, len(modes))), np.ones(K)]:
            c, h = unit_colouring(modes, v)
            stack.amplitude(c.astype(np.float32), amp, term)
            # the reader sums c times 2^-e, e the frexp exponent of max |c|;
            # the bound is on the unscaled sum, 2^e times that, exactly
            _, e = math.frexp(np.max(np.abs(c)))
            exponents.append(e)
            exact = np.ldexp(h.amplitude(side_by_side(draws, h, theta)), e)
            error = np.max(np.abs(amp.astype(float) - exact))
            S = float(np.abs(c) @ stack.row_max)
            bound = stack.bound(c)
            assert bound == pytest.approx(
                2 * (K + 3) * u * S + 2.0**-149 * np.sum(stack.row_max + 2.0),
                rel=1e-12,
            )
            assert error <= bound
            # the float32 sum really is float32: the bound is not slack
            # around a float64 sum
            assert error > 0.0
        assert K <= 4 or min(exponents) < 0


def test_float32_bound_floor_covers_subnormal_rows():
    # polar cosines of 1e-45 to 1e-40 put every row in float32's
    # subnormal range, where rounding errs by up to 2^-150 absolutely
    # and the relative term of the bound alone does not hold
    modes = [(1, 0), (3, 0)]
    rng = np.random.default_rng(9)
    z = np.exp(rng.uniform(math.log(1e-45), math.log(1e-40), 2000))
    z *= rng.choice([-1.0, 1.0], z.size)
    draws = Draws(z, rng.uniform(0.0, 2 * PI, z.size), rng.uniform(0.0, 2 * PI, z.size))
    stack = search._RowStack(draws, modes, 0.0)
    amp = np.empty(2 * z.size, dtype=np.float32)
    term = np.empty_like(amp)
    for v in rng.standard_normal((10, 2)):
        c, h = unit_colouring(modes, v)
        stack.amplitude(c.astype(np.float32), amp, term)
        exact = h.amplitude(side_by_side(draws, h, 0.0))
        error = np.max(np.abs(amp.astype(float) - exact))
        bound = stack.bound(c)
        assert error <= bound
        assert error > bound - stack.floor


@pytest.mark.parametrize(
    "modes, terms",
    [
        (
            [(1, -1), (1, 0), (1, 1), (3, 2)],
            ((3, 2, 0.7), (1, 1, -0.2), (1, -1, 0.3), (1, 0, 0.4)),
        ),
        ([(1, 0), (3, 1)], ((1, 0, 0.4), (3, 1, -0.6), (1, 0, -0.55))),
    ],
    ids=["out_of_mode_order", "repeated_mode"],
)
def test_term_order_sum_of_draws_rows_is_correlation_mc(modes, terms):
    # the Monte Carlo reader sums its rows in (l, m) order over one
    # coefficient per mode, whatever order the terms come in and however
    # often a mode repeats; its sum at the axes of every chunk's basis,
    # which the search re-reads, gives it bit for bit
    theta = 0.35 * PI
    basis = HarmonicColouring(tuple((l, m, 1.0) for l, m in modes))
    h = HarmonicColouring(terms)
    total = 0
    for draws in TWO_CHUNKS.draws():
        n = draws.cos_eps.size
        plus = h.amplitude(side_by_side(draws, basis, theta)) >= 0.0
        total += 2 * int(np.count_nonzero(plus[:n] != plus[n:])) - n
    assert total / TWO_CHUNKS.n_samples == mc_value(h, theta)


def test_cached_objective_needs_a_row_for_every_term():
    cached = common_random_correlation(0.35 * PI, [(1, 0), (3, 0)], SamplingPlan(29, 100))
    # a zero entry is skipped; a vector of the wrong length, a
    # non-finite one and the zero vector are errors
    assert -1.0 <= cached(np.array([1.0, 0.0])) <= 1.0
    with pytest.raises(ValueError, match="3 coefficients for 2 modes"):
        cached(np.array([1.0, 0.0, 0.2]))
    with pytest.raises(ValueError, match="not finite"):
        cached(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="all coefficients are zero"):
        cached(np.array([0.0, -0.0]))
