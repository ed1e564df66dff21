import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from spherebell import bounds
from spherebell.bounds import (
    BoundReport,
    ChainCorrelations,
    braunstein_caves_value,
    chain_bounds,
    chsh_value,
    lemma1_bounds,
    lemma2_bound,
    lemma3_reflection_angles,
    lemma4_check,
    report_to_json,
    theorem1_bounds,
    verify_colouring,
    verify_curve,
)
from spherebell.colourings import BandColouring, make_catalogue
from spherebell.correlation import (
    CorrelationCurve,
    CurvePoint,
    SamplingPlan,
    closed_form,
)
from spherebell.quantum import werner_correlation

PI = math.pi
HALF = math.sqrt(0.5)


class TestChsh:
    def test_algebraic_maximum(self):
        assert chsh_value(1.0, 1.0, 1.0, -1.0) == 4.0

    def test_singlet_optimum(self):
        # octahedral axes: three correlations -cos(pi/4), one -cos(3pi/4)
        value = chsh_value(-HALF, -HALF, -HALF, HALF)
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_uncorrelated_settings(self):
        assert chsh_value(1.0, 1.0, 1.0, 1.0) == 2.0
        assert chsh_value(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chsh_value(1.5, 0.0, 0.0, 0.0)


class TestBraunsteinCaves:
    def test_reduces_to_chsh_at_n2(self):
        chain = ChainCorrelations((1.0, 1.0), (1.0,), -1.0)
        assert braunstein_caves_value(chain) == 4.0
        assert braunstein_caves_value(chain) > 2 * chain.n - 2

    def test_quantum_chain_beats_classical_cap(self):
        # equally spaced settings at pi/2N: every term -cos(pi/2N), the
        # wrap term -cos(pi - pi/2N) = +cos(pi/2N)
        for n in (2, 3, 4, 6):
            c = -math.cos(PI / (2 * n))
            chain = ChainCorrelations((c,) * n, (c,) * (n - 1), -c)
            value = braunstein_caves_value(chain)
            assert value == pytest.approx(2 * n * math.cos(PI / (2 * n)), abs=1e-12)
            assert value > 2 * n - 2

    def test_three_term_example(self):
        chain = ChainCorrelations((-HALF, -HALF, -HALF), (0.0, 0.0), 0.5)
        assert braunstein_caves_value(chain) == pytest.approx(
            3 * HALF + 0.5, abs=1e-12
        )

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            ChainCorrelations((1.0,), (), 0.0)
        with pytest.raises(ValueError):
            ChainCorrelations((1.0, 1.0), (1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            ChainCorrelations((1.0, 2.0), (1.0,), 0.0)


class TestChainLength:
    @pytest.mark.parametrize(
        "theta,n",
        [
            (PI / 4, 2),
            (PI / 12, 6),
            (PI / 2, 2),
            (0.3 * PI, 2),
            (0.24 * PI, 3),
            (PI / 10, 5),
        ],
    )
    def test_values(self, theta, n):
        assert chain_bounds(theta)[0] == n

    def test_boundary_snapping(self):
        # pi/2N computed with rounding noise still picks N, not N+1
        for n in range(2, 9):
            t = PI / (2 * n)
            assert chain_bounds(t * (1.0 - 1e-15))[0] == n
            assert chain_bounds(t)[0] == n

    def test_just_above_boundary_steps_up(self):
        assert chain_bounds(PI / 6 - 1e-6)[0] == 4

    def test_domain(self):
        with pytest.raises(ValueError):
            chain_bounds(0.0)
        with pytest.raises(ValueError):
            chain_bounds(PI / 2 + 0.01)


@pytest.mark.parametrize("n", range(2, 41))
@pytest.mark.parametrize("offset", [0.0, 0.5e-12, -0.5e-12, 2e-12, -2e-12])
def test_pi_over_n_snaps_within_snap(n, offset):
    # within SNAP of pi / (k n) each count is n; farther off, a larger
    # theta gives ceil(pi / k theta) = n and floor = n - 1, a smaller
    # one n + 1 and n
    if abs(offset) < 1e-12:
        ceil, floor = n, n
    else:
        ceil, floor = (n, n - 1) if offset > 0.0 else (n + 1, n)
    assert chain_bounds(PI / (2 * n) + offset)[0] == ceil
    theta = PI / n + offset
    if n >= 3:
        assert lemma2_bound(theta, 0.0) == -1.0 + 2.0 / ceil
    if theta <= PI / 2 + 1e-12:
        assert len(lemma3_reflection_angles(theta)) == floor - 1


class TestTheorem1:
    def test_two_chain_window(self):
        rep = theorem1_bounds(PI / 4)
        assert rep.n_chain == 2
        assert rep.lower == -0.5
        assert rep.upper == 0.5

    def test_six_chain_point(self):
        rep = theorem1_bounds(PI / 12)
        assert rep.n_chain == 6
        assert rep.lower == pytest.approx(-5.0 / 6.0, abs=1e-15)

    def test_right_angle_degenerates(self):
        rep = theorem1_bounds(PI / 2)
        assert (rep.lower, rep.upper) == (0.0, 0.0)

    def test_symmetric_pair(self):
        for theta in np.linspace(0.01 * PI, 0.5 * PI, 40):
            rep = theorem1_bounds(float(theta))
            assert rep.lower == -rep.upper

    def test_hemisphere_touches_lower_bound(self):
        # the flat curve meets -(1 - 1/N) exactly at theta = pi/2N
        for n in range(2, 9):
            t = PI / (2 * n)
            assert abs(closed_form("1", t) - theorem1_bounds(t).lower) <= 1e-15


    def test_chain_bounds_array_is_the_scalar_rule(self):
        # one array call gives, element by element, N = max(2, ceil(pi /
        # 2 theta)) snapped within 1e-12 of pi / 2n and the bound 1 - 1/N,
        # 0 within 1e-12 of pi/2: the rule theorem1_bounds applied one
        # float at a time
        def scalar(t):
            clamped = min(t, PI / 2)
            ratio = PI / (2.0 * clamped)
            nearest = round(ratio)
            snapped = abs(clamped - PI / (2.0 * nearest)) < 1e-12
            n = max(2, nearest if snapped else math.ceil(ratio))
            return n, 0.0 if abs(t - PI / 2) < 1e-12 else 1.0 - 1.0 / n

        thetas = np.concatenate((
            np.linspace(0.001 * PI, 0.5 * PI, 301),
            [PI / (2 * n) * (1.0 - 1e-15) for n in range(2, 41)],
            [PI / (2 * n) + 2e-12 for n in range(2, 41)],
            [PI / 2 - 0.5e-12, PI / 2 + 0.5e-12],
        ))
        chains, uppers = chain_bounds(thetas)
        assert chains.dtype.kind == "i"
        assert list(zip(chains.tolist(), uppers.tolist())) == [
            scalar(t) for t in thetas.tolist()
        ]
        n, upper = chain_bounds(0.3 * PI)
        assert (n.shape, upper.shape) == ((), ())
        with pytest.raises(ValueError, match="theta 0.0 outside"):
            chain_bounds(np.array([0.3, 0.0]))

    def test_right_angle_lower_is_positive_zero(self):
        assert math.copysign(1.0, theorem1_bounds(PI / 2).lower) == 1.0


class TestLemma1:
    def test_anticorrelated(self):
        rep = lemma1_bounds(0.5 * PI, 0.0)
        assert rep.lower == -1.0
        assert rep.upper == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_correlated(self):
        rep = lemma1_bounds(0.5 * PI, 1.0)
        assert rep.lower == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert rep.upper == 1.0

    def test_half_overlap(self):
        rep = lemma1_bounds(0.6 * PI, 0.5)
        assert rep.lower == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert rep.upper == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_domain(self):
        lemma1_bounds(2.0 * PI / 3.0, 0.0)
        with pytest.raises(ValueError):
            lemma1_bounds(0.7 * PI, 0.0)
        with pytest.raises(ValueError):
            lemma1_bounds(0.5 * PI, 1.2)


class TestLemma2:
    @pytest.mark.parametrize(
        "theta,gamma,expected",
        [
            (PI / 4, 0.0, -0.5),
            (PI / 3, 0.0, -1.0 / 3.0),
            (PI / 4, 0.05, -0.6),
            (PI / 5, 0.0, -0.6),
        ],
    )
    def test_values(self, theta, gamma, expected):
        assert lemma2_bound(theta, gamma) == pytest.approx(expected, abs=1e-12)

    def test_window_is_left_closed(self):
        # just below pi/4 the divisor jumps from 4 to 5
        assert lemma2_bound(PI / 4 - 1e-6, 0.0) == pytest.approx(
            -0.6, abs=1e-5
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            lemma2_bound(PI / 2, 0.0)
        with pytest.raises(ValueError):
            lemma2_bound(0.0, 0.0)

    def test_never_undercuts_chain_bound(self):
        # shifted by the overlap the partition bound sits at or above
        # the chain bound: -(1 - 1/N1) <= (-1 + 2/N2 - 2g) + 2g, with
        # equality exactly on even windows N2 = 2 N1
        for theta in np.linspace(0.02 * PI, 0.49 * PI, 97):
            for gamma in (0.0, 0.2, 1.0):
                t1 = theorem1_bounds(float(theta)).lower
                l2 = lemma2_bound(float(theta), gamma)
                assert t1 <= l2 + 2.0 * gamma + 1e-12


# theta in (0, pi/2): a 0.005 pi grid and the angles pi/n
WERNER_THETAS = sorted(
    set(np.linspace(0.0, 0.5 * PI, 101)[1:-1].tolist()) | {PI / n for n in range(3, 9)}
)


def werner_broken_bounds(v, theta):
    """The bounds that the Werner state of visibility v breaks at theta:
    its curve is -v cos(theta), at singlet fidelity r = (3v + 1)/4, and
    gamma = (1 - v)/2, since C(0) = -v."""
    value = werner_correlation((3.0 * v + 1.0) / 4.0, theta)
    gamma = (1.0 - v) / 2.0
    broken = []
    for name, rep in (
        ("theorem1", theorem1_bounds(theta)),
        ("lemma1", lemma1_bounds(theta, gamma)),
    ):
        if not rep.lower <= value <= rep.upper:
            broken.append(name)
    if value < lemma2_bound(theta, gamma):
        broken.append("lemma2")
    return broken


class TestWernerVisibility:
    # Werner states have a local hidden-variable model for every
    # projective measurement up to visibility about 0.68 (Hirsch et al.,
    # Quantum 1, 3 (2017); Designolle et al., arXiv:2302.04721), so no
    # LHV bound may flag a state below it
    @pytest.mark.parametrize("v", [0.5, 0.6, 0.68])
    def test_locally_modelled_states_break_no_bound(self, v):
        assert all(werner_broken_bounds(v, t) == [] for t in WERNER_THETAS)

    def test_chsh_threshold_at_quarter_turn(self):
        # Theorem 1 flags v > (1 - 1/N)/cos(theta), least at pi/4: 1/sqrt(2)
        assert werner_broken_bounds(HALF + 1e-6, PI / 4) == ["theorem1"]
        assert werner_broken_bounds(HALF - 1e-6, PI / 4) == []
        worst = min((1.0 - 1.0 / chain_bounds(t)[0]) / math.cos(t) for t in WERNER_THETAS)
        assert worst == pytest.approx(HALF, abs=1e-12)

    def test_lemma2_threshold_at_quarter_turn(self):
        # Lemma 2 flags v > 2(1 - 1/N)/(1 + cos(theta)): 0.879 at pi/4
        threshold = 2.0 * (1.0 - 1.0 / 4.0) / (1.0 + math.cos(PI / 4))
        assert threshold == pytest.approx(0.87868, abs=1e-5)
        assert "lemma2" in werner_broken_bounds(threshold + 1e-6, PI / 4)
        assert "lemma2" not in werner_broken_bounds(threshold - 1e-6, PI / 4)

    def test_lemma1_flags_no_visibility_up_to_one(self):
        assert all("lemma1" not in werner_broken_bounds(1.0, t) for t in WERNER_THETAS)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_zero_gamma_gives_the_anticorrelated_bounds(self, n):
        # at gamma = 0 Lemma 1 is the triangle bound [-1, 1/3], which the
        # hemisphere meets at 2 pi/3, and Lemma 2 the n-cycle bound
        # -1 + 2/n, which it meets at pi/n
        rep = lemma1_bounds(2.0 * PI / 3.0, 0.0)
        assert (rep.lower, rep.upper) == (-1.0, pytest.approx(1.0 / 3.0, abs=1e-15))
        assert closed_form("1", 2.0 * PI / 3.0) == pytest.approx(rep.upper, abs=1e-12)
        assert lemma2_bound(PI / n, 0.0) == pytest.approx(-1.0 + 2.0 / n, abs=1e-12)
        assert closed_form("1", PI / n) == pytest.approx(-1.0 + 2.0 / n, abs=1e-12)


class TestLemma3:
    def test_three_window(self):
        out = lemma3_reflection_angles(0.3 * PI)
        assert [r.j for r in out] == [1, 2]
        assert out[0].theta_j == pytest.approx(PI / 3 - 0.3 * PI, abs=1e-12)
        assert out[1].theta_j == pytest.approx(0.2 * PI, abs=1e-12)
        assert [r.side for r in out] == ["below", "below"]

    def test_window_edge(self):
        out = lemma3_reflection_angles(PI / 3)
        assert [r.theta_j for r in out] == pytest.approx([0.0, PI / 6], abs=1e-12)
        assert all(r.side == "below" for r in out)

    def test_wide_angle(self):
        out = lemma3_reflection_angles(0.45 * PI)
        assert len(out) == 1
        assert out[0].theta_j == pytest.approx(0.05 * PI, abs=1e-12)
        assert out[0].side == "below"

    def test_above_side_appears(self):
        out = lemma3_reflection_angles(0.22 * PI)
        assert [r.side for r in out] == ["below", "below", "above"]
        assert out[2].theta_j == pytest.approx(0.28 * PI, abs=1e-12)

    def test_side_tags_match_geometry(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(0.03 * PI, 0.49 * PI, 200):
            t = float(theta)
            for r in lemma3_reflection_angles(t):
                assert -1e-12 <= r.theta_j < PI / 2
                if r.side == "below":
                    assert r.theta_j <= t + 1e-9
                else:
                    assert r.theta_j >= t - 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            lemma3_reflection_angles(0.6 * PI)


class TestLemma4:
    def test_interior_value_passes(self):
        assert lemma4_check(PI / 4, -0.5) is True
        assert lemma4_check(0.2 * PI, 0.0) is True

    def test_boundary_value_fails(self):
        assert lemma4_check(PI / 6, -math.cos(PI / 6)) is False
        assert lemma4_check(PI / 6, math.cos(PI / 6)) is False

    def test_domain_excludes_third_turn(self):
        with pytest.raises(ValueError):
            lemma4_check(PI / 3, 0.0)
        with pytest.raises(ValueError):
            lemma4_check(0.0, 0.0)


class TestVerify:
    GRID = [float(t) for t in np.linspace(0.01 * PI, 0.5 * PI, 50)]

    def test_hemisphere_satisfies_everywhere(self):
        reports = verify_colouring(make_catalogue("1"), self.GRID, "closed_form")
        assert reports and all(r.satisfied for r in reports)

    def test_tripole_satisfies_everywhere(self):
        reports = verify_colouring(make_catalogue("3"), self.GRID, "closed_form")
        assert reports and all(r.satisfied for r in reports)

    def test_monte_carlo_never_reports_violation(self):
        reports = verify_colouring(
            make_catalogue("2"),
            [0.1 * PI, 0.3 * PI],
            "mc",
            plan=SamplingPlan(21, 20_000),
        )
        assert all(r.satisfied for r in reports)
        assert {r.status for r in reports} <= {"satisfied", "inconclusive"}

    def test_rejects_one_sided_colouring(self):
        lopsided = BandColouring(((0.0, 0.6 * PI),))
        with pytest.raises(ValueError):
            verify_colouring(lopsided, [0.3 * PI], "quadrature")

    def test_rejects_grid_outside_quadrant(self):
        with pytest.raises(ValueError):
            verify_colouring(make_catalogue("1"), [0.7 * PI], "closed_form")

    @pytest.mark.parametrize("method", ["closed_form", "quadrature", "mc"])
    def test_grid_of_theta_zero_alone_checks_nothing(self, method):
        plan = SamplingPlan(1, 1000) if method == "mc" else None
        assert verify_colouring(make_catalogue("2"), [0.0, 1e-13], method, plan=plan) == []

    def test_chain_bounds_are_one_call_per_curve(self, monkeypatch):
        calls = []
        exact = bounds.chain_bounds

        def counted(theta):
            calls.append(np.shape(theta))
            return exact(theta)

        monkeypatch.setattr(bounds, "chain_bounds", counted)
        grid = np.linspace(0.01 * PI, 0.5 * PI, 50)
        reports = verify_colouring(make_catalogue(3), grid, "closed_form")
        assert calls == [(50,)]
        chain = [r for r in reports if r.source == "theorem1"]
        assert [r.upper for r in chain] == exact(grid)[1].tolist()

    def test_saturation_at_chain_angles(self):
        grid = [PI / 8, 0.2 * PI, PI / 4]
        reports = verify_colouring(make_catalogue("1"), grid, "closed_form")
        chain = {r.theta: r for r in reports if r.source == "theorem1"}
        assert chain[PI / 8].saturated
        assert chain[PI / 4].saturated
        assert not chain[0.2 * PI].saturated

    def test_synthetic_violation_is_flagged(self):
        curve = CorrelationCurve(
            "synthetic", "closed_form", (CurvePoint(0.3 * PI, -0.9),)
        )
        reports = verify_curve(curve)
        assert any(not r.satisfied for r in reports)
        assert all(r.status == "violated" for r in reports if not r.satisfied)

    def test_monte_carlo_violation_is_family_wise(self):
        # m = 166 statistical checks on the 100-point grid (100 chain
        # bounds, 66 quantum sandwiches), so z* = 4.53 stderr; a point
        # 3.5 stderr outside its chain bound was a violation at 3 stderr
        grid = np.linspace(0.005, 0.5, 100) * PI
        sigmas = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 166))
        stderr = 0.01
        # 0.3 pi, 0.4 pi and 0.45 pi have the chain bound 1/2
        planted = {59: 3.5, 79: sigmas + 0.5, 89: sigmas - 0.01}
        points = tuple(
            CurvePoint(float(t), 0.5 + planted[k] * stderr if k in planted else 0.0, stderr)
            for k, t in enumerate(grid)
        )
        reports = verify_curve(CorrelationCurve("planted", "mc", points))
        assert len(reports) == 166
        chain = {k: r for k, r in enumerate(r for r in reports if r.source == "theorem1")}
        assert chain[59].status == "inconclusive" and chain[59].satisfied
        assert chain[79].status == "violated" and not chain[79].satisfied
        assert chain[89].status == "inconclusive" and chain[89].satisfied
        assert [r.status for r in reports if r.status == "violated"] == ["violated"]
        # outside the 3-stderr slack, no planted point touches its bound
        assert not any(chain[k].saturated for k in planted)

    def test_a_lone_monte_carlo_check_has_its_own_threshold(self):
        # one statistical check: z* = 3.29, so 3.5 stderr out is violated
        # and 3.2 stderr out inconclusive
        for sigmas, status in [(3.5, "violated"), (3.2, "inconclusive")]:
            point = CurvePoint(0.4 * PI, 0.5 + sigmas * 0.01, 0.01)
            (report,) = verify_curve(CorrelationCurve("lone", "mc", (point,)))
            assert report.status == status

    def test_hemisphere_monte_carlo_is_rarely_called_violated(self):
        # a correct colouring: at 3 stderr, 16 of these 400 runs reported
        # a violation; the family-wise rule allows about 0.4 of them
        grid = np.linspace(0.005, 0.5, 100) * PI
        hemisphere = make_catalogue("1")

        def violated(seed):
            reports = verify_colouring(hemisphere, grid, "mc", plan=SamplingPlan(seed, 2000))
            return any(r.status == "violated" for r in reports)

        assert sum(violated(10_000 + s) for s in range(400)) <= 2

    @pytest.mark.parametrize("stderr", [math.nan, math.inf, -0.5])
    def test_non_finite_stderr_is_rejected(self, stderr):
        # a nan or inf stderr tests nothing, and a negative one gives the
        # slack 3 * stderr < 0, which made the point a violation: the
        # curve itself refuses all three
        with pytest.raises(ValueError, match="stderr"):
            verify_curve(
                CorrelationCurve("one_sample", "mc", (CurvePoint(0.3 * PI, -1.0, stderr),))
            )

    def test_one_sample_monte_carlo_is_rejected(self):
        with pytest.raises(ValueError, match="stderr"):
            verify_colouring(make_catalogue("2"), [0.3 * PI], "mc", plan=SamplingPlan(1, 1))

    def test_json_shape(self):
        reports = verify_colouring(
            make_catalogue("1"), [PI / 4, 0.4 * PI], "closed_form"
        )
        payload = json.loads(report_to_json("1", "closed_form", reports))
        assert payload["colouring"] == "1"
        assert payload["method"] == "closed_form"
        assert len(payload["grid"]) == 2
        first = payload["grid"][0]
        assert set(first) == {
            "theta_over_pi",
            "value",
            "lower",
            "upper",
            "satisfied",
            "status",
            "saturated",
        }
        assert first["saturated"] is True
        assert all(entry["satisfied"] for entry in payload["grid"])

    def test_json_records_violation(self):
        curve = CorrelationCurve(
            "synthetic", "closed_form", (CurvePoint(0.3 * PI, -0.9),)
        )
        payload = json.loads(report_to_json("synthetic", "closed_form", verify_curve(curve)))
        assert payload["grid"][0]["satisfied"] is False
        assert payload["grid"][0]["status"] == "violated"


class TestBoundReport:
    def test_rejects_inverted_pair(self):
        with pytest.raises(ValueError):
            BoundReport(0.3, 2, 0.5, -0.5, 0.0, True, "theorem1")

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            BoundReport(0.3, 1, -0.5, 0.5, 0.0, True, "theorem1")
