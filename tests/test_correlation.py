import bisect
import functools
import io
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import legendre, polynomial
import arc_integral_oracle
import quadrature_oracle
from closed_form_tables import DEFORMED_DOMAIN, table_value
from scalar_sum_oracle import chi as oracle_chi
from scalar_sum_oracle import exact_value as oracle_value
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from spherebell import correlation
from spherebell.colourings import (
    BandColouring,
    ColouringPair,
    HarmonicColouring,
    colouring_from_spec,
    make_catalogue,
    negate,
)
from spherebell.correlation import (
    ClosedFormDomainError,
    CorrelationCurve,
    CurvePoint,
    GammaEstimate,
    SNAP,
    QuadratureError,
    SamplingPlan,
    _flips_of,
    _quadrature_integrand,
    chi,
    circle_correlation,
    closed_form,
    correlation_mc,
    correlation_mc_grid,
    correlation_quadrature,
    curve_for,
    format_sig,
    gamma_of,
    mixture_correlation,
    read_curve_csv,
    write_curve_csv,
)
from spherebell.geometry import cos_sin, partner_cos_many, partner_frame, partner_many
from spherebell.quantum import singlet_correlation
from spherebell.search import (
    CROSSING_BRACKET,
    DELTA_GRID,
    TWO_DELTA_GRID,
    all_crossings,
    reference_curve,
)

PI = math.pi
HALF_PI = math.pi / 2


def pair_for(label):
    return ColouringPair.anticorrelated(make_catalogue(label))


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(1, 0)
        with pytest.raises(ValueError):
            SamplingPlan(1, 10, chunk_size=0)

    @pytest.mark.parametrize(
        "fields, name",
        [((1, 1e5), "n_samples"), ((1.7, 1000), "master_seed"), ((1, 10, 64.0), "chunk_size")],
    )
    def test_fields_must_be_integers(self, fields, name):
        # SamplingPlan(1, 1e5) used to build and then fail in the
        # estimator with a TypeError; a seed of 1.7 silently ran seed 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            SamplingPlan(*fields)

    def test_numpy_integers_pass(self):
        # harmonic_search derives restart seeds as numpy uint64 values
        seed = np.random.SeedSequence([5]).generate_state(1, dtype=np.uint64)[0]
        plan = SamplingPlan(seed, np.int64(100), np.int32(64))
        assert list(plan.chunks()) == [(0, 64), (1, 36)]
        assert correlation_mc(pair_for(1), 0.3, plan) == correlation_mc(
            pair_for(1), 0.3, SamplingPlan(int(seed), 100, 64)
        )

    def test_chunks_cover_exactly(self):
        plan = SamplingPlan(9, 150_000, chunk_size=65536)
        chunks = list(plan.chunks())
        assert sum(length for _, length in chunks) == 150_000
        assert [i for i, _ in chunks] == [0, 1, 2]

    def test_chunk_rng_is_reproducible(self):
        plan = SamplingPlan(1234, 100)
        a = plan.chunk_rng(0).uniform(size=4)
        b = plan.chunk_rng(0).uniform(size=4)
        c = plan.chunk_rng(1).uniform(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scaled_plan(self):
        plan = SamplingPlan(7, 100, chunk_size=64)
        grown = plan.scaled(10)
        assert grown.n_samples == 1000
        assert grown.master_seed == 7
        assert grown.chunk_size == 64


class TestCorrelationMC:
    def test_zero_at_right_angle(self):
        value, stderr = correlation_mc(pair_for(1), HALF_PI, SamplingPlan(101, 1_000_000))
        assert abs(value) <= 3 * stderr

    def test_hemisphere_at_quarter_turn(self):
        value, stderr = correlation_mc(pair_for(1), PI / 4, SamplingPlan(55, 1_000_000))
        assert abs(value + 0.5) <= 3 * stderr

    def test_identical_colourings_at_zero_angle(self):
        c = make_catalogue(2)
        value, _ = correlation_mc(ColouringPair(c, c), 0.0, SamplingPlan(3, 20_000))
        assert value == 1.0

    def test_bare_colouring_means_anticorrelated_pair(self):
        plan = SamplingPlan(77, 50_000)
        v1, _ = correlation_mc(make_catalogue(3), 0.3 * PI, plan)
        v2, _ = correlation_mc(pair_for(3), 0.3 * PI, plan)
        assert v1 == v2

    def test_repeat_runs_bit_identical(self):
        plan = SamplingPlan(42, 200_000)
        first = correlation_mc(pair_for(3), 0.4, plan)
        second = correlation_mc(pair_for(3), 0.4, plan)
        assert first == second

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            correlation_mc(pair_for(1), -0.2, SamplingPlan(1, 10))
        with pytest.raises(ValueError):
            correlation_mc(pair_for(1), PI + 0.2, SamplingPlan(1, 10))

    def test_monte_carlo_agrees_on_the_reflected_angle(self):
        mc, stderr = correlation_mc(pair_for(3), 0.6 * PI, SamplingPlan(23, 1_000_000))
        assert abs(mc + closed_form("3", 0.4 * PI)) <= 3 * stderr

    def test_antisymmetry_of_monte_carlo_estimates(self):
        plan = SamplingPlan(29, 500_000)
        v1, s1 = correlation_mc(pair_for(2), 0.3 * PI, plan)
        v2, s2 = correlation_mc(pair_for(2), 0.7 * PI, plan.scaled(1))
        assert abs(v1 + v2) <= 3 * math.hypot(s1, s2)


def per_point_mc(pair, theta, plan):
    """The theta-major loop on the angle path, an oracle independent of
    ``SamplingPlan.draws``: every chunk redrawn, eps = arccos of the
    drawn cosine, alice read by ``evaluate_many`` (``unit_vectors`` for
    a harmonic), bob moved from ``np.cos``/``np.sin`` of the angles,
    both evaluated afresh for this theta alone.  Its trig values differ
    from the engine's drawn cosine and its root in the last bit on some
    draws, so equal sums show that no colour moved."""
    total = 0
    for index, length in plan.chunks():
        rng = plan.chunk_rng(index)
        cos_eps = rng.uniform(-1.0, 1.0, length)
        phi = rng.uniform(0.0, 2.0 * PI, length)
        omega = rng.uniform(0.0, 2.0 * PI, length)
        eps = np.arccos(cos_eps)
        a_vals = pair.alice.evaluate_many(eps, phi)
        if pair.bob.is_azimuthal:
            cos_alpha = partner_cos_many(theta, np.cos(eps), np.sin(eps), np.cos(omega))
            b_vals = pair.bob.evaluate_cos(cos_alpha)
        else:
            b_vals = pair.bob.evaluate_vectors(
                partner_many(theta, *partner_frame(*cos_sin(eps, phi, omega)))
            )
        total += int(np.sum(a_vals * b_vals, dtype=np.int64))
    return total / plan.n_samples


class TestGridMC:
    GRID = (0.0, 0.05 * PI, 0.3 * PI, HALF_PI, 0.8 * PI, PI)

    @pytest.mark.parametrize(
        "pair",
        [
            pair_for(2),
            ColouringPair.anticorrelated(make_catalogue("3_delta", delta=-0.03 * PI)),
            ColouringPair.anticorrelated(
                HarmonicColouring(((3, 2, 1.0), (1, 0, 0.5), (5, -1, -0.3)))
            ),
            ColouringPair(
                make_catalogue(3), HarmonicColouring(((1, 1, 1.0), (3, 0, 0.4)))
            ),
            # touching bands at 0.15 pi and a flip at pi/2
            ColouringPair.anticorrelated(
                colouring_from_spec(
                    {"kind": "bands", "bands": [[0.0, 0.15], [0.15, 0.35], [0.5, 0.65]]}
                )
            ),
            ColouringPair(make_catalogue(3), make_catalogue("2_Delta", Delta=0.05 * PI)),
        ],
        ids=[
            "label_2",
            "3_delta",
            "harmonic_m_nonzero",
            "unrelated_bob",
            "touching_bands",
            "band_bob_of_another_set",
        ],
    )
    def test_grid_is_bit_identical_to_per_point_runs(self, pair):
        # 2500 samples in chunks of 1000: the last chunk is short
        plan = SamplingPlan(91, 2500, chunk_size=1000)
        grid = correlation_mc_grid(pair, self.GRID, plan)
        for t, estimate in zip(self.GRID, grid):
            assert estimate[0] == per_point_mc(pair, t, plan)
            assert estimate == correlation_mc(pair, t, plan)

    @pytest.mark.parametrize(
        "pair",
        [
            pair_for(4),
            ColouringPair(
                HarmonicColouring(((1, 1, 1.0), (3, -2, 0.4))),
                make_catalogue("3_delta", delta=0.05),
            ),
            ColouringPair.anticorrelated(
                HarmonicColouring(((5, 0, 1.0), (1, 0, -0.3), (3, 0, 0.6)))
            ),
            ColouringPair(make_catalogue(2), HarmonicColouring(((3, 0, 1.0), (1, 0, 0.45)))),
            ColouringPair.anticorrelated(
                HarmonicColouring(((3, 2, 1.0), (1, 0, 0.5), (5, -1, -0.3), (5, 4, 0.2)))
            ),
            ColouringPair(
                HarmonicColouring(((1, 0, 1.0), (3, 0, -0.5))),
                HarmonicColouring(((1, -1, 0.7), (3, 3, 1.0), (5, 1, 0.25))),
            ),
        ],
        ids=[
            "band_swap",
            "band_bob_unrelated_alice",
            "m0_swap",
            "m0_bob_band_alice",
            "all_m_swap",
            "all_m_bob_m0_alice",
        ],
    )
    def test_drawn_cosine_matches_the_angle_path_oracle(self, pair):
        # 2e5 draws in four chunks: the engine reads cos eps as drawn and
        # sin eps as its root, the oracle the trig of eps = arccos; the
        # integer sums must not move
        plan = SamplingPlan(2718, 200_000, chunk_size=65536)
        grid = correlation_mc_grid(pair, self.GRID, plan)
        for t, estimate in zip(self.GRID, grid):
            assert estimate[0] == per_point_mc(pair, t, plan)

    # 46 distinct thetas, at least EVENT_POINTS_PER_FLIP per flip of
    # every band bob below, unsorted and with GRID's points repeated
    DENSE_GRID = tuple(float(t) for t in np.linspace(0.0, PI, 42)[::-1]) + GRID + GRID[:3]

    @pytest.mark.parametrize(
        "pair",
        [
            pair_for(2),
            ColouringPair.anticorrelated(make_catalogue("3_delta", delta=-0.03 * PI)),
            ColouringPair.anticorrelated(
                colouring_from_spec(
                    {"kind": "bands", "bands": [[0.0, 0.15], [0.15, 0.35], [0.5, 0.65]]}
                )
            ),
            ColouringPair(make_catalogue(3), make_catalogue("2_Delta", Delta=0.05 * PI)),
        ],
        ids=["label_2", "3_delta", "touching_bands", "band_bob_of_another_set"],
    )
    def test_dense_grid_is_bit_identical_to_per_point_runs(self, pair, monkeypatch):
        flips = correlation._event_flips(pair.bob)
        assert len(set(self.DENSE_GRID)) >= correlation.EVENT_POINTS_PER_FLIP * len(flips)
        calls = []
        event_sums = correlation._event_sums
        monkeypatch.setattr(
            correlation,
            "_event_sums",
            lambda *args: calls.append(1) or event_sums(*args),
        )
        plan = SamplingPlan(91, 2500, chunk_size=1000)
        grid = correlation_mc_grid(pair, self.DENSE_GRID, plan)
        assert len(calls) == 3
        for t, estimate in zip(self.DENSE_GRID, grid):
            assert estimate[0] == per_point_mc(pair, t, plan)
            assert estimate == correlation_mc(pair, t, plan)

    def test_mc_curve_is_the_grid(self):
        h = HarmonicColouring(((3, 2, 1.0), (1, 0, 0.5)))
        plan = SamplingPlan(17, 3000, chunk_size=1024)
        curve = curve_for(h, self.GRID, "mc", plan=plan)
        assert [(p.value, p.stderr) for p in curve.points] == correlation_mc_grid(
            h, self.GRID, plan
        )

    def test_theta_validation_covers_the_whole_grid(self):
        with pytest.raises(ValueError):
            correlation_mc_grid(pair_for(1), [0.2, PI + 0.2], SamplingPlan(1, 10))


class TestCorrelationQuadrature:
    def test_hemisphere_at_third_turn(self):
        value = correlation_quadrature(make_catalogue(1), PI / 3, 1e-8)
        assert value == pytest.approx(-1.0 / 3.0, abs=1e-7)

    def test_three_band_matches_monte_carlo(self):
        theta = 0.45 * PI
        quad = correlation_quadrature(make_catalogue(3), theta, 1e-8)
        mc, stderr = correlation_mc(pair_for(3), theta, SamplingPlan(911, 10_000_000))
        assert abs(quad - mc) <= 3 * stderr

    def test_two_band_vanishes_at_right_angle(self):
        value = correlation_quadrature(make_catalogue(2), HALF_PI, 1e-8)
        assert abs(value) <= 1e-6

    def test_theta_domain(self):
        # theta = 0 gives -1 and theta past pi/2 the fold, as in the
        # closed form; only theta outside [0, pi] raises
        one, t = make_catalogue(1), 0.6 * PI
        assert correlation_quadrature(one, 0.0, 1e-8) == -1.0
        assert correlation_quadrature(one, t, 1e-8) == -correlation_quadrature(one, PI - t, 1e-8)
        for bad in (-1e-9, math.nan, PI + 1e-9):
            with pytest.raises(ClosedFormDomainError, match=r"outside \[0, pi\]"):
                correlation_quadrature(one, bad, 1e-8)

    def test_non_antipodal_colouring_rejected(self):
        lopsided = BandColouring(((0.0, 0.6 * PI),))
        with pytest.raises(ValueError):
            correlation_quadrature(lopsided, 0.3 * PI, 1e-8)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a nan tolerance used to fail every convergence test and read
        # as a numerical failure
        with pytest.raises(ValueError, match="quadrature tolerance"):
            correlation_quadrature(make_catalogue(3), 0.3 * PI, tol)

    def test_non_azimuthal_colouring_rejected(self):
        h = HarmonicColouring(((3, 2, 1.0),))
        with pytest.raises(ValueError):
            correlation_quadrature(h, 0.3 * PI, 1e-8)

    def test_accepts_anticorrelated_pair(self):
        v1 = correlation_quadrature(pair_for(2), 0.3 * PI, 1e-8)
        v2 = correlation_quadrature(make_catalogue(2), 0.3 * PI, 1e-8)
        assert v1 == v2

    def test_azimuthal_harmonic_against_monte_carlo(self):
        # edges found by scanning the sign of the Legendre sum
        h = HarmonicColouring(((3, 0, 1.0), (1, 0, 0.4)))
        theta = 0.35 * PI
        quad = correlation_quadrature(h, theta, 1e-8)
        mc, stderr = correlation_mc(
            ColouringPair.anticorrelated(h), theta, SamplingPlan(313, 1_000_000)
        )
        assert abs(quad - mc) <= 3 * stderr

    def test_brute_force_double_integral_oracle(self):
        # midpoint rule on a dense grid; the integrand is a +-1 step
        # function, so adaptive rules are hopeless but brute sums work
        c = make_catalogue(2)
        theta = 0.3 * PI
        ct, st = math.cos(theta), math.sin(theta)
        n_eps, n_omega = 3000, 6000
        eps = (np.arange(n_eps) + 0.5) * HALF_PI / n_eps
        omega = (np.arange(n_omega) + 0.5) * PI / n_omega
        eps_g, omega_g = np.meshgrid(eps, omega, indexing="ij")
        alpha = np.arccos(
            np.clip(ct * np.cos(eps_g) - st * np.sin(eps_g) * np.cos(omega_g), -1, 1)
        )
        integrand = (
            np.sin(eps_g)
            * c.evaluate_polar(eps_g)
            * c.evaluate_polar(alpha)
        )
        brute = -np.sum(integrand) * (HALF_PI / n_eps) * (PI / n_omega) / PI
        quad = correlation_quadrature(c, theta, 1e-8)
        assert quad == pytest.approx(brute, abs=2e-3)


class TestChi:
    def test_empty_interval(self):
        assert chi(0.3 * PI, 0.4, 0.4, 0.9) == 0.0

    def test_vanishing_interval_limit(self):
        assert abs(chi(PI / 3, HALF_PI - 1e-6, HALF_PI, HALF_PI)) < 1e-5

    def test_against_fixed_grid_simpson(self):
        theta, a, b, alpha = PI / 4, PI / 4, HALF_PI, HALF_PI
        eps = np.linspace(a, b, 20001)
        arg = np.clip(
            (math.cos(theta) * np.cos(eps) - math.cos(alpha))
            / (math.sin(theta) * np.sin(eps)),
            -1.0,
            1.0,
        )
        simpson = (2.0 / PI) * integrate.simpson(np.sin(eps) * np.arccos(arg), x=eps)
        assert chi(theta, a, b, alpha) == pytest.approx(simpson, abs=1e-7)

    def test_reversed_endpoints_flip_the_sign(self):
        # keep [a, b] inside the window (|alpha-theta|, alpha+theta)
        forward = chi(0.3 * PI, 0.4, 1.2, 0.6)
        assert chi(0.3 * PI, 1.2, 0.4, 0.6) == pytest.approx(-forward, abs=1e-12)

    def test_argument_overflow_raises(self):
        # alpha = pi pushes the arccos argument far beyond the clamp
        with pytest.raises(ValueError):
            chi(0.2, 0.1, 0.2, PI)

    def test_interval_outside_the_window_raises(self):
        theta, alpha = 0.3 * PI, 0.6
        lo, hi = abs(alpha - theta), alpha + theta
        with pytest.raises(ValueError):
            chi(theta, lo - 1e-6, hi, alpha)
        with pytest.raises(ValueError):
            chi(theta, lo, hi + 1e-6, alpha)

    def test_pole_limits(self):
        # alpha = theta puts the window's lower edge on the north pole,
        # alpha + theta = pi its upper edge on the south pole
        assert chi(HALF_PI, 0.0, HALF_PI, HALF_PI) == pytest.approx(
            _chi_mpmath(HALF_PI, 0.0, HALF_PI, HALF_PI), abs=1e-13
        )
        theta, alpha = PI / 3, 2 * PI / 3
        assert chi(theta, PI / 3, PI, alpha) == pytest.approx(
            _chi_mpmath(theta, PI / 3, PI, alpha), abs=1e-13
        )


def _chi_mpmath(theta, a, b, alpha):
    """chi by tanh-sinh quadrature at 30 digits."""
    with mpmath.workdps(30):
        t, al = mpmath.mpf(theta), mpmath.mpf(alpha)

        def integrand(eps):
            u = (mpmath.cos(t) * mpmath.cos(eps) - mpmath.cos(al)) / (
                mpmath.sin(t) * mpmath.sin(eps)
            )
            return mpmath.sin(eps) * mpmath.acos(min(max(u, -1), 1))

        return float(2 / mpmath.pi * mpmath.quad(integrand, [a, b]))


_WINDOW_POINT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    theta=st.floats(1e-3, HALF_PI),
    alpha=st.floats(1e-3, PI - 1e-3),
    u=_WINDOW_POINT,
    v=_WINDOW_POINT,
)
@example(theta=HALF_PI, alpha=0.9 * PI, u=0.0, v=1.0)
@example(theta=0.4 * PI, alpha=0.8 * PI, u=0.3, v=1.0)
@example(theta=HALF_PI, alpha=HALF_PI, u=0.0, v=0.5)
@example(theta=1.0, alpha=1.0, u=1.0, v=6e-144)  # eps far below ulp(theta)
def test_chi_against_mpmath(theta, alpha, u, v):
    # the window [|alpha - theta|, min(alpha + theta, 2 pi - alpha - theta)],
    # its edges included, and alpha + theta > pi among the draws
    lo, hi = abs(alpha - theta), min(alpha + theta, 2 * PI - alpha - theta)
    a, b = lo + u * (hi - lo), lo + v * (hi - lo)
    assert abs(chi(theta, a, b, alpha) - _chi_mpmath(theta, a, b, alpha)) <= 1e-13


CATALOGUE_THETAS = [0.1 * PI, 0.2 * PI, 0.3 * PI, 0.4 * PI, 0.45 * PI]


class TestClosedForm:
    def test_hemisphere_line(self):
        assert closed_form("1", HALF_PI) == pytest.approx(0.0, abs=1e-15)
        assert closed_form("1", PI / 4) == pytest.approx(-0.5, abs=1e-15)
        assert closed_form("1", 0.0) == -1.0

    def test_hemisphere_alias_and_int_label(self):
        assert closed_form("hemisphere", 0.3) == closed_form("1", 0.3)
        assert closed_form(1, 0.3) == closed_form("1", 0.3)

    def test_three_band_against_quadrature(self):
        theta = 0.3 * PI
        quad = correlation_quadrature(make_catalogue(3), theta, 1e-8)
        assert closed_form("3", theta) == pytest.approx(quad, abs=1e-6)

    @pytest.mark.parametrize("label", ["2", "3", "4"])
    @pytest.mark.parametrize("theta", CATALOGUE_THETAS)
    def test_catalogue_agreement_with_quadrature(self, label, theta):
        quad = correlation_quadrature(make_catalogue(label), theta, 1e-8)
        assert abs(closed_form(label, theta) - quad) <= 1e-5

    @pytest.mark.parametrize("label", ["1", "2", "3", "4"])
    @pytest.mark.parametrize("theta", [0.1 * PI, 0.3 * PI, 0.45 * PI])
    def test_catalogue_agreement_with_monte_carlo(self, label, theta):
        mc, stderr = correlation_mc(
            pair_for(label), theta, SamplingPlan(0xC0FFEE, 1_000_000)
        )
        assert abs(closed_form(label, theta) - mc) <= 3 * stderr

    @pytest.mark.parametrize("delta", [-0.03 * PI, 0.03 * PI])
    @pytest.mark.parametrize("theta", [0.35 * PI, 0.42 * PI, 0.48 * PI])
    def test_deformed_family_against_quadrature(self, delta, theta):
        c = make_catalogue("3_delta", delta=delta)
        quad = correlation_quadrature(c, theta, 1e-8)
        assert closed_form("3_delta", theta, delta=delta) == pytest.approx(
            quad, abs=1e-6
        )

    def test_deformation_beats_hemisphere_only_past_the_crossing(self):
        delta = -0.038 * PI
        below = closed_form("3_delta", 0.38 * PI, delta=delta)
        above = closed_form("3_delta", 0.39 * PI, delta=delta)
        assert below > closed_form("1", 0.38 * PI)
        assert above < closed_form("1", 0.39 * PI)

    def test_inline_parameter_label(self):
        direct = closed_form("3_delta", 0.4 * PI, delta=-0.038 * PI)
        inline = closed_form("3_delta:-0.038", 0.4 * PI)
        assert inline == pytest.approx(direct, abs=1e-12)

    def test_theta_outside_half_turn(self):
        # past pi/2 the value is the fold; outside [0, pi] theta is refused
        t = 0.6 * PI
        assert closed_form("3", t) == -closed_form("3", PI - t)
        for bad in (-1e-9, math.nan, PI + 1e-9):
            with pytest.raises(ClosedFormDomainError, match=r"outside \[0, pi\]"):
                closed_form("3", bad)

    def test_shrunk_cap_family_against_quadrature(self):
        for cap in (0.01 * PI, 0.03 * PI, PI / 12):
            c = make_catalogue("2_Delta", Delta=cap)
            for theta in (0.1 * PI, 0.35 * PI, 0.48 * PI):
                quad = correlation_quadrature(c, theta, 1e-10)
                assert abs(closed_form("2_Delta", theta, delta=cap) - quad) <= 1e-9

    def test_deformed_family_below_the_tables_against_quadrature(self):
        for delta in (-PI / 18, -0.03 * PI, 0.03 * PI, PI / 24):
            c = make_catalogue("3_delta", delta=delta)
            for theta in (0.05 * PI, 0.2 * PI, 0.3 * PI):
                quad = correlation_quadrature(c, theta, 1e-10)
                assert abs(closed_form("3_delta", theta, delta=delta) - quad) <= 1e-9

    @pytest.mark.parametrize(
        "colouring",
        [
            HarmonicColouring(((3, 0, 1.0), (1, 0, 0.4))),
            BandColouring(((0.0, 0.3), (0.7, HALF_PI), (PI - 0.7, PI - 0.3))),
            negate(make_catalogue("3")),
        ],
        ids=["m0_harmonic", "bands", "negated"],
    )
    def test_any_antipodal_azimuthal_colouring_against_quadrature(self, colouring):
        for theta in (0.15 * PI, 0.3 * PI, 0.45 * PI):
            quad = correlation_quadrature(colouring, theta, 1e-10)
            assert abs(closed_form(colouring, theta) - quad) <= 1e-9

    def test_touching_bands_are_one_band(self):
        split = BandColouring(((0.0, PI / 8), (PI / 8, PI / 4), (HALF_PI, 3 * PI / 4)))
        assert closed_form(split, 0.3 * PI) == closed_form("2", 0.3 * PI)

    def test_non_antipodal_colouring_has_no_closed_form(self):
        with pytest.raises(ClosedFormDomainError):
            closed_form(BandColouring(((0.0, 0.6 * PI),)), 0.3 * PI)

    def test_deformed_family_needs_delta(self):
        with pytest.raises(ClosedFormDomainError):
            closed_form("3_delta", 0.4 * PI)

    def test_delta_outside_validity_range(self):
        with pytest.raises(ClosedFormDomainError):
            closed_form("3_delta", 0.4 * PI, delta=0.2)

    def test_unknown_label(self):
        with pytest.raises(ClosedFormDomainError):
            closed_form("9", 0.4)


EXACT_ENGINE_CASES = [
    make_catalogue("1"),
    make_catalogue("2"),
    make_catalogue("3"),
    make_catalogue("4"),
    make_catalogue("3_delta", delta=-0.03 * PI),
    make_catalogue("3_delta", delta=0.03 * PI),
    make_catalogue("2_Delta", Delta=0.03 * PI),
    HarmonicColouring(((3, 0, 1.0), (1, 0, 0.4))),
]


@pytest.mark.parametrize("colouring", EXACT_ENGINE_CASES, ids=lambda c: c.label)
def test_closed_form_against_tight_quadrature_on_and_off_the_flips(colouring):
    # theta on a flip makes chi windows and pieces degenerate
    flips = [e for e in colouring.flips[1] if e <= HALF_PI]
    for theta in sorted({0.13 * PI, 0.37 * PI, HALF_PI, *flips}):
        quad = correlation_quadrature(colouring, theta, 1e-11)
        assert abs(closed_form(colouring, theta) - quad) <= 1e-12


@pytest.mark.parametrize("colouring", EXACT_ENGINE_CASES, ids=lambda c: c.label)
def test_closed_form_vanishes_at_right_angle(colouring):
    assert abs(closed_form(colouring, HALF_PI)) <= 1e-14


class TestAgainstPieceTables:
    """The engine against the hand-written piece tables it replaced."""

    @pytest.mark.parametrize("label", ["2", "3", "4"])
    def test_catalogue(self, label):
        for theta in np.linspace(0.0, 0.5, 61)[1:] * PI:
            assert abs(closed_form(label, theta) - table_value(label, theta)) <= 1e-12

    @pytest.mark.parametrize("delta", np.linspace(-PI / 18, PI / 24, 6))
    def test_deformed_family(self, delta):
        for theta in np.linspace(*DEFORMED_DOMAIN, 25):
            engine = closed_form("3_delta", theta, delta=delta)
            assert abs(engine - table_value("3_delta", theta, delta)) <= 1e-12


def _antipodal_bands(north_edges, north_value):
    """The band colouring with the given flips in (0, pi/2), a flip at
    the equator, and the antipodal reflection of it all below."""
    flips = sorted(north_edges) + [HALF_PI] + [PI - e for e in reversed(sorted(north_edges))]
    bounds = [0.0, *flips, PI]
    value = north_value
    plus = []
    for lo, hi in zip(bounds, bounds[1:]):
        if value > 0:
            plus.append((lo, hi))
        value = -value
    return BandColouring(tuple(plus))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    north_edges=st.lists(
        st.floats(0.05, 1.5), max_size=4, unique_by=lambda x: round(x, 1)
    ),
    north_value=st.sampled_from([1, -1]),
    theta=st.floats(0.02, HALF_PI),
)
def test_random_band_sets_against_quadrature(north_edges, north_value, theta):
    colouring = _antipodal_bands(north_edges, north_value)
    quad = correlation_quadrature(colouring, theta, 1e-10)
    assert abs(closed_form(colouring, theta) - quad) <= 1e-9


# The array engine equals the per-theta scalar sum, which takes numpy's
# arctan2 as the engine does, bit for bit where numpy's float64 sin and
# cos round as libm's and its scalar arctan2 calls as its array loop
# (probed here); elsewhere the two may part by a few ulp.
_PROBE = np.linspace(0.0, PI, 1001)
ORACLE_TOL = (
    0.0
    if np.array_equal(np.sin(_PROBE), [math.sin(x) for x in _PROBE])
    and np.array_equal(np.cos(_PROBE), [math.cos(x) for x in _PROBE])
    and np.array_equal(
        np.arctan2(_PROBE, 1.0 - _PROBE),
        [float(np.arctan2(x, 1.0 - x)) for x in _PROBE],
    )
    else 1e-14
)

ARRAY_ENGINE_CASES = EXACT_ENGINE_CASES[1:] + [
    make_catalogue("3_delta", delta=-PI / 18),
    make_catalogue("2_Delta", Delta=PI / 12),
    negate(make_catalogue("4")),
]


def special_thetas(flips):
    """Angles where pieces and runs degenerate: every flip v, v/2, 2v,
    the sums and differences of two flips, pi/2, SNAP and 0."""
    points = {0.0, SNAP, HALF_PI}
    for v in flips:
        points.update((v, 0.5 * v, 2.0 * v))
        for w in flips:
            points.update((v - w, v + w))
    return np.array(sorted(p for p in points if 0.0 <= p <= HALF_PI))


def scalar_sum(colouring, thetas, atan2=np.arctan2):
    """The per-theta scalar sum of ``scalar_sum_oracle`` with the given
    atan2 (the linear law for the hemisphere), as an array of the shape
    of ``thetas``."""
    north, flips = _flips_of(colouring)

    def value(t):
        if t < SNAP:
            return -1.0
        if flips == (HALF_PI,):
            return -(1.0 - 2.0 * t / PI)
        return oracle_value(t, north, flips, atan2)

    thetas = np.asarray(thetas, dtype=float)
    return np.array([value(t) for t in thetas.ravel().tolist()]).reshape(thetas.shape)


def assert_matches_scalar_sum(colouring, thetas):
    """The array call against the float calls (bit for bit) and against
    the per-theta scalar sum."""
    values = closed_form(colouring, thetas)
    assert isinstance(values, np.ndarray) and values.shape == thetas.shape
    oracle = scalar_sum(colouring, thetas)
    for t, value, expected in zip(thetas.tolist(), values.tolist(), oracle.tolist()):
        assert closed_form(colouring, t) == value, t
        assert abs(value - expected) <= ORACLE_TOL, t


class TestArrayEngine:
    @pytest.mark.parametrize("colouring", ARRAY_ENGINE_CASES, ids=lambda c: c.label)
    def test_degenerate_angles_match_the_scalar_sum(self, colouring):
        _, flips = _flips_of(colouring)
        thetas = np.concatenate((special_thetas(flips), np.linspace(0.0, HALF_PI, 97)))
        assert_matches_scalar_sum(colouring, thetas)

    @pytest.mark.parametrize("label", ["2", "3", "4"])
    def test_catalogue_against_piece_tables(self, label):
        thetas = np.linspace(0.0, 0.5, 61)[1:] * PI
        for t, value in zip(thetas, closed_form(label, thetas)):
            assert abs(value - table_value(label, t)) <= 1e-14

    @pytest.mark.parametrize("delta", np.linspace(-PI / 18, PI / 24, 6))
    def test_deformed_family_against_piece_tables(self, delta):
        thetas = np.linspace(*DEFORMED_DOMAIN, 25)
        for t, value in zip(thetas, closed_form("3_delta", thetas, delta=delta)):
            assert abs(value - table_value("3_delta", t, delta)) <= 1e-14

    # one theta inside each of the 15 hand-written pieces
    @pytest.mark.parametrize(
        "label, delta, theta",
        [
            ("2", None, 0.15), ("2", None, 0.4),
            ("3", None, 0.1), ("3", None, 0.2), ("3", None, 0.3), ("3", None, 0.4),
            ("4", None, 0.06), ("4", None, 0.2), ("4", None, 0.3), ("4", None, 0.45),
            ("3_delta", -0.03, 0.345), ("3_delta", -0.03, 0.4), ("3_delta", -0.03, 0.49),
            ("3_delta", 0.02, 0.35), ("3_delta", 0.02, 0.49),
        ],
    )
    def test_piece_tables_summed_over_the_mpmath_chi(self, label, delta, theta):
        delta = None if delta is None else delta * PI
        oracle = table_value(label, theta * PI, delta, chi_fn=_chi_mpmath)
        value = closed_form(label, np.array([theta * PI]), delta=delta)[0]
        assert abs(value - oracle) <= 1e-14

    def test_float_gives_float_and_array_keeps_its_shape(self):
        assert type(closed_form("3", 0.3)) is float
        assert type(closed_form("1", 0.3)) is float
        grid = np.linspace(0.1, 1.4, 6).reshape(2, 3)
        for label in ("1", "3"):
            values = closed_form(label, grid)
            assert values.shape == (2, 3)
            assert values[1, 2] == closed_form(label, float(grid[1, 2]))
        assert closed_form("3", np.array([])).shape == (0,)

    def test_snap_angle_is_evaluated(self):
        # SNAP itself lies past the zero-angle snap, and is a value
        assert closed_form("3", SNAP) == pytest.approx(-1.0, abs=1e-11)
        assert closed_form("3", 0.5 * SNAP) == -1.0

    @pytest.mark.parametrize("bad", [-1e-9, 0.6 * PI, math.nan])
    def test_one_angle_out_of_range_fails_the_array(self, bad):
        if bad == 0.6 * PI:
            # past pi/2 but inside [0, pi]: the array holds its fold
            values = closed_form("3", np.array([0.1, bad, 0.2]))
            assert values[1] == -closed_form("3", PI - bad)
            bad = PI + 1e-9
        with pytest.raises(ClosedFormDomainError, match=r"outside \[0, pi\]"):
            closed_form("3", np.array([0.1, bad, 0.2]))

    def test_array_rows_are_independent(self):
        # a long array runs in blocks; each value is its float's value
        thetas = np.random.default_rng(11).uniform(0.0, HALF_PI, 700)
        values = closed_form("4", thetas)
        assert np.array_equal(values[::-1], closed_form("4", thetas[::-1]))
        assert values[523] == closed_form("4", float(thetas[523]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    theta=st.floats(1e-3, HALF_PI),
    alpha=st.floats(1e-3, PI - 1e-3),
    u=_WINDOW_POINT,
    v=_WINDOW_POINT,
)
def test_chi_is_the_scalar_antiderivative(theta, alpha, u, v):
    # both hemispheres of the window, so the south-pole reflection runs
    lo, hi = abs(alpha - theta), min(alpha + theta, 2 * PI - alpha - theta)
    a, b = lo + u * (hi - lo), lo + v * (hi - lo)
    assert abs(chi(theta, a, b, alpha) - oracle_chi(theta, a, b, alpha)) <= ORACLE_TOL


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    north_edges=st.lists(st.floats(0.02, 1.55), max_size=5, unique=True),
    north_value=st.sampled_from([1, -1]),
    thetas=st.lists(st.floats(0.0, HALF_PI), min_size=1, max_size=30),
)
def test_random_band_sets_match_the_scalar_sum(north_edges, north_value, thetas):
    colouring = _antipodal_bands(north_edges, north_value)
    _, flips = _flips_of(colouring)
    grid = np.concatenate((np.array(thetas), special_thetas(flips)))
    assert_matches_scalar_sum(colouring, grid)


# The sign path: a crossing scan over a colouring reads
# np.sign(closed_form - reference).  The engine takes numpy's arctan2;
# against the scalar sum with libm's atan2 its stated bound is
# K (K + 2) 5e-14 for K flips, and the tests hold it to LIBM_TOL.
LIBM_TOL = 1e-13

SIGN_PATH_FAMILIES = {
    "exact_cases": EXACT_ENGINE_CASES,
    "3_delta": [make_catalogue("3_delta", delta=d) for d in DELTA_GRID],
    "2_Delta": [make_catalogue("2_Delta", Delta=d) for d in TWO_DELTA_GRID],
}


def sign_path_grid(colouring):
    """The crossing scan's grid, an even grid over [0, pi/2] and the
    colouring's degenerate angles."""
    _, flips = _flips_of(colouring)
    return np.concatenate(
        (
            np.linspace(*CROSSING_BRACKET, 400),
            np.linspace(0.0, HALF_PI, 201),
            special_thetas(flips),
        )
    )


def libm_error(colouring, thetas):
    """The largest distance of the closed form from the scalar sum with
    libm's atan2."""
    libm = scalar_sum(colouring, thetas, math.atan2)
    return float(np.max(np.abs(closed_form(colouring, thetas) - libm)))


class TestSignPath:
    @pytest.mark.parametrize("reference", ["c1", "singlet"])
    @pytest.mark.parametrize("colouring", EXACT_ENGINE_CASES, ids=lambda c: c.label)
    def test_sign_path_gives_the_exact_signs(self, colouring, reference):
        # the signs of the values libm's atan2 gives, wherever the
        # stated bound decides them
        thetas = sign_path_grid(colouring)
        ref = reference_curve(reference)(thetas)
        libm = scalar_sum(colouring, thetas, math.atan2)
        k = len(_flips_of(colouring)[1])
        decided = np.abs(libm - ref) > k * (k + 2) * 5e-14
        signs = np.sign(closed_form(colouring, thetas) - ref)
        assert np.array_equal(signs[decided], np.sign(libm - ref)[decided])

    @pytest.mark.parametrize("colouring", EXACT_ENGINE_CASES, ids=lambda c: c.label)
    def test_sign_path_at_its_own_values_reads_no_crossing(self, colouring):
        thetas = sign_path_grid(colouring)
        values = closed_form(colouring, thetas)
        assert not np.sign(values - closed_form(colouring, thetas)).any()
        own = lambda t: closed_form(colouring, t)
        assert all_crossings(colouring, own, CROSSING_BRACKET) == []

    def test_sign_path_takes_floats_and_shapes(self):
        c = make_catalogue("4")
        for t in (0.0, 0.7, HALF_PI):
            value = closed_form(c, t)
            assert value == closed_form(c, np.array([t]))[0]
            assert abs(value - scalar_sum(c, t, math.atan2)) <= LIBM_TOL
        grid = np.linspace(0.1, 1.4, 6).reshape(2, 3)
        assert closed_form(c, grid).shape == (2, 3)
        assert libm_error(c, grid) <= LIBM_TOL
        # a reference that gives one float for the whole array
        level, bracket = lambda t: -0.5, (1e-3, HALF_PI - 1e-4)
        hits = all_crossings(c, level, bracket)
        assert hits and hits == all_crossings(lambda t: closed_form(c, t), level, bracket)

    def test_sign_path_shares_the_domain_errors(self):
        # a scan past pi/2 reads the fold; past pi it raises, as does a
        # colouring with no closed form
        three, c1 = make_catalogue("3"), reference_curve("c1")

        def folded(t):
            return np.where(t > HALF_PI, -closed_form(three, PI - t), closed_form(three, t))

        hits = all_crossings(three, c1, (0.1, 0.6 * PI))
        assert hits == all_crossings(folded, c1, (0.1, 0.6 * PI))
        assert any(hit.theta_star > HALF_PI for hit in hits)
        with pytest.raises(ClosedFormDomainError):
            all_crossings(three, c1, (0.1, PI + 1e-9))
        with pytest.raises(ClosedFormDomainError):
            all_crossings(HarmonicColouring(((1, 1, 1.0),)), c1, CROSSING_BRACKET)

    def test_sign_path_with_many_flips_stays_within_the_bound(self):
        colouring = _antipodal_bands([0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3], 1)
        assert len(_flips_of(colouring)[1]) == 15
        assert libm_error(colouring, sign_path_grid(colouring)) <= LIBM_TOL

    @pytest.mark.parametrize("family", sorted(SIGN_PATH_FAMILIES))
    def test_sign_path_error_is_far_inside_the_margin(self, family):
        # LIBM_TOL is a fraction of the stated bound (1.5e-13 for the
        # hemisphere, 1.75e-12 for the three-band colourings)
        for colouring in SIGN_PATH_FAMILIES[family]:
            thetas = sign_path_grid(colouring)
            assert libm_error(colouring, thetas) <= LIBM_TOL, colouring.label


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    north_edges=st.lists(st.floats(0.02, 1.55), max_size=6, unique=True),
    north_value=st.sampled_from([1, -1]),
    thetas=st.lists(st.floats(0.0, HALF_PI), min_size=1, max_size=30),
)
def test_sign_path_error_on_random_band_sets(north_edges, north_value, thetas):
    colouring = _antipodal_bands(north_edges, north_value)
    _, flips = _flips_of(colouring)
    grid = np.concatenate((np.array(thetas), special_thetas(flips)))
    assert libm_error(colouring, grid) <= LIBM_TOL


class TestCurveFor:
    def test_closed_form_curve_matches_pointwise(self):
        thetas = [0.1 * PI, 0.2 * PI, 0.3 * PI]
        curve = curve_for(make_catalogue(3), thetas, "closed_form")
        assert curve.colouring_label == "3"
        for point, theta in zip(curve.points, thetas):
            assert point.value == closed_form("3", theta)
            assert point.stderr is None

    def test_points_sorted_requirement(self):
        with pytest.raises(ValueError):
            CorrelationCurve(
                "x", "closed_form", (CurvePoint(0.4, 0.0), CurvePoint(0.2, 0.0))
            )

    def test_value_range_requirement(self):
        with pytest.raises(ValueError):
            CorrelationCurve("x", "mc", (CurvePoint(0.2, -1.2, 0.1),))

    def test_method_validation(self):
        with pytest.raises(ValueError):
            curve_for(make_catalogue(1), [0.3], "simpson")

    def test_mc_requires_plan(self):
        with pytest.raises(ValueError):
            curve_for(make_catalogue(1), [0.3], "mc")

    def test_deterministic_methods_need_the_colour_swap_partner(self):
        c = make_catalogue(1)
        with pytest.raises(ValueError):
            curve_for(ColouringPair(c, c), [0.3], "quadrature")


    def test_reflection_beyond_half_turn(self):
        curve = curve_for(make_catalogue(3), [0.3 * PI, 0.7 * PI], "closed_form")
        assert curve.points[1].value == pytest.approx(
            -closed_form("3", 0.3 * PI), abs=1e-12
        )
        quad = curve_for(make_catalogue(3), [0.7 * PI], "quadrature")
        assert quad.points[0].value == pytest.approx(
            -correlation_quadrature(make_catalogue(3), 0.3 * PI, 1e-8), abs=1e-12
        )

    def test_closed_form_grid_is_the_folded_float_calls(self):
        colouring = make_catalogue("3_delta", delta=-0.02 * PI)
        grid = [0.0, 1e-13, 0.2 * PI, HALF_PI, HALF_PI + 1e-13, 0.7 * PI, PI - 1e-13, PI]
        curve = curve_for(colouring, grid, "closed_form")
        expected = [closed_form(colouring, t) for t in grid]
        assert [p.value for p in curve.points] == expected
        assert curve.points[0].value == -1.0 and curve.points[-1].value == 1.0
        with pytest.raises(ValueError):
            curve_for(colouring, [0.2, PI + 1e-9], "closed_form")

    def test_antisymmetric_float_is_its_0d_case(self):
        fold = functools.partial(closed_form, "3")
        for t in (0.0, 0.2 * PI, HALF_PI, 0.7 * PI, PI):
            value = fold(t)
            assert type(value) is float and type(fold(np.float64(t))) is float
            assert value == fold(np.array([t]))[0]
        with pytest.raises(ValueError, match="outside"):
            fold(PI + 1e-9)

    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    @pytest.mark.parametrize("theta", [-0.1, math.nan])
    def test_negative_or_nan_theta_is_rejected(self, method, theta):
        # the quadrature engine used to read theta < SNAP, nan included,
        # as theta = 0 and return -1
        with pytest.raises(ValueError, match=r"outside \[0, pi\]"):
            curve_for(make_catalogue("3"), [theta], method)

    @pytest.mark.parametrize(
        "theta, message",
        [(-0.1, r"theta=-0\.031831\*pi outside \[0, pi\]"), (math.nan, r"theta=nan\*pi")],
    )
    def test_mc_theta_domain_is_in_units_of_pi(self, theta, message):
        with pytest.raises(ValueError, match=message):
            curve_for(make_catalogue("3"), [0.2, theta], "mc", plan=SamplingPlan(1, 100))

    def test_closed_form_uses_the_colouring_not_its_label(self):
        # the label rounds delta to 6 digits: -pi/18 would leave the range
        edge = make_catalogue("3_delta", delta=-PI / 18)
        curve = curve_for(edge, [0.4 * PI], "closed_form")
        assert curve.points[0].value == closed_form(edge, 0.4 * PI)
        inner = make_catalogue("3_delta", delta=-0.0123456789 * PI)
        curve = curve_for(inner, [0.4 * PI], "closed_form")
        assert curve.points[0].value == closed_form(
            "3_delta", 0.4 * PI, delta=-0.0123456789 * PI
        )

    def test_zero_angle_is_exact(self):
        curve = curve_for(make_catalogue(2), [0.0], "quadrature")
        assert curve.points[0].value == -1.0


# A pair passes the deterministic engines only when its second party
# holds the first's colour swap; any other pair is refused, not read as
# the first party alone.
THREE = make_catalogue(3)
NOT_THE_SWAP = [
    ColouringPair(THREE, THREE),
    ColouringPair(THREE, negate(make_catalogue(4))),
    ColouringPair(negate(THREE), negate(THREE)),
]


class TestPairsInDeterministicEngines:
    def test_closed_form(self):
        thetas = np.array([0.1, 0.3, 0.45]) * PI
        value = closed_form(ColouringPair.anticorrelated(THREE), thetas)
        assert np.array_equal(value, closed_form(THREE, thetas))
        for pair in NOT_THE_SWAP:
            with pytest.raises(ClosedFormDomainError, match="colour swap"):
                closed_form(pair, 0.3 * PI)

    def test_quadrature(self):
        pair = ColouringPair.anticorrelated(THREE)
        value = correlation_quadrature(pair, 0.3 * PI)
        assert value == correlation_quadrature(THREE, 0.3 * PI)
        assert value == pytest.approx(0.0503478, abs=1e-7)
        for pair in NOT_THE_SWAP:
            with pytest.raises(ValueError, match="colour swap"):
                correlation_quadrature(pair, 0.3 * PI)

    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_curve_for(self, method):
        pair = ColouringPair.anticorrelated(THREE)
        curve = curve_for(pair, [0.3 * PI, 0.7 * PI], method)
        assert curve == curve_for(THREE, [0.3 * PI, 0.7 * PI], method)
        for pair in NOT_THE_SWAP:
            with pytest.raises(ValueError, match="colour swap"):
                curve_for(pair, [0.3 * PI], method)


@pytest.mark.parametrize(
    "engine, method, blocks",
    [
        (closed_form, "closed_form", "_exact_values"),
        (correlation_quadrature, "quadrature", "_outer_integrals"),
    ],
    ids=["closed_form", "quadrature"],
)
def test_exact_engines_share_one_theta_rule(engine, method, blocks, monkeypatch):
    # one front door: -1 below SNAP, SNAP itself computed, within SNAP
    # past pi/2 clamped to pi/2, farther past it folded by antisymmetry.
    # The quadrature used to raise at theta = 0 and SNAP, and curve_for
    # with it; both engines raised past pi/2.
    computed = []
    inner = getattr(correlation, blocks)

    def spy(t, *args):
        computed.extend(t.tolist())
        return inner(t, *args)

    monkeypatch.setattr(correlation, blocks, spy)
    three = make_catalogue("3")
    thetas = [0.0, 0.5 * SNAP, SNAP, HALF_PI, HALF_PI + 5e-13, PI - SNAP, PI]
    values = engine(three, np.array(thetas)).tolist()
    assert SNAP in computed and min(computed) == SNAP
    assert values == [engine(three, t) for t in thetas]
    assert values[:2] == [-1.0, -1.0]
    assert values[4] == values[3]
    for t, value in zip(thetas[5:], values[5:]):
        assert value == -engine(three, PI - t)
    assert values[-1] == 1.0
    curve = curve_for(three, [SNAP, 0.1], method)
    assert [p.value for p in curve.points] == [values[2], engine(three, 0.1)]
    for pair in NOT_THE_SWAP:
        with pytest.raises(ClosedFormDomainError, match="colour swap"):
            engine(pair, 0.3 * PI)


class TestGamma:
    def test_anticorrelated_pair_has_zero_gamma(self):
        est = gamma_of(pair_for(1), 50_000, np.random.default_rng(5))
        assert est.gamma == 0.0
        assert est.c0_value == -1.0
        assert est.c0_predicted == -1.0

    def test_identical_pair_has_unit_gamma(self):
        c = make_catalogue(1)
        est = gamma_of(ColouringPair(c, c), 50_000, np.random.default_rng(5))
        assert est.gamma == 1.0
        assert est.c0_value == 1.0

    def test_tilted_hemisphere_lune_overlap(self):
        # hemisphere against the colour swap of a copy tilted by pi/6;
        # the disagreement region is a lune of area fraction tilt/pi
        tilt = PI / 6
        tilted = HarmonicColouring(
            ((1, 1, math.sin(tilt)), (1, 0, math.cos(tilt))), label="tilted"
        )
        pair = ColouringPair(make_catalogue(1), negate(tilted))
        est = gamma_of(pair, 400_000, np.random.default_rng(61))
        assert abs(est.gamma - tilt / PI) <= 3 * est.gamma_stderr
        combined = math.hypot(est.c0_stderr, 2.0 * est.gamma_stderr)
        assert abs(est.c0_value - est.c0_predicted) <= 3 * combined

    def test_zero_angle_consistency_via_monte_carlo(self):
        tilt = PI / 6
        tilted = HarmonicColouring(((1, 1, math.sin(tilt)), (1, 0, math.cos(tilt))))
        pair = ColouringPair(make_catalogue(1), negate(tilted))
        est = gamma_of(pair, 200_000, np.random.default_rng(67))
        mc, stderr = correlation_mc(pair, 0.0, SamplingPlan(71, 200_000))
        combined = math.hypot(stderr, 2.0 * est.gamma_stderr)
        assert abs(mc - est.c0_predicted) <= 3 * combined

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            gamma_of(pair_for(1), 0, np.random.default_rng(1))

    TILTED = HarmonicColouring(((1, 1, math.sin(PI / 6)), (1, 0, math.cos(PI / 6))))

    @pytest.mark.parametrize(
        "pair, n, seed, expected",
        [
            (pair_for(1), 50_000, 5, GammaEstimate(0.0, 0.0, -1.0, 0.0)),
            (
                ColouringPair(make_catalogue(1), make_catalogue(1)),
                50_000, 5, GammaEstimate(1.0, 0.0, 1.0, 0.0),
            ),
            (
                ColouringPair(make_catalogue(1), negate(TILTED)), 400_000, 61,
                GammaEstimate(
                    0.16715500000000005, 0.0005899453491108309, -0.668225, 0.0011763043112507417
                ),
            ),
            (
                ColouringPair(make_catalogue(1), negate(TILTED)), 200_000, 67,
                GammaEstimate(
                    0.16569500000000004, 0.0008313848897321866, -0.66799, 0.0016640194242565868
                ),
            ),
        ],
        ids=["anticorrelated", "identical", "tilted-61", "tilted-67"],
    )
    def test_estimates_are_pinned(self, pair, n, seed, expected):
        # the estimates of the cases above when gamma_of read each party
        # by evaluate_many at eps = arccos of the drawn cosine: reading
        # through Draws.colours moved no colour
        assert gamma_of(pair, n, np.random.default_rng(seed)) == expected


class TestMixture:
    def grid_curves(self):
        thetas = [0.1 * PI, 0.3 * PI]
        one = curve_for(make_catalogue(1), thetas, "closed_form")
        three = curve_for(make_catalogue(3), thetas, "closed_form")
        return thetas, one, three

    def test_single_component_identity(self):
        _, one, _ = self.grid_curves()
        mixed = mixture_correlation([(1.0, one)])
        assert mixed.values() == pytest.approx(one.values())

    def test_half_and_half_with_the_colour_swap_cancels(self):
        thetas, one, _ = self.grid_curves()
        swapped = CorrelationCurve(
            "-1", "closed_form", tuple(CurvePoint(p.theta, -p.value) for p in one.points)
        )
        mixed = mixture_correlation([(0.5, one), (0.5, swapped)])
        assert np.allclose(mixed.values(), 0.0, atol=1e-15)

    def test_weighted_sum_arithmetic(self):
        thetas, one, three = self.grid_curves()
        mixed = mixture_correlation([(0.3, one), (0.7, three)])
        expected = 0.3 * closed_form("1", 0.3 * PI) + 0.7 * closed_form("3", 0.3 * PI)
        assert mixed.points[1].value == pytest.approx(expected, abs=1e-12)

    def test_weights_must_sum_to_one(self):
        _, one, three = self.grid_curves()
        with pytest.raises(ValueError):
            mixture_correlation([(0.3, one), (0.6, three)])

    def test_negative_weight_rejected(self):
        _, one, three = self.grid_curves()
        with pytest.raises(ValueError):
            mixture_correlation([(-0.2, one), (1.2, three)])

    def test_mismatched_grids_rejected(self):
        _, one, _ = self.grid_curves()
        other = curve_for(make_catalogue(3), [0.2 * PI, 0.4 * PI], "closed_form")
        with pytest.raises(ValueError):
            mixture_correlation([(0.5, one), (0.5, other)])

    def test_stderr_combines_in_quadrature(self):
        plan = SamplingPlan(83, 40_000)
        thetas = [0.2 * PI]
        a = curve_for(pair_for(1), thetas, "mc", plan=plan)
        b = curve_for(pair_for(3), thetas, "mc", plan=plan)
        mixed = mixture_correlation([(0.4, a), (0.6, b)])
        expected = math.hypot(0.4 * a.points[0].stderr, 0.6 * b.points[0].stderr)
        assert mixed.points[0].stderr == pytest.approx(expected, rel=1e-12)
        assert mixed.method == "mc"


class TestCircleCorrelation:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_perfect_anticorrelation_at_arc_width(self, n):
        assert circle_correlation(n, 2 * PI / n) == -1.0

    def test_half_circle_cases(self):
        assert circle_correlation(1, HALF_PI) == 0.0
        assert circle_correlation(1, PI) == 1.0

    def test_matches_direct_overlap_average(self):
        rng = np.random.default_rng(97)
        eps = rng.uniform(0.0, 2 * PI, 400_000)
        for n, theta in ((3, 0.35), (5, 1.1), (7, 2.6)):
            a = np.where(np.floor(n * eps / PI) % 2 == 0, 1, -1)
            shifted = np.mod(eps + theta, 2 * PI)
            b = -np.where(np.floor(n * shifted / PI) % 2 == 0, 1, -1)
            sampled = float(np.mean(a * b))
            sigma = math.sqrt((1 - sampled**2) / len(eps))
            assert abs(circle_correlation(n, theta) - sampled) <= 4 * sigma + 1e-9

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            circle_correlation(4, 0.3)

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            circle_correlation(3, -0.1)
        with pytest.raises(ValueError):
            circle_correlation(3, 2 * PI + 0.1)


class TestCsvRoundTrip:
    def test_round_trip_preserves_twelve_digits(self):
        plan = SamplingPlan(5, 30_000)
        curve = curve_for(pair_for(2), [0.1 * PI, 0.25 * PI, 0.4 * PI], "mc", plan=plan)
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        buffer.seek(0)
        back = read_curve_csv(buffer)
        assert back.colouring_label == curve.colouring_label
        assert back.method == curve.method
        for orig, copy in zip(curve.points, back.points):
            assert copy.theta == pytest.approx(orig.theta, rel=1e-11)
            assert copy.value == pytest.approx(orig.value, rel=1e-11)
            assert copy.stderr == pytest.approx(orig.stderr, rel=1e-11)

    def test_each_reference_is_called_once_per_curve(self):
        grid = [0.0, 0.2 * PI, 0.6 * PI, PI]
        curve = curve_for(make_catalogue(3), grid, "closed_form")
        calls = {"c1": [], "q": []}

        def spy(name, fn):
            def reference(thetas):
                calls[name].append(thetas)
                return fn(thetas)

            return reference

        buffer = io.StringIO()
        write_curve_csv(
            curve,
            buffer,
            references={
                "c1": spy("c1", lambda t: closed_form("1", t)),
                "q": spy("q", singlet_correlation),
            },
        )
        for name, seen in calls.items():
            assert len(seen) == 1, name
            assert seen[0].tolist() == grid
        rows = [line.split(",") for line in buffer.getvalue().splitlines()[1:]]
        assert [r[5] for r in rows] == ["-1", "-0.6", "0.2", "1"]
        assert [float(r[6]) for r in rows] == [
            float(format_sig(singlet_correlation(t))) for t in grid
        ]

    def test_reference_columns_are_ignored_on_read(self):
        curve = curve_for(make_catalogue(1), [0.2 * PI, 0.3 * PI], "closed_form")
        buffer = io.StringIO()
        write_curve_csv(
            curve, buffer, references={"c1": lambda t: closed_form("1", t)}
        )
        buffer.seek(0)
        header = buffer.readline()
        assert "c1" in header
        buffer.seek(0)
        back = read_curve_csv(buffer)
        assert len(back.points) == 2

    def test_significant_digit_formatting(self):
        assert format_sig(-0.5) == "-0.5"
        assert len(format_sig(1 / 3).replace("0.", "")) == 12


def test_quadrature_error_carries_best_estimate():
    # an impossible tolerance forces the failure path
    with pytest.raises(QuadratureError) as info:
        correlation_quadrature(make_catalogue(3), 0.2 * PI, 1e-16)
    assert info.value.best_estimate == pytest.approx(
        closed_form("3", 0.2 * PI), abs=1e-6
    )


def test_polar_edges_for_bands_and_harmonics():
    assert make_catalogue(2).flips == (1, (PI / 4, HALF_PI, 3 * PI / 4))
    h = HarmonicColouring(((3, 0, 1.0),))
    north, edges = h.flips
    assert north == 1
    # P_3 sign changes at cos eps = +-sqrt(3/5) and 0
    expected = (math.acos(math.sqrt(0.6)), HALF_PI, math.acos(-math.sqrt(0.6)))
    assert np.allclose(edges, expected, atol=1e-9)


def test_polar_edges_resolve_close_harmonic_flips():
    # the m = 0 quintic z (z^2 - r1^2) (z^2 - r2^2), with its two
    # northern flips 0.4 pi / 4096 apart: all five flips are found, and
    # the closed form is that of the band colouring with those edges
    e1, e2 = 1365.3 * PI / 4096, 1365.7 * PI / 4096
    r1, r2 = math.cos(e1), math.cos(e2)
    series = legendre.poly2leg(polynomial.polyfromroots([-r1, -r2, 0.0, r2, r1]))
    h = HarmonicColouring(
        tuple(
            (l, 0, float(c / math.sqrt((2 * l + 1) / (4 * PI))))
            for l, c in enumerate(series)
            if l % 2
        )
    )
    expected = (e1, e2, HALF_PI, PI - e2, PI - e1)
    _, edges = h.flips
    assert len(edges) == 5
    assert np.max(np.abs(np.array(edges) - expected)) <= 1e-12
    bands = BandColouring(((0.0, e1), (e2, HALF_PI), (PI - e2, PI - e1)))
    for theta in (0.1 * PI, 0.3 * PI):
        assert abs(closed_form(h, theta) - closed_form(bands, theta)) <= 1e-11


# The array quadrature integrand against the numpy one of
# tests/arc_integral_oracle.py, which reads colours from
# ``evaluate_polar`` and sums the arcs one by one where the engine sums
# pi a(|theta - eps|) + 2 sum_v s_v omega_v: each of the few omegas in
# a window may round differently and enters the sum twice.  Fed through
# the same engine at the same nodes, the oracle integrand moves C(theta)
# by rounding alone; QUAD_ORACLE_TOL is the bound the tests hold it to.
INTEGRAND_ORACLE_TOL = 16 * math.ulp(PI)
QUAD_ORACLE_TOL = 2e-15

INTEGRAND_CASES = [
    *EXACT_ENGINE_CASES,
    HarmonicColouring(((3, 0, 1.0),)),
    negate(make_catalogue("3")),
    # a band edge at 0.3 that is not a flip
    BandColouring(((0.0, 0.3), (0.3, 0.9), (HALF_PI, PI - 0.9)), label="touching"),
]


def _integrands(colouring, theta):
    """The engine's array integrand at one node, and the oracle's."""
    north, flips = _flips_of(colouring)

    def f(eps):
        return float(_quadrature_integrand(np.array([theta]), np.array([eps]), north, flips)[0])

    return f, arc_integral_oracle.integrand(colouring, theta, north, flips)


def _oracle_integrand(colouring):
    """``arc_integral_oracle.integrand`` of ``colouring`` at every node,
    with the signature of the engine's ``_quadrature_integrand``."""

    def integrand(t, eps, north, flips):
        t, eps = np.broadcast_arrays(t, eps)
        values = [
            arc_integral_oracle.integrand(colouring, theta, north, flips)(e)
            for theta, e in zip(t.ravel().tolist(), eps.ravel().tolist())
        ]
        return np.reshape(values, eps.shape)

    return integrand


@pytest.mark.parametrize("colouring", INTEGRAND_CASES, ids=lambda c: c.label)
class TestScalarIntegrand:
    def test_random_points(self, colouring):
        rng = np.random.default_rng(4242)
        for theta, eps in rng.uniform(0.0, HALF_PI, (300, 2)):
            f, oracle = _integrands(colouring, theta)
            assert abs(f(eps) - oracle(eps)) <= INTEGRAND_ORACLE_TOL

    def test_special_points(self, colouring):
        # eps on a flip, one ulp either side of it, and near 0 and pi/2.
        # On a flip (a null set of the outer integral) the oracle reads
        # the colouring's tie-break and the array integrand the colour
        # above the flip.  An m = 0 harmonic's flips are Legendre roots
        # good to rounding, so one ulp off a flip its sign may also
        # disagree with the parity.  Elsewhere the colours agree.
        north, flips = _flips_of(colouring)
        points = [x for v in flips for x in (math.nextafter(v, 0.0), v, math.nextafter(v, PI))]
        points += [1e-300, 1e-15, 1e-9, HALF_PI - 1e-9, math.nextafter(HALF_PI, 0.0), HALF_PI]
        for theta in (0.3 * PI, HALF_PI):
            f, oracle = _integrands(colouring, theta)
            for eps in points:
                if eps > HALF_PI:
                    continue
                parity = north * (-1) ** bisect.bisect_right(flips, eps)
                fix = parity * int(colouring.evaluate_polar(np.array([eps]))[0])
                if eps not in flips and not isinstance(colouring, HarmonicColouring):
                    assert fix == 1
                assert abs(f(eps) - fix * oracle(eps)) <= INTEGRAND_ORACLE_TOL

    def test_collapsed_circle(self, colouring):
        # sin(theta) sin(eps) < 1e-14: the partner circle is one point
        f, oracle = _integrands(colouring, 0.3 * PI)
        for eps in (0.0, 1e-300, 5e-15):
            assert f(eps) == oracle(eps)

    def test_quadrature_against_the_oracle_integrand(self, colouring, monkeypatch):
        thetas = (0.05 * PI, 0.2 * PI, 0.37 * PI, HALF_PI)
        values = [correlation_quadrature(colouring, t, 1e-8) for t in thetas]
        monkeypatch.setattr(correlation, "_quadrature_integrand", _oracle_integrand(colouring))
        for theta, value in zip(thetas, values):
            oracle = correlation_quadrature(colouring, theta, 1e-8)
            assert abs(value - oracle) <= QUAD_ORACLE_TOL


def test_one_ulp_arc_is_coloured_by_parity():
    # theta = pi/4 and eps one ulp above the flip 3pi/8 put theta + eps
    # one ulp above the flip 5pi/8, so the first inner arc spans one ulp
    # of alpha and ~2.6e-8 of omega.  The oracle's midpoint of that arc
    # rounds onto 5pi/8 and reads the closed band edge's +1; the array
    # integrand reads the arc's colour, -1, from the flip parity.
    colouring = make_catalogue("4")
    theta, eps = PI / 4, math.nextafter(3 * PI / 8, PI)
    f, oracle = _integrands(colouring, theta)
    x = math.cos(theta) * math.cos(eps)
    first_arc = math.acos((x - math.cos(5 * PI / 8)) / (math.sin(theta) * math.sin(eps)))
    assert 1e-8 < first_arc < 1e-7
    # a(eps) = -1, so the arc's colour moves the integrand by
    # sin(eps) * (-1) * (-1 - 1) * first_arc
    expected = 2 * math.sin(eps) * first_arc
    assert abs((f(eps) - oracle(eps)) - expected) <= INTEGRAND_ORACLE_TOL


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    north_edges=st.lists(
        st.floats(0.05, 1.5), max_size=4, unique_by=lambda x: round(x, 1)
    ),
    north_value=st.sampled_from([1, -1]),
    theta=st.floats(0.02, HALF_PI),
)
def test_random_band_sets_against_the_oracle_integrand(north_edges, north_value, theta):
    colouring = _antipodal_bands(north_edges, north_value)
    value = correlation_quadrature(colouring, theta, 1e-10)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation, "_quadrature_integrand", _oracle_integrand(colouring))
        oracle = correlation_quadrature(colouring, theta, 1e-10)
    assert abs(value - oracle) <= QUAD_ORACLE_TOL


@pytest.mark.parametrize("colouring", INTEGRAND_CASES, ids=lambda c: c.label)
def test_array_engine_against_the_quadpack_oracle(colouring):
    # each engine lies within tol / pi of C, so the two within 2 tol / pi
    tol = 1e-10
    flips = [v for v in _flips_of(colouring)[1] if v <= HALF_PI]
    thetas = np.array(sorted({0.05 * PI, 0.2 * PI, 0.37 * PI, HALF_PI, *flips}))
    values = correlation_quadrature(colouring, thetas, tol)
    for theta, value in zip(thetas.tolist(), values.tolist()):
        oracle = quadrature_oracle.correlation_quadrature(colouring, theta, tol)
        assert abs(value - oracle) <= 2 * tol / PI, theta


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    north_edges=st.lists(
        st.floats(0.05, 1.5), max_size=7, unique_by=lambda x: round(x, 1)
    ),
    north_value=st.sampled_from([1, -1]),
    theta=st.floats(0.02, HALF_PI),
    pick=st.integers(0, 400),
    tol=st.sampled_from([1e-4, 1e-8, 1e-11]),
)
def test_quadrature_lies_within_its_estimate(north_edges, north_value, theta, pick, tol):
    # theta is drawn or a tangency: at theta = |v +- w| a window edge
    # theta + v, theta - v or v - theta of flip v falls on flip w, and
    # at theta = v the window of v opens at the pole; both put a piece's
    # end on a flip
    colouring = _antipodal_bands(north_edges, north_value)
    north, flips = _flips_of(colouring)
    tangencies = {t for v in flips for w in flips for t in (abs(v - w), v + w)}
    candidates = [theta, *sorted(t for t in tangencies | set(flips) if SNAP < t <= HALF_PI)]
    theta = candidates[pick % len(candidates)]
    integral, estimate = correlation._outer_integrals(np.array([theta]), north, flips, tol)
    value = -integral[0] / PI
    assert estimate[0] <= tol
    assert value == correlation_quadrature(colouring, theta, tol)
    assert abs(value - closed_form(colouring, theta)) <= estimate[0] / PI + 1e-13


class TestQuadratureArrays:
    @pytest.mark.parametrize(
        "colouring",
        [make_catalogue("4"), make_catalogue("3_delta", delta=0.03 * PI), EXACT_ENGINE_CASES[-1]],
        ids=lambda c: c.label,
    )
    def test_array_is_its_float_calls(self, colouring):
        # shuffled, with repeats, over more than one block of rows
        _, flips = _flips_of(colouring)
        base = [*np.linspace(0.01, 0.5, 30) * PI, *(v for v in flips if v <= HALF_PI)]
        thetas = np.random.default_rng(27).permutation(base + base[:7])
        values = correlation_quadrature(colouring, thetas, 1e-10)
        assert isinstance(values, np.ndarray) and values.shape == thetas.shape
        for theta, value in zip(thetas.tolist(), values.tolist()):
            assert correlation_quadrature(colouring, theta, 1e-10) == value
        square = correlation_quadrature(colouring, thetas[:36].reshape(6, 6), 1e-10)
        assert np.array_equal(square, values[:36].reshape(6, 6))
        assert type(correlation_quadrature(colouring, thetas[0], 1e-10)) is float

    def test_a_theta_out_of_subdivisions_fails_the_array(self, monkeypatch):
        # a rapid oscillation at one theta, which no piece resolves
        bad = 0.2 * PI
        integrand = correlation._quadrature_integrand

        def noisy(t, eps, north, flips):
            noise = np.where(t == bad, 1e-6 * np.sin(1e9 * eps), 0.0)
            return integrand(t, eps, north, flips) + noise

        monkeypatch.setattr(correlation, "_quadrature_integrand", noisy)
        three = make_catalogue("3")
        with pytest.raises(QuadratureError) as alone:
            correlation_quadrature(three, bad, 1e-8)
        with pytest.raises(QuadratureError, match="did not converge") as inside:
            correlation_quadrature(three, np.array([0.1 * PI, bad, 0.3 * PI]), 1e-8)
        assert inside.value.best_estimate == alone.value.best_estimate
        assert inside.value.abserr == alone.value.abserr > 1e-8
        assert abs(alone.value.best_estimate - closed_form("3", bad)) <= 1e-6

    def test_array_messages_are_the_float_messages(self):
        three = make_catalogue("3")
        # 0 and 0.6 pi lie inside [0, pi]: -1 and the fold
        values = correlation_quadrature(three, np.array([0.3, 0.0, 0.6 * PI]))
        assert values.tolist() == [
            correlation_quadrature(three, 0.3), -1.0, -correlation_quadrature(three, PI - 0.6 * PI)
        ]
        for bad in (-1e-9, math.nan, PI + 1e-9):
            with pytest.raises(ClosedFormDomainError) as single:
                correlation_quadrature(three, bad)
            with pytest.raises(ClosedFormDomainError) as inside:
                correlation_quadrature(three, np.array([0.3, bad, -1.0]))
            assert str(inside.value) == str(single.value)
            assert str(single.value) == f"theta={bad / PI:g}*pi outside [0, pi]"
        with pytest.raises(ValueError, match=r"^quadrature tolerance nan must be finite"):
            correlation_quadrature(three, np.array([0.3]), math.nan)


def test_quadrature_reads_colours_from_the_flips(monkeypatch):
    # the integrand decides colours by flip parity: evaluate_polar runs
    # only in _flips_of (at most three calls, none once cached), never
    # at the nodes of the outer integral
    calls = []
    evaluate_polar = BandColouring.evaluate_polar

    def counted(self, eps):
        calls.append(np.size(eps))
        return evaluate_polar(self, eps)

    nodes = []
    integrand = correlation._quadrature_integrand

    def counted_integrand(t, eps, *args):
        nodes.append(np.size(eps))
        return integrand(t, eps, *args)

    monkeypatch.setattr(BandColouring, "evaluate_polar", counted)
    monkeypatch.setattr(correlation, "_quadrature_integrand", counted_integrand)
    correlation_quadrature(make_catalogue("4"), 0.3 * PI)
    assert len(calls) <= 3
    assert sum(nodes) > 100


# ---------------------------------------------------------------------------
# The event path of correlation_mc_grid (band bobs on dense grids)


@st.composite
def band_colourings(draw):
    """A band colouring, antipodal or not: up to four bands on sorted
    distinct edges, each band touching the one before it or not."""
    edges = sorted(
        draw(st.lists(st.floats(0.02, PI - 0.02), min_size=1, max_size=8, unique=True))
    )
    points = [0.0, *edges, PI] if draw(st.booleans()) else edges
    bands, k = [], draw(st.integers(0, 1))
    while k + 1 < len(points) and len(bands) < 4:
        bands.append((points[k], points[k + 1]))
        k += draw(st.sampled_from([1, 2]))
    if not bands:
        bands = [(0.0, edges[0])]
    return BandColouring(tuple(bands))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    alice=band_colourings(),
    bob=band_colourings(),
    relation=st.sampled_from(["swap", "unrelated", "negated_unrelated"]),
    extra=st.integers(0, 12),
    seed=st.integers(0, 2**32),
)
def test_event_path_is_bit_identical_to_per_theta_runs(alice, bob, relation, extra, seed):
    if relation == "swap":
        pair = ColouringPair.anticorrelated(alice)
    else:
        pair = ColouringPair(alice, negate(bob) if relation == "negated_unrelated" else bob)
    flips = correlation._event_flips(pair.bob)
    assume(flips)
    # 0, pi/2, pi, every flip angle itself, and a dense enough linspace,
    # shuffled, with duplicates
    on_flips = [math.acos(c) for c, _ in flips]
    count = correlation.EVENT_POINTS_PER_FLIP * len(flips) + extra
    rng = np.random.default_rng(seed)
    grid = [0.0, HALF_PI, PI, *on_flips, *np.linspace(0.0, PI, count).tolist()]
    grid += rng.choice(grid, 5).tolist()
    rng.shuffle(grid)
    assert len(set(grid)) >= correlation.EVENT_POINTS_PER_FLIP * len(flips)
    plan = SamplingPlan(seed, 2100, chunk_size=1024)
    estimates = correlation_mc_grid(pair, grid, plan)
    assert estimates == [correlation_mc(pair, t, plan) for t in grid]


def test_event_path_falls_back_sample_by_sample(monkeypatch):
    # margins wide enough that most samples miss the certificate: the
    # per-theta fallback must give the same integers
    pair = ColouringPair(make_catalogue(3), negate(make_catalogue(4)))
    grid = np.linspace(0.0, PI, 60).tolist()
    plan = SamplingPlan(5, 3000, chunk_size=1024)
    expected = [correlation_mc(pair, t, plan) for t in grid]
    assert correlation_mc_grid(pair, grid, plan) == expected
    monkeypatch.setattr(correlation, "EVENT_TAU", 0.02)
    monkeypatch.setattr(correlation, "EVENT_SIGMA", 0.1)
    assert correlation_mc_grid(pair, grid, plan) == expected


def test_pole_hugging_bands_flip_at_their_ends():
    # band ends within EDGE_TOL of a pole are flips for the exact
    # engines as for the event path: the record keeps them, and the
    # colouring is the hemisphere up to two slivers of 5e-10
    c = BandColouring(((0.0, 5e-10), (HALF_PI, PI - 5e-10)))
    assert _flips_of(c) == (1, (5e-10, HALF_PI, PI - 5e-10))
    north, flips = _flips_of(c)
    events = correlation._event_flips(c)
    assert [v for v, _ in events] == [math.cos(v) for v in flips]
    assert [j for _, j in events] == [-2 * north * (-1) ** i for i in range(3)]
    t = np.linspace(0.0, HALF_PI, 9)
    assert np.max(np.abs(closed_form(c, t) + (1.0 - 2.0 * t / PI))) <= 1e-13


def test_band_flips_read_the_jumps():
    # touching bands at 0.15 pi carry no flip; a colour swap negates jumps
    c = BandColouring(((0.0, 0.15 * PI), (0.15 * PI, 0.35 * PI), (0.5 * PI, 0.65 * PI)))
    flips = correlation._event_flips(c)
    assert [round(math.acos(v) / PI, 12) for v, _ in flips] == [0.35, 0.5, 0.65]
    assert [j for _, j in flips] == [-2, 2, -2]
    assert [j for _, j in correlation._event_flips(negate(c))] == [2, -2, 2]
    assert correlation._event_flips(HarmonicColouring(((1, 0, 1.0),))) is None
    # the exact engines read the same flips, with the north value that
    # sets the first jump
    three = make_catalogue(3)
    north, exact = correlation._flips_of(three)
    events = correlation._event_flips(three)
    assert [math.acos(v) for v, _ in events] == pytest.approx(exact, abs=1e-12)
    assert events[0][1] == -2 * north


class _ShapeSpy:
    """A bob that records the shape of every ``evaluate_cos`` input."""

    is_azimuthal = True

    def __init__(self, inner):
        self.inner = inner
        self.shapes = []

    def evaluate_cos(self, x):
        self.shapes.append(np.shape(x))
        return self.inner.evaluate_cos(x)


def test_event_path_certifies_crossings_on_grid_thetas():
    # grid thetas placed on the crossing times of some samples, samples
    # that cross a flip at theta = 0 itself (alice's polar cosine on a
    # flip's cosine), whose other crossing time may wrap to 2 pi, and
    # samples that graze a flip (R within EVENT_SIGMA of |cos v|): the
    # per-theta colours there are decided by rounding, which the event
    # times cannot see, so only the certificate's fallback, one
    # (grid x samples) broadcast, keeps the sums exact
    bob = negate(make_catalogue(2))
    flips = correlation._event_flips(bob)
    rng = np.random.default_rng(3)
    n = 400
    cos_eps = rng.uniform(-1.0, 1.0, n)
    cos_eps[: n // 4] = [flips[k % len(flips)][0] for k in range(n // 4)]
    cos_omega = np.cos(rng.uniform(0.0, 2.0 * PI, n))
    # grazes: cos omega = 0 makes R = |cos eps|, within 3e-7 of |cos v|
    graze = np.arange(n // 2, n // 2 + 3 * len(flips))
    cos_omega[graze] = 0.0
    cos_eps[graze] = [
        flips[k % len(flips)][0] + (k // len(flips) - 1) * 3e-7 for k in range(graze.size)
    ]
    draws = correlation.Draws(cos_eps, np.zeros(n), np.zeros(n))
    draws.cos_omega = cos_omega
    trig = draws.cos_eps, draws.sin_eps, draws.cos_omega
    y = trig[1] * trig[2]
    r, psi = np.hypot(trig[0], y), np.arctan2(y, trig[0])
    assert all(
        min(abs(r[i] - abs(c)) for c, _ in flips) < correlation.EVENT_SIGMA for i in graze
    )
    # the grid stops short of pi, where a sample crossing a flip v at 0
    # crosses the flip pi - v
    grid = set(np.linspace(0.0, 0.9 * PI, 30).tolist())
    # the crossing times of the second quarter of the samples only, so
    # that the others stay certified
    placed = np.arange(n) // (n // 4) == 1
    for c, _ in flips:
        crossing = placed & (r > abs(c) + 1e-3)
        for sign in (1.0, -1.0):
            times = (sign * np.arccos(c / r[crossing]) - psi[crossing]) % (2.0 * PI)
            grid |= set(times[times <= 0.9 * PI].tolist())
    grid = sorted(grid)
    a_vals = rng.choice([-1, 1], n)
    spy = _ShapeSpy(bob)
    sums = correlation._event_sums(spy, flips, a_vals, draws, grid)
    expected = [
        int(np.sum(a_vals * bob.evaluate_cos(partner_cos_many(t, *trig)))) for t in grid
    ]
    assert sums.tolist() == expected
    ((rows, shaky),) = [shape for shape in spy.shapes if len(shape) == 2]
    assert rows == len(grid) and n // 4 + graze.size <= shaky < n


def _searchsorted_calls(monkeypatch):
    calls = []
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        calls.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    return calls


def _check_slots(grid, t):
    slot, below, above = correlation._grid_slots(grid, t)
    assert np.array_equal(slot, np.searchsorted(grid, t, side="left"))
    guard = np.array([-np.inf, *grid, np.inf])
    assert np.array_equal(below, guard[slot]) and np.array_equal(above, guard[slot + 1])
    assert np.all(below < t) and np.all(t <= above)
    return slot


def test_grid_slots_on_an_even_grid_need_no_search(monkeypatch):
    grid = np.linspace(0.0, 0.5 * PI, 101).tolist()
    t = np.random.default_rng(8).uniform(-1e-7, 0.5 * PI + 1e-7, 50_000)
    calls = _searchsorted_calls(monkeypatch)
    correlation._grid_slots(grid, t)
    assert sum(calls) == 0
    monkeypatch.undo()
    _check_slots(grid, t)


def test_grid_slots_fall_back_to_searchsorted_on_an_uneven_grid(monkeypatch):
    # thetas bunched near 0 and two far points: the mean spacing guesses
    # many slots wrong, and only those times are searched
    grid = [0.001 * k for k in range(12)] + [1.0, 3.0]
    t = np.random.default_rng(9).uniform(0.0, 3.0, 5_000)
    calls = _searchsorted_calls(monkeypatch)
    correlation._grid_slots(grid, t)
    assert calls and 0 < sum(calls) < t.size
    monkeypatch.undo()
    _check_slots(grid, t)


def test_grid_slots_put_a_time_on_a_grid_theta_below_it():
    # side="left": a crossing exactly at a grid theta is not below it,
    # so that theta is its upper neighbour, 0 from it
    grid = np.linspace(0.1, 1.3, 25).tolist()
    t = np.array(grid + [math.nextafter(v, 2.0) for v in grid])
    slot = _check_slots(grid, t)
    assert slot[: len(grid)].tolist() == list(range(len(grid)))
    assert slot[len(grid) :].tolist() == list(range(1, len(grid) + 1))


def test_grid_slots_beyond_the_grid_ends():
    # crossings kept within EVENT_TAU outside the grid's ends are before
    # the first theta or after the last, and near that end
    grid = np.linspace(0.2, 1.4, 40).tolist()
    tau = correlation.EVENT_TAU
    t = np.array(
        [grid[0] - 0.5 * tau, grid[0] - 0.99 * tau, grid[-1] + 0.5 * tau, grid[-1] + 0.99 * tau]
    )
    slot, below, above = correlation._grid_slots(grid, t)
    assert slot.tolist() == [0, 0, len(grid), len(grid)]
    assert below[:2].tolist() == [-np.inf] * 2 and above[2:].tolist() == [np.inf] * 2
    assert np.all(np.minimum(t - below, above - t) < tau)
    _check_slots(grid, t)


# ---------------------------------------------------------------------------
# The trig path of correlation_mc_grid (harmonic bobs on dense grids)


@st.composite
def harmonic_colourings(draw, top=11):
    """A sign-of-harmonics colouring of odd degree up to ``top``, over
    every (l, m) or over m = 0 only, some coefficients zero, the terms
    in a random order."""
    degree = draw(st.sampled_from(range(1, top + 1, 2)))
    all_m = draw(st.booleans())
    modes = [
        (l, m) for l in range(1, degree + 1, 2) for m in (range(-l, l + 1) if all_m else (0,))
    ]
    coefficients = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
            min_size=len(modes),
            max_size=len(modes),
        )
    )
    assume(coefficients[-1] != 0.0)
    terms = [(l, m, c) for (l, m), c in zip(modes, coefficients)]
    return HarmonicColouring(tuple(draw(st.permutations(terms))))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    bob=harmonic_colourings(),
    alice=st.one_of(harmonic_colourings(top=5), band_colourings()),
    relation=st.sampled_from(["swap", "unrelated", "negated_unrelated", "same"]),
    extra=st.integers(1, 12),
    seed=st.integers(0, 2**32),
)
def test_trig_path_is_bit_identical_to_per_theta_runs(bob, alice, relation, extra, seed):
    if relation == "swap":
        pair = ColouringPair.anticorrelated(bob)
    elif relation == "same":
        pair = ColouringPair(bob, bob)
    else:
        pair = ColouringPair(alice, negate(bob) if relation == "negated_unrelated" else bob)
    degree = max(l for l, _, c in bob.terms if c != 0.0)
    # 0, pi/2, pi and a dense enough linspace, shuffled, with duplicates
    count = correlation.TRIG_POINTS_PER_NODE * (degree + 1) + extra
    rng = np.random.default_rng(seed)
    grid = [0.0, HALF_PI, PI, *np.linspace(0.0, PI, count).tolist()]
    grid += rng.choice(grid, 5).tolist()
    rng.shuffle(grid)
    assert correlation._trig_grid(pair.bob, sorted(set(grid))) is not None
    plan = SamplingPlan(seed, 1500, chunk_size=1024)
    estimates = correlation_mc_grid(pair, grid, plan)
    assert estimates == [correlation_mc(pair, t, plan) for t in grid]


def test_trig_path_falls_back_pair_by_pair(monkeypatch):
    # a margin wide enough that many pairs miss the certificate: the
    # per-theta fallback must give the same integers
    rng = np.random.default_rng(11)
    bob = HarmonicColouring(
        tuple(
            (l, m, float(rng.standard_normal())) for l in (1, 3, 5) for m in range(-l, l + 1)
        )
    )
    pair = ColouringPair(make_catalogue(3), negate(bob))
    grid = np.linspace(0.0, PI, 40).tolist()
    plan = SamplingPlan(5, 3000, chunk_size=1024)
    expected = [correlation_mc(pair, t, plan) for t in grid]
    assert correlation_mc_grid(pair, grid, plan) == expected
    fallbacks = []
    colours = correlation.Draws.colours

    def counting(draws, c, theta=0.0, cols=slice(None)):
        if not isinstance(cols, slice):
            fallbacks.append(cols.size)
        return colours(draws, c, theta, cols)

    monkeypatch.setattr(correlation.Draws, "colours", counting)
    monkeypatch.setattr(correlation, "TRIG_MARGIN", 0.01)
    assert correlation_mc_grid(pair, grid, plan) == expected
    assert sum(fallbacks) >= 0.01 * plan.n_samples * len(grid)


@pytest.mark.parametrize("degree", [1, 5, 11])
@pytest.mark.parametrize("all_m", [True, False])
def test_trig_interpolation_error_is_far_inside_the_margin(degree, all_m):
    rng = np.random.default_rng(degree)
    terms = tuple(
        (l, m, float(rng.standard_normal()))
        for l in range(1, degree + 1, 2)
        for m in (range(-l, l + 1) if all_m else (0,))
    )
    bob = HarmonicColouring(terms)
    bound = sum(abs(c) * math.sqrt((2 * l + 1) / (4.0 * PI)) for l, _, c in terms)
    grid = sorted({0.0, PI, *np.linspace(0.0, PI, 57).tolist(), *rng.uniform(0.0, PI, 40)})
    nodes, kernel, margin = correlation._trig_grid(bob, grid)
    assert len(nodes) == degree + 1
    lebesgue = np.max(np.sum(np.abs(kernel), axis=1))
    expected = correlation.TRIG_MARGIN * bound * (1.0 + lebesgue)
    assert margin == pytest.approx(expected, rel=1e-12)
    draws = next(SamplingPlan(degree, 20_000).draws())
    amplitude = lambda t: bob.amplitude_from_rows(draws.rows(bob, [t]))
    values = np.array([amplitude(t) for t in nodes])
    direct = np.array([amplitude(t) for t in grid])
    assert np.max(np.abs(kernel @ values - direct)) / bound <= 1e-12


@pytest.mark.parametrize(
    "c",
    [
        make_catalogue(3),
        HarmonicColouring(((1, 0, 0.4), (3, 0, -1.0))),
        HarmonicColouring(((1, 1, 0.5), (3, -2, 1.0), (3, 0, 0.2))),
    ],
    ids=["band", "m0", "all_m"],
)
def test_draws_read_every_party_by_one_rule(c):
    (draws,) = SamplingPlan(17, 3000, chunk_size=3000).draws()
    a, u = draws.frame
    # alice at theta = 0: her drawn polar cosine, or the frame's axis a
    alice = c.evaluate_cos(draws.cos_eps) if c.is_azimuthal else c.evaluate_vectors(a)
    assert np.array_equal(draws.colours(c, 0.0), alice)
    assert np.array_equal(draws.colours(c), alice)
    bob = negate(c)
    cols = np.arange(0, 3000, 7)
    trig = draws.cos_eps[cols], draws.sin_eps[cols], draws.cos_omega[cols]
    for t in (0.3, 1.2, PI):
        if c.is_azimuthal:
            expected = bob.evaluate_cos(partner_cos_many(t, *trig))
        else:
            expected = bob.evaluate_vectors(partner_many(t, a[:, cols], u[:, cols]))
        assert np.array_equal(draws.colours(bob, t, cols), expected)
        assert np.array_equal(draws.colours(bob, t)[cols], expected)
    if isinstance(c, HarmonicColouring):
        # the basis rows at alice's axes and, beside them, at her
        # partner's at theta sum to the amplitudes her reader signs
        amplitude = c.amplitude_from_rows(draws.rows(c, [0.0, 0.3]))
        expected = np.concatenate([alice, -draws.colours(bob, 0.3)])
        assert np.array_equal(np.where(amplitude >= 0.0, 1, -1), expected)


def test_sparse_grids_stay_per_theta(monkeypatch):
    # degree 5 has 6 nodes; a grid takes the trig path only beyond
    # TRIG_POINTS_PER_NODE points per node, so never at 6 points or fewer
    assert correlation.TRIG_POINTS_PER_NODE >= 1
    bob = HarmonicColouring(((5, 2, 1.0), (1, 0, 0.3)))
    calls = []
    harmonic_sums = correlation._harmonic_sums
    monkeypatch.setattr(
        correlation, "_harmonic_sums", lambda *args: calls.append(1) or harmonic_sums(*args)
    )
    plan = SamplingPlan(3, 500)
    dense = correlation.TRIG_POINTS_PER_NODE * 6 + 1
    for count in (3, 6, dense - 1, dense):
        calls.clear()
        grid = np.linspace(0.1, 3.0, count).tolist()
        estimates = correlation_mc_grid(bob, grid + grid[:2], plan)
        assert bool(calls) == (count == dense)
        assert estimates[:count] == [correlation_mc(bob, t, plan) for t in grid]
