import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spherebell.geometry import (
    ARCCOS_HARD,
    AxisPair,
    Direction,
    NumericalError,
    angle_between,
    antipode,
    arccos_clamped,
    arccos_clamped_array,
    partner_direction,
    partner_many,
    partner_polar_many,
    sample_axis_pair,
)

PI = math.pi


def test_arccos_clamped_soft_overshoot():
    assert arccos_clamped(1.0 + 5e-10) == 0.0
    assert arccos_clamped(-1.0 - 5e-10) == PI


def test_arccos_clamped_hard_overshoot_raises():
    with pytest.raises(ValueError):
        arccos_clamped(1.0 + 1e-5)


def test_arccos_drift_is_a_numerical_error():
    # a ValueError still, but one the CLI reports as a numerical failure
    with pytest.raises(NumericalError):
        arccos_clamped(-1.0 - 1e-5)
    with pytest.raises(NumericalError):
        arccos_clamped_array(np.array([0.2, 1.0 + 1e-5]))
    assert issubclass(NumericalError, ValueError)


def test_arccos_clamped_interior_matches_acos():
    for x in (-0.99, -0.5, 0.0, 0.3, 0.999):
        assert arccos_clamped(x) == math.acos(x)


class TestDirection:
    def test_phi_wraps_into_range(self):
        d = Direction(1.0, 2 * PI + 0.3)
        assert abs(d.phi - 0.3) < 1e-12

    def test_negative_phi_wraps(self):
        d = Direction(1.0, -0.25)
        assert abs(d.phi - (2 * PI - 0.25)) < 1e-12

    def test_poles_canonicalize_phi(self):
        assert Direction(0.0, 1.7).phi == 0.0
        assert Direction(PI, 2.9).phi == 0.0

    def test_polar_angle_out_of_range(self):
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)
        with pytest.raises(ValueError):
            Direction(PI + 0.1, 0.0)

    @given(
        eps=st.floats(0.01, PI - 0.01),
        phi=st.floats(0.0, 2 * PI - 1e-9),
    )
    @settings(max_examples=60, deadline=None)
    def test_vector_round_trip(self, eps, phi):
        d = Direction(eps, phi)
        back = Direction.from_vector(d.as_vector())
        assert abs(back.epsilon - d.epsilon) < 1e-12
        assert abs(math.cos(back.phi - d.phi) - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Direction.from_vector(np.zeros(3))


def test_angle_between_poles():
    north = Direction(0.0)
    south = Direction(PI)
    assert angle_between(north, south) == pytest.approx(PI, abs=1e-12)
    assert angle_between(north, north) == pytest.approx(0.0, abs=1e-9)


def test_angle_between_orthogonal_on_equator():
    a = Direction(PI / 2, 0.0)
    b = Direction(PI / 2, PI / 2)
    assert angle_between(a, b) == pytest.approx(PI / 2, abs=1e-12)


def test_antipode_coordinates():
    d = Direction(PI / 4, 0.3)
    opp = antipode(d)
    assert opp.epsilon == pytest.approx(3 * PI / 4, abs=1e-15)
    assert opp.phi == pytest.approx(0.3 + PI, abs=1e-15)


@given(eps=st.floats(0.0, PI), phi=st.floats(0.0, 2 * PI - 1e-9))
@settings(max_examples=60, deadline=None)
def test_antipode_is_an_involution(eps, phi):
    d = Direction(eps, phi)
    back = antipode(antipode(d))
    assert abs(back.epsilon - d.epsilon) < 1e-12
    # phi is degenerate at the poles; elsewhere it must come back
    if 1e-9 < eps < PI - 1e-9:
        assert abs(math.cos(back.phi - d.phi) - 1.0) < 1e-12


class TestPartnerDirection:
    def test_zero_separation_returns_the_axis(self):
        a = Direction(0.7, 1.2)
        assert partner_direction(a, 0.0, 2.0) == a

    def test_pi_separation_returns_the_antipode(self):
        a = Direction(0.7, 1.2)
        assert partner_direction(a, PI, 2.0) == antipode(a)

    def test_from_north_pole(self):
        # partner of the pole sits at polar angle theta, azimuth omega
        a = Direction(0.0)
        for omega in (0.0, 1.0, PI, 4.0):
            b = partner_direction(a, 0.6, omega)
            assert b.epsilon == pytest.approx(0.6, abs=1e-12)
            assert math.cos(b.phi - omega) == pytest.approx(1.0, abs=1e-12)

    def test_equator_quarter_turn(self):
        a = Direction(PI / 2, 0.0)
        b = partner_direction(a, PI / 2, PI / 2)
        assert b.epsilon == pytest.approx(PI / 2, abs=1e-12)
        assert b.phi == pytest.approx(PI / 2, abs=1e-12)

    def test_separation_out_of_range(self):
        with pytest.raises(ValueError):
            partner_direction(Direction(1.0), -0.1, 0.0)
        with pytest.raises(ValueError):
            partner_direction(Direction(1.0), PI + 0.1, 0.0)

    @given(
        eps=st.floats(0.05, PI - 0.05),
        phi=st.floats(0.0, 2 * PI - 1e-9),
        theta=st.floats(1e-3, PI - 1e-3),
        omega=st.floats(0.0, 2 * PI),
    )
    @settings(max_examples=200, deadline=None)
    def test_partner_sits_at_theta(self, eps, phi, theta, omega):
        a = Direction(eps, phi)
        b = partner_direction(a, theta, omega)
        if min(b.epsilon, PI - b.epsilon) < 1e-4:
            return  # polar coordinates lose accuracy at the pole itself
        assert abs(angle_between(a, b) - theta) < 1e-10

    @given(
        eps=st.floats(0.05, PI - 0.05),
        theta=st.floats(1e-3, PI / 2),
        omega=st.floats(1e-6, PI - 1e-6),
    )
    @settings(max_examples=100, deadline=None)
    def test_mirrored_circle_position_same_polar_angle(self, eps, theta, omega):
        a = Direction(eps, 0.4)
        b1 = partner_direction(a, theta, omega)
        b2 = partner_direction(a, theta, 2 * PI - omega)
        assert abs(b1.epsilon - b2.epsilon) < 1e-12


def test_axis_pair_rejects_wrong_separation():
    a = Direction(PI / 2, 0.0)
    b = Direction(PI / 2, PI / 2)
    with pytest.raises(ValueError):
        AxisPair(a, b, PI / 3)


def test_axis_pair_accepts_constructed_partner():
    a = Direction(1.1, 0.5)
    b = partner_direction(a, 0.8, 2.2)
    pair = AxisPair(a, b, 0.8)
    assert pair.theta == 0.8


class TestSampleAxisPair:
    def test_degenerate_separations(self):
        rng = np.random.default_rng(11)
        pair = sample_axis_pair(0.0, rng)
        assert pair.b == pair.a
        pair = sample_axis_pair(PI, rng)
        assert pair.b == antipode(pair.a)

    def test_mean_cosine_at_fixed_angle(self):
        rng = np.random.default_rng(5)
        n = 1000
        dots = []
        for _ in range(n):
            pair = sample_axis_pair(PI / 3, rng)
            dots.append(float(np.dot(pair.a.as_vector(), pair.b.as_vector())))
        mean = np.mean(dots)
        sigma = np.std(dots, ddof=1) / math.sqrt(n) + 1e-12
        assert abs(mean - 0.5) <= 3 * sigma

    def test_first_axis_polar_cosine_is_uniform(self):
        rng = np.random.default_rng(7)
        n = 100_000
        cos_eps = np.array(
            [math.cos(sample_axis_pair(0.4, rng).a.epsilon) for _ in range(n)]
        )
        result = stats.kstest(cos_eps, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert result.pvalue > 1e-3


def test_partner_polar_many_matches_scalar():
    rng = np.random.default_rng(3)
    theta = 0.9
    eps = rng.uniform(0.05, PI - 0.05, 300)
    omega = rng.uniform(0.0, 2 * PI, 300)
    alpha = partner_polar_many(theta, eps, omega)
    for i in range(0, 300, 17):
        b = partner_direction(Direction(eps[i], 0.0), theta, omega[i])
        assert alpha[i] == pytest.approx(b.epsilon, abs=1e-12)


def test_partner_many_matches_scalar_pointwise():
    rng = np.random.default_rng(19)
    theta = 1.2
    n = 400
    eps = rng.uniform(0.05, PI - 0.05, n)
    phi = rng.uniform(0.0, 2 * PI, n)
    omega = rng.uniform(0.0, 2 * PI, n)
    alpha, beta = partner_many(theta, eps, phi, omega)
    for i in range(0, n, 13):
        b = partner_direction(Direction(eps[i], phi[i]), theta, omega[i])
        if min(b.epsilon, PI - b.epsilon) < 1e-6:
            continue
        # compare as unit vectors to dodge the 2 pi azimuth seam
        got = Direction(alpha[i], beta[i]).as_vector()
        assert np.allclose(got, b.as_vector(), atol=1e-9)


def test_hard_clamp_is_wider_than_soft():
    assert ARCCOS_HARD > 1e-9
