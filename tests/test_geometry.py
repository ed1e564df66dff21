import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spherebell.correlation import SamplingPlan
from spherebell.geometry import (
    ARCCOS_HARD,
    HALF_ANGLE_TOL,
    NumericalError,
    arccos_clamped_array,
    clamp_cos,
    cos_sin,
    half_angle_cos_sin,
    partner_cos_many,
    partner_frame,
    partner_many,
    partner_polar_many,
    unit_vectors,
)

PI = math.pi


def unit(eps, phi):
    """Cartesian unit vector of the polar coordinates (eps, phi)."""
    s = math.sin(eps)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(eps)])


def cartesian_partner(eps, phi, theta, omega):
    """Independent oracle for one axis pair: Alice's unit vector a and
    Bob's b = cos theta a + sin theta (cos omega s + sin omega e), where
    s and e are the south- and east-pointing unit vectors tangent to the
    sphere at a."""
    a = unit(eps, phi)
    s = np.array([math.cos(eps) * math.cos(phi), math.cos(eps) * math.sin(phi), -math.sin(eps)])
    e = np.array([-math.sin(phi), math.cos(phi), 0.0])
    b = math.cos(theta) * a + math.sin(theta) * (math.cos(omega) * s + math.sin(omega) * e)
    return a, b


def partner_axis(theta, eps, phi, omega):
    """``partner_many`` on one point."""
    frame = partner_frame(*cos_sin(np.array([eps]), np.array([phi]), np.array([omega])))
    return partner_many(theta, *frame)[:, 0]


def random_points(seed, n):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.05, PI - 0.05, n)
    phi = rng.uniform(0.0, 2 * PI, n)
    omega = rng.uniform(0.0, 2 * PI, n)
    return eps, phi, omega


def test_arccos_clamped_soft_overshoot():
    assert arccos_clamped_array(np.array([1.0 + 5e-10, -1.0 - 5e-10])).tolist() == [0.0, PI]


def test_arccos_clamped_hard_overshoot_raises():
    with pytest.raises(ValueError):
        arccos_clamped_array(np.array([1.0 + 1e-5]))


def test_arccos_drift_is_a_numerical_error():
    # a ValueError still, but one the CLI reports as a numerical failure
    with pytest.raises(NumericalError):
        arccos_clamped_array(np.array([-1.0 - 1e-5]))
    with pytest.raises(NumericalError):
        arccos_clamped_array(np.array([0.2, 1.0 + 1e-5]))
    assert issubclass(NumericalError, ValueError)


def test_a_nan_hides_no_drift():
    # max |x| was nan with a nan anywhere, and nan > ARCCOS_HARD is False,
    # so 1.5 beside a nan was clamped to 1 without a word
    for x in ([math.nan, 1.5], [1.5, math.nan], [0.2, math.nan, -1.5]):
        with pytest.raises(NumericalError):
            clamp_cos(np.array(x))
    # a nan alone, or beside drift within rounding, still passes as nan
    out = clamp_cos(np.array([math.nan, 1.0 + 1e-9, -0.5]))
    assert math.isnan(out[0]) and out[1:].tolist() == [1.0, -0.5]
    assert math.isnan(clamp_cos(math.nan))


def test_arccos_clamped_interior_matches_acos():
    x = np.array([-0.99, -0.5, 0.0, 0.3, 0.999])
    assert arccos_clamped_array(x).tolist() == np.arccos(x).tolist()


def test_unit_vectors_broadcast():
    eps, phi, _ = random_points(23, 50)
    v = unit_vectors(eps, phi)
    assert v.shape == (3, 50)
    for i in range(50):
        assert np.allclose(v[:, i], unit(eps[i], phi[i]), rtol=0.0, atol=1e-15)
    assert unit_vectors(eps, 0.3).shape == (3, 50)


def test_antipode_coordinates():
    b = partner_axis(PI, PI / 4, 0.3, 1.0)
    assert np.allclose(b, unit(3 * PI / 4, 0.3 + PI), rtol=0.0, atol=1e-15)


class TestPartnerDirection:
    def test_zero_separation_returns_the_axis(self):
        a, b = cartesian_partner(0.7, 1.2, 0.0, 2.0)
        assert np.array_equal(a, b)
        assert np.allclose(partner_axis(0.0, 0.7, 1.2, 2.0), a, rtol=0.0, atol=1e-15)

    def test_pi_separation_returns_the_antipode(self):
        a, b = cartesian_partner(0.7, 1.2, PI, 2.0)
        assert np.allclose(b, -a, atol=1e-15)
        assert np.allclose(partner_axis(PI, 0.7, 1.2, 2.0), b, rtol=0.0, atol=1e-15)

    def test_from_north_pole(self):
        # partner of the pole sits at polar angle theta, azimuth omega
        for omega in (0.0, 1.0, PI, 4.0):
            got = partner_axis(0.6, 0.0, 0.0, omega)
            assert np.allclose(got, unit(0.6, omega), rtol=0.0, atol=1e-15)
            _, b = cartesian_partner(0.0, 0.0, 0.6, omega)
            assert np.allclose(got, b, rtol=0.0, atol=1e-15)

    def test_equator_quarter_turn(self):
        got = partner_axis(PI / 2, PI / 2, 0.0, PI / 2)
        assert np.allclose(got, [0.0, 1.0, 0.0], rtol=0.0, atol=1e-15)
        _, b = cartesian_partner(PI / 2, 0.0, PI / 2, PI / 2)
        assert np.allclose(got, b, rtol=0.0, atol=1e-15)

    @given(
        eps=st.floats(0.05, PI - 0.05),
        phi=st.floats(0.0, 2 * PI - 1e-9),
        theta=st.floats(1e-3, PI - 1e-3),
        omega=st.floats(0.0, 2 * PI),
    )
    @settings(max_examples=200, deadline=None)
    def test_partner_sits_at_theta(self, eps, phi, theta, omega):
        a, b = cartesian_partner(eps, phi, theta, omega)
        got = partner_axis(theta, eps, phi, omega)
        assert np.allclose(got, b, rtol=0.0, atol=1e-15)
        realized = math.atan2(np.linalg.norm(np.cross(a, got)), np.dot(a, got))
        assert abs(realized - theta) < 1e-10

    @given(
        eps=st.floats(0.05, PI - 0.05),
        theta=st.floats(1e-3, PI / 2),
        omega=st.floats(1e-6, PI - 1e-6),
    )
    @settings(max_examples=100, deadline=None)
    def test_mirrored_circle_position_same_polar_angle(self, eps, theta, omega):
        # the two partners mirror each other in Alice's meridian plane
        alpha = partner_polar_many(theta, np.array([eps, eps]), np.array([omega, 2 * PI - omega]))
        assert abs(alpha[0] - alpha[1]) < 1e-12
        frame = partner_frame(
            *cos_sin(np.array([eps, eps]), np.array([0.4, 0.4]), np.array([omega, 2 * PI - omega]))
        )
        b = partner_many(theta, *frame)
        assert np.allclose(b[2], np.cos(alpha), rtol=0.0, atol=1e-15)
        # ... so each is the other reflected in the plane of phi = 0.4
        normal = np.array([-math.sin(0.4), math.cos(0.4), 0.0])
        mirrored = b[:, 0] - 2.0 * np.dot(b[:, 0], normal) * normal
        assert np.allclose(mirrored, b[:, 1], rtol=0.0, atol=1e-15)


class TestSampleAxisPair:
    """The Monte Carlo engine's axis pairs: ``SamplingPlan.draws`` for
    Alice, the partner maps for Bob."""

    @staticmethod
    def drawn(seed, n):
        (draw,) = SamplingPlan(seed, n, chunk_size=n).draws()
        return draw

    def test_degenerate_separations(self):
        draw = self.drawn(11, 2000)
        eps = np.arccos(draw.cos_eps)
        a, u = draw.frame
        assert np.array_equal(partner_many(0.0, a, u), a)
        assert np.allclose(partner_many(PI, a, u), -a, rtol=0.0, atol=1e-15)
        for i in range(0, 2000, 7):
            assert np.allclose(a[:, i], unit(eps[i], draw.phi[i]), rtol=0.0, atol=1e-15)

    def test_record_keeps_the_drawn_cosine(self):
        # sin eps from the drawn cosine: within an ulp or so of the
        # trig of eps = arccos(cos eps), computed once per chunk
        draw = self.drawn(13, 20_000)
        eps = np.arccos(draw.cos_eps)
        assert np.max(np.abs(draw.sin_eps - np.sin(eps))) <= 5e-16
        assert np.max(np.abs(draw.cos_eps - np.cos(eps))) <= 5e-16
        # cos omega: the half-angle trig bit for bit, within the stated
        # bound of libm's (sin omega is checked through the frame below)
        assert np.array_equal(draw.cos_omega, half_angle_cos_sin(draw.omega)[0])
        assert np.max(np.abs(draw.cos_omega - np.cos(draw.omega))) <= HALF_ANGLE_TOL
        assert draw.frame is draw.frame
        a, u = draw.frame
        assert np.array_equal(a[2], draw.cos_eps)
        assert np.allclose(np.sum(u * u, axis=0), 1.0, rtol=0.0, atol=1e-15)
        assert np.allclose(np.sum(a * u, axis=0), 0.0, rtol=0.0, atol=1e-15)

    def test_record_frame_is_the_half_angle_frame(self):
        # alice's axes and tangents: partner_frame of the drawn cosine,
        # its root sine and the half-angle trig of phi and omega, within
        # the stated bound of libm's; reading the frame first records
        # its cos omega, so omega's trig is taken once
        draw = self.drawn(17, 5000)
        trig = half_angle_cos_sin(draw.phi) + half_angle_cos_sin(draw.omega)
        for got, want in zip(trig, cos_sin(draw.phi, draw.omega)):
            assert np.max(np.abs(got - want)) <= HALF_ANGLE_TOL
        expected = partner_frame(draw.cos_eps, draw.sin_eps, *trig)
        for got, want in zip(draw.frame, expected):
            assert np.array_equal(got, want)
        assert "cos_omega" in vars(draw)
        assert np.array_equal(draw.cos_omega, trig[2])

    def test_mean_cosine_at_fixed_angle(self):
        draw = self.drawn(5, 1000)
        eps = np.arccos(draw.cos_eps)
        b = partner_many(PI / 3, *draw.frame)
        dots = [float(np.dot(unit(eps[i], draw.phi[i]), b[:, i])) for i in range(1000)]
        mean = np.mean(dots)
        sigma = np.std(dots, ddof=1) / math.sqrt(1000) + 1e-12
        assert abs(mean - 0.5) <= 3 * sigma

    def test_first_axis_polar_cosine_is_uniform(self):
        draw = self.drawn(7, 100_000)
        result = stats.kstest(draw.cos_eps, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert result.pvalue > 1e-3

    @pytest.mark.parametrize("theta", [0.4, 1.9])
    def test_partner_polar_cosine_is_uniform(self, theta):
        # Bob's axis must be uniform on the sphere too
        draw = self.drawn(7, 100_000)
        cos_alpha = partner_cos_many(theta, draw.cos_eps, draw.sin_eps, draw.cos_omega)
        result = stats.kstest(cos_alpha, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert result.pvalue > 1e-3


class TestHalfAngleTrig:
    """``half_angle_cos_sin`` against libm's ``np.cos``/``np.sin``."""

    EDGES = np.array(
        [
            0.0,
            5e-324,
            PI / 2,
            np.nextafter(PI, 0.0),
            PI,
            3 * PI / 2,
            np.nextafter(2 * PI, 0.0),
        ]
    )

    def test_within_the_stated_bound_of_libm(self):
        angles = np.concatenate(
            [np.random.default_rng(23).uniform(0.0, 2.0 * PI, 1_000_000), self.EDGES]
        )
        cos, sin = half_angle_cos_sin(angles)
        assert np.max(np.abs(cos - np.cos(angles))) <= HALF_ANGLE_TOL
        assert np.max(np.abs(sin - np.sin(angles))) <= HALF_ANGLE_TOL
        assert np.max(np.abs(cos * cos + sin * sin - 1.0)) <= 4.5e-16

    def test_zero_is_exact(self):
        # omega = 0 (alice at theta = 0 in the sampled checks) must keep
        # the frame's tangent exactly south
        cos, sin = half_angle_cos_sin(np.zeros(3))
        assert np.array_equal(cos, np.ones(3))
        assert np.array_equal(sin, np.zeros(3))

    def test_leaves_its_argument(self):
        angles = self.EDGES.copy()
        half_angle_cos_sin(angles)
        assert np.array_equal(angles, self.EDGES)


def test_partner_polar_many_matches_scalar():
    eps, phi, omega = random_points(3, 2000)
    for theta in (0.3, 1.2, 2.5):
        alpha = partner_polar_many(theta, eps, omega)
        for i in range(2000):
            _, b = cartesian_partner(eps[i], phi[i], theta, omega[i])
            assert alpha[i] == pytest.approx(math.acos(b[2]), abs=1e-13)


def test_partner_cos_many_matches_the_oracle():
    # cos(alpha) is b_z; a grid passes the trig of the draws once
    eps, phi, omega = random_points(5, 2000)
    trig = np.cos(eps), np.sin(eps), np.cos(omega)
    for theta in (0.0, 0.3, 1.2, 2.5, PI):
        cos_alpha = partner_cos_many(theta, *trig)
        for i in range(2000):
            _, b = cartesian_partner(eps[i], phi[i], theta, omega[i])
            assert cos_alpha[i] == pytest.approx(b[2], abs=1e-15)
        assert np.array_equal(
            partner_polar_many(theta, eps, omega), arccos_clamped_array(cos_alpha)
        )


def test_partner_many_matches_scalar_pointwise():
    # on Alice's meridian too: theta = 0 and pi, and omega = 0 and pi
    eps, phi, omega = random_points(19, 2000)
    omega[:4] = (0.0, PI, 0.0, PI)
    frame = partner_frame(*cos_sin(eps, phi, omega))
    for theta in (0.0, 0.3, 1.2, 2.5, PI):
        b = partner_many(theta, *frame)
        assert b.shape == (3, 2000)
        for i in range(2000):
            _, expected = cartesian_partner(eps[i], phi[i], theta, omega[i])
            assert np.allclose(b[:, i], expected, rtol=0.0, atol=1e-15)


def test_hard_clamp_is_wider_than_soft():
    assert ARCCOS_HARD > 1e-9
