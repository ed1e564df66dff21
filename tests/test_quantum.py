import math

import numpy as np
import pytest

from quantum_frame_oracle import frame_pq
from spherebell.correlation import Draws, SamplingPlan
from spherebell.geometry import HALF_ANGLE_TOL, cos_sin, partner_frame
from spherebell.quantum import (
    TwoQubitState,
    WernerParam,
    _frame_pq,
    _haar_draws,
    _haar_frame,
    haar_angles,
    haar_unitaries,
    mc_quantum_correlation,
    mc_quantum_curve,
    parse_state_text,
    pr_box_correlation,
    random_state,
    singlet_correlation,
    spin_tensor,
    twirl,
    werner_correlation,
    werner_pp,
)

PI = math.pi

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def test_singlet_curve_values():
    assert singlet_correlation(0.0) == -1.0
    assert singlet_correlation(PI / 3) == pytest.approx(-0.5, abs=1e-15)
    assert singlet_correlation(PI / 2) == pytest.approx(0.0, abs=1e-15)


def test_singlet_curve_takes_an_array():
    thetas = np.array([-1e-13, 0.0, PI / 3, PI / 2, PI, PI + 1e-13])
    values = singlet_correlation(thetas)
    assert isinstance(values, np.ndarray) and values.shape == thetas.shape
    assert values.tolist() == [singlet_correlation(float(t)) for t in thetas]
    assert type(singlet_correlation(0.3)) is float
    for bad in (-0.1, PI + 0.1, math.nan):
        with pytest.raises(ValueError):
            singlet_correlation(np.array([0.2, bad]))


@pytest.mark.parametrize(
    "theta, message",
    [(-0.1, r"theta=-0\.031831\*pi outside \[0, pi\]"), (math.nan, r"theta=nan\*pi")],
)
def test_werner_theta_domain_is_in_units_of_pi(theta, message):
    with pytest.raises(ValueError, match=message):
        werner_correlation(0.5, theta)


def test_singlet_theta_domain():
    with pytest.raises(ValueError):
        singlet_correlation(-0.1)
    with pytest.raises(ValueError):
        singlet_correlation(PI + 0.1)


class TestWernerParam:
    def test_range_validation(self):
        WernerParam(0.0)
        WernerParam(1.0)
        with pytest.raises(ValueError):
            WernerParam(-0.01)
        with pytest.raises(ValueError):
            WernerParam(1.01)


class TestWernerCurves:
    def test_full_fidelity_is_the_singlet(self):
        for theta in (0.0, 0.3, 1.2):
            assert werner_correlation(1.0, theta) == pytest.approx(
                singlet_correlation(theta), abs=1e-15
            )

    def test_quarter_fidelity_is_flat_zero(self):
        for theta in (0.0, 0.7, PI):
            assert werner_correlation(0.25, theta) == 0.0

    def test_zero_fidelity_at_zero_angle(self):
        assert werner_correlation(0.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_extremal_bounds_hold(self):
        # -cos theta <= Q_rho(theta) <= cos(theta) / 3 on the first quadrant
        for r in np.linspace(0.0, 1.0, 21):
            for theta in np.linspace(0.0, PI / 2, 31):
                q = werner_correlation(float(r), float(theta))
                assert -math.cos(theta) - 1e-12 <= q <= math.cos(theta) / 3 + 1e-12

    def test_pp_values(self):
        assert werner_pp(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert werner_pp(1.0, PI) == pytest.approx(0.5, abs=1e-15)
        for theta in (0.1, 1.0, 2.5):
            assert werner_pp(0.25, theta) == pytest.approx(0.25, abs=1e-15)

    def test_pp_range(self):
        for r in np.linspace(0.0, 1.0, 11):
            for theta in np.linspace(0.0, PI, 17):
                p = werner_pp(float(r), float(theta))
                assert -1e-15 <= p <= 0.5 + 1e-15

    def test_pp_correlation_identity_is_exact(self):
        for r in np.linspace(0.0, 1.0, 11):
            for theta in np.linspace(0.0, PI, 17):
                lhs = 4.0 * werner_pp(float(r), float(theta)) - 1.0
                assert lhs == pytest.approx(
                    werner_correlation(float(r), float(theta)), abs=1e-15
                )

    def test_accepts_param_object(self):
        w = WernerParam(0.5)
        assert werner_correlation(w, 0.4) == werner_correlation(0.5, 0.4)


class TestTwoQubitState:
    def test_named_states_are_valid(self):
        for name in ("singlet", "psi-", "psi+", "phi+", "phi-", "mixed"):
            state = TwoQubitState.named(name)
            assert state.rho.shape == (4, 4)
            assert np.trace(state.rho) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            TwoQubitState.named("ghz")

    def test_pure_state_builder(self):
        state = TwoQubitState.pure(SINGLET)
        expected = np.outer(SINGLET, SINGLET.conj())
        assert np.allclose(state.rho, expected, atol=1e-15)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError):
            TwoQubitState(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_negative_eigenvalues(self):
        rho = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitState(rho)

    def test_werner_constructor_twirls_to_itself(self):
        for r in (0.0, 0.3, 1.0):
            assert twirl(TwoQubitState.werner(r)).r == pytest.approx(r, abs=1e-12)


class TestTwirl:
    def test_bell_state_fidelities(self):
        # the four Bell states project onto the singlet as (1, 0, 0, 0)
        values = [
            twirl(TwoQubitState.named(name)).r
            for name in ("singlet", "phi+", "phi-", "psi+")
        ]
        assert values == [1.0, 0.0, 0.0, 0.0]

    def test_maximally_mixed(self):
        assert twirl(TwoQubitState.named("mixed")).r == pytest.approx(0.25, abs=1e-15)

    def test_random_states_land_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            r = twirl(random_state(rng)).r
            assert 0.0 <= r <= 1.0


class TestParseStateText:
    def test_singlet_round_trip(self):
        rows = []
        rho = np.outer(SINGLET, SINGLET)
        for i in range(4):
            rows.append(
                " ".join(f"{rho[i, j].real:+.6f}+{rho[i, j].imag:.6f}i" for j in range(4))
            )
        state = parse_state_text("\n".join(rows))
        assert np.allclose(state.rho, rho, atol=1e-9)

    def test_wrong_token_count(self):
        with pytest.raises(ValueError):
            parse_state_text("1 0 0")

    def test_plain_reals_allowed(self):
        text = "0.25 0 0 0\n0 0.25 0 0\n0 0 0.25 0\n0 0 0 0.25"
        state = parse_state_text(text)
        assert np.allclose(state.rho, np.eye(4) / 4.0, atol=1e-12)


class TestMonteCarloQuantum:
    def test_singlet_at_third_turn(self):
        value, stderr = mc_quantum_correlation(
            TwoQubitState.named("singlet"), PI / 3, SamplingPlan(5, 100_000)
        )
        assert abs(value + 0.5) <= 3 * stderr + 1e-12

    def test_maximally_mixed_vanishes(self):
        for theta in (0.4, 1.9):
            value, stderr = mc_quantum_correlation(
                TwoQubitState.named("mixed"), theta, SamplingPlan(6, 50_000)
            )
            assert abs(value) <= 3 * stderr + 1e-12

    def test_other_bell_state_at_zero_angle(self):
        value, stderr = mc_quantum_correlation(
            TwoQubitState.named("phi+"), 0.0, SamplingPlan(8, 100_000)
        )
        assert abs(value - 1.0 / 3.0) <= 3 * stderr + 1e-12

    def test_random_states_follow_their_twirl(self):
        rng = np.random.default_rng(101)
        plan = SamplingPlan(909, 20_000)
        for k in range(20):
            state = random_state(rng)
            theta = float(rng.uniform(0.1, PI - 0.1))
            value, stderr = mc_quantum_correlation(state, theta, plan)
            expected = werner_correlation(twirl(state), theta)
            assert abs(value - expected) <= 3 * stderr + 1e-12, f"state {k}"

    def test_repeat_runs_bit_identical(self):
        state = TwoQubitState.named("phi-")
        plan = SamplingPlan(11, 30_000)
        assert mc_quantum_correlation(state, 0.8, plan) == mc_quantum_correlation(
            state, 0.8, plan
        )

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            mc_quantum_correlation(
                TwoQubitState.named("singlet"), -0.2, SamplingPlan(1, 10)
            )


def per_theta_quantum_mc(state, theta, plan):
    """The direct estimator: Bob's operator U sigma_chi U^dag built for
    this theta alone, the expectation Tr(rho A_U (x) B_U) taken frame
    by frame, and the mean and standard error over all frames at once."""
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
    sigma_chi = math.sin(theta) * sigma_x + math.cos(theta) * sigma_z
    values = []
    for index, length in plan.chunks():
        u = haar_unitaries(plan.chunk_rng(index), length)
        udag = np.conj(np.swapaxes(u, 1, 2))
        a_ops, b_ops = u @ sigma_z @ udag, u @ sigma_chi @ udag
        big = np.einsum("nac,nbd->nabcd", a_ops, b_ops).reshape(length, 4, 4)
        values.append(np.real(np.einsum("ij,nji->n", state.rho, big)))
    e = np.concatenate(values)
    return float(np.mean(e)), float(np.std(e, ddof=1) / math.sqrt(e.size))


class TestMonteCarloQuantumCurve:
    GRID = (0.0, 0.2 * PI, 0.5 * PI, 0.9 * PI, PI)

    def test_each_theta_is_the_one_theta_run(self):
        state = random_state(np.random.default_rng(41))
        plan = SamplingPlan(23, 5000, chunk_size=2048)
        curve = mc_quantum_curve(state, self.GRID, plan)
        assert curve == [mc_quantum_correlation(state, t, plan) for t in self.GRID]

    def test_agrees_with_the_per_theta_estimator(self):
        state = random_state(np.random.default_rng(43))
        plan = SamplingPlan(29, 5000, chunk_size=2048)
        curve = mc_quantum_curve(state, self.GRID, plan)
        for (value, stderr), t in zip(curve, self.GRID):
            ref_value, ref_stderr = per_theta_quantum_mc(state, t, plan)
            assert value == pytest.approx(ref_value, abs=1e-14)
            assert stderr == pytest.approx(ref_stderr, rel=1e-10)

    @pytest.mark.parametrize("r", [0.0, 0.37, 1.0])
    def test_werner_state_has_no_spread(self, r):
        # every frame gives the same expectation, so the stderr is
        # rounding noise, not the cancellation of two large sums
        plan = SamplingPlan(31, 100_000)
        state = TwoQubitState.werner(r)
        curve = mc_quantum_curve(state, self.GRID, plan)
        for (value, stderr), t in zip(curve, self.GRID):
            assert stderr <= 1e-14
            assert abs(value - werner_correlation(r, t)) <= 1e-12

    def test_theta_validation_covers_the_whole_grid(self):
        with pytest.raises(ValueError):
            mc_quantum_curve(
                TwoQubitState.named("singlet"), [0.2, PI + 0.2], SamplingPlan(1, 10)
            )


class TestSpinTensor:
    @pytest.mark.parametrize(
        "name, diagonal",
        [
            ("singlet", (-1.0, -1.0, -1.0)),
            ("psi+", (1.0, 1.0, -1.0)),
            ("phi+", (1.0, -1.0, 1.0)),
            ("phi-", (-1.0, 1.0, 1.0)),
            ("mixed", (0.0, 0.0, 0.0)),
        ],
    )
    def test_bell_states(self, name, diagonal):
        tensor = spin_tensor(TwoQubitState.named(name))
        assert np.max(np.abs(tensor - np.diag(diagonal))) <= 1e-15

    def test_werner_state_is_isotropic(self):
        # T = -((4r - 1) / 3) I, the Werner curve's slope
        tensor = spin_tensor(TwoQubitState.werner(0.37))
        expected = -((4 * 0.37 - 1.0) / 3.0) * np.eye(3)
        assert np.max(np.abs(tensor - expected)) <= 1e-15

    # the complex-matrix oracle itself rounds by up to 1.4e-15 on the
    # phi states (measured against the tensor formula in long double on
    # the same axes, which rounds by 3e-16), so Bell states get 1.5e-15
    @pytest.mark.parametrize(
        "state, tol",
        [(TwoQubitState.named(name), 1.5e-15) for name in ("singlet", "phi+", "phi-")]
        + [(random_state(np.random.default_rng(k)), 1e-15) for k in range(4)],
    )
    def test_frames_agree_with_the_matrix_oracle(self, state, tol):
        # the same draws: haar_unitaries builds U from haar_angles
        u = haar_unitaries(np.random.default_rng(61), 20_000)
        a, tangent = partner_frame(*cos_sin(*haar_angles(np.random.default_rng(61), 20_000)))
        pq = _frame_pq(spin_tensor(state), a, tangent)
        assert np.max(np.abs(pq - frame_pq(state.rho, u))) <= tol


@pytest.mark.loop_dependent
class TestHaarFrames:
    """The engine's frames (drawn cos eps, half-angle trig of phi and
    omega) against the libm construction from the Euler angles of the
    same generator."""

    STATES = [TwoQubitState.named(name) for name in ("singlet", "phi+", "psi+")] + [
        TwoQubitState.werner(0.37),
        *(random_state(np.random.default_rng(k)) for k in range(3)),
    ]

    @staticmethod
    def both(seed, n):
        engine = Draws(*_haar_draws(np.random.default_rng(seed), n)).frame
        libm = partner_frame(*cos_sin(*haar_angles(np.random.default_rng(seed), n)))
        return engine, libm

    def test_axes_and_tangents_agree_with_libm(self):
        # a coordinate sums at most two products, each with at most two
        # half-angle factors (HALF_ANGLE_TOL each) and cos or sin eps
        # (an ulp apart: the root against sin(arccos)), so it moves by
        # about 4 HALF_ANGLE_TOL plus both sides' roundings; 2.9 was the
        # largest seen over 2e6 frames
        (a, u), (a_libm, u_libm) = self.both(71, 200_000)
        assert np.max(np.abs(a - a_libm)) <= 6 * HALF_ANGLE_TOL
        assert np.max(np.abs(u - u_libm)) <= 6 * HALF_ANGLE_TOL

    @pytest.mark.parametrize("state", STATES)
    def test_frame_values_agree_with_libm(self, state):
        # p = a^T T u and q = a^T T a sum nine products of the shifted
        # coordinates with entries of T; 6.1 HALF_ANGLE_TOL max|T| was
        # the largest seen over 2e6 frames of 40 random states, under
        # numpy's AVX-512 loops and with them switched off
        tensor = spin_tensor(state)
        (a, u), (a_libm, u_libm) = self.both(73, 200_000)
        pq = _frame_pq(tensor, a, u)
        pq_libm = _frame_pq(tensor, a_libm, u_libm)
        bound = 8 * HALF_ANGLE_TOL * np.max(np.abs(tensor))
        assert np.max(np.abs(pq - pq_libm)) <= bound

    def test_engine_frame_is_the_record_frame(self):
        # the engine lets phi and omega go before it builds the frame;
        # the frame is the Draws record's bit for bit
        engine = _haar_frame(np.random.default_rng(67), 20_000)
        record = Draws(*_haar_draws(np.random.default_rng(67), 20_000)).frame
        for got, want in zip(engine, record):
            assert np.array_equal(got, want)

    def test_engine_reads_these_frames(self):
        # one chunk: the curve's value at pi/2 and 0 is the mean of p and q
        state = random_state(np.random.default_rng(79))
        a, u = Draws(*_haar_draws(SamplingPlan(83, 3000).chunk_rng(0), 3000)).frame
        mean = _frame_pq(spin_tensor(state), a, u).mean(axis=1)
        curve = mc_quantum_curve(state, [0.0, PI / 2], SamplingPlan(83, 3000))
        assert curve[0][0] == pytest.approx(mean[1], abs=1e-16)
        assert curve[1][0] == pytest.approx(mean[0], abs=1e-16)


class TestHaarSampling:
    def test_unitarity_of_samples(self):
        rng = np.random.default_rng(3)
        us = haar_unitaries(rng, 50)
        assert us.shape == (50, 2, 2)
        for u in us[::7]:
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_empirical_twirl_matches_analytic_werner_form(self):
        # the full averaged matrix, not just the singlet overlap, pins
        # down Haar uniformity of the sampler
        rng = np.random.default_rng(17)
        n = 20_000
        psi_minus = SINGLET
        singlet_proj = np.outer(psi_minus, psi_minus)
        for _ in range(3):
            state = random_state(rng)
            us = haar_unitaries(rng, n)
            big = np.einsum("nab,ncd->nacbd", us, us).reshape(n, 4, 4)
            # each row of conj is U^dag (x) U^dag rho U (x) U
            conj = np.einsum("nba,bc,ncd->nad", big.conj(), state.rho, big)
            averaged = conj.mean(axis=0)
            r = twirl(state).r
            expected = r * singlet_proj + (1.0 - r) / 3.0 * (np.eye(4) - singlet_proj)
            assert np.max(np.abs(averaged - expected)) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize(
    "curve",
    [
        lambda t: werner_correlation(0.7, t),
        lambda t: werner_pp(0.7, t),
        pr_box_correlation,
    ],
    ids=["werner_correlation", "werner_pp", "pr_box_correlation"],
)
def test_array_curve_is_its_float_calls(curve):
    grid = np.concatenate((np.linspace(0.0, PI, 101), [PI / 2, 1e-13, PI + 1e-13]))
    values = curve(grid)
    floats = [curve(t) for t in grid.tolist()]
    assert all(type(v) is float for v in floats)
    assert values.shape == grid.shape
    assert values.tolist() == floats
    assert [math.copysign(1.0, v) for v in values.tolist()] == [
        math.copysign(1.0, v) for v in floats
    ]


def test_pr_box_is_positive_zero_at_right_angle():
    assert math.copysign(1.0, pr_box_correlation(PI / 2)) == 1.0


def test_pr_box_reference():
    assert pr_box_correlation(PI / 4) == 1.0
    assert pr_box_correlation(PI / 2) == 0.0
    assert pr_box_correlation(3 * PI / 4) == -1.0
    with pytest.raises(ValueError):
        pr_box_correlation(PI + 0.5)
