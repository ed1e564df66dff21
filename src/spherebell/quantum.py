"""Quantum reference curves for the sphere-colouring correlations.

The singlet gives Q(theta) = -cos(theta); a Werner state with singlet
fidelity r gives -((4r - 1)/3) cos(theta), which spans every
rotationally averaged two-qubit curve: averaging joint spin
measurements along a Haar-random frame is the same as twirling the
state first, and the twirl of any state is the Werner state with the
same singlet fidelity.  The module provides the analytic curves, the
twirl, a Monte Carlo estimator over Haar-random measurement frames
(sharing the deterministic chunking of the classical engine), and the
PR-box curve as the no-signalling reference.

The frame expectation is linear in (sin theta, cos theta), so the
estimator draws the frames once for a whole theta grid
(``mc_quantum_curve``); ``mc_quantum_correlation`` is its one-theta
case.  A frame is read as two real 3-vectors, its axis a and tangent
u, against the state's 3x3 spin-correlation tensor (``spin_tensor``),
with no complex matrix: the classical engine's ``Draws.frame`` of the
drawn cos(eps), phi and omega, with no arccos.  The Euler angles
(``haar_angles``) and unitaries (``haar_unitaries``) of the same draws
take libm's trig, as the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import Draws, SamplingPlan, checked_theta, float_if_0d

PI = math.pi

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Bell basis, computational order |00>, |01>, |10>, |11>
_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True)
class WernerParam:
    """Singlet fidelity r of a Werner state."""

    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r {self.r!r} outside [0, 1]")


@dataclass(frozen=True)
class TwoQubitState:
    """A two-qubit density operator in the |00>,|01>,|10>,|11> basis."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        if float(np.min(np.linalg.eigvalsh(rho))) < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def pure(cls, vector: np.ndarray) -> "TwoQubitState":
        v = np.asarray(vector, dtype=complex).reshape(4)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def named(cls, name: str) -> "TwoQubitState":
        key = name.strip().lower()
        if key == "singlet" or key == "psi-":
            return cls.pure(_PSI_MINUS)
        if key == "psi+":
            return cls.pure(_PSI_PLUS)
        if key == "phi+":
            return cls.pure(_PHI_PLUS)
        if key == "phi-":
            return cls.pure(_PHI_MINUS)
        if key == "mixed":
            return cls(np.eye(4, dtype=complex) / 4.0)
        raise ValueError(
            f"unknown state name {name!r}; expected singlet|phi+|phi-|psi+|mixed"
        )

    @classmethod
    def werner(cls, r: float | WernerParam) -> "TwoQubitState":
        w = r if isinstance(r, WernerParam) else WernerParam(float(r))
        p_minus = np.outer(_PSI_MINUS, _PSI_MINUS)
        rest = np.eye(4) - p_minus
        return cls(w.r * p_minus + (1.0 - w.r) / 3.0 * rest)


def parse_state_text(text: str) -> TwoQubitState:
    """Parse a plain-text 4x4 density matrix, row-major, complex
    entries written like "0.25+0i" (whitespace or commas between)."""
    tokens = text.replace(",", " ").split()
    if len(tokens) != 16:
        raise ValueError(f"expected 16 matrix entries, got {len(tokens)}")
    values = [complex(tok.replace("i", "j")) for tok in tokens]
    return TwoQubitState(np.array(values, dtype=complex).reshape(4, 4))


def twirl(state: TwoQubitState) -> WernerParam:
    """Singlet fidelity of the state, which fully determines its
    rotation average (the twirled Werner state)."""
    r = float(np.real(_PSI_MINUS @ state.rho @ _PSI_MINUS))
    return WernerParam(min(1.0, max(0.0, r)))


def singlet_correlation(theta: float | np.ndarray) -> float | np.ndarray:
    """Q(theta) = -cos(theta) on an array of theta; a float is the 0-d case."""
    return float_if_0d(-np.cos(checked_theta(theta)))


def _fidelity(w: float | WernerParam) -> float:
    return w.r if isinstance(w, WernerParam) else WernerParam(float(w)).r


def werner_correlation(
    w: float | WernerParam, theta: float | np.ndarray
) -> float | np.ndarray:
    """-((4r - 1)/3) cos(theta) on an array of theta; a float is the 0-d case."""
    r = _fidelity(w)
    return float_if_0d(-((4.0 * r - 1.0) / 3.0) * np.cos(checked_theta(theta)))


def werner_pp(w: float | WernerParam, theta: float | np.ndarray) -> float | np.ndarray:
    """Probability that both parties report +1 at separation theta, on
    an array of theta; a float is the 0-d case."""
    r = _fidelity(w)
    t = checked_theta(theta)
    return float_if_0d((1.0 - r) / 3.0 + ((4.0 * r - 1.0) / 6.0) * np.sin(t / 2.0) ** 2)


def pr_box_correlation(theta: float | np.ndarray) -> float | np.ndarray:
    """sign(pi/2 - theta) on an array of theta, 0 at pi/2; a float is
    the 0-d case."""
    return float_if_0d(np.sign(PI / 2.0 - checked_theta(theta)))


# ---------------------------------------------------------------------------
# Haar-random measurement frames


def _haar_draws(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos eps, phi, omega) of n Haar-random frames: phi and omega
    uniform on [0, 2pi) and cos(eps) uniform on [-1, 1], drawn in the
    order phi, cos(eps), omega."""
    phi = rng.uniform(0.0, 2.0 * PI, n)
    cos_eps = rng.uniform(-1.0, 1.0, n)
    return cos_eps, phi, rng.uniform(0.0, 2.0 * PI, n)


def haar_angles(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler angles (eps, phi, omega) of n Haar-random frames, eps the
    arccos of the cosine that :func:`_haar_draws` draws."""
    cos_eps, phi, omega = _haar_draws(rng, n)
    return np.arccos(cos_eps), phi, omega


def haar_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """Batch of Haar-random 2x2 unitaries, shape (n, 2, 2).

    Euler construction Rz(phi) Ry(eps) Rz(omega) from
    :func:`haar_angles`.
    """
    eps, phi, omega = haar_angles(rng, n)
    half = eps / 2.0
    c, s = np.cos(half), np.sin(half)
    u = np.empty((n, 2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(-0.5j * (phi + omega)) * c
    u[:, 0, 1] = -np.exp(-0.5j * (phi - omega)) * s
    u[:, 1, 0] = np.exp(0.5j * (phi - omega)) * s
    u[:, 1, 1] = np.exp(0.5j * (phi + omega)) * c
    return u


def spin_tensor(state: TwoQubitState) -> np.ndarray:
    """The 3x3 spin-correlation tensor T_ij = Re Tr(rho sigma_i (x) sigma_j),
    with i, j over x, y, z.  For unit vectors a and b,
    Tr(rho (a . sigma) (x) (b . sigma)) = a^T T b."""
    return np.array(
        [[np.trace(state.rho @ np.kron(si, sj)).real for sj in _PAULI] for si in _PAULI]
    )


def _frame_pq(tensor: np.ndarray, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(p, q) of a batch of frames, as a (2, n) array:

        p = a^T T u = Tr(rho A_U (x) U sigma_x U^dag),
        q = a^T T a = Tr(rho A_U (x) A_U),

    where A_U = U sigma_z U^dag = a . sigma, U sigma_x U^dag = u . sigma,
    and a and u are (3, n) arrays.  Bob's operator at separation theta
    is B_U = U (sin(theta) sigma_x + cos(theta) sigma_z) U^dag, the
    projector difference of cos(theta/2)|0> + sin(theta/2)|1> in the
    frame, so Tr(rho A_U (x) B_U) = sin(theta) p + cos(theta) q.
    """
    ta = tensor.T @ a
    return np.stack([np.sum(ta * u, axis=0), np.sum(ta * a, axis=0)])


def _frame_moments(pq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and scatter (sum of centred outer products) of the columns
    of ``pq``."""
    mean = pq.mean(axis=1)
    centred = pq - mean[:, None]
    return mean, centred @ centred.T


def mc_quantum_curve(
    state: TwoQubitState, thetas: Sequence[float], plan: SamplingPlan
) -> list[tuple[float, float]]:
    """Monte Carlo estimates of the frame-averaged correlation on a
    grid: (value, stderr) per theta.

    Each sample draws one Haar frame and contributes the exact quantum
    expectation in that frame, sin(theta) p + cos(theta) q (see
    ``_frame_pq``), so the estimator converges to
    werner_correlation(twirl(state), theta).  The frame U = Rz(phi)
    Ry(eps) Rz(omega) rotates z to Alice's axis a and x to the tangent
    u of ``geometry.partner_frame`` at (eps, phi, omega), so a frame costs
    two 3-vectors, the :class:`Draws` frame of :func:`_haar_draws` (its
    trig within 2.3e-16 of libm's), against the state's
    ``spin_tensor``, computed once, and no complex matrix.  Only (p, q)
    are random: each chunk of ``plan`` gives their mean and 2x2 scatter
    once for the whole grid, and the chunks are merged in index order by
    the pairwise update of Chan, Golub and LeVeque (1979).  The value at theta is w . mean and
    its variance w^T scatter w / (n - 1), with w = (sin theta,
    cos theta); centred moments keep the variance of a
    rotation-invariant state (a Werner state, where every frame gives
    the same expectation) at rounding level.  The result depends only
    on the plan.
    """
    grid = checked_theta(thetas).tolist()
    tensor = spin_tensor(state)
    n, mean, scatter = 0, np.zeros(2), np.zeros((2, 2))
    for index, length in plan.chunks():
        a, u = Draws(*_haar_draws(plan.chunk_rng(index), length)).frame
        chunk_mean, chunk_scatter = _frame_moments(_frame_pq(tensor, a, u))
        delta = chunk_mean - mean
        mean = mean + delta * (length / (n + length))
        weight = n * length / (n + length)
        scatter = scatter + chunk_scatter + np.outer(delta, delta) * weight
        n += length
    estimates = []
    for t in grid:
        w = np.array([math.sin(t), math.cos(t)])
        value = float(w @ mean)
        stderr = math.sqrt(max(0.0, float(w @ scatter @ w)) / (n - 1) / n)
        estimates.append((value, stderr))
    return estimates


def mc_quantum_correlation(
    state: TwoQubitState, theta: float, plan: SamplingPlan
) -> tuple[float, float]:
    """Monte Carlo estimate of the frame-averaged correlation at one
    theta: (value, stderr), the one-theta case of
    :func:`mc_quantum_curve`."""
    return mc_quantum_curve(state, [theta], plan)[0]


def random_state(rng: np.random.Generator) -> TwoQubitState:
    """A random full-rank density operator (Ginibre construction)."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return TwoQubitState(rho)
