"""The complex-matrix frame expectations of the quantum engine, kept as a
test oracle.

Per Haar frame U it forms A_U = U sigma_z U^dag and U sigma_x U^dag as
batched 2x2 complex products, and takes

    p = Tr(rho A_U (x) U sigma_x U^dag),  q = Tr(rho A_U (x) A_U)

by contracting the reshaped density matrix against them.  The library
reads the same numbers as a^T T u and a^T T a from the state's 3x3
spin-correlation tensor T and the frame's axes a = U z and u = U x, so
the two agree to rounding (about 1e-16 per frame), not bit for bit.
"""

import numpy as np

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def frame_pq(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(p, q) of each frame in the batch ``u`` of shape (n, 2, 2), as a
    (2, n) array."""
    rho4 = np.asarray(rho).reshape(2, 2, 2, 2)
    udag = np.conj(np.swapaxes(u, 1, 2))
    a_ops = u @ _SIGMA_Z @ udag
    x_ops = u @ _SIGMA_X @ udag
    # (A (x) B)[2a+b, 2c+d] = A[a,c] B[b,d]; trace against rho reshaped
    return np.stack(
        [
            np.einsum("abcd,nca,ndb->n", rho4, a_ops, x_ops).real,
            np.einsum("abcd,nca,ndb->n", rho4, a_ops, a_ops).real,
        ]
    )
