"""Independent reference computations that only the tests use."""

import numpy as np

from ucqkd.entropies import CqSource, von_neumann_entropy
from ucqkd.matfun import herm_eig, partial_trace

SUPPORT_CUTOFF = 1e-10


def cq_state(source: CqSource) -> np.ndarray:
    """Block-diagonal rho_XB with X as the outer classical index."""
    d = source.dim
    k = len(source.states)
    out = np.zeros((k * d, k * d), dtype=complex)
    for x, blk in enumerate(source.blocks()):
        out[x * d : (x + 1) * d, x * d : (x + 1) * d] = blk
    return out


def product_state(source: CqSource, x: tuple) -> np.ndarray:
    """rho_{x_1} x...x rho_{x_n} as a chain of np.kron calls."""
    out = np.eye(1, dtype=complex)
    for xi in x:
        out = np.kron(out, np.asarray(source.states[xi], dtype=complex))
    return out


def von_neumann_conditional(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """H(A|B) = H(AB) - H(B) in bits."""
    rho_b = partial_trace(rho_ab, dims, keep=[1])
    return von_neumann_entropy(rho_ab) - von_neumann_entropy(rho_b)


def support_projector(A: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvectors of Hermitian A above SUPPORT_CUTOFF."""
    lam, U = herm_eig(A)
    vals = (lam > SUPPORT_CUTOFF).astype(float)
    return (U * vals) @ U.conj().T
