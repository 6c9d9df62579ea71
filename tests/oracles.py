"""Independent reference computations that only the tests use."""

import itertools
import math
from fractions import Fraction

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


def type_of(x, alphabet_size: int) -> tuple[Fraction, ...]:
    """Empirical distribution of the string x, exact rational."""
    x = list(x)
    n = len(x)
    return tuple(Fraction(x.count(a), n) for a in range(alphabet_size))


def empirical_entropy(x, alphabet_size: int) -> float:
    """H(x) in bits; depends only on the type of x."""
    h = 0.0
    for p in type_of(x, alphabet_size):
        if p > 0:
            h -= float(p) * math.log2(float(p))
    return h


def decoder_weights(source: CqSource, n: int, kind: str) -> dict[tuple, float]:
    """w(x) = 2^{-n H(x)} (fully universal) or p^n(x) (partially universal)
    for every string x, one string at a time."""
    k = len(source.states)
    out = {}
    for x in itertools.product(range(k), repeat=n):
        if kind == "fully-universal":
            out[x] = 2.0 ** (-n * empirical_entropy(x, k))
        else:
            out[x] = float(np.prod([source.probs[xi] for xi in x]))
    return out


def kernel_size(field, A) -> int:
    """Number of solutions c of A c = 0 over the field, by trying every c."""
    C = field.strings(np.shape(A)[1])
    return int(np.count_nonzero(~field.mat_mul(A, C.T).any(axis=0)))


def surjective_family(field, n: int, m: int) -> list[np.ndarray]:
    """Every n x m matrix H, in itertools.product order of its entries, kept
    when H c != 0 for every nonzero c (full column rank, no elimination)."""
    C = field.strings(m)[1:].T
    out = []
    for flat in itertools.product(range(field.q), repeat=n * m):
        H = np.array(flat, dtype=np.int64).reshape(n, m)
        if field.mat_mul(H, C).any(axis=0).all():
            out.append(H)
    return out
