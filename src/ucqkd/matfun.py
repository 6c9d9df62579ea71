"""Shared dense Hermitian matrix-function numerics.

All spectral functions go through one eigendecomposition path with eigenvalue
clamping at 1e-14: fractional powers of nearly singular density operators are
the dominant failure mode at this scale.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError

EIG_CLAMP = 1e-14
SUPPORT_CUTOFF = 1e-10


def check_hermitian(A: np.ndarray, tol: float = 1e-12, what: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if np.abs(A - A.conj().T).max() > tol:
        raise InvariantError(f"{what} is not Hermitian within {tol}")
    return 0.5 * (A + A.conj().T)


def herm_eig(A: np.ndarray):
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues); a real
    symmetric A keeps real eigenvectors."""
    A = np.asarray(A)
    return np.linalg.eigh(0.5 * (A + A.conj().T))


def mpow(A: np.ndarray, p: float, clamp: float = EIG_CLAMP) -> np.ndarray:
    """A**p for Hermitian PSD A, clamping eigenvalues below `clamp` to 0.

    Negative powers act as pseudo-inverse powers on the support.
    """
    lam, U = herm_eig(A)
    lam = np.where(lam < clamp, 0.0, lam)
    with np.errstate(divide="ignore"):
        vals = np.where(lam > 0, lam**p, 0.0)
    return (U * vals) @ U.conj().T


def mlog2(A: np.ndarray, clamp: float = EIG_CLAMP) -> np.ndarray:
    """log2 of Hermitian PSD A on its support (0 log set to 0 off-support)."""
    lam, U = herm_eig(A)
    vals = np.where(lam > clamp, np.log2(np.maximum(lam, clamp)), 0.0)
    return (U * vals) @ U.conj().T


def support_projector(A: np.ndarray, cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    lam, U = herm_eig(A)
    vals = (lam > cutoff).astype(float)
    return (U * vals) @ U.conj().T


def divided_difference_matrix(f, fprime, lam: np.ndarray, degen_tol: float = 1e-8) -> np.ndarray:
    """First divided-difference matrix f^[1] on the eigenvalue list lam.

    Off-diagonal entries (f(a)-f(b))/(a-b); entries with |a-b| < degen_tol,
    and the diagonal, use f' at the midpoint (the stable limit branch).
    """
    lam = np.asarray(lam, dtype=float)
    a = lam[:, None]
    b = lam[None, :]
    diff = a - b
    close = np.abs(diff) < degen_tol
    safe = np.where(close, 1.0, diff)
    out = (f(a) - f(b)) / safe
    mid = fprime((a + b) / 2.0)
    return np.where(close, mid, out)


def frechet_derivative(f, fprime, A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Frechet derivative of the matrix function f at Hermitian A along C."""
    lam, U = herm_eig(A)
    fd = divided_difference_matrix(f, fprime, lam)
    return U @ (fd * (U.conj().T @ C @ U)) @ U.conj().T


def partial_trace(A: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace over the tensor factors not listed in `keep`."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    T = np.asarray(A, dtype=complex).reshape(dims + dims)
    traced = 0
    for ax in range(n):
        if ax in keep:
            continue
        k = ax - traced
        T = np.trace(T, axis1=k, axis2=k + len(dims) - traced)
        traced += 1
    dkeep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return T.reshape(dkeep, dkeep)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Haar-ish random density matrix (Wishart normalization)."""
    rank = rank or dim
    G = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real
