"""Shared dense Hermitian matrix-function numerics.

All spectral functions go through one eigendecomposition path, `herm_eig`,
with eigenvalue clamping at 1e-14: fractional powers of nearly singular
density operators are the dominant failure mode at this scale.  `eig_pow`
and `frechet_derivative` take the eigenpairs a caller already holds, so an
objective that needs a matrix power and its derivative at one state
diagonalizes that state once.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError

EIG_CLAMP = 1e-14


def check_hermitian(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if np.abs(A - A.conj().T).max() > 1e-12:
        raise InvariantError(f"{what} is not Hermitian within 1e-12")
    return 0.5 * (A + A.conj().T)


def herm_eig(A: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (ascending eigenvalues); a real symmetric A keeps real eigenvectors."""
    A = np.asarray(A)
    return np.linalg.eigh(0.5 * (A + A.conj().swapaxes(-1, -2)))


def mpow(A: np.ndarray, p: float) -> np.ndarray:
    """A**p for Hermitian PSD A, clamping eigenvalues below EIG_CLAMP to 0.

    Negative powers act as pseudo-inverse powers on the support.
    """
    return eig_pow(*herm_eig(A), p)


def eig_pow(lam: np.ndarray, U: np.ndarray, p: float) -> np.ndarray:
    """mpow on a given eigendecomposition (lam, U): U diag(lam**p) U^dag with
    eigenvalues below EIG_CLAMP clamped to 0."""
    lam = np.where(lam < EIG_CLAMP, 0.0, lam)
    with np.errstate(divide="ignore"):
        vals = np.where(lam > 0, lam**p, 0.0)
    return (U * vals) @ U.conj().T


def frechet_derivative(f, fprime, lam: np.ndarray, U: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Frechet derivative of the matrix function f at A = U diag(lam) U^dag
    along C, on the eigenpairs (lam, U) the caller already holds:
    U (f^[1] o U^dag C U) U^dag with the first divided-difference matrix f^[1]
    (Daleckii-Krein).  Its off-diagonal entries are (f(a)-f(b))/(a-b);
    entries with |a-b| < 1e-8, and the diagonal, use f' at the midpoint (the
    stable limit branch).
    """
    a = lam[:, None]
    b = lam[None, :]
    diff = a - b
    close = np.abs(diff) < 1e-8
    fd = np.where(close, fprime((a + b) / 2.0), (f(a) - f(b)) / np.where(close, 1.0, diff))
    Uh = U.conj().T
    return U @ (fd * (Uh @ C @ U)) @ Uh


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
