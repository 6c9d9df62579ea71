"""Finite fields GF(p^r), additive characters, and generalized Weyl operators.

Field elements are referred to by a canonical integer index in ``[0, q)``:
the element with coefficient vector ``(c_0, ..., c_{r-1})`` (``c_0`` the
constant term, coefficients in ``[0, p)``) has index ``sum_i c_i p^i``.
All arithmetic is table driven and exact.  The tables come from the regular
representation: multiplication by ``a`` is the F_p-linear map
``R(a) = sum_i a_i C^i`` on coefficient vectors, with ``C`` the companion
matrix of the modulus, and the field trace is ``Tr(a) = trace R(a) mod p``.

The qudit computational basis is labelled by field elements in index order.
Conventions:

* single-qudit shift     ``X(a)|c> = |c + a>``
* single-qudit clock     ``Z(b)|c> = chi(b*c)|c>`` with the additive
  character ``chi(t) = exp(2*pi*i*Tr(t)/p)``
* multi-qudit operators act component-wise with the bilinear form
  ``<a, b> = sum_i a_i b_i`` (no field-trace twist on each slot; the trace
  enters only through ``chi``), so that
  ``Z(b) X(a) = chi(<a, b>) X(a) Z(b)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, InvariantError, UsageError

# Hard cap on the Hilbert-space dimension q**n handled by the dense
# operator constructors below.
MAX_DENSE_DIM = 4096

# Default moduli (coefficient lists, constant term first, monic), one for
# every GF(p^r) with r >= 2 and p^r <= 256; r = 1 uses x.  The first seven
# are Conway polynomials; each of the rest is the first monic irreducible in
# lexicographic order of its coefficient list.  tests/test_fields.py checks
# that every entry gives a field.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (3, 2): (2, 2, 1),          # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (5, 2): (2, 4, 1),          # x^2 + 4x + 2
    (7, 2): (3, 6, 1),          # x^2 + 6x + 3
    (2, 5): (1, 0, 0, 1, 0, 1),           # x^5 + x^3 + 1
    (2, 6): (1, 0, 0, 0, 0, 1, 1),        # x^6 + x^5 + 1
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),     # x^7 + x^6 + 1
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),  # x^8 + x^7 + x^5 + x^4 + 1
    (3, 4): (1, 0, 1, 1, 1),    # x^4 + x^3 + x^2 + 1
    (3, 5): (1, 0, 0, 0, 2, 1), # x^5 + 2x^4 + 1
    (5, 3): (1, 0, 1, 1),       # x^3 + x^2 + 1
    (11, 2): (1, 0, 1),         # x^2 + 1
    (13, 2): (1, 3, 1),         # x^2 + 3x + 1
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


class GaloisField:
    """GF(p^r) with dense exact arithmetic tables.

    Elements are integer indices in ``[0, p**r)``; see module docstring for
    the index <-> coefficient-vector correspondence.
    """

    def __init__(self, p: int, r: int):
        if not _is_prime(p):
            raise UsageError(f"field characteristic must be prime, got {p}")
        if r < 1:
            raise UsageError(f"field extension degree must be >= 1, got {r}")
        q = p**r
        if q > 256:
            raise CapacityError(f"field size {q} exceeds cap 256")
        self.p = p
        self.r = r
        self.q = q
        self.modulus = (0, 1) if r == 1 else DEFAULT_MODULI[(p, r)]

        w = p ** np.arange(r)
        # coeff_table[a]: coefficient vector of element a, constant term first
        self.coeff_table = co = (np.arange(q)[:, None] // w) % p
        # companion matrix of the modulus: coeffs(x b) = coeffs(b) @ C
        C = np.eye(r, k=1, dtype=np.int64)
        C[-1] = -np.array(self.modulus[:-1]) % p
        # regular representation R[a] = sum_i a_i C^i: coeffs(a b) = coeffs(b) @ R[a]
        powers = np.array([np.linalg.matrix_power(C, i) for i in range(r)])
        R = np.einsum("ai,ijk->ajk", co, powers) % p
        self.mul_table = (np.einsum("bj,ajk->abk", co, R) % p) @ w
        self.add_table = ((co[:, None] + co[None]) % p) @ w
        self.neg_table = (-co % p) @ w
        self.inv_table = np.argmax(self.mul_table == 1, axis=1)
        # Tr(a) = trace of the F_p-linear map b -> a b
        self.trace_table = np.trace(R, axis1=1, axis2=2) % p
        if not (self.mul_table[np.arange(1, q), self.inv_table[1:]] == 1).all():
            raise InvariantError(f"modulus {self.modulus} is reducible over F_{p}")

    def character(self, a):
        """Additive character chi(a) = exp(2*pi*i*Tr(a)/p), elementwise on arrays."""
        return np.exp(1j * (2 * np.pi * self.trace_table[a] / self.p))

    # -- vectors and matrices over the field ---------------------------------
    # Matrices are 2-D numpy int arrays of element indices.

    def mat_mul(self, A, B):
        """Matrix product over the field; either factor may be a stack of
        matrices (leading axes broadcast), so one call multiplies a string
        matrix by a stack of hash-family members."""
        A = np.asarray(A)
        B = np.asarray(B)
        k = A.shape[-1]
        if A.ndim < 2 or B.ndim < 2 or B.shape[-2] != k:
            raise UsageError("matrix dimension mismatch")
        shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
        out = np.zeros(shape + (A.shape[-2], B.shape[-1]), dtype=np.int64)
        for t in range(k):
            out = self.add_table[out, self.mul_table[A[..., :, t, None], B[..., None, t, :]]]
        return out

    def _row_reduce(self, A, ncols: int):
        """Reduced row echelon form of each matrix of the stack A (any leading
        axes) on its first `ncols` columns, the row operations acting on whole
        rows, and each matrix's rank on those columns."""
        M = np.array(A, dtype=np.int64)
        lead, (n, m) = M.shape[:-2], M.shape[-2:]
        M = M.reshape(-1, n, m)
        rank = np.zeros(len(M), dtype=np.int64)
        for col in range(ncols):
            # matrices with a nonzero entry in col at or below their next pivot row
            free = (np.arange(n) >= rank[:, None]) & (M[:, :, col] != 0)
            t = np.flatnonzero(free.any(axis=1))
            r, p = rank[t], free[t].argmax(axis=1)
            pivot = M[t, p]
            M[t, p] = M[t, r]
            pivot = self.mul_table[self.inv_table[pivot[:, col]][:, None], pivot]
            # subtract f_i times the pivot row from every other row i, all at once
            f = M[t, :, col]
            f[np.arange(len(t)), r] = 0
            sub = self.neg_table[self.mul_table[f[:, :, None], pivot[:, None]]]
            M[t] = self.add_table[M[t], sub]
            M[t, r] = pivot
            rank[t] += 1
        return M.reshape(lead + (n, m)), rank.reshape(lead)[()]

    def mat_rank(self, A):
        """Rank of A over the field, or of each matrix of a stack A."""
        return self._row_reduce(A, np.shape(A)[-1])[1]

    def mat_inv(self, A):
        """Inverse over the field; DomainError if A is singular."""
        A = np.asarray(A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise UsageError("matrix inverse requires a square matrix")
        R, rank = self._row_reduce(np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1), n)
        if rank < n:
            raise DomainError("matrix is singular over the field")
        return R[:, n:]

    # -- vector <-> basis-state index ----------------------------------------

    def vector_indices(self, Z):
        """Basis-state index of each row of the string matrix (or stack) Z."""
        Z = np.asarray(Z, dtype=np.int64)
        return Z @ self.q ** np.arange(Z.shape[-1] - 1, -1, -1)

    def digits(self, idx, n: int):
        """The length-n string with basis-state index idx, for each index of
        the array idx: its base-q digits, most significant first."""
        idx = np.asarray(idx, dtype=np.int64)[..., None]
        return idx // self.q ** np.arange(n - 1, -1, -1) % self.q

    def strings(self, n: int):
        """(q**n x n) matrix whose row idx is the string with index idx."""
        return self.digits(np.arange(self.q**n), n)

    def __repr__(self) -> str:
        return f"GaloisField(p={self.p}, r={self.r}, modulus={self.modulus})"


@lru_cache(maxsize=32)
def field(p: int, r: int) -> GaloisField:
    """Memoized constructor with the default modulus."""
    return GaloisField(p, r)


# ---------------------------------------------------------------------------
# Weyl operators, mutually unbiased basis, string-map unitaries
# ---------------------------------------------------------------------------


def _check_dim(field: GaloisField, n: int) -> int:
    dim = field.q**n
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense operator dimension {dim} exceeds {MAX_DENSE_DIM}")
    return dim


def weyl_x(field: GaloisField, a) -> np.ndarray:
    """Shift operator X(a) on n qudits: X(a)|c> = |c + a> component-wise."""
    a = np.atleast_1d(np.asarray(a, dtype=np.int64))
    dim = _check_dim(field, len(a))
    images = field.vector_indices(field.add_table[field.strings(len(a)), a])
    U = np.zeros((dim, dim), dtype=complex)
    U[images, np.arange(dim)] = 1.0
    return U


def weyl_z(field: GaloisField, b) -> np.ndarray:
    """Clock operator Z(b) on n qudits: Z(b)|c> = chi(<b, c>)|c>."""
    b = np.atleast_1d(np.asarray(b, dtype=np.int64))
    _check_dim(field, len(b))
    dots = field.mat_mul(field.strings(len(b)), b[:, None])[:, 0]
    return np.diag(field.character(dots))


def mub_basis(field: GaloisField) -> np.ndarray:
    """Columns are the conjugate-basis vectors
    |c~> = q^{-1/2} sum_{c'} chi(-c c') |c'>, c = 0..q-1."""
    return field.character(field.neg_table[field.mul_table]) / np.sqrt(field.q)


def _string_map_unitary(field: GaloisField, M, n_in: int, n_out: int) -> np.ndarray:
    """Unitary (or isometry pattern) |z> -> |z M| for an n_in x n_out map M."""
    dim_in = _check_dim(field, n_in)
    dim_out = _check_dim(field, n_out)
    M = np.asarray(M, dtype=np.int64)
    U = np.zeros((dim_out, dim_in), dtype=complex)
    images = field.vector_indices(field.mat_mul(field.strings(n_in), M))
    U[images, np.arange(dim_in)] = 1.0
    return U
