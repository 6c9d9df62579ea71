"""Finite fields GF(p^r), additive characters, and generalized Weyl operators.

Field elements are referred to by a canonical integer index in ``[0, q)``:
the element with coefficient vector ``(c_0, ..., c_{r-1})`` (``c_0`` the
constant term, coefficients in ``[0, p)``) has index ``sum_i c_i p^i``.
All arithmetic is table driven and exact.

The qudit computational basis is labelled by field elements in index order.
Conventions:

* single-qudit shift     ``X(a)|c> = |c + a>``
* single-qudit clock     ``Z(b)|c> = chi(b*c)|c>`` with the additive
  character ``chi(t) = exp(2*pi*i*Tr(t)/p)``
* multi-qudit operators act component-wise with the bilinear form
  ``<a, b> = sum_i a_i b_i`` (no field-trace twist on each slot; the trace
  enters only through ``chi``), so that
  ``Z(b) X(a) = chi(<a, b>) X(a) Z(b)``.
* basis relabeling       ``U(C)|z> = |z C^{-T}>`` for invertible ``C``,
  which gives ``U(C)^† X(a) U(C) = X(a C^T)`` and
  ``U(C)^† Z(b) U(C) = Z(b C^{-1})``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, InvariantError, UsageError

# Hard cap on the Hilbert-space dimension q**n handled by the dense
# operator constructors below.
MAX_DENSE_DIM = 4096

# Fixed default moduli (coefficient lists, constant term first, monic).
# These are the Conway polynomials for the small fields used throughout.
DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (3, 2): (2, 2, 1),          # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (5, 2): (2, 4, 1),          # x^2 + 4x + 2
    (7, 2): (3, 6, 1),          # x^2 + 6x + 3
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p (coefficient lists, constant term first).
# Only used during field construction; everything afterwards is table driven.
# ---------------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(_poly_trim(a)) - 1 >= dm:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * c) % p
        _poly_trim(a)
    return a


def _poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, m, p)


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)//2."""
    deg = len(m) - 1
    if deg < 1 or m[-1] == 0:
        return False
    if deg == 1:
        return True
    mm = list(m)
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            # Compute m mod div; zero remainder means reducible.
            rem = _poly_mod(mm, div, p)
            if not _poly_trim(list(rem)):
                return False
    return True


def _default_modulus(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)  # x
    if (p, r) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, r)]
    # Deterministic fallback: lexicographically smallest monic irreducible.
    for tail in itertools.product(range(p), repeat=r):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InvariantError(f"no irreducible polynomial of degree {r} over F_{p}")


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
        self.modulus = _default_modulus(p, r)

        self._coeffs = np.array(
            [self._index_to_coeffs_slow(i) for i in range(q)], dtype=np.int64
        )
        self._build_tables()

    # -- index/coefficient conversions -------------------------------------

    def _index_to_coeffs_slow(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (constant term first) of element index ``a``."""
        return tuple(int(c) for c in self._coeffs[a])

    def index(self, coeffs) -> int:
        """Element index of a coefficient vector (length <= r)."""
        idx = 0
        for k, c in enumerate(coeffs):
            idx += (int(c) % self.p) * self.p**k
        return idx

    # -- table construction --------------------------------------------------

    def _build_tables(self) -> None:
        p, q, m = self.p, self.q, list(self.modulus)
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            ca = list(self._coeffs[a])
            for b in range(a, q):
                cb = list(self._coeffs[b])
                s = [(x + y) % p for x, y in zip(ca, cb)]
                add[a, b] = add[b, a] = self.index(s)
                pr = _poly_mulmod(ca, cb, m, p)
                mul[a, b] = mul[b, a] = self.index(pr)
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.array(
            [self.index([(-c) % p for c in self._coeffs[a]]) for a in range(q)],
            dtype=np.int64,
        )
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            b = a
            for _ in range(q - 3):  # a**(q-2) by repeated multiplication
                b = int(mul[b, a])
            inv[a] = b if q > 2 else a
            if int(mul[a, inv[a]]) != 1:
                raise InvariantError("inverse table construction failed")
        self.inv_table = inv

        # Field trace Tr(a) = sum_k a**(p**k), an element of the prime field,
        # identified with its constant coefficient.
        tr = np.zeros(q, dtype=np.int64)
        for a in range(q):
            acc = 0
            term = a
            for _ in range(self.r):
                acc = int(add[acc, term])
                term = self._pow_raw(term, p)
            c = self._coeffs[acc]
            if any(c[1:]):
                raise InvariantError("field trace left the prime subfield")
            tr[a] = c[0]
        self.trace_table = tr

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = int(self.mul_table[out, base])
            base = int(self.mul_table[base, base])
            e >>= 1
        return out

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("division by zero field element")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow_raw(self.inv(a), -e)
        return self._pow_raw(a, e)

    def trace(self, a: int) -> int:
        """Field trace to F_p, as an integer in [0, p)."""
        return int(self.trace_table[a])

    def character(self, a: int) -> complex:
        """Additive character chi(a) = exp(2*pi*i*Tr(a)/p)."""
        return complex(np.exp(2j * np.pi * self.trace(a) / self.p))

    # -- vectors and matrices over the field ---------------------------------
    # Matrices are 2-D numpy int arrays of element indices.

    def vec_add(self, u, v):
        return self.add_table[np.asarray(u), np.asarray(v)]

    def vec_dot(self, u, v) -> int:
        """Component-wise bilinear form <u, v> = sum_i u_i v_i."""
        acc = 0
        for a, b in zip(np.asarray(u).ravel(), np.asarray(v).ravel()):
            acc = self.add(acc, self.mul(int(a), int(b)))
        return acc

    def mat_mul(self, A, B):
        A = np.asarray(A)
        B = np.asarray(B)
        n, k = A.shape
        k2, m = B.shape
        if k != k2:
            raise UsageError("matrix dimension mismatch")
        out = np.zeros((n, m), dtype=np.int64)
        for t in range(k):
            out = self.add_table[out, self.mul_table[A[:, t, None], B[None, t, :]]]
        return out

    def _row_reduce(self, A):
        """Return (RREF matrix, pivot column list)."""
        M = np.array(A, dtype=np.int64)
        n, m = M.shape
        pivots = []
        row = 0
        for col in range(m):
            piv = next((i for i in range(row, n) if M[i, col] != 0), None)
            if piv is None:
                continue
            M[[row, piv]] = M[[piv, row]]
            inv = self.inv(int(M[row, col]))
            for j in range(m):
                M[row, j] = self.mul(int(M[row, j]), inv)
            for i in range(n):
                if i != row and M[i, col] != 0:
                    f = int(M[i, col])
                    for j in range(m):
                        M[i, j] = self.sub(
                            int(M[i, j]), self.mul(f, int(M[row, j]))
                        )
            pivots.append(col)
            row += 1
            if row == n:
                break
        return M, pivots

    def mat_rank(self, A) -> int:
        return len(self._row_reduce(A)[1])

    def mat_inv(self, A):
        A = np.asarray(A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise UsageError("matrix inverse requires a square matrix")
        aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
        R, piv = self._row_reduce(aug)
        if piv != list(range(n)):
            raise DomainError("matrix is singular over the field")
        return R[:, n:]

    def mat_kernel(self, A):
        """Basis (rows) of the right kernel {x : A x = 0}."""
        A = np.asarray(A)
        n, m = A.shape
        R, piv = self._row_reduce(A)
        free = [j for j in range(m) if j not in piv]
        basis = []
        for f in free:
            x = np.zeros(m, dtype=np.int64)
            x[f] = 1
            for row_idx, pcol in enumerate(piv):
                # x[pcol] = -R[row_idx, f]
                x[pcol] = self.neg(int(R[row_idx, f]))
            basis.append(x)
        return np.array(basis, dtype=np.int64).reshape(len(basis), m)

    def mat_solve(self, A, B):
        """One particular solution X of A X = B, or raise if inconsistent."""
        A = np.asarray(A)
        B = np.asarray(B)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        n, m = A.shape
        aug = np.concatenate([A, B], axis=1)
        R, piv = self._row_reduce(aug)
        if any(p >= m for p in piv):
            raise DomainError("linear system is inconsistent")
        X = np.zeros((m, B.shape[1]), dtype=np.int64)
        for row_idx, pcol in enumerate(piv):
            X[pcol, :] = R[row_idx, m:]
        return X

    # -- vector <-> basis-state index ----------------------------------------

    def vector_index(self, z) -> int:
        """Basis-state index of the qudit string z (leftmost digit = slot 0)."""
        idx = 0
        for c in np.asarray(z).ravel():
            idx = idx * self.q + int(c)
        return idx

    def vector_indices(self, Z):
        """Basis-state index of each row of the string matrix Z."""
        Z = np.asarray(Z, dtype=np.int64)
        return Z @ self.q ** np.arange(Z.shape[1] - 1, -1, -1)

    def strings(self, n: int):
        """(q**n x n) matrix whose row idx is index_vector(idx, n)."""
        return np.array(
            list(itertools.product(range(self.q), repeat=n)), dtype=np.int64
        ).reshape(self.q**n, n)

    def index_vector(self, idx: int, n: int):
        out = np.zeros(n, dtype=np.int64)
        for k in range(n - 1, -1, -1):
            out[k] = idx % self.q
            idx //= self.q
        return out

    def __repr__(self) -> str:
        return f"GaloisField(p={self.p}, r={self.r}, modulus={self.modulus})"


@lru_cache(maxsize=32)
def field(p: int, r: int) -> GaloisField:
    """Memoized constructor with the default modulus."""
    return GaloisField(p, r)


# ---------------------------------------------------------------------------
# Weyl operators, mutually unbiased basis, relabeling unitaries
# ---------------------------------------------------------------------------


def _check_dim(field: GaloisField, n: int) -> int:
    dim = field.q**n
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense operator dimension {dim} exceeds {MAX_DENSE_DIM}")
    return dim


def weyl_x(field: GaloisField, a) -> np.ndarray:
    """Shift operator X(a) on n qudits: X(a)|c> = |c + a> component-wise."""
    a = np.atleast_1d(np.asarray(a, dtype=np.int64))
    n = len(a)
    dim = _check_dim(field, n)
    U = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        c = field.index_vector(idx, n)
        U[field.vector_index(field.vec_add(c, a)), idx] = 1.0
    return U


def weyl_z(field: GaloisField, b) -> np.ndarray:
    """Clock operator Z(b) on n qudits: Z(b)|c> = chi(<b, c>)|c>."""
    b = np.atleast_1d(np.asarray(b, dtype=np.int64))
    n = len(b)
    dim = _check_dim(field, n)
    phases = np.array(
        [
            field.character(field.vec_dot(b, field.index_vector(idx, n)))
            for idx in range(dim)
        ]
    )
    return np.diag(phases)


def mub_vector(field: GaloisField, c: int) -> np.ndarray:
    """Conjugate-basis vector |c~> = q^{-1/2} sum_{c'} chi(-c c') |c'>."""
    q = field.q
    v = np.array(
        [field.character(field.neg(field.mul(c, cp))) for cp in range(q)]
    )
    return v / np.sqrt(q)


def mub_basis(field: GaloisField) -> np.ndarray:
    """Columns are the conjugate-basis vectors |c~>, c = 0..q-1."""
    return np.column_stack([mub_vector(field, c) for c in range(field.q)])


def relabeling_unitary(field: GaloisField, C) -> np.ndarray:
    """Permutation unitary U(C)|z> = |z C^{-T}> for invertible C over the field.

    Satisfies U^† X(a) U = X(a C^T) and U^† Z(b) U = Z(b C^{-1}).
    """
    C = np.asarray(C, dtype=np.int64)
    n = C.shape[0]
    if C.shape != (n, n):
        raise UsageError("relabeling matrix must be square")
    M = field.mat_inv(C).T  # z -> z C^{-T}, i.e. row-vector times M
    return _string_map_unitary(field, M, n_in=n, n_out=n)


def _string_map_unitary(field: GaloisField, M, n_in: int, n_out: int) -> np.ndarray:
    """Unitary (or isometry pattern) |z> -> |z M| for an n_in x n_out map M."""
    dim_in = _check_dim(field, n_in)
    dim_out = _check_dim(field, n_out)
    M = np.asarray(M, dtype=np.int64)
    U = np.zeros((dim_out, dim_in), dtype=complex)
    images = field.vector_indices(field.mat_mul(field.strings(n_in), M))
    U[images, np.arange(dim_in)] = 1.0
    return U
