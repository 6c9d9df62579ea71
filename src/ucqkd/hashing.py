"""Linear 2-universal hash families over GF(q) and their hashing unitaries.

A hash member is an n x m matrix H of full column rank over the field; the
hash of a row string x is x H.  For a surjective linear family the collision
bound holds with equality: for x != y, Pr_H[xH = yH] = 1/q^m.

The *dual quadruple* (G, Gbar, H, Hbar) extends H to a basis change:

* ``Hbar``  n x (n-m) unit columns completing H to an invertible ``(H Hbar)``
* ``G``     n x (n-m), columns span {g : g^T H = 0}
* ``Gbar``  n x m with ``Gbar^T H = I_m``

with ``(Gbar G) = (H Hbar)^{-T}`` from one inverse, so that
``(Gbar G)^T (H Hbar) = I_n``.  The hashing unitary is the basis
relabeling ``U|z> = |z (H Hbar)>``: after applying it, the first m qudits
carry the hash value z H and the remaining n-m qudits carry z Hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvariantError, UsageError
from .fields import GaloisField, _string_map_unitary

# Cap on exhaustive family enumeration: q**(n*m) matrices.
MAX_FAMILY_ENUM = 2**20

# matrix entries per block of candidates row-reduced, or of member-strings
# hashed: bounds the int64 arrays of one block to a few MB however large the
# family is
_ENUM_BLOCK = 1 << 18


def hash_apply(field: GaloisField, H, x):
    """Hash value x H of the row string x (length n) under member H (n x m)."""
    x = np.asarray(x, dtype=np.int64).reshape(1, -1)
    return field.mat_mul(x, np.asarray(H)).ravel()


def sample_toeplitz(
    field: GaloisField, n: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw a full-column-rank n x m Toeplitz matrix, resampling if singular.

    Entries H[i, j] = t[i - j + m - 1] for n + m - 1 uniform field symbols t.
    """
    if not 1 <= m <= n:
        raise UsageError(f"need 1 <= m <= n, got n={n}, m={m}")
    for _ in range(1000):
        t = rng.integers(0, field.q, size=n + m - 1)
        H = t[np.arange(n)[:, None] - np.arange(m)[None, :] + m - 1]
        if field.mat_rank(H) == m:
            return H
    raise InvariantError("failed to sample a full-rank Toeplitz matrix")


def enumerate_surjective_family(field: GaloisField, n: int, m: int) -> np.ndarray:
    """All n x m matrices of full column rank, as a stack in the order of
    their base-q digits (exhaustive; small sizes only)."""
    if not 1 <= m <= n:
        raise UsageError(f"need 1 <= m <= n, got n={n}, m={m}")
    total = field.q ** (n * m)
    if total > MAX_FAMILY_ENUM:
        raise CapacityError(
            f"family enumeration size {total} exceeds {MAX_FAMILY_ENUM}"
        )
    family = np.empty((math.prod(field.q**n - field.q**i for i in range(m)), n, m), np.int64)
    filled, step = 0, max(1, _ENUM_BLOCK // (n * m))
    for start in range(0, total, step):
        H = field.digits(np.arange(start, min(start + step, total)), n * m).reshape(-1, n, m)
        H = H[field.mat_rank(H) == m]
        if filled + len(H) <= len(family):
            family[filled:filled + len(H)] = H
        filled += len(H)
    if filled != len(family):
        raise InvariantError(f"full-rank member count differs from {len(family)}")
    return family


def verify_two_universal(field: GaloisField, family, n: int, m: int):
    """Exact collision statistics of a linear family.

    Returns ``(max_fraction, bound)`` where ``max_fraction`` is the largest
    collision probability Pr_H[xH = yH] over pairs x != y (equivalently over
    nonzero difference strings z, since the family is linear) and ``bound``
    is 1/q^m.  The family is 2-universal iff max_fraction <= bound.
    """
    Z = field.strings(n)[1:]
    family = np.asarray(family)
    step = max(1, _ENUM_BLOCK // (len(Z) * m))
    hits = sum(np.count_nonzero(~field.mat_mul(Z, family[i:i + step]).any(axis=-1), axis=0)
               for i in range(0, len(family), step))
    return int(hits.max(initial=0)) / len(family), 1.0 / field.q**m


@dataclass(frozen=True)
class DualQuadruple:
    """Matrices (G, Gbar, H, Hbar) with (Gbar G)^T (H Hbar) = I_n."""

    H: np.ndarray
    Hbar: np.ndarray
    G: np.ndarray
    Gbar: np.ndarray

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.H.shape[1]


def build_dual_quadruple(field: GaloisField, H) -> DualQuadruple:
    """Complete a full-column-rank hash member H to its dual quadruple."""
    H = np.asarray(H, dtype=np.int64)
    n, m = H.shape
    R, rank = field._row_reduce(H.T, n)
    if rank != m:
        raise UsageError("hash member must have full column rank")
    # the rows of H at the pivot columns of H^T are independent, so the unit
    # vectors at the other rows complete H to an invertible T = (H Hbar)
    Hbar = np.delete(np.eye(n, dtype=np.int64), (R != 0).argmax(axis=1), axis=1)
    S = field.mat_inv(np.concatenate([H, Hbar], axis=1)).T  # (Gbar G) = T^{-T}
    quad = DualQuadruple(H=H, Hbar=Hbar, G=S[:, m:], Gbar=S[:, :m])
    _check_quadruple(field, quad)
    return quad


def _check_quadruple(field: GaloisField, quad: DualQuadruple) -> None:
    n, m = quad.n, quad.m
    S = np.concatenate([quad.Gbar, quad.G], axis=1)
    T = np.concatenate([quad.H, quad.Hbar], axis=1)
    if not np.array_equal(field.mat_mul(S.T, T), np.eye(n, dtype=np.int64)):
        raise InvariantError("dual quadruple identity (Gbar G)^T (H Hbar) = I failed")
    if field.mat_mul(quad.G.T, quad.H).any():
        raise InvariantError("G^T H = 0 failed")
    if not np.array_equal(
        field.mat_mul(quad.Gbar.T, quad.H), np.eye(m, dtype=np.int64)
    ):
        raise InvariantError("Gbar^T H = I failed")


def hashing_unitary(field: GaloisField, quad: DualQuadruple) -> np.ndarray:
    """Permutation unitary U|z> = |z (H Hbar)> on n qudits.

    Equals the relabeling U(C) with C = (Gbar G); the first m output qudits
    hold the hash value z H.
    """
    T = np.concatenate([quad.H, quad.Hbar], axis=1)
    return _string_map_unitary(field, T, n_in=quad.n, n_out=quad.n)


def hash_preimages(field: GaloisField, H, n: int) -> dict[int, list[np.ndarray]]:
    """Group all length-n strings by hash value index (dense enumeration)."""
    out: dict[int, list[np.ndarray]] = {}
    m = np.asarray(H).shape[1]
    Z = field.strings(n)
    for x, b in zip(Z, field.vector_indices(field.mat_mul(Z, H))):
        out.setdefault(int(b), []).append(x)
    if len(out) != field.q**m:
        raise InvariantError("surjective hash member missed a bin")
    return out
