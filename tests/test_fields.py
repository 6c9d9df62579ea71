"""Finite-field arithmetic, characters, Weyl operators, and MUBs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucqkd.errors import DomainError, UsageError
from ucqkd.fields import (
    GaloisField,
    field,
    mub_basis,
    weyl_x,
    weyl_z,
)

from oracles import kernel_size

FIELD_PARAMS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)]
# every GF(p^r) the module supports, q = p^r <= 256
ALL_FIELDS = [
    (p, r)
    for p in range(2, 257)
    if all(p % d for d in range(2, p))
    for r in range(1, 9)
    if p**r <= 256
]


@pytest.fixture(params=FIELD_PARAMS, ids=lambda pr: f"GF({pr[0]**pr[1]})")
def gf(request):
    return field(*request.param)


# ---------------------------------------------------------------------------
# Field axioms (exhaustive for these sizes, so the checks are exact)
# ---------------------------------------------------------------------------


def test_additive_group(gf):
    a = np.arange(gf.q)
    assert np.array_equal(gf.add_table[a, 0], a)
    assert not gf.add_table[a, gf.neg_table[a]].any()
    assert np.array_equal(gf.add_table, gf.add_table.T)


def test_multiplicative_group(gf):
    a = np.arange(gf.q)
    assert np.array_equal(gf.mul_table[a, 1], a)
    assert not gf.mul_table[a, 0].any()
    assert (gf.mul_table[a[1:], gf.inv_table[a[1:]]] == 1).all()
    assert np.array_equal(gf.mul_table, gf.mul_table.T)


def test_distributivity(gf):
    a, b, c = np.ix_(*[np.arange(gf.q)] * 3)
    M, A = gf.mul_table, gf.add_table
    assert np.array_equal(M[a, A[b, c]], A[M[a, b], M[a, c]])


def _frobenius_trace(gf):
    """sum_i a^(p^i) for every element a, each p-th power a product of p
    factors."""
    conj = tr = np.arange(gf.q)
    for _ in range(gf.r - 1):
        b = np.ones_like(conj)
        for _ in range(gf.p):
            b = gf.mul_table[b, conj]
        conj = b
        tr = gf.add_table[tr, conj]
    return tr


def test_frobenius_and_trace(gf):
    # trace(a) = sum of Frobenius conjugates a^{p^i}, and lands in F_p
    co = gf.coeff_table[_frobenius_trace(gf)]
    assert np.array_equal(co[:, 0], gf.trace_table)
    assert not co[:, 1:].any()


@pytest.mark.parametrize("p,r", ALL_FIELDS)
def test_every_supported_field_is_a_field(p, r):
    # the default modulus is irreducible: no zero divisors, every nonzero
    # element inverts, and the regular-representation trace is the
    # Frobenius sum Tr(a) = sum_i a^{p^i}, an element of F_p
    gf = GaloisField(p, r)
    q = gf.q
    assert gf.mul_table[1:, 1:].all()
    a = np.arange(1, q)
    assert (gf.mul_table[a, gf.inv_table[a]] == 1).all()
    co = gf.coeff_table[_frobenius_trace(gf)]
    assert np.array_equal(co[:, 0], gf.trace_table)
    assert not co[:, 1:].any()


def test_character_sums(gf):
    # sum_c chi(a c) = q if a == 0 else 0; chi is a homomorphism
    q = gf.q
    chi = gf.character(np.arange(q))
    sums = gf.character(gf.mul_table).sum(axis=1)
    assert np.abs(sums - np.where(np.arange(q) == 0, q, 0.0)).max() < 1e-9
    assert np.abs(gf.character(gf.add_table) - np.outer(chi, chi)).max() < 1e-12


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2)])
def test_mat_mul_matches_scalar_definition(p, r):
    gf = field(p, r)
    rng = np.random.default_rng(p * 10 + r)
    for n, k, m in ((1, 1, 1), (3, 4, 2), (5, 2, 3), (16, 4, 2)):
        A = rng.integers(0, gf.q, size=(n, k))
        B = rng.integers(0, gf.q, size=(k, m))
        ref = np.zeros((n, m), dtype=np.int64)
        for i in range(n):
            for j in range(m):
                for t in range(k):
                    ref[i, j] = gf.add_table[ref[i, j], gf.mul_table[A[i, t], B[t, j]]]
        assert np.array_equal(gf.mat_mul(A, B), ref)
        # a stack of right factors: one product per member
        Bs = rng.integers(0, gf.q, size=(3, k, m))
        assert np.array_equal(gf.mat_mul(A, Bs), np.stack([gf.mat_mul(A, b) for b in Bs]))
    with pytest.raises(UsageError):
        gf.mat_mul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_linear_algebra_solves_what_it_claims(gf):
    # rank against the number q^(cols - rank) of solutions of A c = 0
    # counted by brute force, and the inverse checked through mat_mul, on
    # random square and wide matrices with some rank deficiency
    rng = np.random.default_rng(gf.q)
    eye = np.eye(3, dtype=np.int64)
    for _ in range(40):
        A = rng.integers(0, gf.q, size=(3, int(rng.integers(3, 6))))
        if rng.random() < 0.3:
            A[2] = gf.mat_mul(rng.integers(0, gf.q, size=(1, 2)), A[:2])
        rank = gf.mat_rank(A)
        assert gf.q ** (A.shape[1] - rank) == kernel_size(gf, A)
        if rank == 3 and A.shape[1] == 3:
            assert np.array_equal(gf.mat_mul(A, gf.mat_inv(A)), eye)


def test_stacked_elimination_matches_one_matrix_at_a_time(gf):
    # RREF and rank of each matrix of a stack, rank-deficient ones included,
    # equal those of the matrix reduced on its own; so do those of a stack
    # of augmented matrices reduced on their first columns only
    rng = np.random.default_rng(gf.q + 1)
    for shape in ((3, 3), (2, 5), (5, 2), (4, 4)):
        A = rng.integers(0, gf.q, size=(2, 15) + shape)
        A[:, ::3, -1] = 0
        A[:, 1::3, 0] = A[:, 1::3, -1]
        A[:, 2::5] = 0
        for ncols in (shape[1], shape[1] - 1):
            R, rank = gf._row_reduce(A, ncols)
            assert R.shape == A.shape and rank.shape == A.shape[:2]
            assert (rank < min(shape)).any()
            for a, r_one, rank_one in zip(A.reshape((-1,) + shape), R.reshape((-1,) + shape),
                                          rank.ravel()):
                r_ref, rank_ref = gf._row_reduce(a, ncols)
                assert np.array_equal(r_one, r_ref) and rank_one == rank_ref
            assert np.array_equal(gf.mat_rank(A), gf._row_reduce(A, shape[1])[1])


def test_mat_inv_rejects_singular_matrices(gf):
    rng = np.random.default_rng(gf.q + 2)
    A = rng.integers(0, gf.q, size=(3, 3))
    A[2] = gf.add_table[A[0], A[1]]
    with pytest.raises(DomainError):
        gf.mat_inv(A)
    with pytest.raises(DomainError):
        gf.mat_inv(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(UsageError):
        gf.mat_inv(np.zeros((2, 3), dtype=np.int64))


def test_bad_field_parameters():
    with pytest.raises(UsageError):
        field(4, 1)
    with pytest.raises(UsageError):
        field(2, 0)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_field_axioms_hypothesis(a, b, c):
    gf = field(3, 2)
    M, A = gf.mul_table, gf.add_table
    assert M[a, A[b, c]] == A[M[a, b], M[a, c]]
    assert A[A[a, b], gf.neg_table[b]] == a
    if b != 0:
        assert M[M[a, b], gf.inv_table[b]] == a


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------


def test_weyl_commutation_single(gf):
    q = gf.q
    for a in range(q):
        for b in range(q):
            X, Z = weyl_x(gf, [a]), weyl_z(gf, [b])
            phase = gf.character(gf.mul_table[a, b])
            assert np.allclose(Z @ X, phase * (X @ Z), atol=1e-12)


def test_weyl_composition(gf):
    q = gf.q
    for a in range(q):
        for b in range(q):
            assert np.allclose(
                weyl_x(gf, [a]) @ weyl_x(gf, [b]),
                weyl_x(gf, [gf.add_table[a, b]]),
                atol=1e-12,
            )
            assert np.allclose(
                weyl_z(gf, [a]) @ weyl_z(gf, [b]),
                weyl_z(gf, [gf.add_table[a, b]]),
                atol=1e-12,
            )


def test_weyl_multiqudit_commutation():
    gf = field(2, 1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.integers(0, 2, size=3)
        b = rng.integers(0, 2, size=3)
        X, Z = weyl_x(gf, a), weyl_z(gf, b)
        phase = gf.character(gf.mat_mul(a[None, :], b[:, None])[0, 0])
        assert np.allclose(Z @ X, phase * (X @ Z), atol=1e-12)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2)])
def test_operators_match_per_index_loop(p, r):
    # X(a)|c> = |c + a>, Z(b)|c> = chi(<b, c>)|c> and the conjugate basis
    # chi(-c c') / sqrt(q), built here one basis index at a time
    gf = field(p, r)
    q = gf.q
    for n in (1, 2):
        dim = q**n
        Z = gf.strings(n)
        for idx in range(dim):
            v = Z[idx]
            X = np.zeros((dim, dim), dtype=complex)
            phases = np.zeros(dim, dtype=complex)
            for col in range(dim):
                c = Z[col]
                shifted = [gf.add_table[s, t] for s, t in zip(c, v)]
                X[gf.vector_indices([shifted])[0], col] = 1
                dot = 0
                for s, t in zip(c, v):
                    dot = gf.add_table[dot, gf.mul_table[s, t]]
                phases[col] = gf.character(dot)
            assert np.array_equal(weyl_x(gf, v), X)
            assert np.allclose(weyl_z(gf, v), np.diag(phases), rtol=0, atol=1e-15)
    B = np.array([[gf.character(gf.neg_table[gf.mul_table[c, cp]]) for c in range(q)]
                  for cp in range(q)]) / np.sqrt(q)
    assert np.allclose(mub_basis(gf), B, rtol=0, atol=1e-15)


def test_weyl_orthogonality(gf):
    # Tr[W(a,b)^dag W(a',b')] = q delta: the Weyl set is an operator basis
    q = gf.q
    ops = [weyl_x(gf, [a]) @ weyl_z(gf, [b]) for a in range(q) for b in range(q)]
    gram = np.array([[np.trace(P.conj().T @ Q) for Q in ops] for P in ops])
    assert np.allclose(gram, q * np.eye(q * q), atol=1e-9)


# ---------------------------------------------------------------------------
# MUB
# ---------------------------------------------------------------------------


def test_mub_unbiased_and_orthonormal(gf):
    q = gf.q
    B = mub_basis(gf)
    assert np.allclose(B.conj().T @ B, np.eye(q), atol=1e-12)
    assert np.allclose(np.abs(B) ** 2, 1.0 / q, atol=1e-12)


def test_mub_diagonalizes_x(gf):
    # X(1)|c~> = chi(c)... the conjugate basis consists of X eigenvectors
    q = gf.q
    X = weyl_x(gf, [1])
    for c in range(q):
        v = mub_basis(gf)[:, c]
        w = X @ v
        lam = w[np.argmax(np.abs(v))] / v[np.argmax(np.abs(v))]
        assert np.allclose(w, lam * v, atol=1e-12)
        assert abs(abs(lam) - 1.0) < 1e-12


def test_index_vector_roundtrip(gf):
    # row idx of strings(n) is the string with basis-state index idx, in
    # itertools.product order; digits answers for any array of indices
    n = 2
    Z = gf.strings(n)
    assert np.array_equal(Z, list(itertools.product(range(gf.q), repeat=n)))
    assert np.array_equal(gf.vector_indices(Z), np.arange(gf.q**n))
    idx = np.array([[gf.q**n - 1, 0], [1, gf.q]])
    assert np.array_equal(gf.digits(idx, n), Z[idx])
