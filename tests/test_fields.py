"""Finite-field arithmetic, characters, Weyl operators, and MUBs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucqkd.errors import UsageError
from ucqkd.fields import (
    GaloisField,
    field,
    mub_basis,
    weyl_x,
    weyl_z,
)

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
    q = gf.q
    for a in range(q):
        assert gf.add(a, 0) == a
        assert gf.add(a, gf.neg(a)) == 0
        for b in range(q):
            assert gf.add(a, b) == gf.add(b, a)


def test_multiplicative_group(gf):
    q = gf.q
    for a in range(q):
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        if a != 0:
            assert gf.mul(a, gf.inv(a)) == 1
        for b in range(q):
            assert gf.mul(a, b) == gf.mul(b, a)


def test_distributivity(gf):
    q = gf.q
    for a in range(q):
        for b in range(q):
            for c in range(q):
                lhs = gf.mul(a, gf.add(b, c))
                rhs = gf.add(gf.mul(a, b), gf.mul(a, c))
                assert lhs == rhs


def _frobenius_conjugates(gf, a):
    """a, a^p, ..., a^(p^(r-1)), each p-th power a product of p factors."""
    out = [a]
    for _ in range(gf.r - 1):
        b = 1
        for _ in range(gf.p):
            b = gf.mul(b, out[-1])
        out.append(b)
    return out


def test_frobenius_and_trace(gf):
    # trace(a) = sum of Frobenius conjugates a^{p^i}, and lands in F_p
    for a in range(gf.q):
        tr = 0
        for conj in _frobenius_conjugates(gf, a):
            tr = gf.add(tr, conj)
        assert gf.trace(a) == gf.coeffs(tr)[0]
        assert all(c == 0 for c in gf.coeffs(tr)[1:])


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
    for x in range(q):
        tr = 0
        for conj in _frobenius_conjugates(gf, x):
            tr = gf.add(tr, conj)
        assert gf.coeffs(tr) == (gf.trace(x),) + (0,) * (r - 1)


def test_character_sums(gf):
    # sum_c chi(a c) = q if a == 0 else 0; chi is a homomorphism
    q = gf.q
    for a in range(q):
        s = sum(gf.character(gf.mul(a, c)) for c in range(q))
        assert abs(s - (q if a == 0 else 0.0)) < 1e-9
        for b in range(q):
            lhs = gf.character(gf.add(a, b))
            assert abs(lhs - gf.character(a) * gf.character(b)) < 1e-12


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
                    ref[i, j] = gf.add(int(ref[i, j]), gf.mul(int(A[i, t]), int(B[t, j])))
        assert np.array_equal(gf.mat_mul(A, B), ref)
        # a stack of right factors: one product per member
        Bs = rng.integers(0, gf.q, size=(3, k, m))
        assert np.array_equal(gf.mat_mul(A, Bs), np.stack([gf.mat_mul(A, b) for b in Bs]))
    with pytest.raises(UsageError):
        gf.mat_mul(np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_linear_algebra_solves_what_it_claims(gf):
    # inverse, kernel and particular solution checked through mat_mul, on
    # random square and wide matrices with some rank deficiency
    rng = np.random.default_rng(gf.q)
    eye = np.eye(3, dtype=np.int64)
    for _ in range(40):
        A = rng.integers(0, gf.q, size=(3, int(rng.integers(3, 6))))
        if rng.random() < 0.3:
            A[2] = gf.mat_mul(rng.integers(0, gf.q, size=(1, 2)), A[:2])
        rank = gf.mat_rank(A)
        K = gf.mat_kernel(A)
        assert K.shape[0] == A.shape[1] - rank
        assert not gf.mat_mul(A, K.T).any()
        B = gf.mat_mul(A, rng.integers(0, gf.q, size=(A.shape[1], 2)))
        assert np.array_equal(gf.mat_mul(A, gf.mat_solve(A, B)), B)
        if rank == 3 and A.shape[1] == 3:
            assert np.array_equal(gf.mat_mul(A, gf.mat_inv(A)), eye)


def test_bad_field_parameters():
    with pytest.raises(UsageError):
        field(4, 1)
    with pytest.raises(UsageError):
        field(2, 0)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_field_axioms_hypothesis(a, b, c):
    gf = field(3, 2)
    assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
    assert gf.sub(a, b) == gf.add(a, gf.neg(b))
    if b != 0:
        assert gf.mul(gf.mul(a, b), gf.inv(b)) == a


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------


def test_weyl_commutation_single(gf):
    q = gf.q
    for a in range(q):
        for b in range(q):
            X, Z = weyl_x(gf, [a]), weyl_z(gf, [b])
            phase = gf.character(gf.mul(a, b))
            assert np.allclose(Z @ X, phase * (X @ Z), atol=1e-12)


def test_weyl_composition(gf):
    q = gf.q
    for a in range(q):
        for b in range(q):
            assert np.allclose(
                weyl_x(gf, [a]) @ weyl_x(gf, [b]),
                weyl_x(gf, [gf.add(a, b)]),
                atol=1e-12,
            )
            assert np.allclose(
                weyl_z(gf, [a]) @ weyl_z(gf, [b]),
                weyl_z(gf, [gf.add(a, b)]),
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
        for idx in range(dim):
            v = gf.index_vector(idx, n)
            X = np.zeros((dim, dim), dtype=complex)
            phases = np.zeros(dim, dtype=complex)
            for col in range(dim):
                c = gf.index_vector(col, n)
                shifted = [gf.add(int(s), int(t)) for s, t in zip(c, v)]
                X[gf.vector_indices([shifted])[0], col] = 1
                dot = 0
                for s, t in zip(c, v):
                    dot = gf.add(dot, gf.mul(int(s), int(t)))
                phases[col] = gf.character(dot)
            assert np.array_equal(weyl_x(gf, v), X)
            assert np.allclose(weyl_z(gf, v), np.diag(phases), rtol=0, atol=1e-15)
    B = np.array([[gf.character(gf.neg(gf.mul(c, cp))) for c in range(q)]
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
    n = 2
    for idx in range(min(gf.q**n, 64)):
        v = gf.index_vector(idx, n)
        assert gf.vector_indices([v])[0] == idx
    Z = gf.strings(n)
    assert all(np.array_equal(Z[idx], gf.index_vector(idx, n)) for idx in range(gf.q**n))
    assert np.array_equal(gf.vector_indices(Z), np.arange(gf.q**n))
