"""Linear hash families, dual quadruples, and the hashing unitary."""

import itertools

import numpy as np
import pytest

from ucqkd import hashing
from ucqkd.errors import InvariantError, UsageError
from ucqkd.fields import GaloisField, field, mub_basis
from ucqkd.hashing import (
    build_dual_quadruple,
    enumerate_surjective_family,
    hash_apply,
    hash_preimages,
    hashing_unitary,
    sample_toeplitz,
    verify_two_universal,
)

from oracles import surjective_family


def _exhaustive_collision_fraction(gf, family, n):
    """Oracle: worst-case Pr_H[xH = yH] over all pairs x != y, by brute force."""
    worst = 0
    Z = gf.strings(n)
    for ix in range(gf.q**n):
        for iy in range(ix + 1, gf.q**n):
            x, y = Z[ix], Z[iy]
            hits = sum(
                1
                for H in family
                if np.array_equal(hash_apply(gf, H, x), hash_apply(gf, H, y))
            )
            worst = max(worst, hits)
    return worst / len(family)


@pytest.mark.parametrize("q_params,n,m", [
    ((2, 1), 2, 1), ((2, 1), 3, 1), ((2, 1), 3, 2), ((3, 1), 2, 1),
])
def test_surjective_family_two_universal(q_params, n, m):
    gf = field(*q_params)
    fam = enumerate_surjective_family(gf, n, m)
    # every member is surjective (full column rank)
    assert all(gf.mat_rank(H) == m for H in fam)
    frac, bound = verify_two_universal(gf, fam, n, m)
    assert frac <= bound + 1e-15
    # the difference-string shortcut agrees with the brute-force pair scan
    assert abs(frac - _exhaustive_collision_fraction(gf, fam, n)) < 1e-15


def test_family_size_all_surjective():
    # number of full-rank n x m matrices over F_q: prod_i (q^n - q^i)
    for p, r in ((2, 1), (3, 1), (2, 2)):
        gf = field(p, r)
        for n, m in ((2, 1), (3, 2)):
            expect = 1
            for i in range(m):
                expect *= gf.q**n - gf.q**i
            assert len(enumerate_surjective_family(gf, n, m)) == expect


@pytest.mark.parametrize("p,r,n,m", [
    (2, 1, 3, 2), (2, 1, 4, 2), (3, 1, 3, 2), (2, 2, 3, 1), (2, 2, 2, 2), (5, 1, 2, 2),
])
def test_enumeration_matches_oracle_in_member_order(monkeypatch, p, r, n, m):
    # blocks of 7 candidates: several blocks, the last one partial
    gf = field(p, r)
    blocks = []
    real_row_reduce = GaloisField._row_reduce

    def spy(self, A, ncols):
        blocks.append(len(A))
        return real_row_reduce(self, A, ncols)

    monkeypatch.setattr(GaloisField, "_row_reduce", spy)
    monkeypatch.setattr(hashing, "_ENUM_BLOCK", 7 * n * m)
    fam = enumerate_surjective_family(gf, n, m)
    full, rest = divmod(gf.q ** (n * m), 7)
    assert blocks == [7] * full + [rest] * (rest > 0)
    ref = surjective_family(gf, n, m)
    assert fam.shape == (len(ref), n, m)
    assert np.array_equal(fam, np.array(ref))


@pytest.mark.parametrize("miscount", [1, -1], ids=["too-many", "too-few"])
def test_enumeration_count_mismatch_is_an_invariant_failure(monkeypatch, miscount):
    # the family is filled into a stack of the known size prod_i (q^n - q^i);
    # a rank test that keeps one member too many or too few must not pass
    gf = field(2, 1)
    real_rank = GaloisField.mat_rank

    def off_by_one(self, A):
        rank = np.array(real_rank(self, A))
        i = np.flatnonzero(rank == 1 if miscount < 0 else rank < 1)[0]
        rank[i] = 0 if miscount < 0 else 1
        return rank

    monkeypatch.setattr(GaloisField, "mat_rank", off_by_one)
    with pytest.raises(InvariantError):
        enumerate_surjective_family(gf, 3, 1)


def test_toeplitz_samples_are_valid_members():
    gf = field(3, 1)
    rng = np.random.default_rng(7)
    for _ in range(20):
        H = sample_toeplitz(gf, 4, 2, rng)
        assert H.shape == (4, 2)
        # Toeplitz structure: constant along diagonals
        for i in range(3):
            for j in range(1):
                assert H[i + 1, j + 1] == H[i, j]


def test_hash_preimages_partition():
    gf = field(2, 1)
    fam = enumerate_surjective_family(gf, 3, 2)
    pre = hash_preimages(gf, fam[0], 3)
    assert len(pre) == 4
    sizes = sorted(len(v) for v in pre.values())
    assert sizes == [2, 2, 2, 2]  # surjective linear map has equal fibers


def _assert_quadruple_identities(gf, quad):
    n, m = quad.n, quad.m
    S = np.concatenate([quad.Gbar, quad.G], axis=1)
    T = np.concatenate([quad.H, quad.Hbar], axis=1)
    assert np.array_equal(gf.mat_mul(S.T, T), np.eye(n, dtype=np.int64))
    assert not gf.mat_mul(quad.G.T, quad.H).any()
    assert np.array_equal(gf.mat_mul(quad.Gbar.T, quad.H), np.eye(m, dtype=np.int64))
    # Hbar is made of distinct unit columns
    assert (quad.Hbar.sum(axis=0) == 1).all()
    assert len(set(quad.Hbar.argmax(axis=0))) == n - m


@pytest.mark.parametrize("p,r,n,m", [
    (3, 1, 1, 1), (3, 1, 2, 1), (3, 1, 2, 2), (3, 1, 3, 1), (3, 1, 3, 2),
    (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 3, 1), (5, 1, 2, 1), (5, 1, 2, 2), (5, 1, 3, 1),
])
def test_dual_quadruple_identities_for_every_member(p, r, n, m):
    gf = field(p, r)
    for H in enumerate_surjective_family(gf, n, m):
        quad = build_dual_quadruple(gf, H)
        assert np.array_equal(quad.H, H)
        _assert_quadruple_identities(gf, quad)


def test_dual_quadruple_identities():
    gf = field(2, 1)
    rng = np.random.default_rng(11)
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 2)):
        H = sample_toeplitz(gf, n, m, rng)
        if gf.mat_rank(H) < m:
            continue
        _assert_quadruple_identities(gf, build_dual_quadruple(gf, H))


def test_dual_quadruple_rejects_rank_deficient():
    gf = field(2, 1)
    H = np.zeros((3, 1), dtype=np.int64)
    with pytest.raises(UsageError):
        build_dual_quadruple(gf, H)


def _z_ket(gf, z):
    dim = gf.q ** len(z)
    v = np.zeros(dim, dtype=complex)
    v[gf.vector_indices([z])[0]] = 1.0
    return v


def _x_ket(gf, x):
    out = np.array([1.0 + 0j])
    for c in x:
        out = np.kron(out, mub_basis(gf)[:, c])
    return out


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (3, 2)])
def test_hashing_unitary_basis_actions(n, m):
    """U|z> = |z(H Hbar)> on the Z basis and U|x~> = |(x(Gbar G))~> on X."""
    gf = field(2, 1)
    fam = enumerate_surjective_family(gf, n, m)
    for H in fam[:: max(1, len(fam) // 4)]:
        quad = build_dual_quadruple(gf, H)
        U = hashing_unitary(gf, quad)
        assert np.allclose(U.conj().T @ U, np.eye(2**n), atol=1e-12)
        T = np.concatenate([quad.H, quad.Hbar], axis=1)
        C = np.concatenate([quad.Gbar, quad.G], axis=1)
        for bits in itertools.product(range(2), repeat=n):
            z = np.array(bits, dtype=np.int64)
            zt = gf.mat_mul(z.reshape(1, -1), T).ravel()
            assert np.allclose(U @ _z_ket(gf, z), _z_ket(gf, zt), atol=1e-12)
            xc = gf.mat_mul(z.reshape(1, -1), C).ravel()
            assert np.allclose(U @ _x_ket(gf, z), _x_ket(gf, xc), atol=1e-12)


def test_hashing_unitary_first_output_is_hash_value():
    # measuring the first m output qudits in the Z basis yields xH
    gf = field(2, 1)
    fam = enumerate_surjective_family(gf, 3, 1)
    quad = build_dual_quadruple(gf, fam[0])
    U = hashing_unitary(gf, quad)
    Z = gf.strings(3)
    for z in Z:
        out = U @ _z_ket(gf, z)
        w = Z[np.argmax(np.abs(out))]
        assert np.array_equal(w[:1], hash_apply(gf, quad.H, z))
