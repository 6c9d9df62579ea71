"""Symmetric-group/unitary duality: isotypic projectors, the universal
symmetric state, and the polynomial domination bound."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ucqkd.matfun import herm_eig, random_density
from ucqkd.schur_weyl import (
    build_isotypic_blocks,
    dim_permutation_irrep,
    dim_unitary_irrep,
    domination_factor,
    enumerate_young,
    permutation_operator,
    sigma_for_string,
    sn_character,
    sorting_permutation,
    universal_symmetric_state,
)

from oracles import empirical_entropy, type_of


def test_young_diagram_count():
    # partitions of n into at most d parts
    assert len(enumerate_young(4, 2)) == 3  # (4), (3,1), (2,2)
    assert len(enumerate_young(3, 3)) == 3  # (3), (2,1), (1,1,1)
    assert len(enumerate_young(5, 1)) == 1


def test_hook_length_dims():
    # standard Young tableaux counts (hook length oracle values)
    assert dim_permutation_irrep((4,)) == 1
    assert dim_permutation_irrep((3, 1)) == 3
    assert dim_permutation_irrep((2, 2)) == 2
    assert dim_permutation_irrep((2, 1, 1)) == 3
    # Weyl dimension formula for SU(2): lam1 - lam2 + 1
    for lam in ((4,), (3, 1), (2, 2)):
        l2 = lam[1] if len(lam) > 1 else 0
        assert dim_unitary_irrep(lam, 2) == lam[0] - l2 + 1


def test_dimension_sum_rule():
    # sum over diagrams of dim(S_lam) * dim(U_lam) = d^n
    for n, d in ((2, 2), (3, 2), (4, 2), (3, 3)):
        total = sum(
            dim_permutation_irrep(lam) * dim_unitary_irrep(lam, d)
            for lam in enumerate_young(n, d)
        )
        assert total == d**n


def _centralizer_order(mu):
    # z_mu = prod_k k^{m_k} m_k!, so the class of cycle type mu has n!/z_mu members
    z = 1
    for k in set(mu):
        m = mu.count(k)
        z *= k**m * math.factorial(m)
    return z


def test_sn_character_orthogonality():
    # both orthogonality relations of the S_n character table, n <= 7
    for n in range(1, 8):
        nfact = math.factorial(n)
        diagrams = enumerate_young(n, n)  # irreps and cycle types alike
        z = {mu: _centralizer_order(mu) for mu in diagrams}
        assert sum(nfact // z[mu] for mu in diagrams) == nfact
        chi = {(lam, mu): sn_character(lam, mu) for lam in diagrams for mu in diagrams}
        for a in diagrams:
            for b in diagrams:
                rows = sum(nfact // z[mu] * chi[a, mu] * chi[b, mu] for mu in diagrams)
                assert rows == (nfact if a == b else 0)
                cols = sum(chi[lam, a] * chi[lam, b] for lam in diagrams)
                assert cols == (z[a] if a == b else 0)


def test_sn_character_table_s4():
    # textbook table; the relations above cannot tell lambda from its
    # conjugate, whose character differs by the sign character
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    table = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for lam, row in table.items():
        assert [sn_character(lam, mu) for mu in classes] == row


def test_sn_character_at_identity_is_hook_length_dimension():
    for n in range(1, 11):
        for lam in enumerate_young(n, n):
            assert sn_character(lam, (1,) * n) == dim_permutation_irrep(lam)


def test_permutation_operator_matches_digit_loop():
    # reference: basis index idx has base-d digits (most significant first);
    # output slot perm[i] carries input digit i
    d, n = 3, 4
    for perm in itertools.permutations(range(n)):
        ref = np.zeros((d**n, d**n))
        for idx in range(d**n):
            digits = [(idx // d ** (n - 1 - k)) % d for k in range(n)]
            out = [0] * n
            for i in range(n):
                out[perm[i]] = digits[i]
            ref[sum(o * d ** (n - 1 - k) for k, o in enumerate(out)), idx] = 1.0
        assert np.array_equal(permutation_operator(perm, d), ref)


def test_permutation_operator_moves_tensor_factors():
    # V (A_0 x ... x A_{n-1}) V^T puts A_i at slot s(i)
    d, n = 2, 4
    rng = np.random.default_rng(11)
    factors = [rng.normal(size=(d, d)) for _ in range(n)]

    def kron_all(mats):
        out = np.eye(1)
        for m in mats:
            out = np.kron(out, m)
        return out

    for perm in itertools.permutations(range(n)):
        V = permutation_operator(perm, d)
        moved = [None] * n
        for i in range(n):
            moved[perm[i]] = factors[i]
        assert np.allclose(V @ kron_all(factors) @ V.T, kron_all(moved), atol=1e-12)


def test_permutation_operator_representation():
    d = 2
    perms = list(itertools.permutations(range(3)))
    for p1 in perms:
        for p2 in perms:
            comp = tuple(p1[p2[i]] for i in range(3))
            lhs = permutation_operator(p1, d) @ permutation_operator(p2, d)
            assert np.allclose(lhs, permutation_operator(comp, d), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_isotypic_projectors(n):
    d = 2
    blocks = build_isotypic_blocks(n, d)
    dim = d**n
    total = sum(b.projector for b in blocks)
    assert np.allclose(total, np.eye(dim), atol=1e-10)
    for i, bi in enumerate(blocks):
        assert np.allclose(bi.projector @ bi.projector, bi.projector, atol=1e-10)
        assert np.allclose(bi.projector, bi.projector.conj().T, atol=1e-12)
        rank = int(round(np.trace(bi.projector).real))
        assert rank == dim_permutation_irrep(bi.diagram) * dim_unitary_irrep(
            bi.diagram, d
        )
        for bj in blocks[i + 1:]:
            assert np.allclose(bi.projector @ bj.projector, 0.0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projectors_commute_with_permutations_and_tensor_unitaries(n):
    d = 2
    rng = np.random.default_rng(5)
    blocks = build_isotypic_blocks(n, d)
    # random tensor-power unitary
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    U1 = np.linalg.qr(A)[0]
    Un = U1
    for _ in range(n - 1):
        Un = np.kron(Un, U1)
    perm = tuple(rng.permutation(n))
    Pperm = permutation_operator(perm, d)
    for b in blocks:
        assert np.allclose(b.projector @ Un, Un @ b.projector, atol=1e-10)
        assert np.allclose(b.projector @ Pperm, Pperm @ b.projector, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_universal_state_dominates_iid(n):
    d = 2
    rng = np.random.default_rng(9)
    sig = universal_symmetric_state(n, d)
    assert abs(np.trace(sig).real - 1.0) < 1e-10
    c = domination_factor(n, d)
    assert c <= (n + 1) ** ((d + 2) * (d - 1) / 2.0) + 1e-9
    for _ in range(20):
        rho = random_density(d, rng)
        rho_n = rho
        for _ in range(n - 1):
            rho_n = np.kron(rho_n, rho)
        assert herm_eig(c * sig - rho_n)[0].min() >= -1e-10


def test_universal_state_is_memoized_read_only():
    sig = universal_symmetric_state(3, 2)
    assert universal_symmetric_state(3, 2) is sig
    assert not sig.flags.writeable
    with pytest.raises(ValueError):
        sig[0, 0] = 0.0


def test_empirical_entropy_matches_type():
    x = (0, 0, 1, 1)
    assert abs(empirical_entropy(x, 2) - 1.0) < 1e-12
    assert abs(empirical_entropy((0, 0, 0), 2)) < 1e-12
    assert type_of(x, 2) == (Fraction(1, 2), Fraction(1, 2))


def test_sorting_permutation_sorts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = tuple(rng.integers(0, 3, size=5))
        perm = sorting_permutation(x)
        y = [0] * 5
        for i in range(5):
            y[perm[i]] = x[i]  # (s.x)_{s(i)} = x_i
        assert y == sorted(x)


def test_sigma_for_string_is_state():
    for x in ((0,), (0, 1), (0, 0, 1)):
        sig = sigma_for_string(x, 2)
        assert abs(np.trace(sig).real - 1.0) < 1e-10
        assert herm_eig(sig)[0].min() >= -1e-12
