"""Hermitian matrix functions, Fréchet derivatives, and partial traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucqkd.errors import InvariantError
from ucqkd.matfun import (
    check_hermitian,
    frechet_derivative,
    herm_eig,
    mlog2,
    mpow,
    partial_trace,
    random_density,
    support_projector,
)


def _rand_herm(d, rng):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (A + A.conj().T)


def test_check_hermitian_rejects():
    with pytest.raises(InvariantError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_keeps_real_input_real():
    rng = np.random.default_rng(4)
    G = rng.normal(size=(6, 6))
    A = G + G.T
    lam, U = herm_eig(A)
    assert lam.dtype == U.dtype == np.float64
    assert np.abs((U * lam) @ U.T - A).max() <= 1e-12
    # complex input takes exactly the symmetrized complex path
    C = _rand_herm(6, rng) + 1e-9 * rng.normal(size=(6, 6))
    lam_c, U_c = herm_eig(C)
    ref_lam, ref_U = np.linalg.eigh(0.5 * (C + C.conj().T))
    assert U_c.dtype == np.complex128
    assert np.array_equal(lam_c, ref_lam) and np.array_equal(U_c, ref_U)


def test_mpow_mlog_consistency():
    rng = np.random.default_rng(0)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        rho = random_density(d, rng) + 0.01 * np.eye(d)
        assert np.allclose(mpow(rho, 0.5) @ mpow(rho, 0.5), rho, atol=1e-10)
        assert np.allclose(mpow(rho, -1.0) @ rho, np.eye(d), atol=1e-8)
        lam, U = herm_eig(rho)
        direct = U @ np.diag(np.log2(lam)) @ U.conj().T
        assert np.allclose(mlog2(rho), direct, atol=1e-10)


def test_support_projector():
    P = np.diag([1.0, 1.0, 0.0])
    rho = np.diag([0.7, 0.3, 0.0])
    assert np.allclose(support_projector(rho), P, atol=1e-12)


def test_frechet_derivative_vs_finite_differences():
    """d/dt f(A + tC)|_0 compared to the divided-difference construction."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        A = random_density(d, rng) + 0.05 * np.eye(d)
        C = _rand_herm(d, rng)
        for f, fp in (
            (lambda t: t**2, lambda t: 2 * t),
            (lambda t: np.power(t, 0.3), lambda t: 0.3 * np.power(t, -0.7)),
            (np.log, lambda t: 1.0 / t),
        ):
            D = frechet_derivative(f, fp, A, C)
            h = 1e-6

            def fmat(M):
                lam, U = herm_eig(M)
                return U @ np.diag(f(lam)) @ U.conj().T

            fd = (fmat(A + h * C) - fmat(A - h * C)) / (2 * h)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(D - fd).max() / scale < 1e-6


def test_frechet_derivative_degenerate_spectrum():
    # repeated eigenvalues exercise the divided-difference diagonal branch
    A = np.diag([0.5, 0.5, 0.25])
    rng = np.random.default_rng(2)
    C = _rand_herm(3, rng)
    D = frechet_derivative(lambda t: t**2, lambda t: 2 * t, A, C)
    assert np.allclose(D, A @ C + C @ A, atol=1e-10)


def test_partial_trace_oracle():
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3), (3, 2)):
        a = random_density(dims[0], rng)
        b = random_density(dims[1], rng)
        ab = np.kron(a, b)
        assert np.allclose(partial_trace(ab, dims, keep=[0]), a, atol=1e-12)
        assert np.allclose(partial_trace(ab, dims, keep=[1]), b, atol=1e-12)
        # trace preservation on correlated states
        rho = random_density(dims[0] * dims[1], rng)
        for keep in (0, 1):
            red = partial_trace(rho, dims, [keep])
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert herm_eig(red)[0].min() >= -1e-12


@given(st.integers(2, 5), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_density_is_a_state(d, seed):
    rho = random_density(d, np.random.default_rng(seed))
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert herm_eig(rho)[0].min() >= -1e-12
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
