"""Conditional Rényi entropies, the closed-form/direct identity, and the
scalar confidence-interval solvers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ucqkd import b92, entropies
from ucqkd.entropies import (
    CqSource,
    binary_entropy,
    binary_relative_entropy,
    conditional_renyi_direct,
    conditional_renyi_sibson,
    log2_fq_factor,
    relative_entropy_variance,
    solve_delta1,
    solve_delta2,
    solve_r_err,
    von_neumann_entropy,
)
from ucqkd.errors import UsageError
from ucqkd.matfun import random_density

from oracles import cq_state, von_neumann_conditional


def _random_source(rng, k=None, d=None):
    k = k or int(rng.integers(2, 4))
    d = d or int(rng.integers(2, 4))
    return CqSource(
        probs=rng.dirichlet(np.ones(k)),
        states=tuple(random_density(d, rng) for _ in range(k)),
    )


# ---------------------------------------------------------------------------
# Sibson identity and limits
# ---------------------------------------------------------------------------


def test_sibson_closed_form_equals_direct():
    rng = np.random.default_rng(0)
    for _ in range(40):
        src = _random_source(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        closed = conditional_renyi_sibson(src, alpha)
        direct = conditional_renyi_direct(src, alpha)
        assert abs(closed - direct.upper_bound) <= 1e-6
        assert direct.value - 1e-12 <= closed <= direct.upper_bound + 1e-12


def test_sibson_monotone_in_alpha():
    rng = np.random.default_rng(1)
    for _ in range(10):
        src = _random_source(rng)
        vals = [
            conditional_renyi_sibson(src, a) for a in np.linspace(0.1, 0.9, 9)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_sibson_von_neumann_limit():
    rng = np.random.default_rng(2)
    for _ in range(10):
        src = _random_source(rng)
        near1 = conditional_renyi_sibson(src, 1.0 - 1e-7)
        d = src.dim
        hxb = von_neumann_conditional(cq_state(src), (len(src.states), d))
        assert abs(near1 - hxb) <= 1e-4


def test_sibson_classical_oracle():
    # trivial side information: H_alpha(X|B) reduces to the Renyi entropy of p
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(3))
    src = CqSource(probs=probs, states=tuple(np.eye(2) / 2 for _ in range(3)))
    for alpha in (0.2, 0.5, 0.8):
        # H_alpha(p) = (1/(1-alpha)) log2 sum p^alpha
        expect = math.log2(float(np.sum(probs**alpha))) / (1.0 - alpha)
        assert abs(conditional_renyi_sibson(src, alpha) - expect) <= 1e-10


def test_sibson_bounds():
    rng = np.random.default_rng(4)
    for _ in range(10):
        src = _random_source(rng, k=2)
        val = conditional_renyi_sibson(src, 0.5)
        assert val <= 1.0 + 1e-12  # H_alpha(X|B) <= log|X|
        # conditioning on nothing: data processing upper bound
        srcless = CqSource(
            probs=src.probs, states=tuple(np.eye(1) for _ in src.states)
        )
        assert val <= conditional_renyi_sibson(srcless, 0.5) + 1e-10


def test_sibson_finite_at_small_alpha_three_symbols():
    # s has eigenvalues near |X| = 3, so s^(1/alpha) overflows at alpha=0.001
    rng = np.random.default_rng(5)
    src = _random_source(rng, k=3, d=2)
    val = conditional_renyi_sibson(src, 0.001)
    assert math.isfinite(val)
    assert val <= math.log2(3) + 1e-9


def test_sibson_order_sequence_matches_one_order_calls_bit_for_bit():
    # a sequence of orders diagonalizes each block once; every value must
    # equal the one-order call exactly, down to alpha = 0.001 at |X| = 3
    from ucqkd.compression import ALPHA_GRID

    orders = [1.0 - a for a in ALPHA_GRID]
    assert min(orders) == pytest.approx(0.001)
    rng = np.random.default_rng(6)
    for k in (2, 2, 3, 3, 4):
        src = _random_source(rng, k=k, d=2)
        curve = conditional_renyi_sibson(src, orders)
        one_by_one = np.array([conditional_renyi_sibson(src, a) for a in orders])
        assert curve.shape == (len(orders),)
        assert curve.tobytes() == one_by_one.tobytes()
        assert isinstance(conditional_renyi_sibson(src, orders[0]), float)
    with pytest.raises(UsageError):
        conditional_renyi_sibson(src, [0.5, 1.0])


def test_von_neumann_entropy_oracle():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) <= 1e-12
    assert abs(von_neumann_entropy(np.diag([1.0, 0.0]))) <= 1e-12


def test_relative_entropy_variance_zero_on_equal():
    rng = np.random.default_rng(6)
    rho = random_density(3, rng)
    assert abs(relative_entropy_variance(rho, rho)) <= 1e-9


# ---------------------------------------------------------------------------
# Scalar solvers
# ---------------------------------------------------------------------------


@given(
    st.floats(0.0, 0.9),
    st.integers(10, 10**9),
    st.floats(-400.0, -1.0),
)
@settings(max_examples=60, deadline=None)
def test_delta_solver_residuals(p, n, log2_eps):
    target = -log2_eps / n
    # beyond target ~ 5 bits/round the divergence curve is near-vertical and
    # the residual is limited by float resolution of delta, not the solver
    assume(target <= 5.0)
    d1 = solve_delta1(p, n, log2_eps=log2_eps)
    # interior root: the solver clamps to 1-p when eps < p^n, and at p = 0
    # the one-sided tail is already exactly zero for any positive deviation
    if p > 0.0 and target < -math.log2(p) - 1e-9:
        resid = binary_relative_entropy(p + d1, p) - target
        assert abs(resid) <= 1e-10 * max(1.0, target)
    d2 = solve_delta2(p, n, log2_eps=log2_eps)
    resid = binary_relative_entropy(p, p + d2) - target
    assert abs(resid) <= 1e-10 * max(1.0, target)


def test_delta2_closed_form_at_zero():
    for n, k in ((100, -20.0), (10**6, -64.0), (10**9, -300.0)):
        d2 = solve_delta2(0.0, n, log2_eps=k)
        # D(0||delta) = -log2(1-delta) = -k/n exactly
        assert d2 == -math.expm1(k * math.log(2.0) / n)
        assert abs(-math.log2(1.0 - d2) - (-k) / n) <= 1e-12


def test_delta2_monotone_in_p():
    # upper confidence bound p + delta_2(p) increases with p (50-point grid)
    n, k = 10**6, -64.0
    grid = np.linspace(0.0, 0.9, 50)
    ub = [p + solve_delta2(p, n, log2_eps=k) for p in grid]
    assert all(x < y for x, y in zip(ub, ub[1:]))


def test_r_err_residual_and_edge_cases():
    r = solve_r_err(10**6, 10**6, 5000, 2.0**-50)
    p_obs = 5000 / 10**6
    q = (10**6 * r + 5000) / (2 * 10**6)
    target = 50.0 / (2 * 10**6)
    assert abs(binary_relative_entropy(p_obs, q) - target) <= 1e-10
    assert r > p_obs
    assert solve_r_err(100, 100, 0, 1.0) == 0.0  # eps=1: no slack needed


def test_roots_round_up_to_the_safe_side(monkeypatch):
    # the delta_2 and r_err roots of the conventional point p=0.02,
    # n_tot=1e11, and r_err at p=0, n_tot=1e12, where Brent's xtol of 1e-16
    # spans ~1e9 floats of the 4.2e-10 root
    seen, bisect = [], entropies._bisect_monotone

    def spy(f, lo, hi):
        x = bisect(f, lo, hi)
        seen.append((f, lo, hi, x))
        return x

    monkeypatch.setattr(entropies, "_bisect_monotone", spy)
    for p, n_tot in ((0.02, 10**11), (0.0, 10**12)):
        cfg = b92.B92Config(n_tot=n_tot, seed=1)
        budget = b92.secrecy_budget(cfg, "conventional")
        stats = b92.sample_observed(cfg, p, budget.log2_eps1, np.random.default_rng([1, 0]))
        if p > 0.0:
            b92.constraint_set_B(stats, cfg.splits, budget.log2_eps2, b92.build_povms(cfg))
        b92._ec_cost(stats, budget)
    rounded = []
    for f, lo, hi, x in seen:
        r = brentq(f, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
        # the smallest float x >= r with f(x) >= 0
        assert x >= r and f(x) >= 0.0
        if x > r:
            assert f(np.nextafter(x, lo)) < 0.0
        rounded.append(x > r)
    # Brent lands below the crossing for two delta_2 roots and both r_err
    assert sum(rounded) >= 4 and rounded[-1]


def test_binary_entropy_and_relative_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # D(1/2||1/4) = 1/2 + (1/2) log2(2/3) = 1 - log2(3)/2
    assert abs(binary_relative_entropy(0.5, 0.25) - (1.0 - math.log2(3) / 2)) <= 1e-12
    assert binary_relative_entropy(0.5, 0.0) == math.inf
    with pytest.raises(UsageError):
        binary_entropy(1.5)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=50, deadline=None)
def test_relative_entropy_nonnegative(p, q):
    assert binary_relative_entropy(p, q) >= -1e-15


def test_fq_factor_is_polynomial_prefactor():
    # f_q(n,d) grows like n^((d^2-1)/2); check the exponent numerically
    for d in (2, 4):
        slope = (log2_fq_factor(10**8, d) - log2_fq_factor(10**6, d)) / math.log2(100)
        assert abs(slope - (d * d - 1) / 2.0) < 0.01
