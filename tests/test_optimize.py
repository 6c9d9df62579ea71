"""Interior-point SDP, facial reduction, concave maximization, and the
classical divergence projections."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from ucqkd import b92, optimize
from ucqkd.b92 import _min_divergence
from ucqkd.errors import InfeasibleError, UsageError
from ucqkd.matfun import herm_eig, random_density
from ucqkd.optimize import (
    FeasibleSet,
    _fcfw_step,
    divergence_bits,
    facial_reduce,
    herm_basis,
    mat_to_vec,
    maximize_on_path,
    pinch,
    renyi_objective_and_gradient,
    sequential_linearization,
    solve_linear_sdp,
    tilted_projection,
    vec_to_mat,
    von_neumann_objective_and_gradient,
)

KEY_PINCH = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


def _rand_herm(d, rng):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (A + A.conj().T)


# ---------------------------------------------------------------------------
# Hermitian vectorization
# ---------------------------------------------------------------------------


def test_herm_basis_roundtrip():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        basis = herm_basis(d)
        M = _rand_herm(d, rng)
        v = mat_to_vec(M, basis)
        assert v.shape == (d * d,)
        assert np.allclose(vec_to_mat(v, basis), M, atol=1e-12)
        # the basis is orthonormal in Hilbert-Schmidt inner product
        gram = np.array([
            [np.trace(basis[i] @ basis[j]).real for j in range(d * d)]
            for i in range(d * d)
        ])
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)


# ---------------------------------------------------------------------------
# Linear SDP
# ---------------------------------------------------------------------------


def test_sdp_unconstrained_maximum_is_top_eigenvalue():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        C = _rand_herm(d, rng)
        res = solve_linear_sdp(C, FeasibleSet(dim=d))
        top = herm_eig(C)[0].max()
        assert abs(res.primal - top) <= 1e-6
        assert res.primal <= res.dual_bound + 1e-9
        assert res.gap <= 1e-5


def test_sdp_equality_constraint():
    # maximize <Z, rho> with Tr[X rho] = 0 forces rho into a Z eigenstate
    Z = np.diag([1.0, -1.0])
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    fs = FeasibleSet(dim=2, eq=[(X, 0.0)])
    res = solve_linear_sdp(Z, fs)
    assert abs(res.primal - 1.0) <= 1e-6
    assert abs(res.rho[0, 0].real - 1.0) <= 1e-5


def test_sdp_inequality_constraint():
    Z = np.diag([1.0, -1.0])
    P0 = np.diag([1.0, 0.0])
    fs = FeasibleSet(dim=2, ineq=[(P0, 0.3)])
    res = solve_linear_sdp(Z, fs)
    # optimum: rho = 0.3|0><0| + 0.7|1><1| -> value -0.4
    assert abs(res.primal - (-0.4)) <= 1e-6


def test_sdp_scipy_cross_check():
    """Oracle: parametrize 2x2 states by Bloch vector and solve with SLSQP."""
    rng = np.random.default_rng(2)
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    for _ in range(5):
        C = _rand_herm(2, rng)
        A = _rand_herm(2, rng)
        ub = float(rng.uniform(0.2, 0.8))

        def rho_of(r):
            out = 0.5 * np.eye(2, dtype=complex)
            for ri, P in zip(r, paulis):
                out += 0.5 * ri * P
            return out

        def neg(r):
            return -float(np.trace(C @ rho_of(r)).real)

        cons = [
            {"type": "ineq", "fun": lambda r: 1.0 - r @ r},
            {"type": "ineq",
             "fun": lambda r: ub - float(np.trace(A @ rho_of(r)).real)},
        ]
        best = math.inf
        for _ in range(8):
            r0 = rng.uniform(-0.5, 0.5, size=3)
            out = minimize(neg, r0, constraints=cons, method="SLSQP")
            if out.success:
                best = min(best, out.fun)
        res = solve_linear_sdp(C, FeasibleSet(dim=2, ineq=[(A, ub)]))
        assert abs(res.primal - (-best)) <= 1e-5


def test_sdp_infeasible_raises():
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    fs = FeasibleSet(dim=2, eq=[(P0, 0.8), (P1, 0.8)])  # sums over trace
    with pytest.raises(InfeasibleError):
        solve_linear_sdp(np.eye(2), fs)


def test_phase_one_accepts_bound_below_absolute_target():
    # strictly feasible points exist (rho_11 < 1e-11), although every slack
    # stays below 1e-9 * scale, phase one's absolute target
    P1 = np.diag([0.0, 1.0])
    fs = FeasibleSet(dim=2, ineq=[(P1, 1e-11)])
    res = solve_linear_sdp(P1, fs)
    assert res.primal <= 1e-11 <= res.dual_bound <= 1e-11 + 1e-7


def test_rank_deficient_optimum_certifies():
    # the optimum |0><0| is exactly rank one: the iterates approach a
    # singular rho, and the certificate must hold without a LinAlgError
    C = np.diag([1.0, 0.0, 0.0, 0.0])
    res = solve_linear_sdp(C, FeasibleSet(dim=4), gap_tol=1e-12)
    assert res.primal <= 1.0 <= res.dual_bound <= 1.0 + 1e-11
    assert herm_eig(res.rho)[0].min() > 0.0


# d = 4, optimum 1 on the rank-2 face span{|0>, |1>}; the inequality is
# inactive there
DEGENERATE_C = np.diag([1.0, 1.0, 0.2, -1.0])
DEGENERATE_SET = [(np.diag([0.0, 0.0, 1.0, 0.0]), 1e-3)]


@pytest.mark.parametrize("gap_tol", [1e-9, 1e-11])
def test_degenerate_face_certified_to_the_requested_gap(gap_tol):
    fs = FeasibleSet(dim=4, ineq=DEGENERATE_SET)
    res = solve_linear_sdp(DEGENERATE_C, fs, gap_tol=gap_tol)
    assert res.primal <= 1.0 <= res.dual_bound
    assert res.dual_bound - 1.0 <= 10 * gap_tol
    assert res.gap <= gap_tol


def test_dual_bound_is_certified_for_any_multipliers():
    # weak duality after the repair: clipping nu at 0 and shifting the trace
    # multiplier until Z >= 0 gives a bound on the optimum 1 from any
    # (lam, nu), negative nu and indefinite Z included
    fs = FeasibleSet(dim=4, ineq=DEGENERATE_SET)
    eq_mats, _, b, in_mats, _, f = optimize._assemble(fs, herm_basis(4))
    rng = np.random.default_rng(11)
    below = 0
    for _ in range(200):
        lam = rng.normal(size=len(b))
        nu = rng.normal(size=len(f))
        bound = optimize._dual_bound(DEGENERATE_C, np.array(eq_mats), b,
                                     np.array(in_mats), f, lam, nu, 1.0)
        assert bound >= 1.0
        below += float(lam @ b + nu @ f) < 1.0
    assert below >= 50  # the unrepaired bounds often undercut the optimum


# ---------------------------------------------------------------------------
# Phase-one point cached per feasible set
# ---------------------------------------------------------------------------

X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
CACHE_INEQ = [(np.diag([1.0, 0.0]), 0.6), (X2, 0.3)]


def _count_phase_one(monkeypatch):
    runs = []
    phase_one = optimize._phase_one

    def spy(fs, basis):
        runs.append(fs)
        return phase_one(fs, basis)

    monkeypatch.setattr(optimize, "_phase_one", spy)
    return runs


def test_boundary_step_is_the_closed_form_boundary():
    # the step stops exactly where M + a dM or a slack t + a dt reaches zero,
    # and is infinite when neither boundary lies ahead; the path's step rule
    # takes 0.98 of it, at most the full step, and stays inside
    rng = np.random.default_rng(7)
    finite = 0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = A @ A.conj().T + 0.1 * np.eye(d)
        dM = rng.uniform(0.1, 10.0) * _rand_herm(d, rng)
        if rng.uniform() < 0.2:
            dM = dM @ dM  # no boundary ahead in M
        t = rng.uniform(0.1, 1.0, size=4)
        dt = rng.normal(size=4) if rng.uniform() < 0.8 else np.abs(rng.normal(size=4))

        def inside(a):
            return herm_eig(M + a * dM)[0].min() > 0.0 and (t + a * dt).min() > 0.0

        a = optimize._boundary_step(np.linalg.inv(np.linalg.cholesky(M)), dM, t, dt)
        assert a > 0.0
        step = optimize._step(a)
        assert step == min(1.0, 0.98 * a) and 0.0 < step <= 1.0 and inside(step)
        if math.isinf(a):
            assert inside(1e6)
        else:
            finite += 1
            assert inside((1.0 - 1e-9) * a)
            assert not inside((1.0 + 1e-6) * a)
    assert 100 <= finite < 200


def test_maximize_on_path_certifies_a_curved_maximum():
    # f(rho) = -sum_i (Tr[O_i rho] - a_i)^2 has curvature matrices sqrt(2) O_i;
    # its optimum lies on the set's boundary.  The path's certified bracket
    # meets the requested gap and agrees with sequential linearization's
    rng = np.random.default_rng(12)
    O = [_rand_herm(3, rng) for _ in range(3)]
    a = np.array([2.0, -1.5, 1.0])
    fs = FeasibleSet(dim=3, ineq=[(np.diag([1.0, 0.0, 0.0]), 0.2), (_rand_herm(3, rng), 0.1)])

    def objective(rho):
        r = np.array([np.trace(Oi @ rho).real for Oi in O]) - a
        grad = -2.0 * sum(ri * Oi for ri, Oi in zip(r, O))
        return -float(r @ r), grad, math.sqrt(2.0) * np.array(O)

    res = maximize_on_path(objective, fs, gap_tol=1e-10)
    assert res.stop == "converged" and res.gap >= 0.0
    assert 0.0 <= herm_eig(res.sigma)[0].min() < 1e-6  # on the PSD boundary
    assert all(float(np.trace(E @ res.sigma).real) <= f + 1e-12 for E, f in fs.ineq)
    ref = sequential_linearization(lambda rho: objective(rho)[:2], fs)
    # ref's sigma carries 1e-9 of the identity, which may leave the set by that
    assert ref.value <= res.upper_bound + 1e-8 and res.value <= ref.upper_bound + 1e-12
    assert res.gap < ref.gap


def test_phase_one_runs_once_per_set(monkeypatch):
    runs = _count_phase_one(monkeypatch)
    fs = FeasibleSet(dim=2, ineq=CACHE_INEQ)
    solve_linear_sdp(X2, fs)
    solve_linear_sdp(np.diag([0.0, 1.0]), fs)
    sequential_linearization(
        lambda s: renyi_objective_and_gradient(s, 0.3, KEY_PINCH), fs, max_outer=3
    )
    _min_divergence(fs, _fixed_last(KEY_PINCH, 0.1), np.array([1.0, 0.0]), 0.9, 0.1)
    assert runs == [fs]
    # an equal but new set gets its own phase one
    solve_linear_sdp(X2, FeasibleSet(dim=2, ineq=CACHE_INEQ))
    assert len(runs) == 2 and runs[1] is not fs


def test_reused_phase_one_point_gives_identical_results():
    fs = FeasibleSet(dim=2, ineq=CACHE_INEQ)
    solve_linear_sdp(X2, fs)
    C = np.array([[0.2, 0.5 - 0.3j], [0.5 + 0.3j, -0.7]])
    reused = solve_linear_sdp(C, fs)
    fresh = solve_linear_sdp(C, FeasibleSet(dim=2, ineq=CACHE_INEQ))
    assert np.array_equal(reused.rho, fresh.rho)
    assert reused.primal == fresh.primal
    assert reused.dual_bound == fresh.dual_bound


def test_cached_phase_one_point_is_read_only():
    fs = FeasibleSet(dim=2, ineq=CACHE_INEQ)
    solve_linear_sdp(X2, fs)
    rho, x = fs.interior_point
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        x += 1.0


def test_infeasible_set_fails_on_every_solve(monkeypatch):
    runs = _count_phase_one(monkeypatch)
    P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    fs = FeasibleSet(dim=2, eq=[(P0, 0.8), (P1, 0.8)])
    for _ in range(2):
        with pytest.raises(InfeasibleError):
            solve_linear_sdp(np.eye(2), fs)
    assert len(runs) == 2  # the failure is not cached


def test_cached_point_leaves_set_equality_alone():
    fs, other = FeasibleSet(dim=2, ineq=CACHE_INEQ), FeasibleSet(dim=2, ineq=CACHE_INEQ)
    assert fs == other
    solve_linear_sdp(X2, fs)
    assert fs == other and other == fs
    assert repr(fs) == repr(other)


# ---------------------------------------------------------------------------
# Facial reduction
# ---------------------------------------------------------------------------


def test_facial_reduce_zero_upper_bound():
    P0 = np.diag([1.0, 0.0, 0.0])
    fs = FeasibleSet(dim=3, ineq=[(P0, 0.0)])
    red, V = facial_reduce(fs)
    assert red.dim == 2
    assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-12)
    assert np.allclose(P0 @ V, 0.0, atol=1e-10)


def test_facial_reduce_keeps_positive_upper_bound():
    # Tr[P0 rho] <= 5e-12 admits states off ker(P0): no reduction
    P0 = np.diag([1.0, 0.0, 0.0])
    fs = FeasibleSet(dim=3, ineq=[(P0, 5e-12)])
    red, V = facial_reduce(fs)
    assert red.dim == 3


def test_facial_reduce_saturating_equality():
    # Tr[M rho] = lambda_max(M) * trace pins rho onto the top eigenspace
    M = np.diag([1.0, 1.0, 0.25])
    fs = FeasibleSet(dim=3, eq=[(M, 1.0)], trace=1.0)
    red, V = facial_reduce(fs)
    assert red.dim == 2
    # the singleton case: two equalities force the maximally mixed qubit
    P = np.diag([1.0, 0.0, 0.0])
    fs2 = FeasibleSet(dim=3, eq=[(P, 0.0), (np.diag([0.0, 1.0, 0.0]), 0.5)])
    red2, V2 = facial_reduce(fs2)
    assert red2.dim <= 2


def test_facial_reduce_keeps_feasible_points():
    M = np.diag([1.0, 0.5, 0.5])
    fs = FeasibleSet(dim=3, eq=[(M, 0.5)])  # forces support off |0>
    red, V = facial_reduce(fs)
    assert red.dim == 2
    rho_small = np.eye(red.dim) / red.dim
    rho = V @ rho_small @ V.conj().T
    assert abs(np.trace(M @ rho).real - 0.5) <= 1e-10


# ---------------------------------------------------------------------------
# Concave objectives and sequential linearization
# ---------------------------------------------------------------------------


def _gradient_inputs(rng):
    """(sigma, projectors, step, rtol) for the finite-difference gradient
    checks: qubit states under KEY_PINCH, two-qubit states under the B92 key
    pinching, and a two-qubit state with an eigenvalue of 1e-9.  There the
    step is 1e-11, and eigh resolves that eigenvalue only to about 1e-16
    absolute, which leaves the difference quotient about 1e-4 relative."""
    for _ in range(5):
        yield random_density(2, rng) + 0.05 * np.eye(2), KEY_PINCH, 1e-6, 1e-5
    for _ in range(3):
        yield random_density(4, rng) + 0.05 * np.eye(4), b92._KEY_PINCH, 1e-6, 1e-5
    lam, U = herm_eig(random_density(4, rng))
    lam[0] = 1e-9
    yield (U * lam) @ U.conj().T, b92._KEY_PINCH, 1e-11, 3e-4


def _gradient_error(objective, sigma, h, rng):
    """Central difference of objective's value along a random Hermitian D
    against Tr[grad D], relative to max(1, |difference|)."""
    D = _rand_herm(len(sigma), rng)
    _, grad = objective(sigma)
    fd = (objective(sigma + h * D)[0] - objective(sigma - h * D)[0]) / (2 * h)
    return abs(fd - float(np.trace(grad @ D).real)) / max(1.0, abs(fd))


def test_renyi_objective_gradient_finite_differences():
    rng = np.random.default_rng(3)
    for alpha in (0.2, 0.38, 0.6):
        for sigma, projectors, h, rtol in _gradient_inputs(rng):
            objective = lambda s: renyi_objective_and_gradient(s, alpha, projectors)
            assert _gradient_error(objective, sigma, h, rng) <= rtol


def test_von_neumann_objective_gradient_finite_differences():
    rng = np.random.default_rng(5)
    for sigma, projectors, h, rtol in _gradient_inputs(rng):
        objective = lambda s: von_neumann_objective_and_gradient(s, projectors)
        assert _gradient_error(objective, sigma, h, rng) <= rtol


def test_objectives_concave_linearization():
    rng = np.random.default_rng(4)
    for _ in range(30):
        s1 = random_density(2, rng) + 0.02 * np.eye(2)
        s2 = random_density(2, rng) + 0.02 * np.eye(2)
        for obj in (
            lambda s: renyi_objective_and_gradient(s, 0.3, KEY_PINCH),
            lambda s: von_neumann_objective_and_gradient(s, KEY_PINCH),
        ):
            v1, g1 = obj(s1)
            v2, _ = obj(s2)
            lin = v1 + float(np.trace(g1 @ (s2 - s1)).real)
            assert v2 <= lin + 1e-8


@pytest.mark.parametrize("outcomes", [2, 3, 4])
def test_objectives_read_log_outcomes_at_maximally_mixed_state(outcomes):
    # at I/d with equal-rank projectors both objectives reduce to log|X|,
    # with |X| the number of pinching outcomes
    d = 2 * outcomes
    projectors = [np.diag(np.repeat(np.eye(outcomes)[i], 2)) for i in range(outcomes)]
    sigma = np.eye(d) / d
    for alpha in (0.1, 0.5, 0.9):
        val, _ = renyi_objective_and_gradient(sigma, alpha, projectors)
        assert abs(val - math.log2(outcomes)) <= 1e-12
    val, _ = von_neumann_objective_and_gradient(sigma, projectors)
    assert abs(val - math.log2(outcomes)) <= 1e-12


def test_sequential_linearization_entropy_maximum():
    """Oracle: the pinching relative entropy objective log|X| - D(s||P(s)) is
    maximized (value log|X|) by any pinching-invariant state."""

    def obj(s):
        return von_neumann_objective_and_gradient(s, KEY_PINCH)

    res = sequential_linearization(obj, FeasibleSet(dim=2), tol=1e-9)
    assert abs(res.value - 1.0) <= 1e-7
    assert res.value <= res.upper_bound + 1e-12
    assert res.upper_bound - res.value <= 1e-6
    # constrained: Tr[|0><0| rho] = 0.9 forces D(s||P(s)) = 0 still
    fs = FeasibleSet(dim=2, eq=[(np.diag([1.0, 0.0]), 0.9)])
    res2 = sequential_linearization(obj, fs, tol=1e-9)
    assert abs(res2.value - 1.0) <= 1e-6


def test_sequential_linearization_scipy_cross_check():
    """Random constrained Renyi-objective maximization versus a Bloch-vector
    SLSQP oracle."""
    rng = np.random.default_rng(5)
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    A = _rand_herm(2, rng)
    ub = 0.4

    def obj(s):
        return renyi_objective_and_gradient(s, 0.4, KEY_PINCH)

    def rho_of(r):
        out = 0.5 * np.eye(2, dtype=complex)
        for ri, P in zip(r, paulis):
            out += 0.5 * ri * P
        return out

    def neg(r):
        return -obj(rho_of(0.999 * r))[0]

    cons = [
        {"type": "ineq", "fun": lambda r: 1.0 - r @ r},
        {"type": "ineq",
         "fun": lambda r: ub - float(np.trace(A @ rho_of(r)).real)},
    ]
    best = math.inf
    for _ in range(10):
        out = minimize(neg, rng.uniform(-0.4, 0.4, 3), constraints=cons,
                       method="SLSQP")
        if out.success:
            best = min(best, out.fun)
    res = sequential_linearization(obj, FeasibleSet(dim=2, ineq=[(A, ub)]),
                                   tol=1e-9)
    assert res.value >= -best - 1e-5
    assert res.upper_bound >= -best - 1e-8


# two qubits, key register the first; the Bell-diagonal state with weights
# (0.75, 0.15, 0.05, 0.05) has <ZZ> = 0.8 and <XX> = 0.6, so it is feasible
ZZ = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
XX = np.kron(X2, X2)
KEY_PINCH_4 = [np.kron(P, np.eye(2)) for P in KEY_PINCH]
BELL = [np.array(v) / math.sqrt(2.0)
        for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])]
KNOWN_FEASIBLE = sum(w * np.outer(v, v) for w, v in zip((0.75, 0.15, 0.05, 0.05), BELL))


def _renyi_4_at(alpha):
    return lambda s: renyi_objective_and_gradient(s, alpha, KEY_PINCH_4)


_renyi_4 = _renyi_4_at(0.3)


def _acceptance_4():
    return FeasibleSet(dim=4, eq=[(ZZ, 0.8)], ineq=[(-XX, -0.5)])


@pytest.mark.parametrize("tol,sdp_gap_tol", [(1e-8, 1e-7), (1e-9, 1e-8), (1e-3, 1e-7)])
def test_stop_brackets_within_the_sdp_gap(monkeypatch, tol, sdp_gap_tol):
    # replay the outer loop from its iterates (the last objective call before
    # each SDP solve is the iterate) and its SDP certificates
    solve, point, steps = optimize.solve_linear_sdp, [], []

    def objective(s):
        point[:] = [s, *_renyi_4(s)]
        return point[1], point[2]

    def spy(C, fs, gap_tol=1e-7):
        res = solve(C, fs, gap_tol=gap_tol)
        steps.append((*point, res))
        return res

    monkeypatch.setattr(optimize, "solve_linear_sdp", spy)
    res = sequential_linearization(objective, _acceptance_4(), tol=tol,
                                   sdp_gap_tol=sdp_gap_tol, max_outer=40)
    assert res.stop != "max_outer" and res.iterations == len(steps) < 40
    stop_tol = max(tol, 2.0 * sdp_gap_tol)
    upper, best, met = math.inf, -math.inf, []
    for s, val, grad, sdp in steps:
        upper = min(upper, val + (sdp.dual_bound - float(np.trace(grad @ s).real)))
        best = max(best, val)
        met.append(upper - best <= stop_tol + max(sdp.gap, 0.0))
    # the loop stops at the first iteration within tolerance plus the gap
    assert met[-1] and not any(met[:-1])
    assert (upper, best) == (res.upper_bound, res.value)
    G = steps[-1][2]
    assert res.gap <= stop_tol + sdp_gap_tol * max(1.0, np.abs(herm_eig(G)[0]).max())
    assert (res.gap <= stop_tol) == (res.stop == "converged")
    assert res.upper_bound >= _renyi_4(KNOWN_FEASIBLE)[0]


def test_stop_reports_max_outer():
    res = sequential_linearization(_renyi_4, _acceptance_4(), max_outer=1)
    assert res.stop == "max_outer" and res.iterations == 1
    assert res.gap > 1e-2  # the phase-one point is far from the maximum


@pytest.mark.parametrize("first,second", [(0.3, 0.25), (0.3, 0.35), (0.1, 0.3)])
def test_warm_start_from_a_neighbouring_order(first, second):
    # the alpha search seeds each order with a neighbouring order's atoms:
    # the bracket stays certified against a tight cold solve, and the start
    # saves outer iterations
    fs = _acceptance_4()
    seed = sequential_linearization(_renyi_4_at(first), fs)
    warm = sequential_linearization(_renyi_4_at(second), fs, start=(seed.atoms, seed.weights))
    cold = sequential_linearization(_renyi_4_at(second), fs)
    tight = sequential_linearization(_renyi_4_at(second), fs, tol=1e-10, sdp_gap_tol=1e-10)
    assert warm.upper_bound >= tight.value
    assert warm.value <= tight.upper_bound
    assert warm.iterations < cold.iterations
    assert len(warm.atoms) == len(warm.weights) and abs(warm.weights.sum() - 1.0) <= 1e-12


def test_warm_start_rejects_atoms_off_the_face():
    with pytest.raises(UsageError):
        sequential_linearization(_renyi_4, _acceptance_4(), start=([np.eye(2) / 2], np.ones(1)))
    atoms = [_acceptance_4().interior_point[0]]
    with pytest.raises(UsageError):
        sequential_linearization(_renyi_4, _acceptance_4(), start=(atoms, np.ones(2) / 2))


def test_pinch_is_projection():
    rng = np.random.default_rng(6)
    s = _rand_herm(2, rng)
    once = pinch(s, KEY_PINCH)
    assert np.allclose(pinch(once, KEY_PINCH), once, atol=1e-12)
    assert abs(np.trace(once) - np.trace(s)) <= 1e-12


# ---------------------------------------------------------------------------
# Classical divergence projections
# ---------------------------------------------------------------------------


def test_tilted_projection_against_slsqp():
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rng.dirichlet(np.ones(4))
        gamma = rng.normal(size=4)
        c = float(rng.uniform(q @ gamma, gamma.max() - 1e-6))
        p, div = tilted_projection(q, gamma, c)
        assert abs(p.sum() - 1.0) <= 1e-10
        assert p @ gamma >= c - 1e-8
        # oracle: direct constrained minimization of D(p||q)
        def neg(x):
            x = np.clip(x, 1e-12, None)
            x = x / x.sum()
            return divergence_bits(x, q)

        cons = [
            {"type": "eq", "fun": lambda x: x.sum() - 1.0},
            {"type": "ineq", "fun": lambda x: x @ gamma - c},
            {"type": "ineq", "fun": lambda x: x},
        ]
        out = minimize(neg, q.copy(), constraints=cons, method="SLSQP")
        if out.success:
            assert div <= neg(out.x) + 1e-6


def test_tilted_projection_scale_invariant():
    # the tilt acts through t * gamma, so scaling gamma and c together must
    # not change p, even when t has to grow past 1e8
    q = np.array([0.4, 0.3, 0.2, 0.1])
    gamma = np.array([0.0, 0.2, 0.5, 1.0])
    c = 0.999
    p, div = tilted_projection(q, gamma, c)
    p_small, div_small = tilted_projection(q, 1e-7 * gamma, 1e-7 * c)
    assert np.allclose(p_small, p, rtol=1e-6, atol=1e-12)
    assert abs(div_small - div) <= 1e-6 * max(1.0, div)


def test_tilted_projection_inactive_constraint():
    q = np.array([0.7, 0.3])
    p, div = tilted_projection(q, np.array([1.0, 0.0]), 0.5)
    assert div == 0.0
    assert np.allclose(p, q)


def test_divergence_bits_oracle():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    expect = 0.5 * math.log2(2.0) + 0.5 * math.log2(0.5 / 0.75)
    assert abs(divergence_bits(p, q) - expect) <= 1e-12
    assert divergence_bits(q, q) == 0.0


def _fixed_last(mats, e):
    """The measurement {(1 - e) M_i} plus a last outcome e I, whose
    probability is e on every state."""
    return [(1.0 - e) * np.asarray(M, dtype=complex) for M in mats] + [e * np.eye(2)]


def test_min_divergence_zero_joint_minimum():
    # q(rho) from a 2-outcome measurement; the sifted part of p constrained
    # to a halfspace that the phase-one point I/2 misses
    fs = FeasibleSet(dim=2)
    div, res = _min_divergence(fs, _fixed_last(KEY_PINCH, 0.1), np.array([1.0, 0.0]), 0.9, 0.1)
    # rho free: q can match p exactly, so the joint minimum is zero
    assert abs(div) <= 1e-7
    assert -res.upper_bound <= div
    assert float(res.sigma[0, 0].real) >= 0.9 - 1e-4


def _weight_solves(monkeypatch):
    """Record the (objective, start) pairs the FCFW step hands to SLSQP."""
    seen = []

    def spy(fun, x0, **kwargs):
        assert kwargs["jac"] is True
        seen.append((fun, np.array(x0)))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(optimize, "minimize", spy)
    return seen


def _check_weight_gradient(fun, k, rng, on_simplex=False):
    """Finite differences along each weight, or, on_simplex, along e_i - e_0
    (an objective whose gradient drops the identity part is exact only
    along the set's fixed trace, and the weight solve stays on the simplex)."""
    w = rng.dirichlet(np.ones(k))  # random interior weight
    _, grad = fun(w)
    h = 1e-6
    for i in range(1 if on_simplex else 0, k):
        e = np.zeros(k)
        e[i] = h
        if on_simplex:
            e[0] = -h
        fd = (fun(w + e)[0] - fun(w - e)[0]) / (2 * h)
        expect = grad[i] - grad[0] if on_simplex else grad[i]
        assert abs(fd - expect) <= 1e-6 * max(1.0, abs(fd))


def test_fcfw_step_weight_gradient_renyi(monkeypatch):
    rng = np.random.default_rng(8)
    seen = _weight_solves(monkeypatch)

    def obj(s):
        return renyi_objective_and_gradient(s, 0.3, KEY_PINCH)

    atoms = [random_density(2, rng) + 0.05 * np.eye(2) for _ in range(3)]
    atoms, weights = _fcfw_step(obj, atoms, np.full(3, 1.0 / 3.0),
                                random_density(2, rng) + 0.05 * np.eye(2))
    assert abs(weights.sum() - 1.0) <= 1e-12 and weights.min() > 0
    assert len(atoms) == len(weights)
    fun, x0 = seen[0]
    _check_weight_gradient(fun, len(x0), rng)


def test_fcfw_step_weight_gradient_divergence(monkeypatch):
    # the divergence objective, whose gradient drops the identity part, run
    # through sequential linearization's weight solve
    rng = np.random.default_rng(9)
    seen = _weight_solves(monkeypatch)
    mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    fs = FeasibleSet(dim=2, ineq=[(mats[0], 0.6), (X, 0.3)])
    gamma = np.array([1.0, 0.0])
    objectives = []

    def record(objective, *args, **kwargs):
        objectives.append(objective)
        return maximize_on_path(objective, *args, **kwargs)

    monkeypatch.setattr(b92, "maximize_on_path", record)
    _min_divergence(fs, _fixed_last(mats, 0.1), gamma, 0.9, 0.1)
    sequential_linearization(lambda rho: objectives[0](rho)[:2], fs)
    assert seen
    for fun, x0 in seen[:3]:
        _check_weight_gradient(fun, len(x0), rng, on_simplex=True)


def test_renyi_objective_rejects_bad_alpha():
    with pytest.raises(UsageError):
        renyi_objective_and_gradient(np.eye(2) / 2, 1.5, KEY_PINCH)
