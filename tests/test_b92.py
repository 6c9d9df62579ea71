"""Two-state protocol analysis: filter, POVMs, statistics, secrecy budget,
and the finite-size/asymptotic key lengths."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from ucqkd import b92, optimize
from ucqkd.b92 import (
    B92Config,
    achieved_eps_sec,
    asymptotic_constraint_set,
    asymptotic_rates,
    build_povms,
    build_states_and_filter,
    constraint_set_B,
    conventional_key_length,
    depolarized_state,
    devetak_winter_rate,
    expected_statistics,
    outcome_operators,
    phase_entropy,
    phase_entropy_and_gradient,
    sample_observed,
    secrecy_budget,
    source_state,
    universal_key_length,
)
from ucqkd.entropies import binary_entropy, solve_delta2
from ucqkd.errors import UsageError
from ucqkd.matfun import herm_eig, partial_trace
from ucqkd.optimize import divergence_bits, solve_linear_sdp, tilted_projection

CFG = B92Config(n_tot=10**6)
ALPHA2 = CFG.amp**2
BETA2 = 1.0 - ALPHA2


# ---------------------------------------------------------------------------
# States, filter, POVMs
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(UsageError):
        B92Config(amp=0.8)
    with pytest.raises(UsageError):
        B92Config(alpha_renyi=1.5)
    with pytest.raises(UsageError):
        B92Config(n_tot=10**6, splits=(10**6, 0, 0))


def test_signal_states_overlap():
    parts = build_states_and_filter(CFG)
    psi = parts["psi"]
    # <psi_0|psi_1> = b^2 - a^2
    assert abs(np.vdot(psi[0], psi[1]) - (BETA2 - ALPHA2)) <= 1e-12
    for x in (0, 1):
        assert abs(np.linalg.norm(psi[x]) - 1.0) <= 1e-12
        assert abs(np.vdot(parts["psi_perp"][x], psi[x])) <= 1e-12


def test_filter_is_a_valid_instrument():
    parts = build_states_and_filter(CFG)
    w = parts["w"]
    # w^dag w <= I: the filter is a physical (trace-non-increasing) operation
    assert herm_eig(np.eye(2) - w.conj().T @ w)[0].min() >= -1e-12
    # the filter symmetrizes the two signal states: ||w psi_x||^2 equal
    n0 = np.linalg.norm(w @ parts["psi"][0]) ** 2
    n1 = np.linalg.norm(w @ parts["psi"][1]) ** 2
    assert abs(n0 - n1) <= 1e-12


def test_povm_set_is_valid_and_ordered():
    build_povms(CFG).validate()


def test_povm_closed_form_spectra():
    """The phase-error and joint-error operators are low-rank with
    eigenvalues fixed by the signal amplitudes."""
    povms = build_povms(CFG)
    lam_ph = np.sort(herm_eig(povms.M_ph)[0])
    assert np.allclose(lam_ph, sorted([0.0, 0.0, ALPHA2, BETA2]), atol=1e-10)
    lam_bp = np.sort(herm_eig(povms.M_bitph)[0])
    assert np.allclose(lam_bp, [0.0, 0.0, 0.0, 0.5], atol=1e-10)


def test_source_and_depolarized_states():
    rho0 = source_state(CFG)
    assert abs(np.trace(rho0).real - 1.0) <= 1e-12
    assert herm_eig(rho0)[0].min() >= -1e-12
    for p in (0.0, 0.3, 1.0):
        rho = depolarized_state(CFG, p)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert herm_eig(rho)[0].min() >= -1e-12
        # the channel acts on B only: rho_A is preserved
        assert np.allclose(
            partial_trace(rho, (2, 2), [0]),
            partial_trace(rho0, (2, 2), [0]),
            atol=1e-12,
        )


def test_expected_statistics_noiseless():
    q = expected_statistics(CFG, 0.0)
    assert abs(q.q_fil - 2.0 * ALPHA2 * BETA2) <= 1e-12
    assert abs(q.q_bit) <= 1e-12
    assert abs(q.q_ph) <= 1e-12
    assert abs(q.q_bitph) <= 1e-12
    assert abs(q.q_minus - ALPHA2) <= 1e-12


def test_expected_statistics_depolarizing():
    # q_minus is channel independent; q_fil and errors grow linearly in p
    q0 = expected_statistics(CFG, 0.0)
    for p in (0.2, 0.7):
        q = expected_statistics(CFG, p)
        assert abs(q.q_minus - ALPHA2) <= 1e-12
        assert q.q_bit > 0 and q.q_ph > 0 and q.q_bitph > 0
        assert q.q_bit <= q.q_fil + 1e-12
        # linear interpolation toward the fully mixed channel output
        q1 = expected_statistics(CFG, 1.0)
        assert abs(q.q_fil - ((1 - p) * q0.q_fil + p * q1.q_fil)) <= 1e-12


def test_sample_observed_reproducible_and_in_range():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    s1 = sample_observed(CFG, 0.02, -60.0, rng1)
    s2 = sample_observed(CFG, 0.02, -60.0, rng2)
    assert s1 == s2
    assert 0 <= s1.n_err <= s1.n_suc <= CFG.splits[1]
    assert 0 <= s1.n_sift <= CFG.splits[0]
    assert 0 <= s1.nbar3 <= CFG.splits[2]


def test_sample_observed_noiseless_has_no_errors():
    # q_bit rounds to a tiny negative number at p = 0
    stats = sample_observed(CFG, 0.0, -60.0, np.random.default_rng(0))
    assert stats.n_err == 0


# ---------------------------------------------------------------------------
# Secrecy budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("analysis", ["universal", "conventional"])
def test_budget_meets_target(analysis):
    budget = secrecy_budget(CFG, analysis)
    eps = achieved_eps_sec(budget.log2_eps1, budget.log2_eps2, CFG.n_tot, budget.s)
    assert eps <= CFG.target_eps_sec * (1.0 + 1e-9)
    assert eps >= CFG.target_eps_sec * 0.5  # not wastefully small
    assert budget.s is (None if analysis == "universal" else budget.s)


def test_achieved_eps_log_space_oracle():
    # moderate arguments where the direct formula is representable
    l1, l2, s = -30.0, -40.0, 25.0
    from ucqkd.entropies import log2_fq_factor

    fq = 2.0 ** log2_fq_factor(10**6, 4)
    direct = math.sqrt(2 * (2.0**l1 + 4 * 2.0**l2 * fq + 2.0**-s))
    assert abs(achieved_eps_sec(l1, l2, 10**6, s) - direct) <= 1e-12 * direct


# ---------------------------------------------------------------------------
# Acceptance sets
# ---------------------------------------------------------------------------


def test_constraint_set_contains_expected_state():
    rng = np.random.default_rng(1)
    p = 0.03
    budget = secrecy_budget(CFG, "universal")
    stats = sample_observed(CFG, p, budget.log2_eps1, rng)
    povms = build_povms(CFG)
    fs = constraint_set_B(stats, CFG.splits, budget.log2_eps2, povms)
    rho = depolarized_state(CFG, p)
    for M, ub in fs.ineq:
        assert float(np.trace(M @ rho).real) <= ub + 1e-9
    for M, val in fs.eq:
        assert abs(float(np.trace(M @ rho).real) - val) <= 1e-9


def test_asymptotic_constraint_set_is_exact():
    povms = build_povms(CFG)
    p = 0.02
    fs = asymptotic_constraint_set(CFG, p, povms)
    rho = depolarized_state(CFG, p)
    for M, val in fs.eq:
        assert abs(float(np.trace(M @ rho).real) - val) <= 1e-12


# ---------------------------------------------------------------------------
# Phase-error pattern entropy
# ---------------------------------------------------------------------------


def test_phase_entropy_grouping_oracle():
    # outcomes ordered (no-error, phase, bit, bit&phase); conditional
    # grouping is H of the phase bit given the bit-error bit
    q4 = np.array([0.5, 0.2, 0.2, 0.1])
    pb0, pb1 = q4[0] + q4[1], q4[2] + q4[3]
    expect = pb0 * binary_entropy(q4[1] / pb0) + pb1 * binary_entropy(q4[3] / pb1)
    assert abs(phase_entropy(q4, "conditional") - expect) <= 1e-12


def test_phase_entropy_gradient_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q4 = rng.dirichlet(np.ones(4)) * float(rng.uniform(0.2, 1.0))
        val, grad = phase_entropy_and_gradient(q4)
        assert abs(val - phase_entropy(q4)) <= 1e-12
        h = 1e-7
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (phase_entropy(q4 + e) - phase_entropy(q4 - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-5


def test_phase_entropy_tangent_bound_on_simplex():
    # the exponent is concave and scale-invariant, so on the simplex it lies
    # below its tangent plane at u* = q4/s, whose slope is s times the
    # gradient at q4; points u* +- d pin the factor s at first order
    rng = np.random.default_rng(3)
    for _ in range(20):
        q4 = rng.dirichlet(np.ones(4)) * float(rng.uniform(0.05, 5.0))
        s = float(q4.sum())
        ustar = q4 / s
        h0, grad = phase_entropy_and_gradient(q4)
        d = rng.normal(size=4)
        d -= d.mean()
        d *= 1e-3 * ustar.min() / np.abs(d).max()
        points = [rng.dirichlet(np.ones(4)) for _ in range(50)] + [ustar + d, ustar - d]
        for u in points:
            assert phase_entropy(u) <= h0 + s * float(grad @ (u - ustar)) + 1e-12


def test_outcome_operators_resolve_filter():
    povms = build_povms(CFG)
    ops = outcome_operators(povms)
    assert len(ops) == 5
    for O in ops:
        assert herm_eig(O)[0].min() >= -1e-10
    assert np.allclose(sum(ops), np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# Key lengths
# ---------------------------------------------------------------------------


def _observed(cfg, p, budget):
    return sample_observed(cfg, p, budget.log2_eps1, np.random.default_rng(9))


def test_universal_key_length_basics():
    cfg = B92Config(n_tot=10**8, alpha_renyi=0.15)
    budget = secrecy_budget(cfg, "universal")
    stats = _observed(cfg, 0.01, budget)
    res = universal_key_length(cfg, stats, budget)
    assert res.analysis == "universal"
    assert 0.0 < res.n_fin < stats.n_sift
    assert res.net_key == res.n_fin - res.ec_cost
    assert res.eps_achieved <= cfg.target_eps_sec * (1 + 1e-9)
    assert abs(res.syndrome_bits - (stats.n_sift - res.n_fin)) <= 1e-6
    # smaller alpha pays a larger (1/alpha) eps term: rate must drop
    res_tiny = universal_key_length(replace(cfg, alpha_renyi=1e-4), stats, budget)
    assert res_tiny.n_fin < res.n_fin


def test_conventional_key_length_basics():
    cfg = B92Config(n_tot=10**8)
    budget = secrecy_budget(cfg, "conventional")
    stats = _observed(cfg, 0.01, budget)
    res = conventional_key_length(cfg, stats, budget)
    assert res.analysis == "conventional"
    assert 0.0 < res.n_fin < stats.n_sift
    assert res.net_key == res.n_fin - res.ec_cost
    assert res.alpha_renyi is None


_P0_POINT = """
import sys
import numpy as np
from ucqkd import b92
alpha = sys.argv[2] if sys.argv[2] == "auto" else float(sys.argv[2])
cfg = b92.B92Config(n_tot=int(sys.argv[1]), seed=7, alpha_renyi=alpha)
budget = b92.secrecy_budget(cfg, "conventional")
stats = b92.sample_observed(cfg, 0.0, budget.log2_eps1, np.random.default_rng([7, 3]))
print(b92.conventional_key_length(cfg, stats, budget).n_fin)
"""


def _p0_key_length(n_tot, alpha_renyi):
    # one BLAS thread, as in the benchmark and a `ucqkd keyrate --jobs 1` grid
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _P0_POINT, str(n_tot), str(alpha_renyi)],
                         env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


def test_conventional_point_with_singular_barrier_iterate():
    # p = 0: the SDP iterates of this point approach a numerically singular
    # rho; the point must still certify a key length
    n_fin = _p0_key_length(10**10, "auto")
    assert 0.0 < n_fin < B92Config(n_tot=10**10).splits[0] * 2.0 * ALPHA2 * BETA2


def test_conventional_point_on_a_thin_acceptance_set():
    # p = 0 at n_tot = 1e14: the bit-error bound 9.4e-12 leaves a set about
    # 1e-11 thick, and the key length must still be certified
    n_fin = _p0_key_length(10**14, 0.01)
    assert 0.0 < n_fin < B92Config(n_tot=10**14).splits[0] * 2.0 * ALPHA2 * BETA2


def test_key_lengths_clamp_at_high_noise():
    cfg = B92Config(n_tot=10**6, alpha_renyi=0.1)
    for analysis, fn in (
        ("universal", universal_key_length),
        ("conventional", conventional_key_length),
    ):
        budget = secrecy_budget(cfg, analysis)
        stats = _observed(cfg, 0.5, budget)
        res = fn(cfg, stats, budget)
        assert res.n_fin == 0.0
        assert res.net_key == 0.0
        assert res.clamped


def test_conventional_bound_covers_halfspace_maximum(monkeypatch):
    # at this point the exclusion halfspace <gamma,u> <= t* reaches past the
    # tangent point u*, so the key must pay for the largest pattern exponent
    # on it, found here independently by SLSQP from u*
    cfg = B92Config(n_tot=10**9, seed=1)
    budget = secrecy_budget(cfg, "conventional")
    stats = sample_observed(cfg, 0.01, budget.log2_eps1, np.random.default_rng([1, 0]))
    divergences, maxima = [], []
    min_divergence, maximize_entropy = b92._min_divergence, b92._maximize_entropy

    def spy_divergence(fs, ops, gamma, thresh, q5fix):
        out = min_divergence(fs, ops, gamma, thresh, q5fix)
        divergences.append((gamma, thresh, out[0]))
        return out

    def spy_maximize(*args, **kwargs):
        maxima.append(maximize_entropy(*args, **kwargs))
        return maxima[-1]

    monkeypatch.setattr(b92, "_min_divergence", spy_divergence)
    monkeypatch.setattr(b92, "_maximize_entropy", spy_maximize)
    res = conventional_key_length(cfg, stats, budget)

    target = -budget.log2_eps2 / cfg.splits[0]
    gamma = divergences[0][0]
    ops = outcome_operators(build_povms(cfg))
    q4 = np.array([float(np.trace(O @ maxima[0].sigma).real) for O in ops[:4]])
    ustar = q4 / q4.sum()
    # the largest threshold whose excluded set is still too likely: <= t*
    tstar = max(t for _, t, div in divergences if div < target)
    assert tstar - float(gamma @ ustar) > 1e-4
    opt = minimize(
        lambda u: -phase_entropy(np.clip(u, 0.0, 1.0)), ustar, method="SLSQP",
        bounds=[(0.0, 1.0)] * 4,
        constraints=[
            {"type": "eq", "fun": lambda u: np.sum(u) - 1.0},
            {"type": "ineq", "fun": lambda u: tstar - float(gamma @ u)},
        ],
        options={"maxiter": 300, "ftol": 1e-12},
    )
    u = np.clip(opt.x, 0.0, 1.0)
    assert abs(u.sum() - 1.0) <= 1e-9
    assert float(gamma @ u) <= tstar + 1e-9
    h_hat = phase_entropy(u)
    assert h_hat > maxima[0].upper_bound
    assert res.n_fin <= stats.n_sift * (1.0 - h_hat) - budget.s
    # an alternating divergence minimizer that stopped above the minimum,
    # so too low a threshold, gave 59469584.66 here; the key must not rise
    assert res.n_fin <= 59469584.66


def test_conventional_solves_each_threshold_once(monkeypatch):
    # the root search brackets [t0, t_hi] after evaluating t0 itself; the
    # bracket end must not cost a second divergence minimization
    cfg = B92Config(n_tot=10**9, seed=1)
    budget = secrecy_budget(cfg, "conventional")
    stats = sample_observed(cfg, 0.01, budget.log2_eps1, np.random.default_rng([1, 0]))
    thresholds, tops, min_divergence = [], [], b92._min_divergence

    def spy(fs, ops, gamma, thresh, q5fix):
        thresholds.append(thresh)
        tops.append(gamma.max())
        return min_divergence(fs, ops, gamma, thresh, q5fix)

    monkeypatch.setattr(b92, "_min_divergence", spy)
    conventional_key_length(cfg, stats, budget)
    assert len(thresholds) > 2  # the root search ran
    assert len(set(thresholds)) == len(thresholds)
    # the bracket ends at the tested point below gamma.max(), not at it
    assert all(t < top for t, top in zip(thresholds, tops))


def test_sanov_threshold_certified_at_benchmark_point(monkeypatch):
    # p = 0.02, n_tot = 1e11: a feasible state has divergence below the
    # target at t0, so t0 itself is no valid threshold; the divergence
    # minimum at the returned t* reaches the target, and one feasible state
    # still falls short of it at t* - 2 t_tol, so t* is tight to that
    cfg = B92Config(n_tot=10**11, seed=1)
    budget = secrecy_budget(cfg, "conventional")
    stats = sample_observed(cfg, 0.02, budget.log2_eps1, np.random.default_rng([1, 0]))
    searches, minima = [], []
    search, min_divergence = b92._sanov_threshold, b92._min_divergence

    def spy_search(*args):
        searches.append((args, search(*args)))
        return searches[-1][1]

    def spy_divergence(fs, ops, gamma, thresh, q5fix):
        out = min_divergence(fs, ops, gamma, thresh, q5fix)
        minima.append((thresh, out[0]))
        return out

    monkeypatch.setattr(b92, "_sanov_threshold", spy_search)
    monkeypatch.setattr(b92, "_min_divergence", spy_divergence)
    conventional_key_length(cfg, stats, budget)
    (fs, ops, gamma, q5fix, target, t0, t_tol), tstar = searches[0]
    assert minima[0][0] == t0 and minima[0][1] < target and tstar > t0
    div, res = min_divergence(fs, ops, gamma, tstar, q5fix)
    assert res.stop == "converged" and div >= target
    assert min_divergence(fs, ops, gamma, tstar - 2.0 * t_tol, q5fix)[0] < target


def _divergence_point():
    """The acceptance set at p=0.01, n_tot=1e9 (seed 1) and a threshold on
    the sifted outcomes that the expected state misses."""
    cfg = B92Config(n_tot=10**9, seed=1)
    budget = secrecy_budget(cfg, "conventional")
    stats = sample_observed(cfg, 0.01, budget.log2_eps1, np.random.default_rng([1, 0]))
    povms = build_povms(cfg)
    fs = constraint_set_B(stats, cfg.splits, budget.log2_eps2, povms)
    ops = outcome_operators(povms)
    rho = depolarized_state(cfg, 0.01)
    q = np.array([float(np.trace(O @ rho).real) for O in ops])
    _, gamma = phase_entropy_and_gradient(q[:4])
    t = float(gamma @ q[:4]) / q[:4].sum()
    return fs, ops, gamma, t + 0.05 * (gamma.max() - t), 1.0 - stats.n_sift / cfg.splits[0]


def test_min_divergence_danskin_gradient(monkeypatch):
    # the objective handed to the maximizer is -min_p D(p||q(rho)); its
    # gradient must match finite differences along traceless directions, and
    # its curvature matrices K_r the second difference -sum_r Tr[K_r H]^2
    fs, ops, gamma, thresh, q5fix = _divergence_point()
    objectives, maximize = [], b92.maximize_on_path

    def record(objective, *args, **kwargs):
        objectives.append(objective)
        return maximize(objective, *args, **kwargs)

    monkeypatch.setattr(b92, "maximize_on_path", record)
    b92._min_divergence(fs, ops, gamma, thresh, q5fix)
    objective = objectives[0]
    rng = np.random.default_rng(3)
    rho = fs.interior_point[0]
    _, grad, K = objective(rho)
    assert abs(np.trace(grad)) <= 1e-9 * np.abs(grad).max()
    h = 1e-6
    for _ in range(5):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = A + A.conj().T
        H -= np.trace(H).real / 4 * np.eye(4)
        fd = (objective(rho + h * H)[0] - objective(rho - h * H)[0]) / (2 * h)
        assert abs(fd - float(np.trace(grad @ H).real)) <= 1e-6 * max(1.0, abs(fd))
        fd2 = float(np.trace((objective(rho + h * H)[1] - objective(rho - h * H)[1]) @ H).real)
        curv = -sum(float(np.trace(k @ H).real) ** 2 for k in K)
        assert abs(fd2 / (2 * h) - curv) <= 1e-5 * max(1.0, abs(curv))


def test_min_divergence_certified_lower_bound():
    # -upper_bound is below the divergence of every feasible state: the one
    # returned, the phase-one point and SDP optima for random objectives
    fs, ops, gamma, thresh, q5fix = _divergence_point()
    div, res = b92._min_divergence(fs, ops, gamma, thresh, q5fix)
    lower = -res.upper_bound
    assert lower <= div <= lower + 1e-7
    rng = np.random.default_rng(4)
    states = [res.sigma, fs.interior_point[0]]
    for _ in range(3):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        states.append(solve_linear_sdp(A + A.conj().T, fs).rho)
    for rho in states:
        q = np.array([float(np.trace(O @ rho).real) for O in ops])
        u, _ = tilted_projection(q[:4], gamma, thresh)
        assert lower <= divergence_bits(np.append((1.0 - q5fix) * u, q5fix), q) + 1e-12


def _stub_alpha_search(monkeypatch, a_opt, a_scale=1.0):
    # a stub R* bound for which n_fin(a) = n1 (0.7 - c a - (1-a)/a t)
    # - 18 log2(n1+1) - log2(1/eps2)/a, with t = (a_scale - 1) log2(1/eps2)/n1.
    # Its stationarity data are A = a_scale log2(1/eps2)/n1 and c: the stub's
    # state has filtered trace s = 2^t r_down, and the stub objective has
    # slope c in alpha, so with a_scale = 1 the maximum lies at a_opt.
    # Returns the result, the alphas passed to R*, n_fin, and a tolerance of
    # a few ulps of the largest term n1 (1-a)/a log2(1/r_down), which the
    # stub's R* subtracts and universal_key_length adds back
    cfg = B92Config(n_tot=10**10)
    budget = secrecy_budget(cfg, "universal")
    stats = sample_observed(cfg, 0.005, budget.log2_eps1, np.random.default_rng(1))
    n1, n_extr = stats.n_sift, cfg.splits[0]
    f1 = n1 / n_extr
    r_down = f1 - solve_delta2(1.0 - f1, n_extr, log2_eps=budget.log2_eps2)
    band = math.log2(1.0 / r_down)
    penalty = -budget.log2_eps2 / n1
    c = penalty / a_opt**2
    t = (a_scale - 1.0) * penalty
    M_fil = build_povms(cfg).M_fil
    sigma = 2.0**t * r_down * np.eye(4) / np.trace(M_fil).real
    calls = []

    def stub(cfg_, fs, alpha, *args, **kwargs):
        calls.append(alpha)
        return SimpleNamespace(upper_bound=0.3 + c * alpha - (1.0 - alpha) / alpha * (band - t),
                               sigma=sigma)

    def n_fin(a):
        return (n1 * (0.7 - c * a - (1.0 - a) / a * t) - 18.0 * math.log2(n1 + 1)
                + budget.log2_eps2 / a)

    monkeypatch.setattr(b92, "rstar_upper_bound", stub)
    monkeypatch.setattr(b92, "renyi_entropy_objective", lambda cfg_, a: lambda rho: (c * a, None))
    res = universal_key_length(cfg, stats, budget)
    return res, calls, n_fin, 4.0 * np.spacing(n1 * band / min(calls))


def test_auto_alpha_finds_interior_optimum(monkeypatch):
    # the stationarity condition points at the optimum from the first order
    a_opt = 0.0731
    res, calls, n_fin, tol = _stub_alpha_search(monkeypatch, a_opt)
    assert res.alpha_renyi in calls
    assert len(calls) <= 4
    best = max(n_fin(a) for a in calls)
    assert abs(res.n_fin - n_fin(res.alpha_renyi)) <= tol
    assert res.n_fin >= best - tol
    assert abs(math.log(res.alpha_renyi / a_opt)) <= 1e-2


@pytest.mark.parametrize("a_opt,a_scale,n_calls", [
    (3.0, 1.0, None),  # above the cap alpha <= 0.9
    (0.0731, -1.0, 12),  # A < 0: n_fin falls with alpha everywhere
], ids=["above-cap", "negative-A"])
def test_auto_alpha_optimum_out_of_reach(monkeypatch, a_opt, a_scale, n_calls):
    # the search stays inside (0, 0.9] and within 12 R* calls, and returns
    # the best alpha it evaluated, with that alpha's own n_fin
    res, calls, n_fin, tol = _stub_alpha_search(monkeypatch, a_opt, a_scale)
    assert 0.0 < min(calls) and max(calls) <= 0.9 * (1.0 + 1e-15)
    assert len(calls) <= 12 and n_calls in (None, len(calls))
    assert res.alpha_renyi in calls
    assert abs(res.n_fin - max(n_fin(a) for a in calls)) <= tol
    assert abs(res.n_fin - n_fin(res.alpha_renyi)) <= tol


def _synthetic_search(F):
    # _auto_alpha on stationarity data with c = 1 and A = alpha^2 e^(2 F(x)),
    # x = log alpha, so that F is the search's own function; n_fin = -F(x)^2
    # peaks at F's root.  Returns the best x and the x evaluated
    xs = []

    def evaluate(a):
        xs.append(math.log(a))
        return -F(xs[-1]) ** 2, a * a * math.exp(2.0 * F(xs[-1])), 1.0

    return math.log(b92._auto_alpha(evaluate)[0]), xs


def test_auto_alpha_secant_solves_a_linear_condition():
    # a fixed-point step x + F would close only a tenth of the distance per
    # evaluation here; the secant lands on the root with its first use
    best, xs = _synthetic_search(lambda x: -0.1 * (x + 1.0))
    assert len(xs) == 3 and abs(best + 1.0) <= 1e-12


@pytest.mark.parametrize("F,root", [
    (lambda x: math.exp(-3.0 * (x + 1.5)) - 1.0, -1.5),
    (lambda x: -math.sinh(3.0 * (x + 1.5)), -1.5),
    (lambda x: -2.0 * math.tanh(3.0 * (x + 1.0)), -1.0),
    (lambda x: 3.0 * (1.0 - math.exp(2.0 * (x + 2.8))), -2.8),
], ids=["convex", "sinh", "tanh", "concave"])
def test_auto_alpha_keeps_its_bracket(F, root):
    # once the sign of F has changed, every evaluation lies strictly inside
    # the bracket of the earlier ones, and the search ends at the root
    best, xs = _synthetic_search(F)
    for k in range(1, len(xs)):
        lo = max((x for x in xs[:k] if F(x) > 0), default=-math.inf)
        hi = min((x for x in xs[:k] if F(x) <= 0), default=math.inf)
        assert lo < xs[k] < hi
    assert len(xs) < 12 and abs(best - root) <= 5e-3


def test_auto_alpha_shares_one_acceptance_set(monkeypatch):
    # every R* bound runs on the set universal_key_length built, so phase
    # one runs once for the whole search
    cfg = B92Config(n_tot=10**10)
    budget = secrecy_budget(cfg, "universal")
    stats = sample_observed(cfg, 0.005, budget.log2_eps1, np.random.default_rng(1))
    phase_one, runs, calls = optimize._phase_one, [], []

    def count(fs, basis):
        runs.append(fs)
        return phase_one(fs, basis)

    def stub(cfg_, fs, alpha, *args, **kwargs):
        # the stationarity data come from the state of a real solve on fs
        calls.append(alpha)
        rho = optimize.solve_linear_sdp(np.zeros((4, 4), dtype=complex), fs).rho
        return SimpleNamespace(upper_bound=0.3 + 0.1 * alpha, sigma=rho)

    monkeypatch.setattr(optimize, "_phase_one", count)
    monkeypatch.setattr(b92, "rstar_upper_bound", stub)
    universal_key_length(cfg, stats, budget)
    assert len(calls) > 1 and len(runs) == 1


def test_asymptotic_face_is_reduced_once(monkeypatch):
    # asymptotic_rates maximizes twice on one p = 0 set; the face and its
    # phase-one point stay on the set instead of being rebuilt per call
    fs = asymptotic_constraint_set(CFG, 0.0, build_povms(CFG))
    facial_reduce, phase_one = optimize.facial_reduce, optimize._phase_one
    reduced, runs = [], []

    def count_reduce(fs_):
        reduced.append(fs_)
        return facial_reduce(fs_)

    def count_phase_one(fs_, basis):
        runs.append(fs_)
        return phase_one(fs_, basis)

    monkeypatch.setattr(optimize, "facial_reduce", count_reduce)
    monkeypatch.setattr(optimize, "_phase_one", count_phase_one)
    C = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)

    def linear(rho):
        return float(np.trace(C @ rho).real), C

    for _ in range(2):
        b92._maximize_entropy(linear, fs)
    assert len(reduced) == 1 and len(runs) == 1
    red, V = fs.face
    assert red.dim < fs.dim
    with pytest.raises(ValueError):
        V[0, 0] = 0.0


def test_universal_point_work_budget(monkeypatch):
    # the benchmark's universal point: each R* maximization stops once only
    # the SDP certificate's own gap is left, long before max_outer, each
    # order after the first starts from its nearest evaluated neighbour's
    # atoms, and the stationarity condition of n_fin picks the order within
    # a few maximizations (measured: 3 R* calls and 15 SDP solves; 11 and 23
    # with a bounded Brent search on n_fin itself)
    cfg = B92Config(n_tot=10**10, seed=1)
    budget = secrecy_budget(cfg, "universal")
    stats = sample_observed(cfg, 0.005, budget.log2_eps1, np.random.default_rng([1, 0]))
    solve, linearize = optimize.solve_linear_sdp, b92.sequential_linearization
    solves, stops = [], []

    def count(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def record(*args, **kwargs):
        res = linearize(*args, **kwargs)
        stops.append(res.stop)
        return res

    monkeypatch.setattr(optimize, "solve_linear_sdp", count)
    monkeypatch.setattr(b92, "sequential_linearization", record)
    universal_key_length(cfg, stats, budget)
    assert len(stops) <= 4 and "max_outer" not in stops
    assert len(solves) <= 16


@pytest.mark.parametrize("seed", [1, 2])
def test_auto_alpha_is_a_local_maximum(seed):
    # the chosen order beats its neighbours at alpha e^(+-0.02), where n_fin
    # is lower by 1.2-1.6e-5 relative, well above the roughness of n_fin(alpha)
    # (about 1e-6 relative)
    cfg = B92Config(n_tot=10**10, seed=seed)
    budget = secrecy_budget(cfg, "universal")
    stats = sample_observed(cfg, 0.005, budget.log2_eps1, np.random.default_rng([seed, 0]))
    res = universal_key_length(cfg, stats, budget)
    for k in (-0.02, 0.02):
        fixed = replace(cfg, alpha_renyi=res.alpha_renyi * math.exp(k))
        assert res.n_fin >= universal_key_length(fixed, stats, budget).n_fin


def test_conventional_point_work_budget(monkeypatch):
    # the benchmark's conventional point: the pattern maximum makes at most 6
    # SDP solves of at most 15 iterations each (the log-barrier core took
    # about 70 Newton steps per solve here), and the threshold search at most
    # 3 divergence minimizations on the path of at most 20 iterations each
    # (measured: 2 solves of 9 iterations, 2 minimizations of 17)
    cfg = B92Config(n_tot=10**11, seed=1)
    budget = secrecy_budget(cfg, "conventional")
    stats = sample_observed(cfg, 0.02, budget.log2_eps1, np.random.default_rng([1, 0]))
    factor = optimize._schur_factor
    factored, solves, minimizations = [], [], []

    def count_factor(*args):
        factored.append(1)
        return factor(*args)

    def counted(run, into):
        def wrapper(*args, **kwargs):
            args[1].interior_point  # phase one's own iterations are not the solve's
            start = len(factored)
            res = run(*args, **kwargs)
            into.append(len(factored) - start)
            return res
        return wrapper

    monkeypatch.setattr(optimize, "_schur_factor", count_factor)
    monkeypatch.setattr(optimize, "solve_linear_sdp", counted(optimize.solve_linear_sdp, solves))
    monkeypatch.setattr(b92, "maximize_on_path", counted(b92.maximize_on_path, minimizations))
    conventional_key_length(cfg, stats, budget)
    assert 0 < len(solves) <= 6 and max(solves) <= 15
    assert 0 < len(minimizations) <= 3 and max(minimizations) <= 20


@pytest.mark.parametrize("analysis,n_tot,rng", [
    ("conventional", 10**12, 9),
    # a bit-error bound of 9.4e-12: the set must not be reduced to ker(M_bit)
    ("universal", 10**14, [0, 0]),
], ids=["conventional", "universal"])
def test_noiseless_large_sample(analysis, n_tot, rng):
    cfg = B92Config(n_tot=n_tot, alpha_renyi=0.01)
    budget = secrecy_budget(cfg, analysis)
    stats = sample_observed(cfg, 0.0, budget.log2_eps1, np.random.default_rng(rng))
    key_length = (universal_key_length if analysis == "universal"
                  else conventional_key_length)
    n_fin = key_length(cfg, stats, budget).n_fin
    # positive, and below the p = 0 asymptote n1 q_fil (cf. the test below)
    assert 0.0 < n_fin < cfg.splits[0] * 2.0 * ALPHA2 * BETA2


# ---------------------------------------------------------------------------
# Asymptotics
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rates_small_p():
    return asymptotic_rates(CFG, 0.01)


def test_asymptotic_rate_orderings(rates_small_p):
    r = rates_small_p
    assert r["universalCertified"] <= r["universal"] + 1e-9
    assert r["universal"] - r["universalCertified"] <= 1e-6  # tight gap
    assert r["conventional"] <= r["universal"] + 1e-9
    assert r["conventionalCertified"] <= r["conventional"] + 1e-9
    assert 0.0 < r["universal"] < 1.0 / 3.0


def test_asymptotic_devetak_winter_match(rates_small_p):
    assert abs(rates_small_p["universal"] - rates_small_p["devetakWinter"]) <= 1e-6


def test_asymptotic_noiseless_all_equal():
    r = asymptotic_rates(CFG, 0.0)
    # no uncertainty left: all three coincide at (n1/n) q_fil (1 - 0 - 0)
    expect = CFG.splits[0] / CFG.n_tot * 2.0 * ALPHA2 * BETA2
    assert abs(r["universal"] - expect) <= 1e-7
    assert abs(r["conventional"] - r["universal"]) <= 1e-6
    assert abs(r["devetakWinter"] - r["universal"]) <= 1e-6


def test_devetak_winter_independent_formula():
    """H(Z|E) - H(Z|Z_B) for the noiseless source has a closed form: with no
    phase information leaked, H(Z|E) = 1 and the bit channel is error-free."""
    rho = source_state(CFG)
    q_fil = 2.0 * ALPHA2 * BETA2
    val = devetak_winter_rate(CFG, rho, q_fil)
    assert abs(val - 1.0) <= 1e-9
