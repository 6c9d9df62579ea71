"""Two-state protocol analysis: filter, POVMs, statistics, secrecy budget,
and the finite-size/asymptotic key lengths."""

import math

import numpy as np
import pytest

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
from ucqkd.entropies import binary_entropy
from ucqkd.errors import UsageError
from ucqkd.matfun import herm_eig, partial_trace

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
    from ucqkd.entropies import fq_factor

    direct = math.sqrt(2 * (2.0**l1 + 4 * 2.0**l2 * fq_factor(10**6, 4) + 2.0**-s))
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
    res_tiny = universal_key_length(cfg, stats, budget, alpha=1e-4)
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
