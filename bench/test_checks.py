"""Each benchmark check rejects a perturbed output, and its reference
computations agree with the program where both compute the same value."""

import math

import numpy as np
import pytest

from ucqkd import b92, cli, compression

import checks

REF = checks.B92Reference(b92.B92Config().amp)


def _key_inputs(analysis, p=0.005, n_tot=10**10):
    cfg = b92.B92Config(n_tot=n_tot, seed=3)
    budget = b92.secrecy_budget(cfg, analysis)
    stats = b92.sample_observed(cfg, p, budget.log2_eps1, np.random.default_rng([3, 0]))
    fs = b92.constraint_set_B(stats, cfg.splits, budget.log2_eps2, b92.build_povms(cfg))
    rho = REF.true_state(p)
    exponent = (REF.h_x_given_ab(rho) if analysis == "universal"
                else REF.pattern_exponent(rho))
    return cfg, stats, fs, rho, stats.n_sift * (1.0 - exponent)


def _key_record(analysis, stats, n_fin):
    return {"op": "t", "analysis": analysis, "n_sift": stats.n_sift, "n_fin": n_fin,
            "net_key": 0.9 * n_fin, "clamped": False, "eps_achieved": 1e-16,
            "upper_bound": 0.3, "gap": 1e-6}


@pytest.mark.parametrize("analysis", ["universal", "conventional"])
def test_key_length_above_its_bound_is_rejected(analysis):
    cfg, stats, fs, rho, bound = _key_inputs(analysis)
    below = _key_record(analysis, stats, bound * (1.0 - 1e-4))
    assert checks.check_key_length(below, REF, rho, fs, cfg.target_eps_sec) == []
    above = _key_record(analysis, stats, bound * (1.0 + 1e-6))
    problems = checks.check_key_length(above, REF, rho, fs, cfg.target_eps_sec)
    assert any("exceeds n_sift" in m for m in problems)


def test_clamped_or_insecure_key_is_rejected():
    cfg, stats, fs, rho, bound = _key_inputs("universal")
    for change in ({"clamped": True}, {"net_key": 0.0}, {"eps_achieved": 1e-3}):
        rec = {**_key_record("universal", stats, 0.5 * bound), **change}
        assert checks.check_key_length(rec, REF, rho, fs, cfg.target_eps_sec)


def test_state_outside_the_acceptance_set_is_reported():
    cfg, stats, fs, _, bound = _key_inputs("universal")
    rec = _key_record("universal", stats, 0.5 * bound)
    problems = checks.check_key_length(rec, REF, REF.true_state(0.05), fs, cfg.target_eps_sec)
    assert any("violates" in m for m in problems)


def _asymptotic_records():
    cfg = b92.B92Config()
    frac = cfg.splits[0] / cfg.n_tot
    out = []
    for p in (0.0, 0.005, 0.01):
        rho = REF.true_state(p)
        rate = frac * REF.filtered(rho)[1] * REF.devetak_winter(rho) - 1e-12
        rates = {"universal": rate, "universalCertified": rate - 1e-9,
                 "conventional": rate - 1e-3, "conventionalCertified": rate - 1e-3,
                 "devetakWinter": rate}
        out.append({"p": p, "rates": rates, "extraction_fraction": frac})
    return out


def test_devetak_winter_moved_by_1e_5_is_rejected():
    records = _asymptotic_records()
    assert checks.check_asymptotic(records, REF) == []
    records[1]["rates"]["devetakWinter"] += 1e-5
    assert any("Devetak-Winter" in m for m in checks.check_asymptotic(records, REF))


@pytest.mark.parametrize("name,delta", [
    ("universalCertified", 1e-6),  # certified above the rate
    ("conventional", 2e-3),  # conventional above universal
    ("universal", 1e-4),  # above the true-state rate and rising in p
])
def test_asymptotic_properties_are_enforced(name, delta):
    records = _asymptotic_records()
    records[1]["rates"][name] += delta
    assert checks.check_asymptotic(records, REF)


def test_error_probability_above_its_bound_is_rejected():
    rec = {"op": "t", "exactPerr": 0.25, "boundPerr": 0.3}
    assert checks.check_compression(rec) == []
    assert checks.check_compression({**rec, "exactPerr": 0.31})
    assert checks.check_compression({**rec, "exactPerr": -1e-3})


def test_nan_in_exponent_curve_is_a_failure():
    good = '{"exponentCurve": [[0.1, -0.5], [0.999, -1.0]]}'
    assert checks.output_failure(good) is None
    for bad in ("NaN", "Infinity", "-Infinity"):
        assert checks.output_failure(good.replace("-1.0", bad)) is not None


@pytest.mark.parametrize("n,kind", [(2, "partially-universal"), (3, "fully-universal")])
def test_quadrature_reference_matches_and_rejects_a_shift(n, kind):
    exp = compression.CompressionExperiment(
        source=cli._random_source(2, 2, 11), n=n, bins_log=1.0, decoder_kind=kind,
        hash_dits=1, family="all-surjective", seed=11)
    exact, _ = compression.exact_error_probability(exp)
    quad = checks.error_probability_by_quadrature(
        exp.source.probs, exp.source.states, n, 1, kind)
    rec = {"op": "t", "exactPerr": exact, "boundPerr": 1.0, "quadraturePerr": quad}
    assert checks.check_compression(rec) == []
    assert checks.check_compression({**rec, "exactPerr": exact + 1e-6})


def test_reference_states_match_the_program():
    from ucqkd.schur_weyl import sigma_for_string, universal_symmetric_state

    for m in (1, 2, 3):
        assert np.allclose(checks.universal_state_qubits(m), universal_symmetric_state(m, 2))
    for x in [(0, 1, 0), (1, 1, 0), (0, 1), (1, 0, 1)]:
        assert np.allclose(checks.string_state(x), sigma_for_string(x, 2))


def test_reference_entropies_match_the_program():
    cfg = b92.B92Config()
    for p in (0.0, 0.01, 0.04):
        rho = REF.true_state(p)
        assert np.allclose(rho, b92.depolarized_state(cfg, p))
        q = b92.expected_statistics(cfg, p)
        assert math.isclose(REF.filtered(rho)[1], q.q_fil, rel_tol=1e-12)
        assert math.isclose(REF.devetak_winter(rho),
                            b92.devetak_winter_rate(cfg, rho, q.q_fil), abs_tol=1e-9)
        ops = b92.outcome_operators(b92.build_povms(cfg))
        q4 = [float(np.trace(o @ rho).real) for o in ops[:4]]
        assert math.isclose(REF.pattern_exponent(rho),
                            b92.phase_entropy(q4, "conditional"), abs_tol=1e-12)
