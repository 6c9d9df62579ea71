"""Operator division, universal decoders, and the error-exponent bound."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ucqkd import compression
from ucqkd.compression import (
    CompressionExperiment,
    _decoder_weights,
    _hash_members,
    _prime_power,
    _product_state,
    build_decoder_povm,
    comparison_exponents,
    exact_error_probability,
    operator_division,
    operator_division_on_support,
    operator_division_quadrature,
    run_experiment,
    theorem_bound,
    theorem_overhead,
)
from ucqkd.entropies import CqSource
from ucqkd.errors import CapacityError, InvariantError, UsageError
from ucqkd.fields import field
from ucqkd.hashing import enumerate_surjective_family, hash_apply
from ucqkd.matfun import herm_eig, random_density, support_projector
from ucqkd.schur_weyl import sigma_for_string


def _random_source(rng, k=2, d=2, full_rank=True):
    states = []
    for _ in range(k):
        rho = random_density(d, rng)
        if full_rank:
            rho = 0.95 * rho + 0.05 * np.eye(d) / d
        states.append(rho)
    return CqSource(probs=rng.dirichlet(np.ones(k)), states=tuple(states))


# ---------------------------------------------------------------------------
# Operator division
# ---------------------------------------------------------------------------


def test_division_matches_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        A = random_density(d, rng)
        B = random_density(d, rng) + 0.02 * np.eye(d)
        Y = operator_division(A, B)
        Yq = operator_division_quadrature(A, B)
        assert np.abs(Y - Yq).max() <= 1e-8


def test_division_matches_scalar_quadrature_oracle():
    """Independent oracle: the defining integral evaluated entrywise in the
    eigenbasis of B gives the divided-difference kernel."""
    rng = np.random.default_rng(1)
    d = 3
    A = random_density(d, rng)
    B = random_density(d, rng) + 0.05 * np.eye(d)
    lam, U = herm_eig(B)
    At = U.conj().T @ A @ U
    Y = U.conj().T @ operator_division(A, B) @ U
    for i in range(d):
        for j in range(d):
            kern, _ = quad(
                lambda t: 1.0 / ((lam[i] + t) * (lam[j] + t)), 0.0, np.inf
            )
            assert abs(Y[i, j] - At[i, j] * kern) <= 1e-8


def test_division_completeness():
    # A/A = support projector; sums of decoder elements hit the support
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        B = random_density(d, rng, rank=max(1, d - 1))
        Y = operator_division_on_support(B, B)
        assert np.abs(Y - support_projector(B)).max() <= 1e-10


def test_division_linearity_and_order():
    rng = np.random.default_rng(3)
    d = 3
    B = random_density(d, rng) + 0.1 * np.eye(d)
    A1 = random_density(d, rng)
    A2 = random_density(d, rng)
    lhs = operator_division(A1 + A2, B)
    assert np.allclose(lhs, operator_division(A1, B) + operator_division(A2, B),
                       atol=1e-10)
    # positivity: A >= 0 implies A/B >= 0
    assert herm_eig(operator_division(A1, B))[0].min() >= -1e-12


# ---------------------------------------------------------------------------
# Decoder POVMs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["fully-universal", "partially-universal"])
def test_decoder_povm_is_valid(kind):
    rng = np.random.default_rng(4)
    src = _random_source(rng)
    gf = field(2, 1)
    fam = enumerate_surjective_family(gf, 2, 1)
    H = fam[0]
    weights = _decoder_weights(src, 2, kind)
    sigmas = {x: sigma_for_string(x, src.dim) for x in weights}
    bins = {}
    for x in itertools.product(range(2), repeat=2):
        b = int(hash_apply(gf, H, np.array(x, dtype=np.int64))[0])
        bins.setdefault(b, []).append(x)

    assert sorted(bins) == [0, 1]
    for pre in bins.values():
        povm = build_decoder_povm(pre, weights, sigmas)
        assert sorted(povm) == sorted(pre)
        total = sum(povm.values())
        # decoder elements are positive and sum to (at most) the bin support
        for Y in povm.values():
            assert herm_eig(Y)[0].min() >= -1e-10
        assert herm_eig(np.eye(total.shape[0]) - total)[0].min() >= -1e-8


def test_decoder_povm_matches_division_per_element():
    # one eigendecomposition of the bin's denominator serves every numerator
    rng = np.random.default_rng(11)
    src = _random_source(rng, k=3)
    weights = _decoder_weights(src, 2, "fully-universal")
    sigmas = {x: sigma_for_string(x, src.dim) for x in weights}
    pre = [(0, 1), (1, 2), (2, 2), (0, 0)]
    weights[(1, 2)] = 0.0
    povm = build_decoder_povm(pre, weights, sigmas)
    denom = sum(weights[y] * sigmas[y] for y in pre)
    for x in pre:
        ref = operator_division_on_support(weights[x] * sigmas[x], denom)
        assert np.abs(povm[x] - ref).max() <= 1e-12
    assert not povm[(1, 2)].any()


def test_bin_success_matches_decoder_povm_on_a_rank_deficient_bin():
    # real low-rank sigmas and one zero weight leave the denominator rank 2
    # of 4; the source states are complex, the contraction reads Re rho_x
    rng = np.random.default_rng(13)
    src = _random_source(rng, full_rank=False)
    pre = [(0, 1), (1, 0), (1, 1)]
    sigmas = {}
    for x in pre:
        v = rng.normal(size=4)
        sigmas[x] = np.outer(v, v)
    weights = {(0, 1): 0.3, (1, 0): 0.0, (1, 1): 0.7}
    povm = build_decoder_povm(pre, weights, sigmas)
    assert np.linalg.matrix_rank(sum(povm.values())) == 2
    rhos = [_product_state(src, x) for x in pre]
    assert all(np.abs(rho.imag).max() > 1e-3 for rho in rhos)
    good = compression._bin_success(
        np.stack([weights[x] * sigmas[x] for x in pre]),
        np.stack([rho.real for rho in rhos]),
    )
    ref = [np.trace(rho @ povm[x]).real for rho, x in zip(rhos, pre)]
    assert np.abs(good - ref).max() <= 1e-12
    assert good[1] == 0.0


def test_complex_decoder_states_are_rejected(monkeypatch):
    def phased(x, d):
        sigma = sigma_for_string(x, d)
        P = np.diag(np.exp(1j * np.arange(sigma.shape[0])))
        return P @ sigma @ P.conj().T

    monkeypatch.setattr(compression, "sigma_for_string", phased)
    rng = np.random.default_rng(14)
    exp = CompressionExperiment(
        source=_random_source(rng), n=2, bins_log=1.0,
        decoder_kind="fully-universal", hash_dits=1,
    )
    with pytest.raises(InvariantError):
        exact_error_probability(exp)


def _member_by_member_error(exp):
    """Reference: every member on its own, one hash_apply per string, one
    operator division per decoder element and Tr[rho Y] as a matrix product."""
    k = len(exp.source.states)
    gf = field(*_prime_power(k))
    members, exhaustive = _hash_members(exp, gf)
    weights = _decoder_weights(exp.source, exp.n, exp.decoder_kind)
    strings = list(itertools.product(range(k), repeat=exp.n))
    sigmas = {x: sigma_for_string(x, exp.source.dim) for x in strings}
    errs = []
    for H in members:
        bins = {}
        for x in strings:
            bins.setdefault(gf.vector_index(hash_apply(gf, H, x)), []).append(x)
        err = 0.0
        for pre in bins.values():
            denom = sum(weights[y] * sigmas[y] for y in pre)
            for x in pre:
                px = float(np.prod([exp.source.probs[xi] for xi in x]))
                if px == 0.0:
                    continue
                Y = (operator_division_on_support(weights[x] * sigmas[x], denom)
                     if weights[x] > 0 else np.zeros_like(denom))
                good = np.trace(_product_state(exp.source, x) @ Y).real
                err += px * max(0.0, 1.0 - good)
        errs.append(err)
    vals = np.array(errs)
    mean = float(np.sum(vals) / len(vals))
    if exhaustive:
        return mean, 0.0
    return mean, float(vals.std(ddof=1) / math.sqrt(len(vals)))


# (n, |X|, hash dits m, bins_log, decoder, family, trials); |X| = 4 bins over
# GF(4); the D = 64 case has the shape of the benchmark's heaviest experiment
REFERENCE_CASES = [
    (4, 2, 2, 2.0, "partially-universal", "all-surjective", 20),
    (3, 3, 1, 1.58, "partially-universal", "all-surjective", 20),
    (2, 4, 1, 2.0, "fully-universal", "all-surjective", 20),
    (5, 2, 2, 2.0, "fully-universal", "toeplitz", 20),
    (6, 2, 3, 3.0, "fully-universal", "toeplitz", 10),
]


@pytest.mark.parametrize(
    "n,k,m,bins_log,kind,family,trials", REFERENCE_CASES,
    ids=["-".join(map(str, case[:6])) for case in REFERENCE_CASES],
)
def test_exact_error_matches_member_by_member_reference(
    n, k, m, bins_log, kind, family, trials
):
    rng = np.random.default_rng(100 + n + k)
    exp = CompressionExperiment(
        source=_random_source(rng, k=k), n=n, bins_log=bins_log,
        decoder_kind=kind, hash_dits=m, family=family, trials=trials, seed=n + k,
    )
    mean, stderr = exact_error_probability(exp)
    ref_mean, ref_stderr = _member_by_member_error(exp)
    assert abs(mean - ref_mean) <= 1e-13 * abs(ref_mean)
    assert abs(stderr - ref_stderr) <= 1e-15
    assert (stderr == 0.0) == (family == "all-surjective")


def test_one_eigendecomposition_per_bin_of_each_partition(monkeypatch):
    # the 210 full-rank 4 x 2 binary members induce 35 partitions (one per
    # kernel) of 4 bins each; each bin's denominator is diagonalized once
    calls = []

    def spy(B):
        calls.append(1)
        return herm_eig(B)

    monkeypatch.setattr(compression, "herm_eig", spy)
    rng = np.random.default_rng(12)
    exp = CompressionExperiment(
        source=_random_source(rng), n=4, bins_log=2.0,
        decoder_kind="partially-universal", hash_dits=2,
    )
    exact_error_probability(exp)
    assert len(calls) == 35 * 4


def test_injective_hash_decodes_perfectly():
    rng = np.random.default_rng(5)
    src = _random_source(rng)
    exp = CompressionExperiment(
        source=src, n=1, bins_log=1.0, decoder_kind="partially-universal",
        hash_dits=1, seed=5,
    )
    perr, _ = exact_error_probability(exp)
    assert perr <= 1e-10


@pytest.mark.parametrize("kind", ["fully-universal", "partially-universal"])
def test_exact_error_within_theorem_bound(kind):
    rng = np.random.default_rng(6)
    for _ in range(5):
        src = _random_source(rng)
        for n in (1, 2):
            exp = CompressionExperiment(
                source=src, n=n, bins_log=1.0, decoder_kind=kind,
                hash_dits=1, seed=6,
            )
            perr, _ = exact_error_probability(exp)
            bound = theorem_bound(exp).boundPerr
            assert perr <= bound + 1e-12


def test_theorem_overhead_values():
    # |X|(d+2)(d-1), plus 2(d-1) for the fully universal decoder
    assert theorem_overhead("partially-universal", 2, 2) == 8
    assert theorem_overhead("fully-universal", 2, 2) == 10
    assert theorem_overhead("partially-universal", 3, 2) == 12


def test_bound_decreases_with_more_bins():
    rng = np.random.default_rng(7)
    src = _random_source(rng)
    bounds = []
    for bins_log in (0.5, 1.0, 1.5, 2.0):
        exp = CompressionExperiment(
            source=src, n=2, bins_log=bins_log,
            decoder_kind="partially-universal", hash_dits=1, seed=7,
        )
        bounds.append(theorem_bound(exp).boundPerr)
    assert all(x >= y - 1e-12 for x, y in zip(bounds, bounds[1:]))


def test_comparison_exponents_sign():
    # above H(X|B) the exponent is positive, below it is zero/negative
    rng = np.random.default_rng(8)
    src = _random_source(rng)
    from ucqkd.entropies import von_neumann_conditional

    hxb = von_neumann_conditional(src.cq_state(), (2, src.dim))
    rc_hi, sp_hi = comparison_exponents(src, min(1.0, hxb + 0.3))
    rc_lo, sp_lo = comparison_exponents(src, max(0.0, hxb - 0.3))
    assert rc_hi >= rc_lo - 1e-9
    assert sp_hi >= rc_hi - 1e-9  # sphere packing dominates random coding


def test_capacity_and_usage_errors():
    rng = np.random.default_rng(9)
    src = _random_source(rng)
    with pytest.raises(CapacityError):
        CompressionExperiment(
            source=src, n=9, bins_log=1.0,
            decoder_kind="partially-universal", hash_dits=1,
        )
    with pytest.raises(UsageError):
        CompressionExperiment(
            source=src, n=2, bins_log=5.0,
            decoder_kind="partially-universal", hash_dits=1,
        )
    with pytest.raises(UsageError):
        CompressionExperiment(
            source=src, n=2, bins_log=1.0, decoder_kind="bogus", hash_dits=1,
        )


def test_run_experiment_report_roundtrip():
    rng = np.random.default_rng(10)
    src = _random_source(rng)
    exp = CompressionExperiment(
        source=src, n=2, bins_log=1.0, decoder_kind="fully-universal",
        hash_dits=1, seed=10,
    )
    rep = run_experiment(exp)
    doc = rep.to_dict()
    assert doc["exactPerr"] <= doc["boundPerr"] + 1e-12
    assert all(len(pair) == 2 for pair in doc["exponentCurve"])
    assert math.isfinite(doc["stdError"])
