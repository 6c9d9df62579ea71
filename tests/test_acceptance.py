"""Acceptance gate: end-to-end soundness, identity, and reproduction checks
at their stated tolerances.

The finite-size sweep fixtures are module-scoped because they drive the full
optimization pipeline; everything downstream reads from them.
"""

import math
import time

import numpy as np
import pytest

from ucqkd import b92
from ucqkd.cli import main
from ucqkd.compression import (
    CompressionExperiment,
    exact_error_probability,
    operator_division,
    operator_division_on_support,
    operator_division_quadrature,
    theorem_bound,
)
from ucqkd.entropies import (
    CqSource,
    binary_relative_entropy,
    conditional_renyi_direct,
    conditional_renyi_sibson,
    solve_delta1,
    solve_delta2,
    solve_r_err,
)
from ucqkd.fields import field, mub_basis, weyl_x, weyl_z
from ucqkd.hashing import (
    build_dual_quadruple,
    enumerate_surjective_family,
    hashing_unitary,
)
from ucqkd.matfun import herm_eig, random_density
from ucqkd.optimize import renyi_objective_and_gradient
from ucqkd.schur_weyl import (
    build_isotypic_blocks,
    domination_factor,
    universal_symmetric_state,
)

from oracles import cq_state, support_projector, von_neumann_conditional


def _rand_herm(d, rng):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (A + A.conj().T)


# ---------------------------------------------------------------------------
# 1. Compression-bound soundness at desk scale
# ---------------------------------------------------------------------------


def test_01_compression_bound_soundness():
    rng = np.random.default_rng(2024)
    start = time.time()
    violations = 0
    for s in range(50):
        src = CqSource(
            probs=rng.dirichlet(np.ones(2)),
            states=tuple(random_density(2, rng) for _ in range(2)),
        )
        for n in (1, 2, 3):
            for kind in ("fully-universal", "partially-universal"):
                exp = CompressionExperiment(
                    source=src, n=n, bins_log=1.0, decoder_kind=kind,
                    hash_dits=1, family="all-surjective", seed=s,
                )
                perr, _ = exact_error_probability(exp)
                bound = theorem_bound(exp).boundPerr
                if perr > bound + 1e-12:
                    violations += 1
    assert violations == 0
    assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Operator division
# ---------------------------------------------------------------------------


def test_02_operator_division():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        A = random_density(d, rng)
        B = random_density(d, rng) + 0.01 * np.eye(d)
        dev = np.abs(
            operator_division(A, B) - operator_division_quadrature(A, B)
        ).max()
        worst = max(worst, dev)
    assert worst <= 1e-8
    # completeness on rank-deficient denominators
    for _ in range(20):
        d = int(rng.integers(2, 5))
        B = random_density(d, rng, rank=max(1, d - 1))
        dev = np.abs(
            operator_division_on_support(B, B) - support_projector(B)
        ).max()
        assert dev <= 1e-10


# ---------------------------------------------------------------------------
# 3. Conditional Renyi entropy identity
# ---------------------------------------------------------------------------


def test_03_sibson_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        src = CqSource(
            probs=rng.dirichlet(np.ones(k)),
            states=tuple(random_density(d, rng) for _ in range(k)),
        )
        alpha = float(rng.uniform(0.05, 0.95))
        closed = conditional_renyi_sibson(src, alpha)
        direct = conditional_renyi_direct(src, alpha)
        assert abs(closed - direct.upper_bound) <= 1e-6
        assert direct.value - 1e-12 <= closed <= direct.upper_bound + 1e-12


def test_03_sibson_monotone_and_limit():
    rng = np.random.default_rng(12)
    for _ in range(10):
        src = CqSource(
            probs=rng.dirichlet(np.ones(2)),
            states=tuple(random_density(2, rng) for _ in range(2)),
        )
        vals = [
            conditional_renyi_sibson(src, a) for a in np.linspace(0.1, 0.9, 9)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        hxb = von_neumann_conditional(cq_state(src), (2, 2))
        assert abs(conditional_renyi_sibson(src, 1 - 1e-7) - hxb) <= 1e-4


# ---------------------------------------------------------------------------
# 4. Gradient of the reformulated objective
# ---------------------------------------------------------------------------

PINCH4 = [np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])]


@pytest.mark.parametrize("alpha", [0.2, 0.38, 0.6])
def test_04_gradient_finite_differences(alpha):
    rng = np.random.default_rng(13)
    for _ in range(50):
        sigma = random_density(4, rng) + 0.05 * np.eye(4)
        _, grad = renyi_objective_and_gradient(sigma, alpha, PINCH4)
        D = _rand_herm(4, rng)
        h = 1e-6
        up, _ = renyi_objective_and_gradient(sigma + h * D, alpha, PINCH4)
        dn, _ = renyi_objective_and_gradient(sigma - h * D, alpha, PINCH4)
        fd = (up - dn) / (2 * h)
        direct = float(np.trace(grad @ D).real)
        assert abs(fd - direct) <= 1e-5 * max(1.0, abs(fd))


def test_04_linearization_dominates():
    rng = np.random.default_rng(14)
    for _ in range(500):
        alpha = float(rng.uniform(0.1, 0.9))
        s1 = random_density(4, rng) + 0.02 * np.eye(4)
        s2 = random_density(4, rng) + 0.02 * np.eye(4)
        v1, g1 = renyi_objective_and_gradient(s1, alpha, PINCH4)
        v2, _ = renyi_objective_and_gradient(s2, alpha, PINCH4)
        lin = v1 + float(np.trace(g1 @ (s2 - s1)).real)
        assert v2 <= lin + 1e-8
        # tangency at the expansion point
        self_lin = v1 + float(np.trace(g1 @ (s1 - s1)).real)
        assert abs(self_lin - v1) <= 1e-8


# ---------------------------------------------------------------------------
# 5. Field/Weyl algebra and hash-family structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_05_weyl_algebra_exact(p, r):
    gf = field(p, r)
    q = gf.q
    for a in range(q):
        s = gf.character(gf.mul_table[a]).sum()
        assert abs(s - (q if a == 0 else 0.0)) <= 1e-9
        for b in range(q):
            X, Z = weyl_x(gf, [a]), weyl_z(gf, [b])
            phase = gf.character(gf.mul_table[a, b])
            assert np.abs(Z @ X - phase * (X @ Z)).max() <= 1e-12
    B = mub_basis(gf)
    assert np.abs(np.abs(B) ** 2 - 1.0 / q).max() <= 1e-12


def test_05_dual_quadruples_and_hashing_unitary():
    # quadruple identities over several fields
    rng = np.random.default_rng(15)
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1)):
        gf = field(p, r)
        fam = enumerate_surjective_family(gf, 2, 1)
        for H in fam[:: max(1, len(fam) // 3)]:
            quad = build_dual_quadruple(gf, H)
            S = np.concatenate([quad.Gbar, quad.G], axis=1)
            T = np.concatenate([quad.H, quad.Hbar], axis=1)
            assert np.array_equal(
                gf.mat_mul(S.T, T), np.eye(2, dtype=np.int64)
            )
    # basis actions of the hashing unitary, all basis vectors, n <= 3, q = 2
    gf = field(2, 1)
    for n, m in ((1, 1), (2, 1), (3, 1), (3, 2)):
        for H in enumerate_surjective_family(gf, n, m)[:4]:
            quad = build_dual_quadruple(gf, H)
            U = hashing_unitary(gf, quad)
            T = np.concatenate([quad.H, quad.Hbar], axis=1)
            C = np.concatenate([quad.Gbar, quad.G], axis=1)
            for idx, z in enumerate(gf.strings(n)):
                # Z basis: |z> -> |z(H Hbar)>
                out = U[:, idx]
                tgt = gf.vector_indices(gf.mat_mul(z.reshape(1, -1), T))[0]
                assert abs(out[tgt] - 1.0) <= 1e-12
                # X basis: |x~> -> |(x(Gbar G))~>
                xin = np.array([1.0 + 0j])
                for c in z:
                    xin = np.kron(xin, mub_basis(gf)[:, c])
                xout = np.array([1.0 + 0j])
                xc = gf.mat_mul(z.reshape(1, -1), C).ravel()
                for c in xc:
                    xout = np.kron(xout, mub_basis(gf)[:, c])
                assert np.abs(U @ xin - xout).max() <= 1e-12


# ---------------------------------------------------------------------------
# 6. Isotypic decomposition and domination
# ---------------------------------------------------------------------------


def test_06_schur_weyl_domination():
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 4):
        d = 2
        blocks = build_isotypic_blocks(n, d)
        total = sum(b.projector for b in blocks)
        assert np.abs(total - np.eye(d**n)).max() <= 1e-10
        for i, bi in enumerate(blocks):
            for bj in blocks[i + 1:]:
                assert np.abs(bi.projector @ bj.projector).max() <= 1e-10
        sig = universal_symmetric_state(n, d)
        c = domination_factor(n, d)
        for _ in range(20):
            rho = random_density(d, rng)
            rho_n = rho
            for _ in range(n - 1):
                rho_n = np.kron(rho_n, rho)
            assert herm_eig(c * sig - rho_n)[0].min() >= -1e-10


# ---------------------------------------------------------------------------
# 7. Asymptotic optimality
# ---------------------------------------------------------------------------

CFG_ASYM = b92.B92Config(n_tot=10**6)


@pytest.fixture(scope="module")
def asymptotic_points():
    return {p: b92.asymptotic_rates(CFG_ASYM, p) for p in (0.0, 0.01, 0.045)}


def test_07_universal_equals_devetak_winter(asymptotic_points):
    for p, r in asymptotic_points.items():
        assert abs(r["universal"] - r["devetakWinter"]) <= 1e-6, f"p={p}"


def test_07_conventional_equals_universal_noiseless(asymptotic_points):
    r = asymptotic_points[0.0]
    assert abs(r["conventional"] - r["universal"]) <= 1e-6


def test_07_conventional_below_universal_grid():
    for p in np.linspace(0.0, 0.06, 13):
        r = b92.asymptotic_rates(CFG_ASYM, float(p))
        assert r["conventional"] <= r["universal"] + 1e-9, f"p={p}"


# ---------------------------------------------------------------------------
# 8. Finite-size qualitative reproduction
# ---------------------------------------------------------------------------

SWEEP_SEED = 7
SWEEP_NTOTS = (10**9, 10**10, 10**13)
SWEEP_PS = (0.01, 0.045)


def _finite_size_rate(analysis, p, n_tot):
    cfg = b92.B92Config(n_tot=n_tot, seed=SWEEP_SEED)
    budget = b92.secrecy_budget(cfg, analysis)
    rng = np.random.default_rng([SWEEP_SEED, int(round(math.log10(n_tot)))])
    stats = b92.sample_observed(cfg, p, budget.log2_eps1, rng)
    if analysis == "universal":
        res = b92.universal_key_length(cfg, stats, budget)
    else:
        res = b92.conventional_key_length(cfg, stats, budget)
    return res.net_key / n_tot


@pytest.fixture(scope="module")
def sweep():
    start = time.time()
    finite = {
        (analysis, p, n): _finite_size_rate(analysis, p, n)
        for analysis in ("universal", "conventional")
        for p in SWEEP_PS
        for n in SWEEP_NTOTS
    }
    asym = {p: b92.asymptotic_rates(CFG_ASYM, p) for p in SWEEP_PS}
    return {"finite": finite, "asym": asym, "elapsed": time.time() - start}


def test_08_runtime_budget(sweep):
    assert sweep["elapsed"] < 1800.0


def test_08_universal_wins_at_high_noise(sweep):
    for n in (10**10, 10**13):
        uni = sweep["finite"][("universal", 0.045, n)]
        conv = sweep["finite"][("conventional", 0.045, n)]
        assert uni > conv, f"n_tot={n}"
    a = sweep["asym"][0.045]
    assert a["universal"] > a["conventional"] + 1e-6


def test_08_conventional_wins_small_samples_low_noise(sweep):
    uni = sweep["finite"][("universal", 0.01, 10**9)]
    conv = sweep["finite"][("conventional", 0.01, 10**9)]
    assert conv > uni


def test_08_curves_converge_low_noise(sweep):
    uni = sweep["finite"][("universal", 0.01, 10**13)]
    conv = sweep["finite"][("conventional", 0.01, 10**13)]
    assert abs(uni - conv) / max(uni, conv) <= 0.05


@pytest.mark.parametrize("analysis,p", [
    ("universal", 0.01),
    ("conventional", 0.01),
    ("universal", 0.045),
    ("conventional", 0.045),
])
def test_08_within_two_percent_of_asymptote(sweep, analysis, p):
    finite = sweep["finite"][(analysis, p, 10**13)]
    asym = sweep["asym"][p][analysis]
    assert abs(finite - asym) / asym <= 0.02, (
        f"{analysis} at p={p}: finite {finite:.6f} vs asymptote {asym:.6f}"
    )


# ---------------------------------------------------------------------------
# 9. Scalar root-finders
# ---------------------------------------------------------------------------


def test_09_root_finder_residuals():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = float(rng.uniform(0.0, 0.5))
        n = int(rng.integers(10**4, 10**9))
        k = float(rng.uniform(-200.0, -10.0))
        target = -k / n
        d2 = solve_delta2(p, n, log2_eps=k)
        assert abs(binary_relative_entropy(p, p + d2) - target) <= 1e-10
        if p > 0.0 and target < -math.log2(p):
            d1 = solve_delta1(p, n, log2_eps=k)
            assert abs(binary_relative_entropy(p + d1, p) - target) <= 1e-10
    r = solve_r_err(10**7, 10**7, 10**5, 2.0**-50)
    q = (10**7 * r + 10**5) / (2 * 10**7)
    assert abs(binary_relative_entropy(0.01, q) - 50.0 / (2 * 10**7)) <= 1e-10


def test_09_delta2_closed_form_at_zero():
    for n, k in ((10**4, -20.0), (10**6, -64.0), (10**9, -500.0)):
        d2 = solve_delta2(0.0, n, log2_eps=k)
        assert d2 == -math.expm1(k * math.log(2.0) / n)


def test_09_upper_confidence_bound_monotone():
    n, k = 10**6, -100.0
    grid = np.linspace(0.0, 0.9, 50)
    ub = [p + solve_delta2(float(p), n, log2_eps=k) for p in grid]
    assert all(x < y for x, y in zip(ub, ub[1:]))


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


def test_10_csv_byte_identical(tmp_path):
    args = [
        "keyrate", "--analysis", "both", "--depol", "0.01,0.045",
        "--ntot", "1e6", "--alpha", "0.2", "--seed", "11", "--jobs", "1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_10_selftest_green():
    assert main(["selftest", "--quick"]) == 0
