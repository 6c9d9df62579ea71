"""B92 protocol analysis: states, filter and POVM elements, depolarizing-
channel statistics, acceptance sets for the observed counts, and the final
key-length computations.

Two finite-size analyses are implemented.  The phase-error-pattern analysis
("conventional") counts phase-error patterns compatible with the observed
statistics via a Sanov-exponent exclusion halfspace.  The universal-coding
analysis ("universal") bounds the compression cost of the complementary-basis
string by the maximized order-(1-alpha) conditional Renyi entropy over the
same acceptance set.  Asymptotic limits of both, together with an independent
Devetak-Winter evaluation from the purified worst-case state, serve as
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .entropies import (
    binary_entropy,
    log2_fq_factor,
    solve_delta1,
    solve_delta2,
    solve_r_err,
    von_neumann_entropy,
)
from .errors import DomainError, UsageError
from .matfun import herm_eig, partial_trace
from .optimize import (
    LN2,
    FeasibleSet,
    MaximizeResult,
    divergence_bits,
    maximize_on_path,
    renyi_objective_and_gradient,
    sequential_linearization,
    tilted_projection,
    von_neumann_objective_and_gradient,
)


def _xket(a: int) -> np.ndarray:
    return np.array([1.0, -1.0 if a else 1.0], dtype=complex) / math.sqrt(2.0)


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# Configuration and result records
# ---------------------------------------------------------------------------


@dataclass
class B92Config:
    """Protocol parameters.

    amp is the signal-state amplitude a in |psi_x> = b|0~> + (-1)^x a|1~>
    with b = sqrt(1 - a^2); 0 < amp < 1/sqrt(2).  splits defaults to equal
    thirds of n_tot.  alpha_renyi is the Renyi order parameter for the
    universal analysis, or "auto" to take the best order of a search for
    the stationary point of n_fin in alpha (`_auto_alpha`).
    """

    amp: float = 0.38
    n_tot: int = 10**9
    splits: tuple[int, int, int] | None = None
    target_eps_sec: float = 2.0**-50
    eps_cor: float = 2.0**-50
    alpha_renyi: float | str = "auto"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.amp < 1.0 / math.sqrt(2.0):
            raise UsageError("amp must lie in (0, 1/sqrt(2))")
        if self.splits is None:
            third = int(self.n_tot) // 3
            self.splits = (third, third, int(self.n_tot) - 2 * third)
        if min(self.splits) <= 0:
            raise UsageError("all splits must be positive")
        if self.alpha_renyi != "auto" and not 0.0 < float(self.alpha_renyi) < 1.0:
            raise UsageError("alpha_renyi must lie in (0,1) or be 'auto'")


@dataclass
class PovmSet:
    M_fil: np.ndarray
    M_bit: np.ndarray
    M_ph: np.ndarray
    M_bitph: np.ndarray
    M_minus: np.ndarray

    def validate(self) -> None:
        for name in ("M_fil", "M_bit", "M_ph", "M_bitph", "M_minus"):
            M = getattr(self, name)
            lam = herm_eig(M)[0]
            if lam.min() < -1e-10 or lam.max() > 1.0 + 1e-10:
                raise DomainError(f"{name} violates 0 <= M <= I")
        for small, big in (
            (self.M_bit, self.M_fil),
            (self.M_bitph, self.M_fil),
            (self.M_bitph, self.M_bit),
            (self.M_bitph, self.M_ph),
        ):
            if herm_eig(big - small)[0].min() < -1e-10:
                raise DomainError("POVM ordering invariant violated")


@dataclass
class ExpectedStats:
    q_fil: float
    q_bit: float
    q_ph: float
    q_bitph: float
    q_minus: float


@dataclass
class ObservedStats:
    n_sift: int
    n_suc: int
    n_err: int
    nbar3: int

    def __post_init__(self):
        if self.n_err > self.n_suc:
            raise UsageError("n_err cannot exceed n_suc")


@dataclass
class EpsBudget:
    analysis: str
    log2_eps1: float
    log2_eps2: float
    s: float | None  # hash-penalty term, phase-error-pattern analysis only
    log2_eps_cor: float


@dataclass
class KeyLengthResult:
    analysis: str
    n_fin: float
    syndrome_bits: float
    ec_cost: float
    net_key: float
    eps_achieved: float
    alpha_renyi: float | None = None
    clamped: bool = False
    n_sift: int = 0


# ---------------------------------------------------------------------------
# States, filter, POVMs
# ---------------------------------------------------------------------------


def build_states_and_filter(cfg: B92Config) -> dict:
    """Signal states, their orthogonal complements, and the filter.

    The filter is the single Kraus operator
    W = sum_i |i><psi_perp_{i xor 1}|/sqrt(2): a trace-non-increasing map
    that keeps coherence between the two filtered outcomes (required for
    phase information to survive; a computational-basis readout of the
    filtered qubit reproduces the protocol's bit statistics exactly).
    """
    a = cfg.amp
    b = math.sqrt(1.0 - a * a)
    psi = [b * _xket(0) + (1 if x == 0 else -1) * a * _xket(1) for x in (0, 1)]
    psi_perp = [a * _xket(0) - (1 if x == 0 else -1) * b * _xket(1) for x in (0, 1)]
    eye2 = np.eye(2, dtype=complex)
    w = np.zeros((2, 2), dtype=complex)
    for i in (0, 1):
        ket_i = np.zeros(2, dtype=complex)
        ket_i[i] = 1.0
        w += np.outer(ket_i, psi_perp[i ^ 1].conj()) / math.sqrt(2.0)
    lifted = np.kron(eye2, w)

    def filter_map(rho: np.ndarray) -> np.ndarray:
        return lifted @ rho @ lifted.conj().T

    def filter_adjoint(M: np.ndarray) -> np.ndarray:
        return lifted.conj().T @ M @ lifted

    return {
        "psi": psi,
        "psi_perp": psi_perp,
        "w": w,
        "filter_map": filter_map,
        "filter_adjoint": filter_adjoint,
    }


def build_povms(cfg: B92Config) -> PovmSet:
    """POVM elements on the joint (Alice qubit) x (Bob qubit) space.

    All elements are assembled through the filter adjoint; the bit-error
    element pairs Alice's z with the complement state psi_perp_z, which is
    the pairing under which the noiseless channel yields zero bit errors.
    """
    sf = build_states_and_filter(cfg)
    w = sf["w"]

    def f_adj(M2: np.ndarray) -> np.ndarray:
        return w.conj().T @ M2 @ w

    eye2 = np.eye(2, dtype=complex)
    z = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    x = [_xket(0), _xket(1)]
    M_fil = np.kron(eye2, f_adj(eye2))
    M_bit = sum(np.kron(_proj(z[a]), f_adj(_proj(z[a ^ 1]))) for a in (0, 1))
    M_ph = sum(np.kron(_proj(x[a]), f_adj(_proj(x[a ^ 1]))) for a in (0, 1))
    phi11 = (np.kron(z[0], z[1]) - np.kron(z[1], z[0])) / math.sqrt(2.0)
    lw = np.kron(eye2, w)
    M_bitph = lw.conj().T @ _proj(phi11) @ lw
    M_minus = np.kron(_proj(x[1]), eye2)
    povms = PovmSet(M_fil, M_bit, M_ph, M_bitph, M_minus)
    povms.validate()
    return povms


def source_state(cfg: B92Config) -> np.ndarray:
    """|Phi> = 2^{-1/2} sum_a |a>|psi_a> = b|0~0~> + a|1~1~> (pure, 4-dim)."""
    sf = build_states_and_filter(cfg)
    vec = sum(
        np.kron(np.eye(2, dtype=complex)[a], sf["psi"][a]) for a in (0, 1)
    ) / math.sqrt(2.0)
    return _proj(vec)


def depolarized_state(cfg: B92Config, p: float) -> np.ndarray:
    """(Id x N_p)(|Phi><Phi|) with N_p(rho) = (1-p) rho + p I/2."""
    if not 0.0 <= p <= 1.0:
        raise UsageError("depolarizing parameter must lie in [0,1]")
    phi = source_state(cfg)
    rho_a = partial_trace(phi, (2, 2), keep=[0])
    return (1.0 - p) * phi + p * np.kron(rho_a, np.eye(2, dtype=complex) / 2.0)


def expected_statistics(cfg: B92Config, p: float) -> ExpectedStats:
    povms = build_povms(cfg)
    rho = depolarized_state(cfg, p)
    tr = lambda M: float(np.trace(rho @ M).real)
    return ExpectedStats(
        q_fil=tr(povms.M_fil),
        q_bit=tr(povms.M_bit),
        q_ph=tr(povms.M_ph),
        q_bitph=tr(povms.M_bitph),
        q_minus=tr(povms.M_minus),
    )


def sample_observed(
    cfg: B92Config, p: float, log2_eps1: float, rng: np.random.Generator | None = None
) -> ObservedStats:
    """Binomial draws for the observed counts, plus the trash-count ceiling
    nbar3 = ceil(n_trash (a^2 + delta_1(a^2, n_trash, eps1)))."""
    rng = rng or np.random.default_rng(cfg.seed)
    q = expected_statistics(cfg, p)
    n_extr, n_test, n_trash = cfg.splits
    n_sift = int(rng.binomial(n_extr, q.q_fil))
    n_suc = int(rng.binomial(n_test, q.q_fil))
    # q_bit comes out as -4e-18 at p = 0; clamp the ratio into [0, 1]
    e_bit = min(max(q.q_bit / q.q_fil, 0.0), 1.0) if q.q_fil > 0 else 0.0
    n_err = int(rng.binomial(n_suc, e_bit))
    a2 = cfg.amp**2
    nbar3 = math.ceil(n_trash * (a2 + solve_delta1(a2, n_trash, log2_eps=log2_eps1)))
    return ObservedStats(n_sift=n_sift, n_suc=n_suc, n_err=n_err, nbar3=min(nbar3, n_trash))


# ---------------------------------------------------------------------------
# Secrecy budget
# ---------------------------------------------------------------------------


def achieved_eps_sec(
    log2_eps1: float, log2_eps2: float, n_tot: int, s: float | None = None
) -> float:
    """eps_sec = sqrt(2 (eps1 + 4 eps2 f_q(n_tot,4) [+ 2^{-s}])), in log space."""
    terms = [log2_eps1, 2.0 + log2_eps2 + log2_fq_factor(n_tot, 4)]
    if s is not None:
        terms.append(-s)
    m = max(terms)
    log2_sum = m + math.log2(sum(2.0 ** (t - m) for t in terms))
    return 2.0 ** ((1.0 + log2_sum) / 2.0)


def secrecy_budget(cfg: B92Config, analysis: str) -> EpsBudget:
    """Split the target eps_sec across the failure components.

    The inner budget eps_sec^2/2 is split equally: two ways (eps1 and the
    4 eps2 f_q term) for the universal analysis, three ways (plus the 2^{-s}
    hash penalty) for the phase-error-pattern analysis.
    """
    if not 0.0 < cfg.target_eps_sec < 1.0:
        raise DomainError("target eps_sec must lie in (0,1)")
    ways = {"universal": 2, "conventional": 3}.get(analysis)
    if ways is None:
        raise UsageError(f"unknown analysis {analysis!r}")
    each = 2.0 * math.log2(cfg.target_eps_sec) - 1.0 - math.log2(ways)
    budget = EpsBudget(
        analysis=analysis,
        log2_eps1=each,
        log2_eps2=each - 2.0 - log2_fq_factor(cfg.n_tot, 4),
        s=-each if ways == 3 else None,
        log2_eps_cor=math.log2(cfg.eps_cor),
    )
    check = achieved_eps_sec(budget.log2_eps1, budget.log2_eps2, cfg.n_tot, budget.s)
    if check > cfg.target_eps_sec * (1.0 + 1e-9):
        raise DomainError("secrecy target unattainable with this split")
    return budget


# ---------------------------------------------------------------------------
# Acceptance set for the observed counts
# ---------------------------------------------------------------------------


def constraint_set_B(
    stats: ObservedStats,
    splits: tuple[int, int, int],
    log2_eps2: float,
    povms: PovmSet,
) -> FeasibleSet:
    """Density operators compatible with (n_sift, n_err, nbar3):

    two-sided band on Tr[rho M_fil] with eps2/2 on each side, one-sided bounds
    on Tr[rho M_bit] (test rounds) and Tr[rho M_minus] (trash rounds).
    """
    n_extr, n_test, n_trash = splits
    f1 = stats.n_sift / n_extr
    b2 = stats.n_err / n_test
    bit_hi = b2 + solve_delta2(b2, n_test, log2_eps=log2_eps2)
    b3 = stats.nbar3 / n_trash
    minus_hi = b3 + solve_delta2(b3, n_trash, log2_eps=log2_eps2)
    lo = f1 - solve_delta2(1.0 - f1, n_extr, log2_eps=log2_eps2 - 1.0)
    hi = f1 + solve_delta2(f1, n_extr, log2_eps=log2_eps2 - 1.0)
    return FeasibleSet(dim=4, ineq=[
        (-povms.M_fil, -lo),
        (povms.M_fil, min(hi, 1.0)),
        (povms.M_bit, min(bit_hi, 1.0)),
        (povms.M_minus, min(minus_hi, 1.0)),
    ])


def asymptotic_constraint_set(cfg: B92Config, p: float, povms: PovmSet) -> FeasibleSet:
    """n -> infinity limit: equality constraints at the expected values.

    At p = 0 the bit-error constraint pins the state to the kernel of
    M_bit; `sequential_linearization` solves on that face.
    """
    q = expected_statistics(cfg, p)
    return FeasibleSet(
        dim=4,
        eq=[
            (povms.M_fil, q.q_fil),
            (povms.M_bit, q.q_bit),
            (povms.M_minus, q.q_minus),
        ],
    )


# ---------------------------------------------------------------------------
# Universal analysis
# ---------------------------------------------------------------------------

_KEY_PINCH = [
    np.kron(np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)),
    np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(2, dtype=complex)),
]


def _maximize_entropy(objective, fs: FeasibleSet, start=None) -> MaximizeResult:
    # a named step of its own: bench/workloads.py captures this call's result
    return sequential_linearization(objective, fs, start=start)


def renyi_entropy_objective(cfg: B92Config, alpha: float):
    """rho_AB -> (H^up_{1-alpha}(X|A'B') of the subnormalized filtered state,
    gradient); the key-basis twirl on Alice's qubit supplies the X register."""
    sf = build_states_and_filter(cfg)
    fmap, fadj = sf["filter_map"], sf["filter_adjoint"]

    def objective(rho):
        val, grad_sigma = renyi_objective_and_gradient(fmap(rho), alpha, _KEY_PINCH)
        return val, fadj(grad_sigma)

    return objective


def rstar_upper_bound(
    cfg: B92Config,
    fs: FeasibleSet,
    alpha: float,
    start: MaximizeResult | None = None,
) -> MaximizeResult:
    """Certified upper bound on max_{rho in B} H^up_{1-alpha}(X|A'B').
    `start`, an earlier result of this function on the same set fs, seeds
    the maximization with its Frank-Wolfe atoms and weights."""
    if start is not None:
        start = (start.atoms, start.weights)
    return _maximize_entropy(renyi_entropy_objective(cfg, alpha), fs, start)


def universal_key_length(
    cfg: B92Config,
    stats: ObservedStats,
    budget: EpsBudget,
    rho_expected: np.ndarray | None = None,
) -> KeyLengthResult:
    """Final key length of the universal-coding analysis.

    n_fin = n_sift (1 - R*_alpha - ((1-alpha)/alpha) log2(1/r_down))
            - 18 log2(n_sift+1) - log2(1/eps2)/alpha,
    with r_down the lower confidence bound on the per-round filter success.
    The certified upper bound on R*_alpha is used, so n_fin is a valid
    (pessimistic) key length.  rho_expected is accepted and ignored.

    With alpha_renyi="auto", alpha is the best order `_auto_alpha` evaluates.
    Each R* maximizer rho* also gives d n_fin / d log alpha =
    n_sift (A/alpha - c alpha) (envelope theorem; Milgrom & Segal 2002): with
    s = Tr[M_fil rho*], R*_alpha = f_alpha(tau) + (1/alpha - 1) log2 s at
    tau = Phi(rho*)/s, so A = log2(s/r_down) + log2(1/eps2)/n_sift and
    c = d f_alpha(tau) / d alpha, by central difference.  Each order after
    the first starts from the Frank-Wolfe atoms of the evaluated order
    nearest to it in log alpha.
    """
    povms = build_povms(cfg)
    n_extr = cfg.splits[0]
    n1 = stats.n_sift
    f1 = n1 / n_extr
    r_down = f1 - solve_delta2(1.0 - f1, n_extr, log2_eps=budget.log2_eps2)
    base = KeyLengthResult(
        analysis="universal", n_fin=0.0, syndrome_bits=float(n1), ec_cost=0.0,
        net_key=0.0, eps_achieved=achieved_eps_sec(
            budget.log2_eps1, budget.log2_eps2, cfg.n_tot, budget.s
        ), n_sift=n1,
    )
    if n1 == 0 or r_down <= 0.0:
        return replace(base, clamped=True)
    fs = constraint_set_B(stats, cfg.splits, budget.log2_eps2, povms)
    rstar = {}  # R* results by alpha, all on fs

    def evaluate(a: float) -> tuple[float, float, float]:
        # the first order starts cold, each later one from the evaluated
        # order nearest to it in log alpha
        start = rstar[min(rstar, key=lambda b: abs(math.log(a / b)))] if rstar else None
        res = rstar[a] = rstar_upper_bound(cfg, fs, a, start=start)
        syn = (
            n1 * (res.upper_bound + (1.0 - a) / a * math.log2(1.0 / r_down))
            + 18.0 * math.log2(n1 + 1)
            + (-budget.log2_eps2) / a
        )
        s = float(np.trace(povms.M_fil @ res.sigma).real)
        tau, h = res.sigma / s, 1e-6 * a
        f = [renyi_entropy_objective(cfg, a + d)(tau)[0] for d in (h, -h)]
        return n1 - syn, math.log2(s / r_down) + (-budget.log2_eps2) / n1, (f[0] - f[1]) / (2 * h)

    alpha = cfg.alpha_renyi
    if alpha == "auto":
        alpha, n_fin = _auto_alpha(evaluate)
    else:
        alpha = float(alpha)
        n_fin = evaluate(alpha)[0]
    ec = _ec_cost(stats, budget)
    clamped = n_fin <= 0.0
    n_fin = max(0.0, n_fin)
    return replace(
        base,
        alpha_renyi=alpha,
        n_fin=n_fin,
        syndrome_bits=n1 - n_fin,
        ec_cost=ec,
        net_key=max(0.0, n_fin - ec),
        clamped=clamped,
    )


def _auto_alpha(evaluate):
    """The best (alpha, n_fin) evaluated in a search for the stationary point
    of n_fin in x = log alpha, where evaluate(alpha) = (n_fin, A, c) and
    n_fin rises iff A > c alpha^2.  From alpha = 0.1 it steps by
    F = log(A/c)/2 - x, then by secants on F, or by +-1 where A <= 0 or
    c <= 0; a step out of the bracket on the sign of A - c alpha^2 bisects
    it.  alpha <= 0.9; it stops at a step below 5e-3 or after 12 calls."""
    vals, lo, hi, top = {}, -math.inf, math.inf, math.log(0.9)
    x, prev = math.log(0.1), None
    for _ in range(12):
        a = math.exp(x)
        vals[a], A, c = evaluate(a)
        rising = A > c * a * a
        lo, hi = (x, hi) if rising else (lo, x)
        F = 0.5 * math.log(A / c) - x if A > 0.0 and c > 0.0 else None
        step = naive = F if F is not None else (1.0 if rising else -1.0)
        if F is not None and prev is not None and prev[1] not in (None, F):
            step = -F * (x - prev[0]) / (F - prev[1])
        if not lo < x + step < hi:
            step = naive if math.isinf(lo + hi) else 0.5 * (lo + hi) - x
        step = min(x + step, top) - x
        if abs(step) < 5e-3:
            break
        prev, x = (x, F), x + step
    best = max(vals, key=vals.get)
    return best, vals[best]


def _ec_cost(stats: ObservedStats, budget: EpsBudget) -> float:
    if stats.n_sift == 0 or stats.n_suc == 0:
        return 0.0
    r = solve_r_err(stats.n_sift, stats.n_suc, stats.n_err, 2.0**budget.log2_eps_cor)
    return stats.n_sift * binary_entropy(min(r, 0.5))


# ---------------------------------------------------------------------------
# Phase-error-pattern (conventional) analysis
# ---------------------------------------------------------------------------


def outcome_operators(povms: PovmSet) -> list[np.ndarray]:
    """Five-outcome POVM for the extraction-round virtual measurement:
    (no error, phase, bit, bit&phase, unfiltered)."""
    return [
        povms.M_fil - povms.M_bit - povms.M_ph + povms.M_bitph,
        povms.M_ph - povms.M_bitph,
        povms.M_bit - povms.M_bitph,
        povms.M_bitph,
        np.eye(4, dtype=complex) - povms.M_fil,
    ]


def phase_entropy(q4: np.ndarray, grouping: str = "conditional") -> float:
    """Pattern-counting exponent on the four sifted outcomes (P00,P01,P10,P11),
    normalized by their sum: the entropy of the phase pattern given the bit
    information, grouping (P00,P01)/(P10,P11).  `grouping` accepts only
    "conditional"; it stays so that callers passing it keep working."""
    if grouping != "conditional":
        raise UsageError("unknown grouping")
    val, _ = phase_entropy_and_gradient(q4)
    return val


def phase_entropy_and_gradient(q4):
    q = np.asarray(q4, dtype=float)
    s = float(q.sum())
    if s <= 0:
        return 0.0, np.zeros(4)
    num = 0.0
    gnum = np.zeros(4)
    for i, j in ((0, 1), (2, 3)):
        a, b = max(q[i], 0.0), max(q[j], 0.0)
        t = a + b
        if t <= 0:
            continue
        # (a+b) h(a/(a+b)) with gradient (log2(t/a), log2(t/b)); the gradient
        # is floored at q = 1e-15 to keep the linearization finite on faces
        if a > 0:
            num += a * math.log2(t / a)
        if b > 0:
            num += b * math.log2(t / b)
        gnum[i] = math.log2(t / max(a, 1e-15))
        gnum[j] = math.log2(t / max(b, 1e-15))
    val = num / s
    grad = gnum / s - num / (s * s)
    return float(val), grad


def _pattern_objective(povms: PovmSet):
    """rho -> (pattern exponent h, gradient), h = N(q) / s on the sifted
    outcomes q_i = Tr[ops_i rho], with N concave and 1-homogeneous
    (`phase_entropy_and_gradient`) and s = Tr[M_fil rho].

    h is concave where s is fixed (`asymptotic_constraint_set`).  Where s
    ranges over [lo, hi] (`constraint_set_B`) h is only pseudo-concave:
    N - h(x) s is concave and 0 at x, so every feasible y has
    h(y) <= h(x) + (s(x) / lo) gap(x), gap(x) = max_y Tr[grad h(x) (y - x)],
    and the bound h(x) + gap(x) of `sequential_linearization`, which assumes
    concavity, can be short by up to (hi / lo - 1) gap(x).
    """
    ops = outcome_operators(povms)

    def objective(rho):
        q = np.array([float(np.trace(O @ rho).real) for O in ops[:4]])
        val, g = phase_entropy_and_gradient(q)
        grad = sum(g[i] * ops[i] for i in range(4))
        return val, 0.5 * (grad + grad.conj().T)

    return objective


def _min_divergence(fs, ops, gamma, thresh, q5fix):
    """min over p = ((1 - q5fix) u, q5fix), with the sifted part u in the
    halfspace <gamma,u> >= thresh, and rho feasible of D(p||q(rho)), where
    q_i(rho) = Tr[ops_i rho] and the last outcome is the unfiltered one.
    Returns (divergence, MaximizeResult): the divergence of the best
    feasible rho, an upper bound on the minimum; -upper_bound of the result
    is a certified lower bound.

    g(rho) = -min_p D(p||q(rho)) is concave (a partial minimization of a
    jointly convex function) and the p-step, tilting the sifted part of q,
    is exact, so by Danskin's theorem g has the gradient
    sum_i p*_i / (q_i ln 2) ops_i.  Its identity part is dropped, which is
    exact since the trace is fixed on the set.  g depends on rho through q
    alone, and its Hessian in q has rank three: with the tilted sifted
    distribution pi, w_i = pi_i / q_i and the tilt's variance
    V = Var_pi(gamma), -ln2 d^2g = kappa (w w^T + v v^T / V) + q5fix / q_5^2
    on the last outcome, v_i = w_i (gamma_i - <gamma>_pi) and
    kappa = 1 - q5fix (only kappa w w^T while the halfspace is slack).  So
    `maximize_on_path` follows g itself, with gap_tol 1e-13: the
    divergences that set a threshold are about 1e-8 bits at n_tot = 1e11,
    and the threshold's certificate spends this gap divided by the slope.
    """
    ops = np.array(ops, dtype=complex)
    eye = np.eye(fs.dim)
    kappa = 1.0 - q5fix

    def objective(rho):
        q = np.clip(np.einsum("kij,ji->k", ops, rho).real, 1e-300, None)
        u, _ = tilted_projection(q[:-1], gamma, thresh)
        p = np.append(kappa * u, q5fix)
        grad = np.einsum("k,kij->ij", p / (q * LN2), ops)
        grad = grad - (np.trace(grad).real / fs.dim) * eye
        w = np.append(u / q[:-1], 0.0)
        last = np.zeros(len(q))
        last[-1] = math.sqrt(q5fix) / q[-1]
        rows = [math.sqrt(kappa) * w, last]
        var = float(u @ gamma**2 - (u @ gamma) ** 2)
        if float(gamma @ q[:-1]) < thresh * q[:-1].sum() and var > 0.0:
            rows.append(math.sqrt(kappa / var) * w * np.append(gamma - u @ gamma, 0.0))
        K = np.einsum("rk,kij->rij", np.array(rows) / math.sqrt(LN2), ops)
        return -divergence_bits(p, q), 0.5 * (grad + grad.conj().T), K

    res = maximize_on_path(objective, fs, gap_tol=1e-13)
    return -res.value, res


def _sanov_threshold(fs, ops, gamma, q5fix, target, t0, t_tol):
    """A certified exclusion threshold t* >= t0: every feasible rho gives
    the halfspace <gamma,u> >= t* of the sifted outcomes a divergence of at
    least `target`, so its probability is at most 2^(-n target) by Sanov.
    Returns inf when no threshold below gamma.max() is certified.

    Each divergence minimum at a threshold t, with witness rho and tilted p,
    certifies a line in t.  For f = log(p / q(rho)), affine in gamma with
    slope s (the tilt) on the sifted outcomes, Donsker-Varadhan gives for
    every feasible rho' and every p' in the halfspace at t'
    D(p'||q(rho')) >= E_p'[f] - ln Tr[C rho'] >= D(p||q(rho))
    + (1 - q5fix) s (t' - t) - ln U in nats, with C = sum_i e^f_i ops_i and
    U = max Tr[C rho'] <= 1 + gap ln 2 for the certified gap of the
    minimization, since g's gradient there is C / ln 2.  The line's root
    is a certified threshold above t*.  The next t is where the witness
    itself reaches the target, a threshold below t*, so the two close in on
    t* from both sides; the search stops once the bracket is narrower than
    t_tol plus what the certificate's own gap leaves, or after 8
    minimizations.
    """
    kappa = 1.0 - q5fix
    t_top = gamma.max() - 1e-12 * max(1.0, abs(gamma.max()))
    hi, t = math.inf, t0
    for _ in range(8):
        div, res = _min_divergence(fs, ops, gamma, t, q5fix)
        q = np.array([float(np.trace(O @ res.sigma).real) for O in ops])
        qs = q[:-1] / q[:-1].sum()

        def witness(x):
            return divergence_bits(np.append(kappa * tilted_projection(qs, gamma, x)[0],
                                             q5fix), q)

        u = tilted_projection(qs, gamma, t)[0]
        on = u > 0
        dev = gamma[on] - u @ gamma
        var = float(u[on] @ dev**2)
        slope = kappa * float(u[on] @ (dev * np.log(u[on] / qs[on]))) / (var * LN2) \
            if var > 0.0 else 0.0
        lower = div - math.log1p(res.gap * LN2) / LN2
        if slope > 0.0:
            hi = min(hi, float(u @ gamma) + (target - lower) / slope)
        elif lower >= target:
            hi = -math.inf
        if div >= target or witness(t_top) < target:
            break
        t_next = brentq(lambda x: witness(x) - target, max(t, float(qs @ gamma)), t_top,
                        xtol=0.1 * t_tol)
        # the certificate's own gap leaves (div - lower) / slope of the
        # bracket, which no further minimization removes
        if t_next <= t or slope > 0.0 and hi - t_next <= t_tol + 2.0 * (div - lower) / slope:
            break
        t = t_next
    return max(t0, hi)


def conventional_key_length(
    cfg: B92Config, stats: ObservedStats, budget: EpsBudget
) -> KeyLengthResult:
    """Phase-error-pattern count via a Sanov-exponent exclusion halfspace.

    The halfspace direction is the exponent gradient at the worst-case point
    of the acceptance set (any direction yields a valid lower bound on the
    key); its offset is the certified threshold of `_sanov_threshold`, so the
    excluded set has probability at most eps2.

    On this set the exponent is pseudo-concave, not concave
    (`_pattern_objective`), so the upper bound of its maximum can be short
    by (hi / lo - 1) times its gap: about 1.5e-10 bits per sifted bit at
    p = 0.02, n_tot = 1e11, where hi / lo - 1 = 4.3e-4 and the gap 3.5e-7.
    """
    povms = build_povms(cfg)
    n_extr, n_test, _ = cfg.splits
    fs = constraint_set_B(stats, cfg.splits, budget.log2_eps2, povms)
    ops = outcome_operators(povms)
    n1 = stats.n_sift
    ec = _ec_cost(stats, budget)
    eps = achieved_eps_sec(budget.log2_eps1, budget.log2_eps2, cfg.n_tot, budget.s)
    base = KeyLengthResult(
        analysis="conventional", n_fin=0.0, syndrome_bits=float(n1), ec_cost=ec,
        net_key=0.0, eps_achieved=eps, n_sift=n1,
    )
    if n1 == 0:
        return replace(base, clamped=True)
    q5fix = 1.0 - n1 / n_extr

    res = _maximize_entropy(_pattern_objective(povms), fs)
    qstar = np.array([float(np.trace(O @ res.sigma).real) for O in ops])
    mass = float(qstar[:4].sum())
    ustar = np.clip(qstar[:4], 0.0, None)
    ustar = ustar / ustar.sum()
    _, gamma = phase_entropy_and_gradient(qstar[:4])

    target = (-budget.log2_eps2) / n_extr
    t0 = float(gamma @ ustar)
    # a bracket on t* worth less than one key bit plus the exponent maximum's
    # own certified gap, which max_h carries already, is fine enough
    tstar = _sanov_threshold(fs, ops, gamma, q5fix, target, t0, (1.0 / n1 + res.gap) / mass)
    # The exponent is concave and scale-invariant, so its gradient at u* on
    # the simplex is mass * gamma, and every u with <gamma,u> <= t has
    # exponent <= res.value + mass (t - t0) <= res.upper_bound + mass (t - t0);
    # the exponent never exceeds H(phase|bit) <= 1 either.
    max_h = min(1.0, res.upper_bound + mass * (tstar - t0))

    n_fin = n1 * (1.0 - max_h) - budget.s
    clamped = n_fin <= 0.0
    n_fin = max(0.0, n_fin)
    return replace(
        base,
        n_fin=n_fin,
        syndrome_bits=n1 - n_fin,
        net_key=max(0.0, n_fin - ec),
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# Asymptotic rates and the Devetak-Winter cross-check
# ---------------------------------------------------------------------------


def _vn_objective(cfg: B92Config, q_fil: float):
    """rho -> H(X|A'B') of the *normalized* filtered state (trace fixed to
    q_fil on the feasible set), with gradient."""
    sf = build_states_and_filter(cfg)
    fmap, fadj = sf["filter_map"], sf["filter_adjoint"]

    def objective(rho):
        val, grad = von_neumann_objective_and_gradient(fmap(rho), _KEY_PINCH)
        # H(X|A'B')_norm = 1 - D(sigma||P sigma)/Tr sigma and the vN objective
        # is 1 - D(sigma||P sigma); rescale both around the fixed trace
        d = 1.0 - val
        return 1.0 - d / q_fil, fadj(grad) / q_fil

    return objective


def asymptotic_rates(cfg: B92Config, p: float) -> dict:
    """Per-pulse asymptotic key rates plus the Devetak-Winter cross-check.

    universal  = frac (1 - max H(X|A'B') - h(e_bit))
    conventional = frac (1 - max patternExponent - h(e_bit))
    devetakWinter = frac (H(Z|E) - H(Z|Z_B)) at the universal worst case.
    """
    povms = build_povms(cfg)
    q = expected_statistics(cfg, p)
    fs = asymptotic_constraint_set(cfg, p, povms)
    frac = cfg.splits[0] / cfg.n_tot * q.q_fil
    e_bit = min(max(q.q_bit / q.q_fil, 0.0), 1.0)
    ec = binary_entropy(min(e_bit, 0.5))

    uni = _maximize_entropy(_vn_objective(cfg, q.q_fil), fs)
    conv = _maximize_entropy(_pattern_objective(povms), fs)
    dw = devetak_winter_rate(cfg, uni.sigma, q.q_fil)
    # the certified entropy upper bounds give pessimistic (secure) rates
    return {
        "universal": frac * (1.0 - uni.value - ec),
        "universalCertified": frac * (1.0 - uni.upper_bound - ec),
        "conventional": frac * (1.0 - conv.value - ec),
        "conventionalCertified": frac * (1.0 - conv.upper_bound - ec),
        "devetakWinter": frac * dw,
        "hXgivenAB": uni.value,
        "patternExponent": conv.value,
        "eBit": e_bit,
    }


def devetak_winter_rate(cfg: B92Config, rho_ab: np.ndarray, q_fil: float) -> float:
    """H(Z|E) - H(Z|Z_B) from the purification of rho_ab pushed through the
    filter isometry (per sifted bit)."""
    lam, U = herm_eig(rho_ab)
    lam = np.clip(lam, 0.0, None)
    # |psi> on A(2) B(2) E(4)
    psi = (U * np.sqrt(lam)).reshape(2, 2, 4)
    sf = build_states_and_filter(cfg)
    # phi on A(2), B'(2), E(4)
    phi = np.einsum("bc,acE->abE", sf["w"], psi)
    norm2 = float(np.sum(np.abs(phi) ** 2))
    if norm2 <= 1e-14:
        raise DomainError("filter annihilates the state")
    phi = phi / math.sqrt(norm2)

    # H(Z|E): project A onto |z>, trace out B'
    blocks = [
        np.einsum("bE,bG->EG", phi[z], phi[z].conj()) for z in (0, 1)
    ]
    z4 = np.zeros((4, 4), dtype=complex)
    rho_zE = np.block([[blocks[0], z4], [z4, blocks[1]]])
    rho_E = blocks[0] + blocks[1]
    h_z_e = von_neumann_entropy(rho_zE) - von_neumann_entropy(rho_E)

    # H(Z|Z_B): classical joint of Alice Z and Bob's filtered-qubit Z
    pj = np.array(
        [[float(np.sum(np.abs(phi[z, zb]) ** 2)) for zb in (0, 1)] for z in (0, 1)]
    )
    pzb = pj.sum(axis=0)
    h_z_zb = _h_vec(pj.ravel()) - _h_vec(pzb)
    return h_z_e - h_z_zb


def _h_vec(p: np.ndarray) -> float:
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))
