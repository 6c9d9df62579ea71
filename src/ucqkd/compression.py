"""Brute-force simulator of classical source compression with quantum side
information under universal likelihood decoding.

The encoder is a linear hash over F_|X|; the decoder elements are

    Y_{h,b}(x) = w(x) sigma_x / sum_{y in h^-1(b)} w(y) sigma_y

(operator division), with weights w(x) = 2^{-n H(x)} for the fully universal
decoder and w(x) = p^n(x) for the partially universal one, and sigma_x the
string-dependent universal symmetric state.  Exact average error
probabilities are compared against the non-asymptotic error-exponent bound

    P_err <= 2^{-n max_alpha alpha (log|B_n|/n - H^up_{1-alpha}(X|B)
              - overhead * log(n+1)/(2n))},

with overhead |X|(d+2)(d-1) + 2(d-1) (fully) or |X|(d+2)(d-1) (partially).
The bound's displayed form writes |B_n|/n where its derivation gives
log|B_n|/n; the log form is used here and the discrepancy is flagged in the
report metadata.

The exact error probability never builds a decoder element.  Every sigma_x
and weight is real, so each bin's denominator has real eigenvectors U on its
support and Y(x) = U (K o U^T w(x) sigma_x U) U^T is real symmetric; as
Im rho_x is antisymmetric, Tr[rho_x Y(x)] is the entrywise sum of
U^T Re(rho_x) U, the log kernel K and U^T w(x) sigma_x U: one real
eigendecomposition and one batched contraction per bin.  A member's error
depends only on how it partitions the strings into bins, so members with
the same binning share one evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .entropies import CqSource, conditional_renyi_sibson
from .errors import CapacityError, DomainError, InvariantError, UsageError
from .fields import GaloisField, field as make_field
from .hashing import enumerate_surjective_family, sample_toeplitz
from .matfun import herm_eig
from .schur_weyl import empirical_entropy, sigma_for_string

BRUTE_FORCE_CAP = 2**16

RATE_NOTE = (
    "exponent uses log|B_n|/n; the displayed theorem statement writes "
    "|B_n|/n, flagged as a suspected typo"
)


def operator_division(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A/B = integral of (B+t)^-1 A (B+t)^-1 dt for strictly positive B.

    Closed form in the eigenbasis of B: entries A~_ij * g(b_i, b_j) with
    g(b, b') = (ln b - ln b')/(b - b') off-diagonal and 1/b on the diagonal.
    Preserves positive semidefiniteness of A.
    """
    lam, U = herm_eig(B)
    if lam.min() <= 1e-12:
        raise DomainError("operator division requires strictly positive B")
    return _divide(A, U, _log_kernel(lam))


def _log_kernel(lam: np.ndarray) -> np.ndarray:
    a, b = lam[:, None], lam[None, :]
    diff = a - b
    close = np.abs(diff) < 1e-12 * np.maximum(a, b)
    g = (np.log(a) - np.log(b)) / np.where(close, 1.0, diff)
    return np.where(close, 2.0 / (a + b), g)


def _divide(A: np.ndarray, U: np.ndarray, K: np.ndarray) -> np.ndarray:
    """A/B for B = U diag(lam) U^dag, given the kernel K = _log_kernel(lam)."""
    return U @ (K * (U.conj().T @ A @ U)) @ U.conj().T


def _bin_quotients(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support eigenvectors U of B = sum_x S[x] and the stack K o U^dag S[x] U,
    the quotients S[x]/B in that eigenbasis."""
    Us, K = _support_kernel(S.sum(axis=0))
    return Us, K * (Us.conj().T @ S @ Us)


def _bin_success(S: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Tr[rho_x Y(x)] for every string of one bin, from the real stacks
    S[x] = w(x) sigma_x and R[x] = Re rho_x."""
    Us, M = _bin_quotients(S)
    return np.einsum("xij,xij->x", Us.T @ R @ Us, M)


def _support_kernel(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors spanning the support of B and the log kernel on it."""
    lam, U = herm_eig(B)
    keep = lam > 1e-10
    if not keep.any():
        raise DomainError("operator division by the zero operator")
    return U[:, keep], _log_kernel(lam[keep])


def operator_division_on_support(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Division restricted to the support of B, extended by zero off-support."""
    return _divide(A, *_support_kernel(B))


def operator_division_quadrature(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Adaptive quadrature of the defining integral (oracle for tests)."""
    from scipy.integrate import quad

    d = A.shape[0]
    out = np.zeros((d, d), dtype=complex)
    lam, U = herm_eig(B)
    At = U.conj().T @ A @ U
    for i in range(d):
        for j in range(d):
            f = lambda t: At[i, j] / ((lam[i] + t) * (lam[j] + t))
            re, _ = quad(lambda t: f(t).real, 0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
            im, _ = quad(lambda t: f(t).imag, 0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
            out[i, j] = re + 1j * im
    return U @ out @ U.conj().T


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass
class CompressionExperiment:
    source: CqSource
    n: int
    bins_log: float  # log2 |B_n|
    decoder_kind: str  # "fully-universal" | "partially-universal"
    hash_dits: int  # m: hash output length over F_|X|
    family: str = "all-surjective"  # or "toeplitz"
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        k = len(self.source.states)
        d = self.source.dim
        if (d * k) ** self.n > BRUTE_FORCE_CAP:
            raise CapacityError("experiment exceeds the brute-force cap")
        if self.decoder_kind not in ("fully-universal", "partially-universal"):
            raise UsageError(f"unknown decoder kind {self.decoder_kind!r}")
        if self.family not in ("all-surjective", "toeplitz"):
            raise UsageError(f"unknown hash family {self.family!r}")
        if self.family == "toeplitz" and self.trials < 2:
            # one sample has no standard error, so the bound check in
            # run_experiment would compare against a NaN margin
            raise UsageError("a sampled Toeplitz family needs trials >= 2")
        if self.bins_log > self.n * math.log2(k) + 1e-12:
            raise UsageError("bins_log exceeds n log|X|")


@dataclass
class ErrorReport:
    exactPerr: float
    boundPerr: float
    exponentCurve: list[tuple[float, float]]
    stdError: float = 0.0
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "exactPerr": self.exactPerr,
            "boundPerr": self.boundPerr,
            "exponentCurve": [[a, e] for a, e in self.exponentCurve],
            "stdError": self.stdError,
            "metadata": self.metadata,
        }


def _decoder_weights(source: CqSource, n: int, kind: str) -> dict[tuple, float]:
    k = len(source.states)
    out = {}
    for x in itertools.product(range(k), repeat=n):
        if kind == "fully-universal":
            out[x] = 2.0 ** (-n * empirical_entropy(x, k))
        else:
            out[x] = float(np.prod([source.probs[xi] for xi in x]))
    return out


def build_decoder_povm(
    pre: list[tuple], weights: dict[tuple, float], sigmas: dict[tuple, np.ndarray]
) -> dict[tuple, np.ndarray]:
    """Decoder POVM {Y(x)} for one hash bin, given the bin's preimage `pre`.

    Division is carried out on the support of the denominator and extended
    by zero; the completeness identity sum_x Y(x) = support projector holds
    per bin.  The denominator is diagonalized once for all its numerators.
    """
    if not pre:
        raise DomainError("empty hash preimage")
    Us, M = _bin_quotients(np.stack([weights[x] * sigmas[x] for x in pre]))
    return dict(zip(pre, Us @ M @ Us.conj().T))


def _product_state(source: CqSource, x: tuple) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for xi in x:
        out = np.kron(out, np.asarray(source.states[xi], dtype=complex))
    return out


def _hash_members(exp: CompressionExperiment, field: GaloisField):
    if exp.family == "all-surjective":
        return enumerate_surjective_family(field, exp.n, exp.hash_dits), True
    rng = np.random.default_rng(exp.seed)
    return [
        sample_toeplitz(field, exp.n, exp.hash_dits, rng) for _ in range(exp.trials)
    ], False


def exact_error_probability(exp: CompressionExperiment) -> tuple[float, float]:
    """(mean error probability over the hash family, standard error).

    Exact (stderr 0) for enumerable families; Monte Carlo otherwise.  A
    member's error depends only on how it partitions the strings into bins,
    so members with the same partition share one evaluation.
    """
    k = len(exp.source.states)
    fld = make_field(*_prime_power(k))
    members, exhaustive = _hash_members(exp, fld)
    weights = _decoder_weights(exp.source, exp.n, exp.decoder_kind)
    X = fld.strings(exp.n)
    strings = list(map(tuple, X.tolist()))
    S = np.stack([weights[x] * sigma_for_string(x, exp.source.dim) for x in strings])
    if np.iscomplexobj(S):
        raise InvariantError("the decoder states sigma_x must be real symmetric")
    R = np.stack([_product_state(exp.source, x).real for x in strings])
    pn = np.prod(np.asarray(exp.source.probs, dtype=float)[X], axis=1)

    per_member = []
    by_partition: dict[bytes, float] = {}
    for H in members:
        _, first, inverse = np.unique(fld.vector_indices(fld.mat_mul(X, H)),
                                      return_index=True, return_inverse=True)
        owner = first[inverse]  # each bin named by its first string
        key = owner.tobytes()
        if key not in by_partition:
            order = np.argsort(owner, kind="stable")
            good = np.empty(len(strings))
            for pre in np.split(order, np.flatnonzero(np.diff(owner[order])) + 1):
                good[pre] = _bin_success(S[pre], R[pre])
            by_partition[key] = float(pn @ np.maximum(0.0, 1.0 - good))
        per_member.append(by_partition[key])
    vals = np.array(per_member)
    mean = float(np.sum(vals) / len(vals))
    if exhaustive:
        return mean, 0.0
    return mean, float(vals.std(ddof=1) / math.sqrt(len(vals)))


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        r = 0
        m = q
        while m % p == 0:
            m //= p
            r += 1
        if m == 1 and r >= 1:
            return p, r
    raise UsageError(f"alphabet size {q} is not a prime power")


def theorem_overhead(kind: str, alphabet: int, d: int) -> int:
    base = alphabet * (d + 2) * (d - 1)
    return base + 2 * (d - 1) if kind == "fully-universal" else base


ALPHA_GRID = tuple(np.concatenate([
    np.geomspace(1e-4, 0.1, 12), np.linspace(0.12, 0.999, 30)
]))


def theorem_bound(exp: CompressionExperiment) -> ErrorReport:
    """Error-exponent bound 2^{-n max_alpha exponent(alpha)}, clamped to <= 1."""
    k = len(exp.source.states)
    d = exp.source.dim
    overhead = theorem_overhead(exp.decoder_kind, k, d)
    n = exp.n
    curve = []
    for a in ALPHA_GRID:
        h = conditional_renyi_sibson(exp.source, 1.0 - a)
        expo = a * (
            exp.bins_log / n - h - overhead * math.log2(n + 1) / (2.0 * n)
        )
        curve.append((float(a), float(expo)))
    best = max(e for _, e in curve)
    bound = min(1.0, 2.0 ** (-n * best))
    return ErrorReport(
        exactPerr=float("nan"),
        boundPerr=bound,
        exponentCurve=curve,
        metadata={"rate_convention": RATE_NOTE, "overhead": overhead},
    )


def run_experiment(exp: CompressionExperiment) -> ErrorReport:
    """Exact error + theorem bound; asserts the Theorem-1 inequality."""
    perr, stderr = exact_error_probability(exp)
    report = theorem_bound(exp)
    report.exactPerr = perr
    report.stdError = stderr
    margin = 3.0 * stderr
    if perr > report.boundPerr + margin + 1e-12:
        raise CapacityError(
            f"error-exponent bound violated: exact {perr} > bound {report.boundPerr}"
        )
    return report
