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
and weight is real, so each bin's denominator has real eigenvectors U and
Y(x) = U (K o U^T w(x) sigma_x U) U^T is real symmetric, with K the log
kernel masked to the denominator's support; as Im rho_x is antisymmetric,
Tr[rho_x Y(x)] is the entrywise sum of U^T Re(rho_x) U, K and
U^T w(x) sigma_x U.  The simulation works on whole arrays: the stacks of
w(x) sigma_x and Re rho_x are built once per experiment (the weights from
the string matrix, Re rho_x by broadcasting the per-symbol states), one
field-table pass hashes every string under a block of members (blocks of
at most 2^18 member-strings keep the passes small for large families), and
members with the same binning share one evaluation.  A full-rank hash
splits the q^n strings into q^m bins of q^(n-m) strings each, so the q^m
denominators of a partition are diagonalized in one call, followed by one
batched contraction per bin.  The bound evaluates the Sibson entropy at
every order of its grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropies import CqSource, conditional_renyi_sibson
from .errors import CapacityError, DomainError, InvariantError, UsageError
from .fields import GaloisField, field as make_field
from .hashing import enumerate_surjective_family, sample_toeplitz
from .matfun import herm_eig
from .schur_weyl import sigma_for_string

BRUTE_FORCE_CAP = 2**16

RATE_NOTE = (
    "exponent uses log|B_n|/n; the displayed theorem statement writes "
    "|B_n|/n, flagged as a suspected typo"
)


def operator_division(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A/B = integral of (B+t)^-1 A (B+t)^-1 dt for strictly positive B
    (smallest eigenvalue above 1e-12; DomainError otherwise).

    Closed form in the eigenbasis of B: entries A~_ij * g(b_i, b_j) with
    g(b, b') = (ln b - ln b')/(b - b') off-diagonal and 1/b on the diagonal.
    Preserves positive semidefiniteness of A.
    """
    lam, U = herm_eig(B)
    if lam.min() <= 1e-12:
        raise DomainError("operator division requires strictly positive B")
    return _divide(A, U, _log_kernel(lam, 1e-12))


def _log_kernel(lam: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Divided differences of ln on the eigenvalues lam (or on each row of a
    stack), masked to the support: entries whose row or column eigenvalue is
    at most `floor` are 0, and no logarithm of such an eigenvalue is taken."""
    keep = lam > floor
    if not keep.any(axis=-1).all():
        raise DomainError("operator division by the zero operator")
    lam = np.where(keep, lam, 1.0)
    a, b = lam[..., :, None], lam[..., None, :]
    diff = a - b
    close = np.abs(diff) < 1e-12 * np.maximum(a, b)
    g = (np.log(a) - np.log(b)) / np.where(close, 1.0, diff)
    return np.where(close, 2.0 / (a + b), g) * (keep[..., :, None] & keep[..., None, :])


def _divide(A: np.ndarray, U: np.ndarray, K: np.ndarray) -> np.ndarray:
    """A/B for B = U diag(lam) U^dag, given the kernel K = _log_kernel(lam)."""
    return U @ (K * (U.conj().T @ A @ U)) @ U.conj().T


def _partition_success(S: np.ndarray, R: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Tr[rho_x Y(x)] for every string, from the real stacks S[x] = w(x) sigma_x
    and R[x] = Re rho_x, with the strings split into the equal-sized bins
    listed as the rows of `bins`.

    The bins' denominators are diagonalized in one call; each bin is then one
    batched contraction of U^T R[x] U, the masked log kernel and U^T S[x] U.
    """
    lam, U = herm_eig(np.stack([S[pre].sum(axis=0) for pre in bins]))
    K = _log_kernel(lam)
    good = np.empty(len(S))
    for pre, Ub, Kb in zip(bins, U, K):
        good[pre] = np.einsum("xij,xij->x", Ub.T @ R[pre] @ Ub, Kb * (Ub.T @ S[pre] @ Ub))
    return good


def operator_division_on_support(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Division restricted to the support of B, extended by zero off-support."""
    lam, U = herm_eig(B)
    return _divide(A, U, _log_kernel(lam))


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
    S = np.stack([weights[x] * sigmas[x] for x in pre])
    lam, U = herm_eig(S.sum(axis=0))
    return dict(zip(pre, _divide(S, U, _log_kernel(lam))))


def _real_product_states(states, n: int) -> np.ndarray:
    """Re(rho_{x_1} x...x rho_{x_n}) for every string x over the symbols of
    `states`, in the order of GaloisField.strings(n).

    The first n - 1 factors are complex Kronecker products of the whole
    stack; the last is taken in real arithmetic, Re(P x Q) =
    Re P x Re Q - Im P x Im Q, so no full-size complex stack is held.
    """
    Q = np.asarray(states, dtype=complex)
    P = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n - 1):
        P = _kron_stack(P, Q)
    R = _kron_stack(P.real, Q.real)
    R -= _kron_stack(P.imag, Q.imag)
    return R


def _kron_stack(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """np.kron(P[i], Q[s]) for every pair, at stack index i * len(Q) + s."""
    (t, D, _), (k, d, _) = P.shape, Q.shape
    out = P[:, None, :, None, :, None] * Q[None, :, None, :, None, :]
    return out.reshape(t * k, D * d, D * d)


def _hash_members(exp: CompressionExperiment, field: GaloisField):
    if exp.family == "all-surjective":
        return enumerate_surjective_family(field, exp.n, exp.hash_dits), True
    rng = np.random.default_rng(exp.seed)
    return np.stack([
        sample_toeplitz(field, exp.n, exp.hash_dits, rng) for _ in range(exp.trials)
    ]), False


def _type_weights(X: np.ndarray, k: int) -> np.ndarray:
    """Fully universal weights 2^{-n H(x)} for every row string x of X, with
    H(x) the entropy of its type, from its symbol counts."""
    n = X.shape[1]
    counts = (X[:, :, None] == np.arange(k)).sum(axis=1)
    types, which = np.unique(counts, axis=0, return_inverse=True)
    w = [2.0 ** (n * sum(c / n * math.log2(c / n) for c in t if c)) for t in types.tolist()]
    return np.array(w)[which.ravel()]


# members x strings hashed per table pass: bounds the int64 arrays of one
# pass to a few MB however large the family is
_HASH_BLOCK = 1 << 18


def _bin_owners(fld: GaloisField, X: np.ndarray, members: np.ndarray) -> np.ndarray:
    """owner[t, i]: the index of the first string of X in the bin of string i
    under member t, for a stack of members in one table pass."""
    keys = fld.vector_indices(fld.mat_mul(X, members))
    first = np.full((len(members), fld.q ** members.shape[-1]), len(X))
    rows = np.arange(len(members))[:, None]
    np.minimum.at(first, (rows, keys), np.arange(len(X)))
    return first[rows, keys]


def _equal_bins(owner: np.ndarray, nbins: int) -> np.ndarray:
    """The bins of one partition as rows of string indices, in order of their
    first string.  A full-rank linear hash is surjective, so its nbins bins
    all hold the same number of strings; anything else is an invariant
    failure."""
    size = len(owner) // nbins
    counts = np.bincount(owner)
    if np.count_nonzero(counts) != nbins or counts.max() != size:
        raise InvariantError(f"a full-rank hash must split the strings into {nbins} equal bins")
    return np.argsort(owner, kind="stable").reshape(nbins, size)


def exact_error_probability(exp: CompressionExperiment) -> tuple[float, float]:
    """(mean error probability over the hash family, standard error).

    Exact (stderr 0) for enumerable families; Monte Carlo otherwise.  A
    member's error depends only on how it partitions the strings into bins,
    so members with the same partition share one evaluation.
    """
    k = len(exp.source.states)
    fld = make_field(*_prime_power(k))
    members, exhaustive = _hash_members(exp, fld)
    X = fld.strings(exp.n)
    pn = np.prod(np.asarray(exp.source.probs, dtype=float)[X], axis=1)
    w = pn if exp.decoder_kind == "partially-universal" else _type_weights(X, k)
    S = np.stack([wx * sigma_for_string(x, exp.source.dim) for wx, x in zip(w, X.tolist())])
    if np.iscomplexobj(S):
        raise InvariantError("the decoder states sigma_x must be real symmetric")
    R = _real_product_states(exp.source.states, exp.n)

    nbins = fld.q ** exp.hash_dits
    by_partition: dict[bytes, float] = {}
    vals = np.empty(len(members))
    step = max(1, _HASH_BLOCK // len(X))
    for start in range(0, len(members), step):
        partitions, which = np.unique(
            _bin_owners(fld, X, members[start:start + step]),
            axis=0, return_inverse=True)
        perr = np.empty(len(partitions))
        for i, owner in enumerate(partitions):
            key = owner.tobytes()
            if key not in by_partition:
                good = _partition_success(S, R, _equal_bins(owner, nbins))
                by_partition[key] = float(pn @ np.maximum(0.0, 1.0 - good))
            perr[i] = by_partition[key]
        vals[start:start + step] = perr[which.ravel()]
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
    h_all = conditional_renyi_sibson(exp.source, [1.0 - a for a in ALPHA_GRID])
    curve = []
    for a, h in zip(ALPHA_GRID, h_all):
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
        raise InvariantError(
            f"error-exponent bound violated: exact {perr} > bound {report.boundPerr}"
        )
    return report
