"""Scalar information-theoretic kernels.

Conditional Rényi entropy (the Sibson closed form, and a certified bracket
on the same maximum from the shared maximizer
`optimize.sequential_linearization`), von Neumann entropy, the binary
relative entropy with its concentration-bound root-finders delta_1 /
delta_2 / r_err, and log2 of the i.i.d.-reduction factor f_q.

All logarithms are base 2; every entropy is in bits.  alpha = 1 is always
handled by the dedicated von Neumann path, never by a limiting formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, rel_entr, xlogy

from .errors import DomainError, UsageError
from .matfun import (
    EIG_CLAMP,
    check_hermitian,
    eig_pow,
    frechet_derivative,
    herm_eig,
    mpow,
)
from .optimize import FeasibleSet, MaximizeResult, sequential_linearization

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CqSource:
    """Classical distribution p(x) with conditional states rho_B^x."""

    probs: np.ndarray
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
            raise UsageError("probs must be a probability vector")
        if len(self.states) != len(p):
            raise UsageError("one conditional state per symbol required")
        object.__setattr__(self, "probs", p)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def blocks(self) -> list[np.ndarray]:
        """Subnormalized blocks p(x) rho_B^x."""
        return [p * np.asarray(s, dtype=complex) for p, s in zip(self.probs, self.states)]


# ---------------------------------------------------------------------------
# Rényi and von Neumann quantities
# ---------------------------------------------------------------------------


def conditional_renyi_sibson(source: CqSource, alpha):
    """H^up_alpha(X|B) of a cq source via the Sibson closed form,
    -(a/(a-1)) log2 Tr[(sum_x (p(x) rho_B^x)^a)^(1/a)].

    `alpha` is one order (float result) or a sequence of orders (array of
    results, bit for bit the one-order values); each block p(x) rho_B^x is
    diagonalized once for all of them.
    """
    alphas = [float(a) for a in np.atleast_1d(alpha)]
    if not all(0 < a < 1 for a in alphas):
        raise UsageError(f"Sibson path requires alpha in (0,1), got {alpha}")
    eigs = [herm_eig(b) for b in source.blocks()]
    s = np.stack([sum(eig_pow(lam, U, a) for lam, U in eigs) for a in alphas])
    out = np.empty(len(alphas))
    for i, (a, lam) in enumerate(zip(alphas, herm_eig(s)[0])):
        # log2 Tr[s^(1/a)] in log form: s^(1/a) overflows for small a
        lam = lam[lam >= EIG_CLAMP]
        if lam.size == 0:
            log2_tr = math.log2(1e-300)
        else:
            top = lam.max()
            log2_tr = math.log2(top) / a + math.log2(float(np.sum((lam / top) ** (1.0 / a))))
        out[i] = -(a / (a - 1.0)) * log2_tr
    return float(out[0]) if np.ndim(alpha) == 0 else out


def conditional_renyi_direct(source: CqSource, alpha: float) -> MaximizeResult:
    """max_sigma -D_alpha(rho_XB || I x sigma) as a certified bracket in bits.

    Maximizes the concave map sigma -> (1/b) log2 Tr[M sigma^b], with
    M = sum_x (p(x) rho_B^x)^alpha and b = 1 - alpha, over density matrices
    with the shared maximizer `sequential_linearization`; the optimum lies in
    [value, upper_bound] of the returned result.  The optimizer never sees
    the Sibson closed form, so the two computations check each other.  Each
    evaluation diagonalizes sigma once, for the value and the gradient.
    """
    if not 0 < alpha < 1:
        raise UsageError(f"direct path requires alpha in (0,1), got {alpha}")
    if source.dim > 8:
        raise UsageError("direct optimization capped at dim 8")
    M = sum(mpow(b, alpha) for b in source.blocks())
    beta = 1.0 - alpha

    def objective(sigma):
        lam, U = herm_eig(sigma)
        T = float(np.trace(M @ eig_pow(lam, U, beta)).real)
        grad = frechet_derivative(lambda t: t**beta, lambda t: beta * t ** (beta - 1.0),
                                  lam, U, M) / (beta * LN2 * T)
        return math.log2(T) / beta, 0.5 * (grad + grad.conj().T)

    return sequential_linearization(objective, FeasibleSet(dim=source.dim))


def von_neumann_entropy(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(check_hermitian(rho, what="state"))
    lam = lam[lam > EIG_CLAMP]
    return float(-np.sum(lam * np.log2(lam)))


# ---------------------------------------------------------------------------
# Binary relative entropy and concentration root-finders
# ---------------------------------------------------------------------------


def binary_relative_entropy(p: float, q: float) -> float:
    """D(p||q) in bits; +inf when q in {0,1} disagrees with p."""
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise UsageError("arguments must lie in [0,1]")
    val = rel_entr(p, q) + rel_entr(1.0 - p, 1.0 - q)
    return float(val) / LN2 if math.isfinite(val) else math.inf


def _bisect_monotone(f, lo: float, hi: float) -> float:
    """Root of increasing f on [lo, hi] (0 <= lo), rounded to the safe side:
    the smallest float x >= r with f(x) >= 0, where r is Brent's root.

    Every caller widens a confidence interval by the root, so rounding up is
    the safe direction.  When f(r) < 0 the rounding bisects the IEEE-754 bit
    patterns of (r, hi], whose int64 order is the order of the non-negative
    floats: at most 64 evaluations, ending at adjacent floats with f < 0
    below and f >= 0 at the returned x.
    """
    flo, fhi = f(lo), f(hi)
    if flo > 0 or fhi < 0:
        raise DomainError("root finder: no sign change on the given bracket")
    root = float(brentq(f, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200))
    if f(root) >= 0:
        return root
    a, b = _float_bits(root), _float_bits(hi)
    while b - a > 1:
        mid = (a + b) // 2
        if f(_bits_float(mid)) >= 0:
            b = mid
        else:
            a = mid
    return _bits_float(b)


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _bits_float(i: int) -> float:
    return float(np.int64(i).view(np.float64))


def _log2_eps(log2_eps: float) -> float:
    """log2 of a failure probability; the log form avoids underflow."""
    if not log2_eps < 0:
        raise UsageError("log2_eps must be negative")
    return float(log2_eps)


def solve_delta1(p: float, n: int, *, log2_eps: float) -> float:
    """delta_1(p,n,eps): n D(p+delta||p) = -log2 eps, or 1-p when eps < p^n."""
    leps = _log2_eps(log2_eps)
    if not 0 <= p <= 1 or n < 1:
        raise UsageError("need p in [0,1], n >= 1")
    if p == 1.0:
        return 0.0
    target = -leps / n
    # eps < p^n  <=>  target > -log2 p  = D(1||p)
    if p > 0 and target > -math.log2(p):
        return 1.0 - p
    f = lambda delta: binary_relative_entropy(p + delta, p) - target
    return _bisect_monotone(f, 0.0, 1.0 - p)


def solve_delta2(p: float, n: int, *, log2_eps: float) -> float:
    """delta_2(p,n,eps): n D(p||p+delta) = -log2 eps."""
    leps = _log2_eps(log2_eps)
    if not 0 <= p <= 1 or n < 1:
        raise UsageError("need p in [0,1], n >= 1")
    if p == 1.0:
        return 0.0
    if p == 0.0:
        # D(0||q) = -log2(1-q) gives the closed form directly.
        return -math.expm1(leps * LN2 / n)
    target = -leps / n
    f = lambda delta: binary_relative_entropy(p, p + delta) - target
    return _bisect_monotone(f, 0.0, 1.0 - p)


def solve_r_err(
    n_sift: float,
    n_suc: float,
    n_err: float,
    eps_cor: float,
) -> float:
    """Bit-error-rate bound r with D(n_err/n_suc || (n_sift r + n_err)/(n_sift+n_suc))
    = -log2(eps_cor)/(n_sift+n_suc)."""
    if min(n_sift, n_suc) <= 0 or n_err < 0 or n_err > n_suc or not 0 < eps_cor <= 1:
        raise UsageError("invalid r_err arguments")
    p_obs = n_err / n_suc
    total = n_sift + n_suc
    target = -math.log2(eps_cor) / total

    def f(r):
        q = (n_sift * r + n_err) / total
        return binary_relative_entropy(p_obs, q) - target

    lo = p_obs  # q(lo) = p_obs => D = 0
    hi = 1.0
    if f(hi) < 0:
        raise DomainError("r_err: required confidence unreachable (rate bound > 1)")
    if target == 0.0:
        return p_obs
    return _bisect_monotone(f, lo, hi)


# ---------------------------------------------------------------------------
# f_q factor and the binary entropy
# ---------------------------------------------------------------------------


def log2_fq_factor(n: int, d: int) -> float:
    """log2 of f_q(n,d) = (n+d-1)^((d^2-1)/2) / (sqrt(2 pi (d/e^2)^d) prod i!)."""
    if n < 1 or d < 2:
        raise UsageError("need n >= 1, d >= 2")
    log2e = 1.0 / LN2
    num = ((d * d - 1) / 2.0) * math.log2(n + d - 1)
    log_denom_ln = 0.5 * (math.log(2 * math.pi) + d * (math.log(d) - 2.0))
    log_denom_ln += sum(gammaln(i + 1) for i in range(d))
    return num - log_denom_ln * log2e


def binary_entropy(p: float) -> float:
    """h(p) in bits."""
    if not 0 <= p <= 1:
        raise UsageError("binary entropy argument outside [0,1]")
    return float(-(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / LN2)
