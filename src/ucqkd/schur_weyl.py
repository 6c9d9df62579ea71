"""Schur-Weyl isotypic projectors, universal symmetric states, and the
string-dependent states sigma_x.

Everything here is brute force and exact-at-desk-scale: isotypic projectors
of the (SU(d), S_n) duality are built by symmetric-group character averaging

    Pi_lambda = (dim zeta_lambda / n!) * sum_{s in S_n} chi_lambda(s) V_s,

with S_n characters from the Murnaghan-Nakayama rule and V_s the natural
permutation action on (C^d)^{tensor n}.  The universal symmetric state

    sigma_{U,n} = |Y_n^d|^{-1} sum_lambda Pi_lambda / Tr[Pi_lambda]

dominates every i.i.d. state up to a polynomial factor, and the
string-dependent states sigma_x transport tensor products of universal
symmetric states along the sorting permutation of x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, UsageError

MAX_TENSOR_DIM = 4096


# ---------------------------------------------------------------------------
# Young diagrams and representation dimensions
# ---------------------------------------------------------------------------


def enumerate_young(n: int, d: int) -> list[tuple[int, ...]]:
    """All Young diagrams with n boxes and at most d rows (weakly decreasing)."""
    if n < 1 or d < 1:
        raise UsageError("need n >= 1 and d >= 1")

    out: list[tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) == d:
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def dim_permutation_irrep(diagram: tuple[int, ...]) -> int:
    """Dimension of the S_n irrep zeta_lambda via the hook length formula."""
    n = sum(diagram)
    cols = _conjugate(diagram)
    prod = 1
    for i, row in enumerate(diagram):
        for j in range(row):
            hook = (row - j) + (cols[j] - i) - 1
            prod *= hook
    return math.factorial(n) // prod


def dim_unitary_irrep(diagram: tuple[int, ...], d: int) -> int:
    """Dimension of the SU(d) irrep U_lambda via the Weyl dimension formula."""
    lam = list(diagram) + [0] * (d - len(diagram))
    val = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            val *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert val.denominator == 1
    return int(val)


def _conjugate(diagram: tuple[int, ...]) -> list[int]:
    if not diagram:
        return []
    return [sum(1 for row in diagram if row > j) for j in range(diagram[0])]


@lru_cache(maxsize=None)
def sn_character(diagram: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Character chi_lambda on the conjugacy class of the given cycle type.

    Murnaghan-Nakayama rule on the beta-set B = {lambda_i + k - 1 - i} of the
    k-row diagram: removing a rim hook of length t = first cycle moves one
    bead b to an empty position b - t >= 0, with sign (-1)^(number of beads
    strictly between b - t and b).
    """
    if not cycle_type:
        return 1 if not diagram else 0
    t, rest = cycle_type[0], cycle_type[1:]
    k = len(diagram)
    beads = {row + k - 1 - i for i, row in enumerate(diagram)}
    total = 0
    for b in beads:
        if b - t < 0 or b - t in beads:
            continue
        moved = sorted((beads - {b}) | {b - t}, reverse=True)
        stripped = tuple(m - (k - 1 - i) for i, m in enumerate(moved))
        sign = (-1) ** sum(b - t < c < b for c in beads)
        total += sign * sn_character(tuple(r for r in stripped if r > 0), rest)
    return total


# ---------------------------------------------------------------------------
# Permutation operators and isotypic blocks
# ---------------------------------------------------------------------------


def permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """V_s on (C^d)^{tensor n}: output tensor slot s(i) carries input slot i.

    Satisfies V_s V_t = V_{s o t} and V_s (A_1 x...x A_n) V_s^{-1} puts A_i
    at slot s(i).
    """
    n = len(perm)
    dim = d**n
    if dim > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor dimension {dim} exceeds {MAX_TENSOR_DIM}")
    # row with output digits o has its 1 at the input index with digits o[s(i)]
    cols = np.arange(dim).reshape([d] * n).transpose(np.argsort(perm)).ravel()
    V = np.zeros((dim, dim), dtype=float)
    V[np.arange(dim), cols] = 1.0
    return V


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lens.append(ln)
    return tuple(sorted(lens, reverse=True))


@dataclass(frozen=True)
class IsotypicBlock:
    diagram: tuple[int, ...]
    projector: np.ndarray
    dimU: int
    dimV: int


@lru_cache(maxsize=None)
def build_isotypic_blocks(n: int, d: int) -> list[IsotypicBlock]:
    """Central Young projectors for (C^d)^{tensor n}, memoized per (n, d)."""
    dim = d**n
    if dim > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor dimension {dim} exceeds {MAX_TENSOR_DIM}")
    # Class sums of permutation operators, keyed by cycle type.
    class_sums: dict[tuple[int, ...], np.ndarray] = {}
    for perm in itertools.permutations(range(n)):
        ct = _cycle_type(perm)
        V = permutation_operator(perm, d)
        if ct in class_sums:
            class_sums[ct] += V
        else:
            class_sums[ct] = V

    blocks = []
    nfact = math.factorial(n)
    for lam in enumerate_young(n, d):
        dv = dim_permutation_irrep(lam)
        Pi = np.zeros((dim, dim), dtype=float)
        for ct, S in class_sums.items():
            Pi += sn_character(lam, ct) * S
        Pi *= dv / nfact
        du = dim_unitary_irrep(lam, d)
        tr = np.trace(Pi)
        if abs(tr - du * dv) > 1e-8:
            raise CapacityError(
                f"projector trace {tr} != dimU*dimV = {du * dv} for {lam}"
            )
        blocks.append(IsotypicBlock(diagram=lam, projector=Pi, dimU=du, dimV=dv))
    return blocks


@lru_cache(maxsize=None)
def universal_symmetric_state(n: int, d: int) -> np.ndarray:
    """sigma_{U,n}: uniform mixture of normalized isotypic projectors,
    memoized per (n, d) and read-only."""
    blocks = build_isotypic_blocks(n, d)
    dim = d**n
    out = np.zeros((dim, dim), dtype=float)
    for blk in blocks:
        out += blk.projector / np.trace(blk.projector)
    out /= len(blocks)
    out.flags.writeable = False
    return out


def domination_factor(n: int, d: int) -> float:
    """(n+1)^{(d+2)(d-1)/2}: the coefficient with which sigma_{U,n}
    dominates every i.i.d. state rho^{tensor n}."""
    return float(n + 1) ** ((d + 2) * (d - 1) / 2.0)


# ---------------------------------------------------------------------------
# Sorting permutations, string-dependent symmetric states
# ---------------------------------------------------------------------------


def sorting_permutation(x) -> tuple[int, ...]:
    """Permutation s with (s.x) sorted ascending, where (s.x)_{s(i)} = x_i.

    Stable: equal symbols keep their relative order.
    """
    order = sorted(range(len(x)), key=lambda i: (x[i], i))
    perm = [0] * len(x)
    for target, src in enumerate(order):
        perm[src] = target
    return tuple(perm)


def sigma_for_string(x, d: int) -> np.ndarray:
    """sigma_x = V_{s_x}^{-1} (sigma_{U,m_1} x...x sigma_{U,m_k}) V_{s_x}.

    m_1..m_k are the multiplicities of the distinct symbols of x in sorted
    order; commutes with every product state rho^x = tensor_i rho^{x_i} and
    dominates it up to (n+1)^{(d+2)(d-1)|X|/2}.  V_s is a permutation matrix,
    so the conjugation is a gather of the core's rows and columns.
    """
    x = list(x)
    n = len(x)
    if d**n > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor dimension {d**n} exceeds {MAX_TENSOR_DIM}")
    mults = tuple(len(list(g)) for _, g in itertools.groupby(sorted(x)))
    # V_s has its 1 in row r at column cols[r] (see permutation_operator), so
    # (V^T core V)[a, b] = core[inv[a], inv[b]] with inv the inverse of cols
    inv = np.arange(d**n).reshape([d] * n).transpose(sorting_permutation(x)).ravel()
    return _sorted_core(mults, d)[np.ix_(inv, inv)]


@lru_cache(maxsize=None)
def _sorted_core(mults: tuple[int, ...], d: int) -> np.ndarray:
    """sigma_{U,m_1} x...x sigma_{U,m_k}, memoized per (multiplicities, d)
    and read-only."""
    core = np.eye(1)
    for m in mults:
        core = np.kron(core, universal_symmetric_state(m, d))
    core = core + 0.0  # -0.0 -> +0.0, so the gather equals V^T core V bit for bit
    core.flags.writeable = False
    return core
