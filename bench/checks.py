"""Correctness checks on the benchmark's operation records.

Every bound here is computed from the protocol's definitions with this
file's own code (states, filter, POVMs, entropies, Devetak-Winter rate,
operator division by quadrature), never from a stored copy of an earlier
output.  Each check returns a list of problems; an empty list means the
record passed.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.integrate import quad

# Slack for inequalities that hold exactly in exact arithmetic.
TOL = 1e-9
DW_TOL = 1e-6
QUADRATURE_TOL = 1e-8

_I2 = np.eye(2, dtype=complex)
_Z = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
_X = [np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
      np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)]


def _proj(v):
    return np.outer(v, v.conj())


def _entropy(m) -> float:
    lam = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log2(lam)))


def _shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


# ---------------------------------------------------------------------------
# B92: states, filter, POVMs and entropies at the true (depolarized) state
# ---------------------------------------------------------------------------


class B92Reference:
    """The protocol at amplitude `amp`: signal states b|+> +- a|->, the
    filter Kraus operator W = sum_i |i><psi_perp_{i xor 1}| / sqrt(2), and
    the POVM elements built through it."""

    def __init__(self, amp: float):
        a, b = amp, math.sqrt(1.0 - amp * amp)
        self.psi = [b * _X[0] + s * a * _X[1] for s in (1.0, -1.0)]
        perp = [a * _X[0] - s * b * _X[1] for s in (1.0, -1.0)]
        self.w = sum(np.outer(_Z[i], perp[i ^ 1].conj()) for i in (0, 1)) / math.sqrt(2.0)
        self.kraus = np.kron(_I2, self.w)

        def through_filter(m2):
            return self.w.conj().T @ m2 @ self.w

        self.m_fil = np.kron(_I2, through_filter(_I2))
        self.m_bit = sum(np.kron(_proj(_Z[x]), through_filter(_proj(_Z[x ^ 1]))) for x in (0, 1))
        self.m_ph = sum(np.kron(_proj(_X[x]), through_filter(_proj(_X[x ^ 1]))) for x in (0, 1))
        singlet = (np.kron(_Z[0], _Z[1]) - np.kron(_Z[1], _Z[0])) / math.sqrt(2.0)
        self.m_bitph = self.kraus.conj().T @ _proj(singlet) @ self.kraus

    def true_state(self, p: float) -> np.ndarray:
        """(id x N_p)(|Phi><Phi|), |Phi> = (|0>|psi_0> + |1>|psi_1>)/sqrt(2)."""
        phi = (np.kron(_Z[0], self.psi[0]) + np.kron(_Z[1], self.psi[1])) / math.sqrt(2.0)
        rho = _proj(phi)
        rho_a = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
        return (1.0 - p) * rho + p * np.kron(rho_a, _I2 / 2.0)

    def filtered(self, rho) -> tuple[np.ndarray, float]:
        """Normalized filtered state and the filter success probability."""
        sigma = self.kraus @ rho @ self.kraus.conj().T
        q_fil = float(np.trace(sigma).real)
        return sigma / q_fil, q_fil

    def h_x_given_ab(self, rho) -> float:
        """H(X|A'B') of the cq state (1/2) sum_x |x><x| (x) Z^x sigma Z^x,
        where X records the key-basis twirl on Alice's qubit."""
        sigma, _ = self.filtered(rho)
        zop = np.kron(np.diag([1.0, -1.0]).astype(complex), _I2)
        blocks = [sigma / 2.0, zop @ sigma @ zop / 2.0]
        cq = np.zeros((8, 8), dtype=complex)
        cq[:4, :4], cq[4:, 4:] = blocks
        return _entropy(cq) - _entropy(blocks[0] + blocks[1])

    def pattern_exponent(self, rho) -> float:
        """H(phase error | bit error) of the sifted four-outcome distribution."""
        tr = lambda m: float(np.trace(rho @ m).real)
        both = tr(self.m_bitph)
        q = np.array([
            tr(self.m_fil) - tr(self.m_bit) - tr(self.m_ph) + both,
            tr(self.m_ph) - both,
            tr(self.m_bit) - both,
            both,
        ])
        u = np.clip(q, 0.0, None) / q.sum()
        return _shannon(u) - _shannon([u[0] + u[1], u[2] + u[3]])

    def devetak_winter(self, rho) -> float:
        """H(Z|E) - H(Z|Z_B) per sifted bit, with Eve holding a purification.

        For a pure state on A B' E, measuring Z on A gives
        H(Z|E) = H(pinch_Z(sigma)) - H(sigma), so no purification is built.
        """
        sigma, _ = self.filtered(rho)
        pz = [np.kron(_proj(z), _I2) for z in _Z]
        h_z_e = _entropy(sum(P @ sigma @ P for P in pz)) - _entropy(sigma)
        joint = np.array([[float(np.trace(sigma @ np.kron(_proj(za), _proj(zb))).real)
                           for zb in _Z] for za in _Z])
        h_z_zb = _shannon(joint.ravel()) - _shannon(joint.sum(axis=0))
        return h_z_e - h_z_zb


def in_acceptance_set(rho, feasible_set) -> list[str]:
    """Problems if rho violates any constraint of the program's acceptance set."""
    out = []
    if abs(float(np.trace(rho).real) - feasible_set.trace) > TOL:
        out.append("true state does not have the acceptance set's trace")
    for j, (m, value) in enumerate(feasible_set.eq):
        got = float(np.trace(rho @ m).real)
        if abs(got - value) > TOL:
            out.append(f"true state violates equality {j}: {got} != {value}")
    for j, (m, bound) in enumerate(feasible_set.ineq):
        got = float(np.trace(rho @ m).real)
        if got > bound + TOL:
            out.append(f"true state violates inequality {j}: {got} > {bound}")
    if np.linalg.eigvalsh(rho).min() < -TOL:
        out.append("true state is not positive semidefinite")
    return out


def check_key_length(rec: dict, ref: B92Reference, rho_true, feasible_set,
                     target_eps: float) -> list[str]:
    """A finite-size key length against the exponent of the true state.

    universal:    n_fin <= n_sift (1 - H(X|A'B'))       at the true state
    conventional: n_fin <= n_sift (1 - pattern exponent) at the true state
    Both hold because the certified maximum over the acceptance set is at
    least the value at the true state, once that state is in the set.
    """
    out = in_acceptance_set(rho_true, feasible_set)
    if out:
        return out
    if rec["analysis"] == "universal":
        exponent = ref.h_x_given_ab(rho_true)
    else:
        exponent = ref.pattern_exponent(rho_true)
    bound = rec["n_sift"] * (1.0 - exponent)
    if not rec["n_fin"] <= bound * (1.0 + TOL):
        out.append(f"n_fin {rec['n_fin']} exceeds n_sift(1 - exponent) = {bound}")
    if not rec["net_key"] > 0.0:
        out.append(f"net key {rec['net_key']} is not positive")
    if rec["net_key"] > rec["n_fin"]:
        out.append("net key exceeds n_fin")
    if rec["clamped"]:
        out.append("key length was clamped")
    if not rec["eps_achieved"] <= target_eps:
        out.append(f"eps_achieved {rec['eps_achieved']} exceeds the target {target_eps}")
    if rec.get("upper_bound") is not None and rec["gap"] < -TOL:
        out.append(f"negative certified gap {rec['gap']}")
    return out


def check_asymptotic(records: list[dict], ref: B92Reference) -> list[str]:
    """Asymptotic rates over a depolarization grid (records in any order)."""
    out = []
    prev = None
    for rec in sorted(records, key=lambda r: r["p"]):
        p, r = rec["p"], rec["rates"]
        tag = f"p={p}"
        if not abs(r["universal"] - r["devetakWinter"]) <= DW_TOL:
            out.append(f"{tag}: universal {r['universal']} != Devetak-Winter {r['devetakWinter']}")
        for name in ("universal", "conventional"):
            if not r[name + "Certified"] <= r[name] + TOL * max(1.0, abs(r[name])):
                out.append(f"{tag}: certified {name} rate exceeds the rate")
        if not r["conventional"] <= r["universal"] + TOL:
            out.append(f"{tag}: conventional rate exceeds universal")
        rho = ref.true_state(p)
        _, q_fil = ref.filtered(rho)
        own_dw = rec["extraction_fraction"] * q_fil * ref.devetak_winter(rho)
        if not r["universal"] <= own_dw + TOL:
            out.append(f"{tag}: universal {r['universal']} exceeds the true-state "
                       f"Devetak-Winter rate {own_dw}")
        if prev is not None and not r["universal"] <= prev + TOL:
            out.append(f"{tag}: universal rate increases with p")
        prev = r["universal"]
    return out


# ---------------------------------------------------------------------------
# Compression experiments
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def output_failure(text: str) -> str | None:
    """Why the written JSON report is unusable, or None.

    The report must parse strictly (no NaN or Infinity literals) and hold a
    finite exponent curve.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"report does not parse strictly: {exc}"
    if not all(math.isfinite(e) for _, e in doc["exponentCurve"]):
        return "exponent curve is not finite"
    return None


def check_compression(rec: dict) -> list[str]:
    out = []
    if not 0.0 <= rec["exactPerr"] <= rec["boundPerr"]:
        out.append(f"{rec['op']}: need 0 <= exactPerr {rec['exactPerr']} "
                   f"<= boundPerr {rec['boundPerr']}")
    if rec.get("quadraturePerr") is not None:
        if not abs(rec["exactPerr"] - rec["quadraturePerr"]) <= QUADRATURE_TOL:
            out.append(f"{rec['op']}: exactPerr {rec['exactPerr']} differs from the "
                       f"quadrature value {rec['quadraturePerr']}")
    return out


def _gf2_rank(m) -> int:
    m = np.array(m, dtype=np.int64) % 2
    rank = 0
    for col in range(m.shape[1]):
        pivot = next((r for r in range(rank, m.shape[0]) if m[r, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
    return rank


def _symmetric_projector(m: int) -> np.ndarray:
    """(1/m!) sum over permutations of the m qubit slots."""
    dim = 2**m
    out = np.zeros((dim, dim))
    eye = np.eye(dim).reshape((2,) * m + (dim,))
    for perm in itertools.permutations(range(m)):
        out += np.transpose(eye, perm + (m,)).reshape(dim, dim)
    return out / math.factorial(m)


def universal_state_qubits(m: int) -> np.ndarray:
    """Uniform mixture of normalized isotypic projectors on m <= 3 qubits.

    The diagrams with at most two rows are (m) and, for m >= 2, (m-1, 1);
    the second projector is I - P_sym because (1,1,1) vanishes for qubits.
    """
    if m == 1:
        return np.eye(2) / 2.0
    if m not in (2, 3):
        raise ValueError("reference states cover m <= 3 only")
    sym = _symmetric_projector(m)
    rest = np.eye(2**m) - sym
    return (sym / np.trace(sym) + rest / np.trace(rest)) / 2.0


def string_state(x) -> np.ndarray:
    """sigma_x: the universal state of each symbol's slots, placed on them."""
    n = len(x)
    slots = [[i for i in range(n) if x[i] == a] for a in sorted(set(x))]
    core = np.eye(1)
    for s in slots:
        core = np.kron(core, universal_state_qubits(len(s)))
    order = [i for s in slots for i in s]  # core factor k sits on slot order[k]
    t = core.reshape((2,) * (2 * n))
    inv = [order.index(i) for i in range(n)]
    return np.transpose(t, inv + [n + k for k in inv]).reshape(2**n, 2**n)


def divide_by_quadrature(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a/b = integral_0^inf (b+t)^-1 a (b+t)^-1 dt for positive definite b,
    evaluated entrywise in the eigenbasis of b by adaptive quadrature."""
    lam, u = np.linalg.eigh(b)
    at = u.conj().T @ a @ u
    g = np.empty((len(lam), len(lam)))
    for i in range(len(lam)):
        for j in range(i, len(lam)):
            val, _ = quad(lambda t: 1.0 / ((lam[i] + t) * (lam[j] + t)), 0.0, np.inf,
                          epsabs=1e-14, epsrel=1e-12, limit=200)
            g[i, j] = g[j, i] = val
    return u @ (g * at) @ u.conj().T


def error_probability_by_quadrature(probs, states, n: int, m: int, kind: str) -> float:
    """Mean error probability over all full-rank binary n x m hash matrices,
    with decoder elements from operator division by quadrature."""
    strings = list(itertools.product((0, 1), repeat=n))
    members = [h for h in (np.array(f).reshape(n, m)
                           for f in itertools.product((0, 1), repeat=n * m))
               if _gf2_rank(h) == m]
    p_n = {x: float(np.prod([probs[s] for s in x])) for x in strings}
    if kind == "fully-universal":
        def weight(x):
            counts = np.bincount(x, minlength=2) / n
            return 2.0 ** (-n * _shannon(counts))
    else:
        weight = p_n.get
    sig = {x: string_state(x) for x in strings}
    rho = {}
    for x in strings:
        r = np.eye(1)
        for s in x:
            r = np.kron(r, states[s])
        rho[x] = r
    total = 0.0
    for h in members:
        bins: dict[tuple, list] = {}
        for x in strings:
            bins.setdefault(tuple(np.array(x) @ h % 2), []).append(x)
        for pre in bins.values():
            denom = sum(weight(y) * sig[y] for y in pre)
            for x in pre:
                y_x = divide_by_quadrature(weight(x) * sig[x], denom)
                total += p_n[x] * (1.0 - float(np.trace(rho[x] @ y_x).real))
    return total / len(members)
