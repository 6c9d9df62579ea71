"""Convex optimization kernels: a self-contained log-barrier interior-point
solver for linear SDPs with certified dual bounds, concave entropy objectives
with Frechet-derivative gradients, sequential linearization (outer
approximation) for maximizing concave objectives over SDP feasible sets, and
the exact tilted projection of a distribution onto a halfspace.  Sequential
linearization is the one optimizer loop: a classical divergence minimized
over a state set is handed to it as the concave objective -min_p D(p||q(rho)).

All certified bounds are one-sided in the safe direction: SDP maximizations
report a dual upper bound, sequential linearization reports the minimum of
accumulated linearized upper bounds together with the best feasible value.

One barrier-Newton core, `_center`, serves both phase one and the SDP solve:
damped Newton steps on a linear objective plus mu times the log-barrier of
a linear matrix inequality and linear slacks, under linear equalities.  Each
step is 0.98 of the largest step that stays strictly feasible, capped at a
full Newton step; `_max_step` finds that step in closed form from the
inverse Cholesky factor that `_center` already computed for the Newton
system.

Phase one runs once per feasible set: a `FeasibleSet` keeps its strictly
feasible point, and every SDP solve and linearization on that same object
starts from it.  Linearization changes only the objective, so the feasible
set, and with it the starting point, stays fixed for a whole run.
`sequential_linearization` solves on the set's facial-reduction face, which
the set also keeps, so maximizations on one set share the reduced set and
its phase-one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import DomainError, InfeasibleError, UsageError
from .matfun import frechet_derivative, herm_eig, mpow

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Hermitian <-> real-vector coordinates
# ---------------------------------------------------------------------------


def herm_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of d x d Hermitian matrices.

    Returned as an array of shape (d*d, d, d); coordinates of Hermitian M are
    Tr[B_k M], all real.
    """
    out = np.zeros((d * d, d, d), dtype=complex)
    k = 0
    s = 1.0 / math.sqrt(2.0)
    for i in range(d):
        out[k, i, i] = 1.0
        k += 1
    for i in range(d):
        for j in range(i + 1, d):
            out[k, i, j] = s
            out[k, j, i] = s
            k += 1
            out[k, i, j] = -1j * s
            out[k, j, i] = 1j * s
            k += 1
    return out


def mat_to_vec(M: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("kij,ji->k", basis, M).real


def vec_to_mat(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("k,kij->ij", v, basis)


# ---------------------------------------------------------------------------
# Feasible sets and facial reduction
# ---------------------------------------------------------------------------


@dataclass
class FeasibleSet:
    """{rho >= 0 : Tr[rho] = trace, Tr[A rho] = b, Tr[E rho] <= f}.

    Treated as immutable once solved: the phase-one point is cached on the
    object.
    """

    dim: int
    eq: list = field(default_factory=list)  # (matrix, value)
    ineq: list = field(default_factory=list)  # (matrix, upper bound)
    trace: float = 1.0

    @cached_property
    def interior_point(self) -> tuple[np.ndarray, np.ndarray]:
        """Strictly feasible (rho, basis coordinates of rho) from phase one,
        computed on first use and read-only.  A set that phase one rejects
        raises InfeasibleError on every access."""
        rho, x = _phase_one(self, herm_basis(self.dim))
        rho.flags.writeable = False
        x.flags.writeable = False
        return rho, x

    @cached_property
    def face(self) -> tuple[FeasibleSet, np.ndarray]:
        """(reduced set, isometry V) from `facial_reduce`, computed on first
        use and read-only; the reduced set is this object when no
        constraint forces a face."""
        red, V = facial_reduce(self)
        V.flags.writeable = False
        return red, V


def facial_reduce(fs: FeasibleSet) -> tuple[FeasibleSet, np.ndarray]:
    """Restrict to the face forced by constraints Tr[M rho] <= 0 with M >= 0.

    Such a constraint pins supp(rho) to ker(M).  Returns the reduced set and
    the isometry V with rho = V rho' V^dag; iterates until no reduction fires.
    Eigenvalues within 1e-11 of zero count as zero.
    """
    tol = 1e-11
    V = np.eye(fs.dim, dtype=complex)
    cur = fs
    while True:
        kern = None
        drop = None
        # inequality Tr[M rho] <= 0 with M >= 0, and equality Tr[M rho] = b
        # shifted by the trace constraint to Tr[(M - (b/tau) I) rho] = 0: if
        # the shifted operator is semidefinite, the face is its kernel.  A
        # positive bound, however small, admits states off ker(M): reducing on
        # it would shrink the set, lower the entropy maximum and inflate the key
        scan = [(idx, np.asarray(M, dtype=complex), "ineq") for idx, (M, ub) in
                enumerate(cur.ineq) if ub <= 0.0]
        for idx, (M, b) in enumerate(cur.eq):
            N = np.asarray(M, dtype=complex) - (b / cur.trace) * np.eye(cur.dim)
            scan.append((idx, N, "eq"))
            scan.append((idx, -N, "eq"))
        for idx, M, kind in scan:
            lam, U = herm_eig(M)
            if lam.min() >= -tol:
                keep = lam <= tol
                if keep.sum() == 0:
                    raise InfeasibleError(
                        "facial reduction leaves an empty face", constraint_index=idx
                    )
                if keep.sum() == cur.dim and kind == "ineq":
                    continue  # vacuous, nothing to reduce or drop here
                kern = U[:, keep]
                drop = (kind, idx)
                break
        if kern is None:
            return cur, V
        red = lambda M: kern.conj().T @ np.asarray(M, dtype=complex) @ kern
        cur = FeasibleSet(
            dim=kern.shape[1],
            eq=[
                (red(A), b)
                for j, (A, b) in enumerate(cur.eq)
                if drop != ("eq", j)
            ],
            ineq=[
                (red(E), f)
                for j, (E, f) in enumerate(cur.ineq)
                if drop != ("ineq", j)
            ],
            trace=cur.trace,
        )
        V = V @ kern


# ---------------------------------------------------------------------------
# Linear SDP via log-barrier interior point
# ---------------------------------------------------------------------------


@dataclass
class SdpResult:
    rho: np.ndarray
    primal: float
    dual_bound: float  # certified: optimum <= dual_bound

    @property
    def gap(self) -> float:
        return self.dual_bound - self.primal


def _assemble(fs: FeasibleSet, basis: np.ndarray):
    d = fs.dim
    eq_mats = [np.eye(d, dtype=complex)] + [np.asarray(A, dtype=complex) for A, _ in fs.eq]
    b = np.array([fs.trace] + [float(v) for _, v in fs.eq])
    Aeq = np.array([mat_to_vec(A, basis) for A in eq_mats])
    in_mats = [np.asarray(E, dtype=complex) for E, _ in fs.ineq]
    f = np.array([float(v) for _, v in fs.ineq])
    Evec = (
        np.array([mat_to_vec(E, basis) for E in in_mats])
        if in_mats
        else np.zeros((0, d * d))
    )
    return eq_mats, Aeq, b, in_mats, Evec, f


def _newton_equality(Hm, g, Aeq, resid):
    n = Hm.shape[0]
    m = Aeq.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = Hm + 1e-13 * np.eye(n)
    K[:n, n:] = Aeq.T
    K[n:, :n] = Aeq
    rhs = np.concatenate([-g, resid])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[:n]


def _max_step(Linv, dM, t, dt):
    """Largest step a in (0, 1] keeping M + a dM > 0 and t + a dt > 0, in
    closed form from the inverse Cholesky factor Linv of M = L L^dag:
    M + a dM = L (I + a Linv dM Linv^dag) L^dag."""
    a = 1.0
    lam = np.linalg.eigvalsh(Linv @ dM @ Linv.conj().T)[0]
    if lam < 0.0:
        a = min(a, -1.0 / lam)
    shrink = dt < 0.0
    if shrink.any():
        a = min(a, float((t[shrink] / -dt[shrink]).min()))
    return a


def _center(c, lmi, y, mu, Aeq, b, G, g):
    """Damped Newton steps on

        max c.y + mu (log det M(y) + sum_j log(g - G y)_j)  s.t.  Aeq y = b,

    with M(y) = sum_k y_k lmi[k], from y with M(y) > 0 and g - G y > 0,
    until the squared Newton decrement is below 1e-16 (at most 100 steps)
    or a step would end where M(y) no longer has a Cholesky factor; returns
    the centred y."""
    n, d, _ = lmi.shape
    flat = lmi.reshape(n, d * d)
    L = np.linalg.cholesky((y @ flat).reshape(d, d))
    for _ in range(100):
        t = g - G @ y
        # whitened constraint matrices K_k = L^-1 lmi[k] L^-dag, M = L L^dag:
        # Tr[lmi[k] M^-1] = Tr[K_k], Tr[lmi[k] M^-1 lmi[l] M^-1] = Tr[K_k K_l]
        Linv = np.linalg.inv(L)
        K = (Linv @ lmi @ Linv.conj().T).reshape(n, d * d)
        grad = -c - mu * (K[:, :: d + 1].sum(axis=1).real - G.T @ (1.0 / t))
        H = mu * ((K @ K.conj().T).real + (G.T / t**2) @ G)
        dy = _newton_equality(H, grad, Aeq, b - Aeq @ y)
        dec2 = float(dy @ (H @ dy))
        step = 0.98 * _max_step(Linv, (dy @ flat).reshape(d, d), t, -G @ dy) * dy
        try:
            L = np.linalg.cholesky(((y + step) @ flat).reshape(d, d))
        except np.linalg.LinAlgError:
            break  # rounding leaves the step's end numerically singular
        y = y + step
        if dec2 < 1e-16:
            break
    return y


def _phase_one(fs: FeasibleSet, basis: np.ndarray):
    """Maximize s with rho - s I >= 0, slack_j >= s; returns strictly feasible
    rho or raises InfeasibleError with the most violated constraint index."""
    d = fs.dim
    _, Aeq, b, _, Evec, f = _assemble(fs, basis)
    x = np.linalg.lstsq(Aeq, b, rcond=None)[0]
    if np.abs(Aeq @ x - b).max() > 1e-9 * max(1.0, np.abs(b).max()):
        raise InfeasibleError("equality constraints are inconsistent", constraint_index=0)
    lam_min = herm_eig(vec_to_mat(x, basis))[0].min()
    s = min(lam_min, (f - Evec @ x).min(initial=lam_min)) - 1.0
    scale = max(1.0, np.abs(b).max(), np.abs(f).max(initial=0.0))
    # a set whose smallest positive bound is below 1e-9 * scale (p = 0 at
    # large n) still has strictly feasible points, with slacks below that bound
    target = min(1e-9 * scale, 1e-3 * f[f > 0].min(initial=np.inf))

    # y = (x, s): M(y) = rho - s I and slacks f - Evec x - s
    lmi = np.concatenate([basis, -np.eye(d, dtype=complex)[None]])
    Aext = np.hstack([Aeq, np.zeros((len(b), 1))])
    G = np.hstack([Evec, np.ones((len(f), 1))])
    c = np.zeros(len(lmi))
    c[-1] = 1.0
    y = np.append(x, s)
    mu = max(1.0, abs(s))
    while mu > 1e-14 * scale and y[-1] <= 10 * target:
        y = _center(c, lmi, y, mu, Aext, b, G, f)
        mu *= 0.2
    x, s = y[:-1], y[-1]
    rho = vec_to_mat(x, basis)
    if s <= target:
        viol = -np.inf
        idx = -1
        if len(f):
            slack = f - Evec @ x
            idx = int(np.argmin(slack))
            viol = -slack[idx]
        if herm_eig(rho)[0].min() < -abs(viol):
            idx = -1
        raise InfeasibleError(
            "no strictly feasible point (phase-1 optimum <= 0)", constraint_index=idx
        )
    return rho, x


def solve_linear_sdp(
    C: np.ndarray,
    fs: FeasibleSet,
    gap_tol: float = 1e-7,
) -> SdpResult:
    """Maximize Tr[C rho] over the feasible set, with a certified dual bound.

    The trace constraint is always active, so the dual matrix can be shifted
    along the identity to repair tiny negative eigenvalues; the reported
    dual_bound accounts for the shift and satisfies optimum <= dual_bound.
    """
    C = np.asarray(C, dtype=complex)
    basis = herm_basis(fs.dim)
    eq_mats, Aeq, b, in_mats, Evec, f = _assemble(fs, basis)
    cvec = mat_to_vec(C, basis)
    x = fs.interior_point[1]

    scale = max(1.0, np.abs(herm_eig(C)[0]).max())
    mu = scale
    best = None  # (gap, SdpResult); dual bounds stay valid across mu values
    while True:
        x = _center(cvec, basis, x, mu, Aeq, b, Evec, f)
        rho = vec_to_mat(x, basis)
        # dual candidate from barrier multipliers
        nu = mu / (f - Evec @ x)
        lam_use = _dual_from_kkt(C, Aeq, in_mats, nu, rho, mu, basis)
        Z = -C + sum(l * A for l, A in zip(lam_use, eq_mats))
        for j, E in enumerate(in_mats):
            Z = Z + nu[j] * E
        zmin = herm_eig(Z)[0].min()
        shift = max(0.0, -zmin) + 1e-15 * scale
        lam_use[0] += shift  # eq index 0 is the trace constraint
        dual = float(lam_use @ b + nu @ f)
        primal = float(cvec @ x)
        cand = SdpResult(rho, primal, dual)
        if best is not None:  # earlier dual bounds remain certified
            cand.dual_bound = min(cand.dual_bound, best[1].dual_bound)
        gap = cand.dual_bound - cand.primal
        if best is None or gap < best[0]:
            best = (gap, cand)
        if best[0] <= gap_tol * scale:
            return best[1]
        if mu < 1e-12 * scale:
            # numerical floor of the central path; return the best certified
            # answer if it is close, otherwise give up loudly
            if best[0] <= 100 * gap_tol * scale:
                return best[1]
            raise DomainError(
                f"interior-point solver stalled with duality gap {best[0]:.3e}"
            )
        mu *= 0.1


def _dual_from_kkt(C, Aeq, in_mats, nu, rho, mu, basis):
    """Least-squares equality multipliers making Z ~ mu rho^{-1} >= 0.

    A numerically singular rho falls back to the pseudo-inverse on its
    support; the caller's identity shift keeps the dual bound certified."""
    try:
        rho_inv = np.linalg.inv(rho)
    except np.linalg.LinAlgError:
        rho_inv = mpow(rho, -1.0)
    target = C + mu * rho_inv
    for j, E in enumerate(in_mats):
        target = target - nu[j] * E
    lam, *_ = np.linalg.lstsq(Aeq.T, mat_to_vec(target, basis), rcond=None)
    return lam


# ---------------------------------------------------------------------------
# Entropic objectives (concave in the state)
# ---------------------------------------------------------------------------


def pinch(sigma: np.ndarray, projectors: list[np.ndarray]) -> np.ndarray:
    return sum(P @ sigma @ P for P in projectors)


def renyi_objective_and_gradient(
    sigma: np.ndarray,
    alpha: float,
    projectors: list[np.ndarray],
    log_alphabet: float,
) -> tuple[float, np.ndarray]:
    """Concave reformulation of the order-(1-alpha) conditional Renyi entropy
    of the pinching outcome given the quantum system,

        f(sigma) = log|X| + ((1-a)/a) log2 Tr[(P(sigma^{1-a}))^{1/(1-a)}],

    for alpha in (0, 1), valid for subnormalized sigma >= 0.  Returns the
    value in bits and the (Hermitian) gradient so that
    f(sigma + D) ~= f(sigma) + Tr[grad D].
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie strictly inside (0, 1)")
    beta = 1.0 - alpha
    sig_b = mpow(sigma, beta)
    T = pinch(sig_b, projectors)
    T = 0.5 * (T + T.conj().T)
    lamT, UT = herm_eig(T)
    lamT = np.clip(lamT, 1e-300, None)
    g = float(np.sum(lamT ** (1.0 / beta)))
    value = log_alphabet + (beta / alpha) * math.log2(g)
    # dG = Tr[(1/beta) T^{1/beta - 1} P(d sigma^beta)]
    W = UT @ np.diag(lamT ** (1.0 / beta - 1.0)) @ UT.conj().T
    inner = pinch(W, projectors)  # pinching is self-adjoint
    fd = frechet_derivative(
        lambda t: np.power(t, beta),
        lambda t: beta * np.power(t, beta - 1.0),
        _floor_state(sigma),
        inner,
    )
    grad = fd / (alpha * LN2 * g)
    return value, 0.5 * (grad + grad.conj().T)


def _floor_state(sigma: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    lam, U = herm_eig(sigma)
    lam = np.clip(lam, floor, None)
    return U @ np.diag(lam) @ U.conj().T


def von_neumann_objective_and_gradient(
    sigma: np.ndarray,
    projectors: list[np.ndarray],
    log_alphabet: float,
) -> tuple[float, np.ndarray]:
    """alpha -> 0 limit of the Renyi objective:

        f(sigma) = log|X| - [H(P(sigma)) - H(sigma)]  (bits),

    i.e. log|X| minus the pinching relative entropy; concave with gradient
    P(log2 P(sigma)) - log2(sigma).
    """
    s = _floor_state(sigma)
    Ps = _floor_state(pinch(s, projectors))
    lam_s, U_s = herm_eig(s)
    lam_p, U_p = herm_eig(Ps)
    H_s = float(-np.sum(lam_s * np.log2(lam_s)))
    H_p = float(-np.sum(lam_p * np.log2(lam_p)))
    value = log_alphabet - (H_p - H_s)
    log_s = U_s @ np.diag(np.log2(lam_s)) @ U_s.conj().T
    log_p = U_p @ np.diag(np.log2(lam_p)) @ U_p.conj().T
    grad = pinch(log_p, projectors) - log_s
    return value, 0.5 * (grad + grad.conj().T)


# ---------------------------------------------------------------------------
# Sequential linearization / fully-corrective Frank-Wolfe
# ---------------------------------------------------------------------------


@dataclass
class MaximizeResult:
    value: float  # best feasible (lower) value
    upper_bound: float  # certified upper bound on the optimum
    sigma: np.ndarray
    iterations: int
    stop: str  # "converged", "sdp_floor" or "max_outer"

    @property
    def gap(self) -> float:
        return self.upper_bound - self.value


def _fcfw_step(objective, atoms, weights, vertex):
    """One fully-corrective Frank-Wolfe step: append the oracle vertex and
    re-solve all weights over the simplex, maximizing
    objective(sum_i w_i atom_i) with the weight gradient Tr[G A_i] taken
    from the objective's own gradient G.  Dead atoms are pruned."""
    atoms = atoms + [np.asarray(vertex, dtype=complex)]
    stack = np.array(atoms)
    k = len(atoms)

    def neg(w):
        val, grad = objective(np.einsum("i,ijk->jk", w, stack))
        return -val, -np.einsum("kj,ijk->i", grad, stack).real

    res = minimize(
        neg,
        np.concatenate([weights * (1.0 - 1e-2), [1e-2]]),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda w: np.sum(w) - 1.0,
                      "jac": lambda w: np.ones(k)}],
        options={"maxiter": 150, "ftol": 1e-13},
    )
    w = np.clip(res.x, 0.0, None)
    keep = w > 1e-12 * w.sum()
    return [a for a, kept in zip(atoms, keep) if kept], w[keep] / w[keep].sum()


def sequential_linearization(
    objective,
    fs: FeasibleSet,
    tol: float = 1e-8,
    max_outer: int = 50,
    sdp_gap_tol: float = 1e-7,
) -> MaximizeResult:
    """Maximize a concave objective(sigma) -> (value, gradient) over an SDP
    feasible set by outer linearization with fully-corrective Frank-Wolfe.

    The solve runs on the set's face (`FeasibleSet.face`): the objective
    sees V rho V^dag and returns V^dag G V, and the reported sigma is lifted
    back to the full space.

    By concavity every linearization gives a certified upper bound
    f* <= f(s_k) + max_feasible Tr[G_k (s - s_k)], evaluated with the SDP
    dual bound; the reported upper bound is the running minimum.  The atoms
    start at the set's phase-one point, and iterates are kept strictly
    positive by mixing in 1e-9 (trace/d) I.

    Each bound is f(s_k) + (primal - Tr[G_k s_k]) + gap, with primal and gap
    those of the SDP certificate.  Further iterations can shrink only the
    Frank-Wolfe part (primal - Tr[G_k s_k]), not the certificate's own gap
    (about sdp_gap_tol * max(1, ||G_k||)), so the loop stops once
    upper - best <= max(tol, 2 sdp_gap_tol) + gap.  `stop` records why:
    "converged" when the test holds without the gap term, "sdp_floor" when
    only the gap term meets it, "max_outer" when the iterations ran out.
    """
    red, V = fs.face
    on_face = red.dim < fs.dim
    if on_face:
        on_full_space = objective

        def objective(rho):
            val, grad = on_full_space(V @ rho @ V.conj().T)
            return val, V.conj().T @ grad @ V

    fs = red
    mix = 1e-9
    eye = np.eye(fs.dim, dtype=complex) * (fs.trace / fs.dim)
    atoms = [fs.interior_point[0]]
    weights = np.array([1.0])
    upper = math.inf
    best_val = -math.inf
    best_sigma = atoms[0]
    stop_tol = max(tol, 2.0 * sdp_gap_tol)
    stop = "max_outer"
    for it in range(1, max_outer + 1):
        sigma = np.einsum("i,ijk->jk", weights, np.array(atoms))
        sig_reg = (1.0 - mix) * sigma + mix * eye
        val, grad = objective(sig_reg)
        if val > best_val:
            best_val, best_sigma = val, sig_reg
        res = solve_linear_sdp(grad, fs, gap_tol=sdp_gap_tol)
        lin_upper = val + (res.dual_bound - float(np.trace(grad @ sig_reg).real))
        upper = min(upper, lin_upper)
        if upper - best_val <= stop_tol:
            stop = "converged"
            break
        if upper - best_val <= stop_tol + max(res.gap, 0.0):
            stop = "sdp_floor"
            break
        atoms, weights = _fcfw_step(objective, atoms, weights, res.rho)
    if on_face:
        best_sigma = V @ best_sigma @ V.conj().T
    return MaximizeResult(value=best_val, upper_bound=upper, sigma=best_sigma,
                          iterations=it, stop=stop)


# ---------------------------------------------------------------------------
# Classical divergence projection
# ---------------------------------------------------------------------------


def tilted_projection(q: np.ndarray, gamma: np.ndarray, c: float):
    """min_p D(p||q) over the halfspace <gamma, p> >= c (p a distribution).

    The minimizer is the exponential tilting p_t = q e^{t gamma} / Z(t) with
    the smallest t >= 0 meeting the constraint, located to within 1e-13.
    Returns (p, D in bits).
    """
    tol = 1e-13
    q = np.asarray(q, dtype=float)
    if q.min() < -1e-14:
        raise DomainError("reference distribution has negative entries")
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    gamma = np.asarray(gamma, dtype=float)

    def mean(t):
        w = q * np.exp(t * (gamma - gamma.max()))
        p = w / w.sum()
        return p

    if float(gamma @ q) >= c - tol:
        return q.copy(), 0.0
    sup = gamma[q > 0].max()
    if sup < c - tol:
        raise DomainError("halfspace unreachable from the support of q")
    hi = 1.0
    # cap t by the scale of gamma: the tilt acts through t * gamma only
    t_cap = 1e8 / np.ptp(gamma)
    while float(gamma @ mean(hi)) < c and hi < t_cap:
        hi *= 2.0
    if float(gamma @ mean(hi)) < c:
        raise DomainError("tilting failed to reach the halfspace boundary")
    t = brentq(lambda t: float(gamma @ mean(t)) - c, 0.0, hi, xtol=tol)
    p = mean(t)
    mask = p > 0
    div = float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))
    return p, div


def divergence_bits(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))
