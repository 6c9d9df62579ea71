"""Convex optimization kernels: a self-contained primal-dual interior-point
solver for linear SDPs with certified dual bounds, concave entropy objectives
whose value and Frechet-derivative gradient share one eigendecomposition of
each matrix, two certified maximizers of concave objectives over SDP
feasible sets, and the exact tilted projection of a distribution onto a
halfspace.  Sequential linearization (outer approximation with
fully-corrective Frank-Wolfe) takes any objective with a gradient;
`maximize_on_path` takes an objective of a few linear functionals
Tr[O_i rho] with its closed-form curvature, such as the classical divergence
-min_p D(p||q(rho)) of a state set, and follows the interior-point path on
it, which reaches a gap of 1e-13 in under 20 steps where Frank-Wolfe stalls
on curved faces.

All certified bounds are one-sided in the safe direction: SDP maximizations
report a dual upper bound, and both maximizers report a certified upper
bound from the linearization at their own iterates together with the best
feasible value.

One primal-dual path-following core, `_path`, serves phase one, the SDP
solve and `maximize_on_path`: HKM directions with Mehrotra's
predictor-corrector, which carry the dual multipliers (lam, nu) and the dual
matrix Z as iterates, so every iterate has a dual to certify.  Each step is
`_step`, 0.98 of the largest step that stays strictly feasible and at most
the full step 1, and `_boundary_step` finds that largest step in closed form
from the Cholesky factors the Newton system already used.  What certifies a
bound is the dual iterate itself: `_dual_bound` clips nu at 0 and shifts the
trace multiplier along the identity until Z >= 0, so weak duality holds for
any multipliers.  The path aims at the requested gap and no deeper: its
centring target never asks for less complementarity than half of
gap_tol * scale, which keeps the returned primal point off the PSD boundary
by about as much as that gap allows.

Phase one runs once per feasible set: a `FeasibleSet` keeps its strictly
feasible point rho0, and every SDP solve and maximization on that same
object starts from it; the path runs in the coordinates S^-1 rho S^-1,
S = rho0^(1/2), where its start is the identity.  Linearization changes only
the objective, so the feasible set, and with it the starting point, stays
fixed for a whole run.
Both maximizers reach the set's facial-reduction face the same way,
through `_on_face`; the set keeps its face, so maximizations on one set
share the reduced set and its phase-one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_solve
from scipy.optimize import brentq, minimize

from .errors import DomainError, InfeasibleError, UsageError
from .matfun import eig_pow, frechet_derivative, herm_eig

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
# Linear SDP via primal-dual path following
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


def _boundary_step(Linv, dM, v, dv):
    """Largest a > 0 keeping M + a dM > 0 and v + a dv > 0 (inf when no
    boundary lies ahead), in closed form from the inverse Cholesky factor
    Linv of M = L L^dag: M + a dM = L (I + a Linv dM Linv^dag) L^dag."""
    a = math.inf
    lam = np.linalg.eigvalsh(Linv @ dM @ Linv.conj().T)[0]
    if lam < 0.0:
        a = -1.0 / lam
    shrink = dv < 0.0
    if shrink.any():
        a = min(a, float((v[shrink] / -dv[shrink]).min()))
    return a


def _step(a_max):
    """The step the path takes when a_max is the largest one that stays
    strictly feasible: 0.98 of it, and never more than the full step 1."""
    return min(1.0, 0.98 * a_max)


def _schur_factor(H, G, w, Aeq):
    """LU factors of the Newton system in (dy, dnu, dlam),

        [[H, G^T, Aeq^T], [G, -diag(w), 0], [Aeq, 0, 0]],

    with w = t / nu, equilibrated by the symmetric diagonal scaling D that
    gives H unit diagonal, the w block -1 and each row of Aeq D unit norm.
    Keeping dnu as an unknown, rather than folding G^T diag(1/w) G into H,
    keeps a slack near 0 from swamping H.  Returns (LU, D), which the
    predictor and the corrector both solve with, or None when a pivot is
    exactly zero (the system is singular, as on a flat optimum)."""
    n, k, m = H.shape[0], len(w), Aeq.shape[0]
    D = np.empty(n + k + m)
    D[:n] = 1.0 / np.sqrt(np.maximum(np.diag(H), 1e-300))
    D[n:n + k] = 1.0 / np.sqrt(w)
    D[n + k:] = 1.0 / np.maximum(np.linalg.norm(Aeq * D[:n], axis=1), 1e-300)
    K = np.zeros((n + k + m, n + k + m))
    K[:n, :n] = H
    K[:n, n:n + k] = G.T
    K[n:n + k, :n] = G
    K[n:n + k, n:n + k] = -np.diag(w)
    K[:n, n + k:] = Aeq.T
    K[n + k:, :n] = Aeq
    K = D[:, None] * K * D
    getrf, = get_lapack_funcs(("getrf",), (K,))
    lu, piv, info = getrf(K, overwrite_a=True)
    return ((lu, piv), D) if info == 0 else None


def _path(objective, F, Aeq, b, G, g, y, lam, nu, aim):
    """Primal-dual path following for

        max phi(y)  s.t.  Aeq y = b,  M(y) = sum_k y_k F_k >= 0,  G y <= g,

    phi concave, and the dual of its linearization, min b.lam + g.nu s.t.
    Aeq^T lam + G^T nu - c = F*(Z), Z >= 0, nu >= 0, with c = grad phi(y)
    and F*(Z)_k = Tr[F_k Z].  `objective(y)` returns (c, -hess phi(y)), the
    second None for a linear phi.  The first d*d matrices F_k must be an
    orthonormal basis of the d x d Hermitian matrices.  From a strictly
    feasible y and (lam, nu) with Z = sum_{k < d*d} (Aeq^T lam + G^T nu -
    c)_k F_k > 0 it yields the start and then each iterate as (y, lam, nu).

    For a linear phi, Z stays that function of the multipliers, so every
    iterate meets those rows of the dual constraint exactly, and the path
    stops once the complementarity Tr[M Z] + t.nu (t = g - G y), the
    duality gap of a feasible pair, is at most `aim`.  For a curved phi, c
    moves with y, so Z is an iterate of its own and the Newton step also
    removes the dual residual Aeq^T lam + G^T nu - c - F*(Z), whose next
    value is second order in the step; the caller stops that path on its
    own certified gap.  Either path also ends when a step collapses, when
    the Newton system is singular (a curved path that wanders along a flat
    optimum gets there), or after 50 steps.

    Each step is the HKM direction (Helmberg, Rendl, Vanderbei & Wolkowicz
    1996) with Mehrotra's predictor-corrector.  With the whitened
    P_k = L_M^-1 F_k L_Z of the Cholesky factors M = L_M L_M^dag and
    Z = L_Z L_Z^dag, the matrix block of the Newton system is
    H = Re Tr[P_k^dag P_l] - hess phi; the slacks enter through
    `_schur_factor`.  The centring target sigma mu never aims below
    complementarity aim/2: sigma = max(sigma_Mehrotra, aim / (2 m mu)),
    m = d + len(g), so the path goes no deeper than the requested gap.
    Each step is `_step` of the largest one that stays strictly feasible,
    found in closed form (`_boundary_step`) from the same Cholesky factors;
    a curved phi takes one step length for y and the multipliers.
    """
    n, d, _ = F.shape
    flat = F.reshape(n, d * d)
    m, k = d + len(g), len(g)
    eye = np.eye(d)

    def dual_matrix(w):
        return (w[: d * d] @ flat[: d * d]).reshape(d, d)

    c, Hc = objective(y)
    Z = dual_matrix(Aeq.T @ lam + G.T @ nu - c)
    yield y, lam, nu
    for _ in range(50):
        M = (y @ flat).reshape(d, d)
        t = g - G @ y
        try:
            LM_inv = np.linalg.inv(np.linalg.cholesky(M))
            LZ = np.linalg.cholesky(Z)
        except np.linalg.LinAlgError:
            return  # rounding left an iterate numerically singular
        gap = float((M * Z.T).sum().real + t @ nu)
        if gap <= aim and Hc is None:
            return  # a curved path also has a dual residual; its caller stops it
        mu = gap / m
        LZ_inv = np.linalg.inv(LZ)
        M_inv = LM_inv.conj().T @ LM_inv
        P = (LM_inv @ F @ LZ).reshape(n, d * d).view(np.float64)
        H = P @ P.T if Hc is None else P @ P.T + Hc
        factored = _schur_factor(H, G, t / nu, Aeq)
        if factored is None:
            return  # the Newton system is singular: no direction to take
        K_lu, D = factored
        r = np.concatenate([c - Aeq.T @ lam - G.T @ nu, t, b - Aeq @ y])
        if Hc is not None:  # Z lags the gradient, which moved with y
            Rd = dual_matrix(Aeq.T @ lam + G.T @ nu - c) - Z

        def direction(Rc, rc):
            # Newton step towards M Z = Rc, t nu = rc (0 for the affine
            # predictor)
            rhs = r.copy()
            rhs[:n] += (flat @ (M_inv @ Rc).T.ravel()).real
            rhs[n:n + k] -= rc / nu
            sol = D * lu_solve(K_lu, D * rhs, check_finite=False)
            dy, dnu, dlam = sol[:n], sol[n:n + k], sol[n + k:]
            dM = (dy @ flat).reshape(d, d)
            dt = -G @ dy
            dw = Aeq.T @ dlam + G.T @ dnu
            dZ = dual_matrix(dw) if Hc is None else dual_matrix(dw + Hc @ dy) + Rd
            a_p = _step(_boundary_step(LM_inv, dM, t, dt))
            a_d = _step(_boundary_step(LZ_inv, dZ, nu, dnu))
            if Hc is not None:
                a_p = a_d = min(a_p, a_d)
            return dy, dlam, dnu, dZ, dM, dt, a_p, a_d

        _, _, dnu, dZ, dM, dt, a_p, a_d = direction(0.0 * eye, 0.0 * t)
        mu_aff = float(((M + a_p * dM) * (Z + a_d * dZ).T).sum().real
                       + (t + a_p * dt) @ (nu + a_d * dnu)) / m
        sigma = min(1.0, max((mu_aff / mu) ** 3, aim / (2.0 * m * mu)))
        dy, dlam, dnu, dZ, _, _, a_p, a_d = direction(
            sigma * mu * eye - dM @ dZ, sigma * mu - dt * dnu)
        if max(a_p, a_d) < 1e-12 or not np.isfinite(dy).all():
            return  # the step collapsed, or the Newton system is near singular
        y = y + a_p * dy
        lam, nu, Z = lam + a_d * dlam, nu + a_d * dnu, Z + a_d * dZ
        c, Hc = objective(y)
        yield y, lam, nu


def _phase_one(fs: FeasibleSet, basis: np.ndarray):
    """Maximize s with rho - s I >= 0, slack_j >= s; returns strictly feasible
    rho or raises InfeasibleError with the most violated constraint index.

    Runs `_path` on y = (x, s), F = basis + {-I}, from a least-squares x
    and a dual on the trace row, and stops at the first iterate with
    s > 10 target that holds at least half of the largest margin (its gap
    to the dual objective is at most s), so the SDP solves start well inside
    the set."""
    d = fs.dim
    _, Aeq, b, in_mats, Evec, f = _assemble(fs, basis)
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
    F = np.concatenate([basis, -np.eye(d, dtype=complex)[None]])
    Aext = np.hstack([Aeq, np.zeros((len(b), 1))])
    G = np.hstack([Evec, np.ones((len(f), 1))])
    c = np.zeros(len(F))
    c[-1] = 1.0
    # dual on the trace row, Z = lam_0 I + sum_j nu_j E_j with the s row's
    # Tr[Z] + sum_j nu_j = 1: this nu keeps sum_j nu_j (1 + |Tr E_j|) and
    # d ||sum_j nu_j E_j|| below 1/4, so Z >= I / (2d)
    norms = [1.0 + abs(np.trace(E).real) + d * np.abs(herm_eig(E)[0]).max() for E in in_mats]
    nu = np.full(len(f), 0.25 / sum(norms) if norms else 0.0)
    lam = np.zeros(len(b))
    lam[0] = (1.0 - nu.sum() - sum(v * np.trace(E).real for v, E in zip(nu, in_mats))) / d
    for y, lam, nu in _path(lambda y: (c, None), F, Aext, b, G, f, np.append(x, s), lam, nu,
                            1e-2 * target):
        if y[-1] > 10 * target and lam @ b + nu @ f - y[-1] <= y[-1]:
            break
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


def _dual_bound(C, eq_mats, b, in_mats, f, lam, nu, scale):
    """Certified upper bound on max Tr[C rho] from any multipliers: nu is
    clipped at 0 and the trace multiplier lam_0 shifted by
    max(0, -lambda_min(Z)) + 1e-15 scale, so that
    Z = -C + sum_i lam_i A_i + sum_j nu_j E_j >= 0 and weak duality holds."""
    nu = np.clip(nu, 0.0, None)
    Z = -C + np.einsum("i,ijk->jk", lam, eq_mats) + np.einsum("j,jkl->kl", nu, in_mats)
    shift = max(0.0, -np.linalg.eigvalsh(Z)[0]) + 1e-15 * scale
    return float(lam @ b + shift * b[0] + nu @ f)  # eq row 0 is the trace


def _whitening(fs: FeasibleSet):
    """The set's data for `_path` in the coordinates rho' = S^-1 rho S^-1,
    S = rho0^(1/2) for the phase-one point rho0, where the start is the
    identity: (basis, eq_mats, b, in_mats, f, S, whitened), whitened(mats)
    giving the basis coordinates of S A S for each A."""
    d = fs.dim
    basis = herm_basis(d)
    eq_mats, _, b, in_mats, _, f = _assemble(fs, basis)
    w, U = herm_eig(fs.interior_point[0])
    S = (U * np.sqrt(w)) @ U.conj().T

    def whitened(mats):
        return np.array([mat_to_vec(S @ A @ S, basis) for A in mats]).reshape(-1, d * d)

    return basis, np.array(eq_mats), b, np.array(in_mats).reshape(len(f), d, d), f, S, whitened


def _dual_start(C, in_mats, b, f, rho0, mu0):
    """A strictly feasible dual on the trace row for max Tr[C rho]: nu_j =
    mu0 / t_j for the slacks t_j of rho0, and lam_0 such that
    Z = -C + sum_j nu_j E_j + lam_0 I has lambda_min(Z) = mu0."""
    nu = mu0 / (f - np.einsum("jkl,lk->j", in_mats, rho0).real)
    lam = np.zeros(len(b))
    lam[0] = mu0 - herm_eig(-C + np.einsum("j,jkl->kl", nu, in_mats))[0].min()
    return lam, nu


def solve_linear_sdp(
    C: np.ndarray,
    fs: FeasibleSet,
    gap_tol: float = 1e-7,
) -> SdpResult:
    """Maximize Tr[C rho] over the feasible set, with a certified dual bound.

    Runs `_path` in the coordinates rho' = S^-1 rho S^-1, S = rho0^(1/2)
    for the set's phase-one point rho0 (`_whitening`), so the path starts at
    rho' = I and a set that is thin in some direction (p = 0 at large n)
    stays resolved in double precision.  The dual starts strictly feasible
    on the trace row (`_dual_start` with mu0 = 1e-2 scale).

    Every iterate's multipliers are certified by `_dual_bound` (nu clipped
    at 0, lam_0 shifted until Z >= 0), and the reported bound is the running
    minimum, so optimum <= dual_bound.  The path aims at the requested gap,
    gap_tol * scale with scale = max(1, ||C||), and stops there; a path that
    ends short of it returns its best answer when that is within 100 times
    the requested gap and raises DomainError otherwise.
    """
    C = np.asarray(C, dtype=complex)
    basis, eq_mats, b, in_mats, f, S, whitened = _whitening(fs)
    scale = max(1.0, np.abs(herm_eig(C)[0]).max())
    tol = gap_tol * scale
    Aeq, Evec, (cvec,) = whitened(eq_mats), whitened(in_mats), whitened([C])
    lam, nu = _dual_start(C, in_mats, b, f, fs.interior_point[0], 1e-2 * scale)
    x = mat_to_vec(np.eye(fs.dim), basis)
    best = None  # dual bounds stay valid along the whole path
    for x, lam, nu in _path(lambda x: (cvec, None), basis, Aeq, b, Evec, f, x, lam, nu, tol):
        dual = _dual_bound(C, eq_mats, b, in_mats, f, lam, nu, scale)
        if best is not None:
            dual = min(dual, best.dual_bound)
        cand = SdpResult(S @ vec_to_mat(x, basis) @ S, float(cvec @ x), dual)
        if best is None or cand.gap < best.gap:
            best = cand
        if best.gap <= tol:
            return best
    # the path ended short of the requested gap; return the best certified
    # answer if it is close, otherwise give up loudly
    if best.gap <= 100 * tol:
        return best
    raise DomainError(f"interior-point solver stalled with duality gap {best.gap:.3e}")


# ---------------------------------------------------------------------------
# Entropic objectives (concave in the state)
# ---------------------------------------------------------------------------


def pinch(sigma: np.ndarray, projectors: list[np.ndarray]) -> np.ndarray:
    return sum(P @ sigma @ P for P in projectors)


def renyi_objective_and_gradient(
    sigma: np.ndarray,
    alpha: float,
    projectors: list[np.ndarray],
) -> tuple[float, np.ndarray]:
    """Concave reformulation of the order-(1-alpha) conditional Renyi entropy
    of the pinching outcome given the quantum system,

        f(sigma) = log|X| + ((1-a)/a) log2 Tr[(P(sigma^{1-a}))^{1/(1-a)}],

    with |X| = len(projectors), the pinching's outcome count, for alpha in
    (0, 1), valid for subnormalized sigma >= 0.  Returns the value in bits
    and the (Hermitian) gradient so that f(sigma + D) ~= f(sigma) + Tr[grad D].
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie strictly inside (0, 1)")
    beta = 1.0 - alpha
    lam, U = herm_eig(sigma)
    lamT, UT = herm_eig(pinch(eig_pow(lam, U, beta), projectors))
    lamT = np.clip(lamT, 1e-300, None)
    g = float(np.sum(lamT ** (1.0 / beta)))
    value = math.log2(len(projectors)) + (beta / alpha) * math.log2(g)
    # dG = Tr[(1/beta) T^{1/beta - 1} P(d sigma^beta)] (pinching is
    # self-adjoint); the Frechet derivative of sigma^beta takes sigma's
    # eigenvalues floored at 1e-12, as beta t^(beta-1) is unbounded at 0
    inner = pinch((UT * lamT ** (1.0 / beta - 1.0)) @ UT.conj().T, projectors)
    fd = frechet_derivative(lambda t: np.power(t, beta), lambda t: beta * np.power(t, beta - 1.0),
                            np.clip(lam, 1e-12, None), U, inner)
    grad = fd / (alpha * LN2 * g)
    return value, 0.5 * (grad + grad.conj().T)


def von_neumann_objective_and_gradient(
    sigma: np.ndarray,
    projectors: list[np.ndarray],
) -> tuple[float, np.ndarray]:
    """alpha -> 0 limit of the Renyi objective:

        f(sigma) = log|X| - [H(P(sigma)) - H(sigma)]  (bits),

    i.e. log|X| minus the pinching relative entropy, with |X| =
    len(projectors); concave with gradient P(log2 P(sigma)) - log2(sigma).
    sigma's eigenvalues are floored at 1e-12, and so are those of the
    pinching of the floored state; each is diagonalized once.
    """
    lam_s, U_s = herm_eig(sigma)
    lam_s = np.clip(lam_s, 1e-12, None)
    lam_p, U_p = herm_eig(pinch((U_s * lam_s) @ U_s.conj().T, projectors))
    lam_p = np.clip(lam_p, 1e-12, None)
    H_s = float(-np.sum(lam_s * np.log2(lam_s)))
    H_p = float(-np.sum(lam_p * np.log2(lam_p)))
    value = math.log2(len(projectors)) - (H_p - H_s)
    log_s = (U_s * np.log2(lam_s)) @ U_s.conj().T
    grad = pinch((U_p * np.log2(lam_p)) @ U_p.conj().T, projectors) - log_s
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
    stop: str  # "converged", "sdp_floor", "max_outer" or "stalled"
    # sequential_linearization's final Frank-Wolfe atoms (on the set's face)
    # and their weights, which can start another maximization on that set
    atoms: list | None = None
    weights: np.ndarray | None = None

    @property
    def gap(self) -> float:
        return self.upper_bound - self.value


def _on_face(objective, V):
    """The objective on the face rho = V rho' V^dag of a set: evaluated at
    V rho' V^dag, with the gradient (and the curvature K) pulled back by
    V^dag . V.  Both maximizers solve through it."""
    Vh = V.conj().T

    def on_face(rho):
        val, *mats = objective(V @ rho @ Vh)
        return (val, *(Vh @ M @ V for M in mats))

    return on_face


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
    start: tuple[list, np.ndarray] | None = None,
) -> MaximizeResult:
    """Maximize a concave objective(sigma) -> (value, gradient) over an SDP
    feasible set by outer linearization with fully-corrective Frank-Wolfe.

    The solve runs on the set's face (`FeasibleSet.face`) through
    `_on_face`, and the reported sigma is lifted back to the full space.

    By concavity every linearization gives a certified upper bound
    f* <= f(s_k) + max_feasible Tr[G_k (s - s_k)], evaluated with the SDP
    dual bound; the reported upper bound is the running minimum.  The atoms
    start at the set's phase-one point, or at `start`, the (atoms, weights)
    of an earlier result on this same set, such as a neighbouring Renyi
    order's; the bound holds from any start (Jaggi 2013), so a start changes
    only how many iterations run.  Atoms whose dimension is not the face's
    raise UsageError.  Iterates are kept strictly positive by mixing in
    1e-9 (trace/d) I.

    Each bound is f(s_k) + (primal - Tr[G_k s_k]) + gap, with primal and gap
    those of the SDP certificate.  Further iterations can shrink only the
    Frank-Wolfe part (primal - Tr[G_k s_k]), not the certificate's own gap
    (about sdp_gap_tol * max(1, ||G_k||)), so the loop stops once
    upper - best <= max(tol, 2 sdp_gap_tol) + gap.  `stop` records why:
    "converged" when the test holds without the gap term, "sdp_floor" when
    only the gap term meets it, "max_outer" when the iterations ran out.
    """
    fs, V = fs.face
    objective = _on_face(objective, V)
    mix = 1e-9
    eye = np.eye(fs.dim, dtype=complex) * (fs.trace / fs.dim)
    if start is None:
        atoms, weights = [fs.interior_point[0]], np.array([1.0])
    else:
        atoms, weights = list(start[0]), np.asarray(start[1], dtype=float)
        if len(atoms) != len(weights) or any(np.shape(a) != (fs.dim, fs.dim) for a in atoms):
            raise UsageError(f"a start needs one weight per atom and each atom on the "
                             f"set's {fs.dim}-dimensional face")
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
    return MaximizeResult(value=best_val, upper_bound=upper, sigma=V @ best_sigma @ V.conj().T,
                          iterations=it, stop=stop, atoms=atoms, weights=weights)


def maximize_on_path(objective, fs: FeasibleSet, gap_tol: float = 1e-7) -> MaximizeResult:
    """Maximize a smooth concave objective(rho) -> (value, gradient, K) over
    the set by following `_path` on the objective itself, with K an array of
    Hermitian matrices K_r giving the curvature: the second derivative along
    X is -sum_r Tr[K_r X]^2.  An objective of a few linear functionals
    Tr[O_i rho] has such a K with one matrix per functional, and then each
    step is a primal-dual Newton step on the objective itself and the path
    converges like a linear SDP's, where sequential linearization needs an
    SDP solve per outer step and stalls on curved faces.

    Certified as the linearization at each iterate s_k is: by concavity
    f* <= f(s_k) + max_feasible Tr[G_k (s - s_k)], and the path's own
    multipliers bound that maximum through `_dual_bound`.  The result is the
    iterate whose own bound is closest to its value, so upper_bound - value
    also bounds max_feasible Tr[G (s - sigma)] at the returned sigma.  The
    path aims at gap_tol * scale, scale = max(1, ||G||) at the start, and
    `stop` is "converged" when that gap is met and "stalled" when the path
    ended short of it.  Runs on the set's face through `_on_face`, like
    `sequential_linearization`.
    """
    red, V = fs.face
    objective = _on_face(objective, V)
    basis, eq_mats, b, in_mats, f, S, whitened = _whitening(red)
    seen = {}

    def at(x):
        # value, gradient and curvature at basis coordinates x, in both the
        # set's and the whitened coordinates; the path and the bound share them
        key = x.tobytes()
        if key not in seen:
            rho = S @ vec_to_mat(x, basis) @ S
            val, grad, K = objective(rho)
            Kx = whitened(K)
            seen.clear()
            seen[key] = rho, val, grad, whitened([grad])[0], Kx.T @ Kx
        return seen[key]

    x = mat_to_vec(np.eye(red.dim), basis)
    _, _, grad, _, _ = at(x)
    scale = max(1.0, np.abs(herm_eig(grad)[0]).max())
    tol = gap_tol * scale
    lam, nu = _dual_start(grad, in_mats, b, f, red.interior_point[0], 1e-2 * scale)
    Aeq, Evec = whitened(eq_mats), whitened(in_mats)
    best = None
    for it, (x, lam, nu) in enumerate(_path(lambda x: at(x)[3:], basis, Aeq, b, Evec, f,
                                            x, lam, nu, tol)):
        rho, val, grad, _, _ = at(x)
        upper = val + _dual_bound(grad, eq_mats, b, in_mats, f, lam, nu, scale) \
            - float(np.trace(grad @ rho).real)
        if best is None or upper - val < best.gap:
            best = MaximizeResult(value=val, upper_bound=upper, sigma=V @ rho @ V.conj().T,
                                  iterations=it, stop="converged")
        if best.gap <= tol:
            return best
    return replace(best, iterations=it, stop="stalled")


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

    def tilted(t):
        w = q * np.exp(t * (gamma - gamma.max()))
        return w / w.sum()

    if float(gamma @ q) >= c - tol:
        return q.copy(), 0.0
    if gamma[q > 0].max() < c - tol:
        raise DomainError("halfspace unreachable from the support of q")
    hi = 1.0
    # cap t by the scale of gamma: the tilt acts through t * gamma only
    t_cap = 1e8 / np.ptp(gamma)
    while float(gamma @ tilted(hi)) < c and hi < t_cap:
        hi *= 2.0
    if float(gamma @ tilted(hi)) < c:
        raise DomainError("tilting failed to reach the halfspace boundary")
    t = brentq(lambda t: float(gamma @ tilted(t)) - c, 0.0, hi, xtol=tol)
    p = tilted(t)
    return p, divergence_bits(p, q)


def divergence_bits(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))
