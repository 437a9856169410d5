"""Restricted-eigenvalue, orthogonality, and isometry certificates with witnesses.

Minimization constants (the two restricted-eigenvalue variants, the restricted
smallest eigenvalue) are certified by feasible points, so reported values are
upper bounds on the true constants; they equal the objective at the returned
witness.  Maximization constants (restricted normalized orthogonality,
restricted isometry deviation) are exact when computed by complete
enumeration, and lower bounds when sampled.

Computing a restricted eigenvalue exactly is intractable in general.  When
the certified set covers every column, both variants are the smallest
eigenvalue of the Gram matrix and are returned exactly.  Otherwise the
certificate is the best of 64 and more restarts of one batched monotone
projected-gradient descent over the cone; on small instances with at most 3
certified coordinates a brute-force angular grid (2 degree resolution, then
polished) serves as an independent oracle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from ._projection import project_l1_columns
from .core import (
    DegenerateInputError,
    DesignMatrix,
    EnumerationTooLargeError,
    InvalidSupportError,
    SeedSpec,
    SparseVector,
    SupportSet,
    orthonormal_basis,
    seeded_stream,
)

DEFAULT_ENUM_CAP = 1_000_000
# fixed so that certificates are reproducible when the caller passes no seed
DEFAULT_SOLVER_SEED = SeedSpec(0x5EED, 0)

KIND_RE_GAMMA = "re_gamma"
KIND_RE_GAMMA_PRIME = "re_gamma_prime"
KIND_RNO = "rno"
KIND_RIP = "rip"
KIND_LAMBDA_MIN = "lambda_min"


@dataclass(frozen=True)
class ConeSpec:
    """The feasible cone: off-support l1 mass at most L times the on-support l1 mass."""

    S: SupportSet
    L: float = 1.0

    def __post_init__(self):
        if not self.L >= 1.0:
            raise ValueError("cone slack L must be >= 1")


@dataclass
class SolverReport:
    iterations: int = 0
    restarts: int = 0
    residual: float = 0.0
    converged: bool = True
    spread: float | None = None
    complete: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "restarts": self.restarts,
            "residual": self.residual,
            "converged": self.converged,
            "spread": self.spread,
            "complete": self.complete,
        }


@dataclass
class Certificate:
    kind: str
    value: float
    witness: object
    method: str
    solver_report: SolverReport = field(default_factory=SolverReport)

    def to_json_dict(self) -> dict:
        w = self.witness
        if isinstance(w, SparseVector):
            witness = {"type": "vector", "dim": w.dim, "terms": [[i, v] for i, v in w.terms]}
        elif isinstance(w, SupportSet):
            witness = {"type": "support", "dim": w.dim, "indices": list(w.indices)}
        elif isinstance(w, tuple) and len(w) == 2 and all(isinstance(x, SupportSet) for x in w):
            witness = {
                "type": "support_pair",
                "dim": w[0].dim,
                "alpha": list(w[0].indices),
                "beta": list(w[1].indices),
            }
        else:
            witness = None
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": witness,
            "method": self.method,
            "solver_report": self.solver_report.to_json_dict(),
        }


def cone_membership(z, cone: ConeSpec, tol: float = 1e-12) -> bool:
    """Whether the off-support l1 mass of z is at most L times the on-support mass."""
    zd = z.to_dense() if isinstance(z, SparseVector) else np.asarray(z, dtype=np.float64)
    if zd.size != cone.S.dim:
        raise InvalidSupportError(f"vector dim {zd.size} does not match cone dim {cone.S.dim}")
    on = float(np.abs(zd[cone.S.array()]).sum())
    off = float(np.abs(zd).sum()) - on
    return off <= cone.L * on + tol


def re_objective_value(X: DesignMatrix, z, S_prime: SupportSet, mode: str = "gamma") -> float:
    """(1/n)||Xz||^2 divided by ||z_{S'}||^2 (gamma) or ||z||^2 (gamma_prime)."""
    zd = z.to_dense() if isinstance(z, SparseVector) else np.asarray(z, dtype=np.float64)
    if zd.size != X.n_cols:
        raise InvalidSupportError("vector dimension does not match the design")
    img = X.entries @ zd
    num = float(img @ img) / X.n_rows
    if mode == "gamma":
        on = zd[S_prime.array()]
        den = float(on @ on)
    elif mode == "gamma_prime":
        den = float(zd @ zd)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if den <= 0.0:
        raise DegenerateInputError("objective undefined: denominator vanishes")
    return num / den


# ---------------------------------------------------------------------------
# inner convex solver: min 2 b^T v + v^T G v over an l1 ball, batched columns
# ---------------------------------------------------------------------------


def _inner_min(G, B, radii, step, v0=None, tol=1e-9, max_iter=100_000, check_every=25):
    """FISTA with gradient restarts for min_v 2 b^T v + v^T G v, ||v||_1 <= r.

    B holds one column b per problem; radii one radius per problem.  Converged
    columns are frozen and dropped from the working set, so the cost tracks
    the hard problems only.  Returns (V, iterations, worst fixed-point
    residual, all_converged).
    """
    q, m = B.shape
    if q == 0 or m == 0:
        return np.zeros((q, m)), 0, 0.0, True
    out = np.zeros((q, m)) if v0 is None else project_l1_columns(np.asarray(v0, float), radii)
    active = np.arange(m)
    V = out[:, active].copy()
    Ba, ra = B[:, active], radii[active]
    W = V.copy()
    t = np.ones(active.size)
    it = 0
    worst = 0.0
    while it < max_iter and active.size:
        grad = 2.0 * (Ba + G @ W)
        V_new = project_l1_columns(W - step * grad, ra)
        dv = V_new - V
        restart = np.einsum("qm,qm->m", W - V_new, dv) > 0.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_new
        mom[restart] = 0.0
        t_new[restart] = 1.0
        W = V_new + mom * dv
        V = V_new
        t = t_new
        it += 1
        if it % check_every == 0 or it >= max_iter:
            g = 2.0 * (Ba + G @ V)
            P = project_l1_columns(V - step * g, ra)
            res = np.linalg.norm(P - V, axis=0) / (1.0 + np.linalg.norm(V, axis=0))
            done = res <= tol
            out[:, active] = V
            worst = float(np.max(res[~done])) if np.any(~done) else float(np.max(res))
            if np.all(done):
                return out, it, worst, True
            keep = ~done
            active = active[keep]
            V, W, t = V[:, keep], W[:, keep], t[keep]
            Ba, ra = Ba[:, keep], ra[keep]
    out[:, active] = V
    return out, it, worst, active.size == 0


# ---------------------------------------------------------------------------
# restricted-eigenvalue solvers
#
# Every solver works on one Gram matrix G = (1/n) X^T X whose rows and
# columns are ordered [cone support | rest]: with p = |cone support|, a vector
# z splits into its cone block z[:p] and its off-support block z[p:].
# ---------------------------------------------------------------------------


def _quad(G, Z):
    return np.einsum("dm,dm->m", Z, G @ Z)


def _step(G):
    """1 / (2 lambda_max(G)), the inverse Lipschitz constant of z -> 2 G z."""
    return 1.0 / max(2.0 * float(np.linalg.eigvalsh(G)[-1]), 1e-300)


def _feasible(G, Z, p, den, L):
    """Project the off-support block of each column onto the l1 ball of radius
    L ||z[:p]||_1 and rescale so that ||z_den|| = 1, in place.  Returns
    (Z, G Z, rho) with rho = inf where the denominator vanishes."""
    Z[p:] = project_l1_columns(Z[p:], L * np.abs(Z[:p]).sum(axis=0))
    dn = np.linalg.norm(Z[den], axis=0)
    alive = dn > 1e-300
    Z /= np.where(alive, dn, 1.0)
    GZ = G @ Z
    return Z, GZ, np.where(alive, np.einsum("dm,dm->m", Z, GZ), np.inf)


def _descend(G, Z, p, den, L, step0, max_iter, window, rtol):
    """Monotone projected gradient on z^T G z / ||z_den||^2, batched over columns.

    Each step follows the Rayleigh gradient 2 (G z - rho z_den) and maps back
    with ``_feasible``.  A column's step grows by 2% after an accepted step and
    halves after a rejected one, so no column's objective ever rises.  Start
    columns with a vanishing denominator are dropped.  Stops once no column's
    objective fell by a relative ``rtol`` over the last ``window`` iterations.
    Returns (Z, rho, iterations).
    """
    Z, GZ, rho = _feasible(G, Z, p, den, L)
    keep = np.isfinite(rho)
    Z, GZ, rho = Z[:, keep], GZ[:, keep], rho[keep]
    eta = np.full(rho.size, step0)
    rho_window = rho.copy()
    it = 0
    while it < max_iter:
        grad = 2.0 * GZ
        grad[den] -= 2.0 * rho * Z[den]
        Z1, GZ1, rho1 = _feasible(G, Z - eta * grad, p, den, L)
        accept = rho1 <= rho + 1e-15
        eta = np.where(accept, np.minimum(eta * 1.02, step0 * 64.0), eta * 0.5)
        Z = np.where(accept, Z1, Z)
        GZ = np.where(accept, GZ1, GZ)
        rho = np.where(accept, rho1, rho)
        it += 1
        if it % window == 0:
            rel = (rho_window - rho) / np.maximum(np.abs(rho_window), 1e-300)
            if np.max(rel) < rtol:
                break
            rho_window = rho.copy()
    return Z, rho, it


def _starts(G, p, sp, L, seed, n_starts, extra_starts):
    """Restart columns for the descent, in the ordered coordinates.

    ``sp`` holds the rows of S'.  The deterministic starts are up to 8 axis
    vectors, the uniform and the flattest direction on S', and each of these
    three loaded with one of the two flattest off-support directions at the
    full l1 budget (kernel-like loads that cancel cone mass cheaply).  Then
    come the caller's starts and ``n_starts`` Gaussian ones.
    """
    d = G.shape[0]
    axes = list(np.eye(d)[sp[:8]])
    uniform = np.zeros(d)
    uniform[sp] = 1.0 / math.sqrt(sp.size)
    flattest = np.zeros(d)
    flattest[sp] = np.linalg.eigh(G[np.ix_(sp, sp)])[1][:, 0]
    cols = axes + [uniform, flattest]
    for w in np.linalg.eigh(G[p:, p:])[1][:, :2].T:
        for base in (uniform, flattest, axes[0]):
            z = base.copy()
            z[p:] = (L * np.abs(base).sum() / np.abs(w).sum()) * w
            cols.append(z)
    rng = seeded_stream(seed if seed is not None else DEFAULT_SOLVER_SEED)
    return np.concatenate([np.stack(cols + list(extra_starts), axis=1),
                           rng.standard_normal((d, n_starts))], axis=1)


def _polish_decomposed(G, p, z, L, step0, step_inner, inner_tol, inner_cap,
                       max_outer=40, joint_iter=6000):
    """Refine one restart: tight joint descent, one exact inner solve, then a
    short alternating stage with Armijo steps on the sphere of the cone block.

    The outer gradient accounts for the l1 budget moving with ||u||_1 whenever
    the inner constraint is active.
    """
    G_BA, G_BB = G[p:, :p], G[p:, p:]
    Z, _, _ = _descend(G, z[:, None].copy(), p, slice(None, p), L, step0,
                       max_iter=joint_iter, window=100, rtol=1e-14)
    z = Z[:, 0]
    total_inner = 0
    worst_res = 0.0
    inner_ok = True

    def solve_inner(u, warm):
        nonlocal total_inner, worst_res, inner_ok
        r = L * np.abs(u).sum()
        V, its, res, conv = _inner_min(
            G_BB, (G_BA @ u)[:, None], np.array([r]), step_inner, v0=warm[:, None],
            tol=inner_tol, max_iter=inner_cap,
        )
        total_inner += its
        worst_res = max(worst_res, res)
        inner_ok = inner_ok and conv
        return np.concatenate([u, V[:, 0]]), r

    z, r = solve_inner(z[:p], z[p:])
    f = float(z @ G @ z)
    eta = 0.5
    for _ in range(max_outer):
        u, v = z[:p], z[p:]
        Gz = 2.0 * (G @ z)
        grad = Gz[:p]
        if r > 0 and np.abs(v).sum() >= r * (1.0 - 1e-9):
            grad = grad + float(Gz[p:] @ (v / r)) * L * np.sign(u)
        g_t = grad - float(grad @ u) * u
        gnorm = float(np.linalg.norm(g_t))
        if gnorm <= 1e-12 * (1.0 + abs(f)):
            break
        improved = False
        for _ in range(30):
            u_try = u - eta * g_t
            u_try /= np.linalg.norm(u_try)
            z_try, r_try = solve_inner(u_try, v)
            f_try = float(z_try @ G @ z_try)
            if f_try <= f - 1e-4 * eta * gnorm * gnorm:
                z, r, f = z_try, r_try, f_try
                eta = min(eta * 1.5, 4.0)
                improved = True
                break
            eta *= 0.5
            if eta < 1e-16:
                break
        if not improved:
            break
    return z, f, total_inner, worst_res, inner_ok


def _gamma_decomposed(G, p, L, seed, n_starts, extra_starts, inner_tol, inner_cap):
    """Mode gamma with cone support == S': joint descent from every start, an
    exact inner solve at each restart's direction, and a polish of the best."""
    step0, step_inner = _step(G), _step(G[p:, p:])
    Z, _, it1 = _descend(G, _starts(G, p, np.arange(p), L, seed, n_starts, extra_starts),
                         p, slice(None, p), L, step0, max_iter=2500, window=60, rtol=1e-12)
    radii = L * np.abs(Z[:p]).sum(axis=0)
    Z[p:], inner_it, _, _ = _inner_min(G[p:, p:], G[p:, :p] @ Z[:p], radii, step_inner,
                                       v0=Z[p:], tol=max(inner_tol, 1e-7), max_iter=20_000)
    f = _quad(G, Z)
    best = int(np.argmin(f))
    z, _, pol_inner, res, inner_ok = _polish_decomposed(
        G, p, Z[:, best].copy(), L, step0, step_inner, inner_tol, inner_cap)
    report = SolverReport(
        iterations=it1 + inner_it + pol_inner,
        restarts=Z.shape[1],
        residual=res,
        converged=inner_ok,
        spread=float(np.max(f) - np.min(f)),
    )
    return z, report


def _grid_directions(p):
    if p == 1:
        return np.array([[1.0]])
    two_deg = np.deg2rad(2.0)
    theta = np.arange(0.0, 2.0 * np.pi - 1e-12, two_deg)
    if p == 2:
        return np.stack([np.cos(theta), np.sin(theta)])
    phi = np.arange(0.0, np.pi + 1e-12, two_deg)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    return np.stack([
        (np.sin(P) * np.cos(T)).ravel(),
        (np.sin(P) * np.sin(T)).ravel(),
        np.cos(P).ravel(),
    ])


def _gamma_grid_oracle(G, p, L, inner_tol, inner_cap, top_k=8):
    """Mode gamma on a 2 degree grid of cone directions: a coarse inner sweep
    to locate the global basin, a light polish to rank the leading grid
    candidates, and a full polish of the winner."""
    step0, step_inner = _step(G), _step(G[p:, p:])
    U = _grid_directions(p)
    V, total, _, _ = _inner_min(G[p:, p:], G[p:, :p] @ U, L * np.abs(U).sum(axis=0),
                                step_inner, tol=1e-5, max_iter=5_000)
    Z = np.concatenate([U, V])
    best_val = math.inf
    best = None
    for idx in np.argsort(_quad(G, Z), kind="stable")[:top_k]:
        z, val, its, _, _ = _polish_decomposed(
            G, p, Z[:, idx].copy(), L, step0, step_inner, max(inner_tol, 1e-7), 20_000,
            max_outer=10, joint_iter=2000)
        total += its
        if val < best_val:
            best_val = val
            best = z
    z, _, its, worst_res, ok = _polish_decomposed(
        G, p, best, L, step0, step_inner, inner_tol, inner_cap)
    report = SolverReport(iterations=total + its, restarts=U.shape[1],
                          residual=worst_res, converged=ok, spread=None)
    return z, report


def _re_joint(G, p, sp, den, L, seed, n_starts, extra_starts, max_iter=8000):
    """Joint descent over the whole cone; used for mode gamma_prime (``den``
    every row) and for mode gamma with a cone support strictly larger than
    S' (``den`` = ``sp``, the rows of S')."""
    step0 = _step(G)
    Z, rho, it = _descend(G, _starts(G, p, sp, L, seed, n_starts, extra_starts),
                          p, den, L, step0, max_iter=max_iter, window=80, rtol=1e-13)
    best = int(np.argmin(rho))
    z = Z[:, best].copy()
    grad = 2.0 * (G @ z)
    grad[den] -= 2.0 * rho[best] * z[den]
    # projected-gradient fixed-point residual ||z - P(z - t grad)|| / t
    moved, _, _ = _feasible(G, (z - step0 * grad)[:, None], p, den, L)
    report = SolverReport(iterations=it, restarts=Z.shape[1],
                          residual=float(np.linalg.norm(moved[:, 0] - z)) / step0,
                          converged=it < max_iter,
                          spread=float(np.max(rho) - np.min(rho)))
    return z, report


def re_constant(X: DesignMatrix, cone: ConeSpec, S_prime: SupportSet,
                mode: str = "gamma", method: str = "multistart", *,
                seed: SeedSpec | None = None, n_starts: int = 64,
                extra_starts=(), inner_tol: float = 1e-9,
                max_inner_iter: int = 100_000) -> Certificate:
    """Certified upper bound on a restricted-eigenvalue constant.

    The minimum runs over the cone of ``cone`` (usually the cone of
    ``S_prime`` itself) with the denominator taken on ``S_prime``:
    ``||z_{S'}||^2`` in mode ``gamma``, ``||z||^2`` in mode ``gamma_prime``.

    When ``S_prime`` covers every column both modes are the smallest
    eigenvalue of the Gram matrix, returned exactly with its eigenvector
    (method ``exact_svd``).  Otherwise every path runs the same monotone
    projected-gradient descent from the same kind of restarts.
    ``multistart`` in mode ``gamma`` with cone support ``S_prime`` adds an
    exact convex inner minimization over the off-support l1 ball and a
    polish; every other case descends over whole cone vectors, and mode
    ``gamma_prime`` with cone support ``S_prime`` also starts from the
    gamma-mode witness (always feasible, so gamma' <= gamma holds).
    ``grid_oracle`` replaces the restarts by a 2 degree angular grid and
    supports mode ``gamma`` with at most 3 certified coordinates.
    """
    if mode not in ("gamma", "gamma_prime"):
        raise ValueError(f"unknown mode {mode!r}")
    if method not in ("multistart", "grid_oracle"):
        raise ValueError(f"unknown method {method!r}")
    if S_prime.size == 0:
        raise InvalidSupportError("S_prime must be non-empty")
    if S_prime.dim != X.n_cols or cone.S.dim != X.n_cols:
        raise InvalidSupportError("support dimensions must match the design")
    if not cone.S.contains(S_prime):
        raise InvalidSupportError("S_prime must be contained in the cone support")
    same = cone.S.indices == S_prime.indices
    if method == "grid_oracle":
        if mode != "gamma" or not same:
            raise ValueError("grid_oracle supports mode gamma with cone support == S_prime")
        if S_prime.size > 3:
            raise ValueError("grid_oracle supports at most 3 certified coordinates")
    kind = KIND_RE_GAMMA if mode == "gamma" else KIND_RE_GAMMA_PRIME

    if S_prime.size == X.n_cols:
        exact = lambda_min_restricted(X, S_prime)
        return Certificate(kind=kind, value=re_objective_value(X, exact.witness, S_prime, mode),
                           witness=exact.witness, method=exact.method,
                           solver_report=exact.solver_report)

    order = np.concatenate([cone.S.array(), cone.S.complement().array()])
    E = X.entries[:, order]
    G = (E.T @ E) / X.n_rows
    p = cone.S.size
    starts = [(z.to_dense() if isinstance(z, SparseVector) else np.asarray(z, float))[order]
              for z in extra_starts]
    if method == "grid_oracle":
        z, report = _gamma_grid_oracle(G, p, cone.L, inner_tol, max_inner_iter)
    elif mode == "gamma" and same:
        z, report = _gamma_decomposed(G, p, cone.L, seed, n_starts, starts,
                                      inner_tol, max_inner_iter)
    else:
        if mode == "gamma_prime" and same:
            pre, _ = _gamma_decomposed(G, p, cone.L, seed, max(n_starts // 2, 8), starts,
                                       max(inner_tol, 1e-7), 20_000)
            starts.append(pre)
        sp = np.searchsorted(cone.S.array(), S_prime.array())
        z, report = _re_joint(G, p, sp, sp if mode == "gamma" else slice(None), cone.L,
                              seed, n_starts, starts)
    dense = np.zeros(X.n_cols)
    dense[order] = z
    witness = SparseVector.from_dense(dense)
    return Certificate(kind=kind, value=re_objective_value(X, witness, S_prime, mode),
                       witness=witness, method=method, solver_report=report)


def lambda_min_restricted(X: DesignMatrix, S: SupportSet) -> Certificate:
    """Smallest eigenvalue of the scaled on-support Gram matrix, with eigenvector."""
    if S.size < 1:
        raise InvalidSupportError("support must be non-empty")
    if S.dim != X.n_cols:
        raise InvalidSupportError("support dimension must match the design")
    A = X.entries[:, S.array()]
    gram = (A.T @ A) / X.n_rows
    vals, vecs = np.linalg.eigh(gram)
    z = np.zeros(X.n_cols)
    z[S.array()] = vecs[:, 0]
    return Certificate(
        kind=KIND_LAMBDA_MIN,
        value=float(vals[0]),
        witness=SparseVector.from_dense(z),
        method="exact_svd",
        solver_report=SolverReport(iterations=1, restarts=1, residual=0.0),
    )


# ---------------------------------------------------------------------------
# restricted normalized orthogonality
# ---------------------------------------------------------------------------


def rno_fixed_supports(X: DesignMatrix, S: SupportSet, S_alpha: SupportSet,
                       S_beta: SupportSet) -> float:
    """Largest cosine of a principal angle between two restricted column spans.

    ``S_alpha`` picks columns inside S, ``S_beta`` columns inside the
    complement of S; the value is the exact maximum normalized inner product
    of vectors from the two spans (largest singular value of the product of
    the orthonormal bases).  A trivial span on either side gives 0.
    """
    for sup, name in ((S_alpha, "S_alpha"), (S_beta, "S_beta")):
        if sup.dim != X.n_cols:
            raise InvalidSupportError(f"{name} dimension must match the design")
        if sup.size == 0:
            raise InvalidSupportError(f"{name} must be non-empty")
    if not S.contains(S_alpha):
        raise InvalidSupportError("S_alpha must lie inside S")
    if not S.complement().contains(S_beta):
        raise InvalidSupportError("S_beta must lie outside S")
    Phi_a = orthonormal_basis(X.entries[:, S_alpha.array()])
    Phi_b = orthonormal_basis(X.entries[:, S_beta.array()])
    if Phi_a.shape[1] == 0 or Phi_b.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(Phi_a.T @ Phi_b, compute_uv=False)
    return float(min(max(s[0], 0.0), 1.0))


def _masked_bases(E, supports, chunk=2048):
    """Orthonormal span bases for a stack of same-size supports.

    Rank-deficient spans keep their full-width factor with the excess columns
    zeroed, so downstream products see exactly the span and nothing more.
    """
    N, s = supports.shape
    n = E.shape[0]
    out = np.empty((N, n, s))
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        stack = np.moveaxis(E[:, supports[lo:hi]], 0, 1)
        U, sv, _ = np.linalg.svd(stack, full_matrices=False)
        lead = np.maximum(sv[:, :1], 1e-300)
        mask = sv > 1e-10 * lead
        out[lo:hi] = U * mask[:, None, :]
    return out


def _pair_values_max(Ua, Ub=None, indicators=None, chunk_pairs=200_000):
    """Max (and first argmax) of sigma_max(Ua_i^T Ub_j) over pairs (i, j).

    With ``Ub`` None the pairs are i < j within ``Ua`` whose supports, given
    as 0/1 ``indicators`` (one row per basis), are disjoint; each unordered
    pair comes once, since sigma_max(A^T B) = sigma_max(B^T A).  A chunk
    of about ``chunk_pairs`` pairs is one BLAS product of the flattened bases.
    Since sigma_max(C) <= ||C||_F, an s x s block C gets an SVD only if its
    norm reaches a floor: the best value so far, or the best among the
    chunk's 64 largest norms.  A relative slack of 1e-12 keeps rounding from
    dropping a tied or winning pair.
    """
    Na, n, s = Ua.shape
    Fa = np.moveaxis(Ua, 0, 1).reshape(n, Na * s)
    Fb = Fa if Ub is None else np.moveaxis(Ub, 0, 1).reshape(n, -1)
    Nb = Fb.shape[1] // s
    best = -1.0
    best_pair = (0, 0)
    rows = max(1, chunk_pairs // max(Nb, 1))
    for lo in range(0, Na, rows):
        hi = min(lo + rows, Na)
        c0 = lo if Ub is None else 0
        C = (Fa[:, lo * s:hi * s].T @ Fb[:, c0 * s:]).reshape(hi - lo, s, Nb - c0, s)
        fro2 = np.einsum("asbt,asbt->ab", C, C)
        if Ub is None:
            keep = np.arange(c0, Nb) > np.arange(lo, hi)[:, None]
            keep &= indicators[lo:hi] @ indicators[c0:].T == 0.0
            if not keep.any():
                continue
            fro2[~keep] = -1.0
        # the admissible pairs of largest norm set a floor the winner must reach
        top = np.argpartition(fro2, -min(64, fro2.size), axis=None)[-64:]
        ta, tb = np.unravel_index(top[fro2.flat[top] >= 0.0], fro2.shape)
        floor = max(float(np.linalg.svd(C[ta, :, tb], compute_uv=False)[:, 0].max()), best)
        ia, ib = np.nonzero(fro2 >= floor * floor * (1.0 - 1e-12))
        if ia.size == 0:
            continue
        sv = np.linalg.svd(C[ia, :, ib], compute_uv=False)[:, 0]
        j = int(np.argmax(sv))
        if float(sv[j]) > best:
            best = float(sv[j])
            best_pair = (lo + int(ia[j]), c0 + int(ib[j]))
    return min(max(best, 0.0), 1.0), best_pair


def _sampled_subsets(rng, pool, s, count):
    pool = np.asarray(pool, dtype=np.intp)
    keys = rng.random((count, pool.size))
    take = np.argpartition(keys, s - 1, axis=1)[:, :s]
    return np.sort(pool[take], axis=1)


def rno_constant(X: DesignMatrix, S: SupportSet, s: int,
                 cap: int = DEFAULT_ENUM_CAP, sample_pairs: int | None = None,
                 seed: SeedSpec | None = None) -> Certificate:
    """Worst normalized inner product between s-column spans across the S boundary.

    Enumerates supports of size exactly s on both sides (enlarging a support
    enlarges its span, so the maximum is attained at full size).  Complete
    enumeration is exact; when the pair count exceeds ``cap`` pass
    ``sample_pairs`` to get a sampled lower bound instead.
    """
    if S.dim != X.n_cols:
        raise InvalidSupportError("support dimension must match the design")
    comp = S.complement()
    if not 1 <= s <= min(S.size, comp.size):
        raise ValueError(f"need 1 <= s <= min(|S|, |S^c|), got s={s}")
    n_pairs = comb(S.size, s) * comb(comp.size, s)
    if sample_pairs is None:
        if n_pairs > cap:
            raise EnumerationTooLargeError(
                f"{n_pairs} support pairs exceed the cap {cap}; pass sample_pairs "
                f"(CLI: --sample-pairs) for a sampled lower bound"
            )
        alpha = np.array(list(itertools.combinations(S.indices, s)), dtype=np.intp)
        beta = np.array(list(itertools.combinations(comp.indices, s)), dtype=np.intp)
        complete = True
        evaluated = n_pairs
    else:
        rng = seeded_stream(seed if seed is not None else DEFAULT_SOLVER_SEED)
        alpha = _sampled_subsets(rng, S.indices, s, sample_pairs)
        beta = _sampled_subsets(rng, comp.indices, s, sample_pairs)
        complete = False
        evaluated = sample_pairs
    Ua = _masked_bases(X.entries, alpha)
    Ub = _masked_bases(X.entries, beta)
    if complete:
        value, (ia, ib) = _pair_values_max(Ua, Ub)
    else:
        C = np.einsum("ans,ant->ast", Ua, Ub)
        sv = np.linalg.svd(C, compute_uv=False)[:, 0]
        ia = ib = int(np.argmax(sv))
        value = float(min(max(sv[ia], 0.0), 1.0))
    witness = (SupportSet(X.n_cols, tuple(int(i) for i in alpha[ia])),
               SupportSet(X.n_cols, tuple(int(i) for i in beta[ib])))
    return Certificate(
        kind=KIND_RNO, value=value, witness=witness, method="enumeration",
        solver_report=SolverReport(iterations=evaluated, restarts=1,
                                   residual=0.0, complete=complete),
    )


def max_rno_over_disjoint_pairs(X: DesignMatrix, s: int) -> tuple[float, tuple, tuple]:
    """Exact max normalized span correlation over all disjoint support pairs of size s.

    Every such pair is admissible for some boundary set (take S equal to the
    first support), so this equals the worst orthogonality constant over the
    whole family of boundary sets of size at least s.  Returns the value and
    the two supports that attain it.
    """
    d = X.n_cols
    supports = np.array(list(itertools.combinations(range(d), s)), dtype=np.intp)
    indicators = np.zeros((supports.shape[0], d))
    np.put_along_axis(indicators, supports, 1.0, axis=1)
    bases = _masked_bases(X.entries, supports)
    value, (i, j) = _pair_values_max(bases, indicators=indicators)
    return (value, tuple(int(c) for c in supports[i]),
            tuple(int(c) for c in supports[j]))


def rip_constant(X_unit: DesignMatrix, s: int, cap: int = DEFAULT_ENUM_CAP,
                 sample_supports: int | None = None,
                 seed: SeedSpec | None = None) -> Certificate:
    """Worst singular-value deviation from 1 over all s-column submatrices.

    The caller passes the design with unit columns (the normalized convention
    divided by sqrt(n)); the value is max(1 - sigma_min, sigma_max - 1) over
    supports of size exactly s, which dominates all smaller supports.
    """
    d = X_unit.n_cols
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}")
    n_sup = comb(d, s)
    if sample_supports is None:
        if n_sup > cap:
            raise EnumerationTooLargeError(
                f"{n_sup} supports exceed the cap {cap}; pass sample_supports "
                f"for a sampled lower bound"
            )
        supports = np.array(list(itertools.combinations(range(d), s)), dtype=np.intp)
        complete = True
    else:
        rng = seeded_stream(seed if seed is not None else DEFAULT_SOLVER_SEED)
        supports = _sampled_subsets(rng, np.arange(d), s, sample_supports)
        complete = False
    best = -1.0
    best_i = 0
    chunk = 4096
    for lo in range(0, supports.shape[0], chunk):
        hi = min(lo + chunk, supports.shape[0])
        stack = np.moveaxis(X_unit.entries[:, supports[lo:hi]], 0, 1)
        sv = np.linalg.svd(stack, compute_uv=False)
        dev = np.maximum(1.0 - sv[:, -1], sv[:, 0] - 1.0)
        i = int(np.argmax(dev))
        if float(dev[i]) > best:
            best = float(dev[i])
            best_i = lo + i
    witness = SupportSet(d, tuple(int(i) for i in supports[best_i]))
    return Certificate(
        kind=KIND_RIP, value=best, witness=witness, method="enumeration",
        solver_report=SolverReport(iterations=supports.shape[0], restarts=1,
                                   residual=0.0, complete=complete),
    )


def rip_to_rno_bound(delta: float) -> float:
    """Orthogonality level guaranteed by an isometry deviation of delta."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    return 4.0 * delta / (1.0 - delta) ** 2


def rno_to_re_lower_bound(epsilon: float, s: int, s_prime_size: int,
                          gamma_S: float, C: float = 4.0) -> float:
    """Lower bound on the full-design constant implied by orthogonality level epsilon.

    May be negative; callers clamp for display only.  The absolute constant C
    is a knob (any value at least the hidden proof constant is sound).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if s < 1:
        raise ValueError("s must be positive")
    if s_prime_size < 1:
        raise ValueError("s_prime_size must be positive")
    if not gamma_S > 0:
        raise ValueError("gamma_S must be positive")
    if not C > 0:
        raise ValueError("C must be positive")
    return (1.0 - epsilon - C * math.sqrt(s_prime_size / (gamma_S * s))) * gamma_S


def partial_rotation_failure_rate(regenerate, S: SupportSet, alpha, beta,
                                  epsilon: float, trials: int,
                                  seed: SeedSpec) -> int:
    """Number of regenerated designs whose fixed cross-block correlation exceeds epsilon.

    ``regenerate`` maps a SeedSpec to a fresh design; ``alpha`` weights the S
    columns and ``beta`` the complement columns.  Trials run on independent
    substreams, so the count is reproducible and order-independent; the
    failure rate is the count over ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    comp = S.complement()
    a = alpha.to_dense() if isinstance(alpha, SparseVector) else np.asarray(alpha, float)
    b = beta.to_dense() if isinstance(beta, SparseVector) else np.asarray(beta, float)
    if a.size != S.size or b.size != comp.size:
        raise InvalidSupportError(
            f"alpha must have dim |S|={S.size} and beta dim |S^c|={comp.size}")
    Sarr, Carr = S.array(), comp.array()
    count = 0
    for t in range(trials):
        Xp = regenerate(seed.substream(t))
        u = Xp.entries[:, Sarr] @ a
        v = Xp.entries[:, Carr] @ b
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        floor = 1e-12 * math.sqrt(Xp.n_rows)
        if nu <= floor * np.abs(a).sum() or nv <= floor * np.abs(b).sum():
            raise DegenerateInputError("combination collapses to zero under the generator")
        if abs(float(u @ v)) > epsilon * nu * nv:
            count += 1
    return count
