"""Restricted-eigenvalue, orthogonality, and isometry certificates with witnesses.

Minimization constants (the two restricted-eigenvalue variants, the restricted
smallest eigenvalue) are certified by feasible points, so reported values are
upper bounds on the true constants; they equal the objective at the returned
witness.  Maximization constants (restricted normalized orthogonality,
restricted isometry deviation) are exact when computed by complete
enumeration, and lower bounds when sampled.  The isometry enumeration screens
every support by the end eigenvalues of its block of the Gram matrix, then
rechecks by SVD every support that screens within a derived rounding slack
of the best, so its value and witness are those of an SVD of every support.

Computing a restricted eigenvalue exactly is intractable in general.  When
the certified set covers every column, both variants are the smallest
eigenvalue of the Gram matrix and are returned exactly.  Mode gamma with the
cone on S' itself goes through one pipeline over a set of unit directions of
the cone block: an exact inner solve over the off-support l1 ball for every
direction, one light polish of the 8 best, run on them as one block in
lockstep, and a tight joint descent and a full polish of the best of them.
The multistart feeds it the restarts' directions; on small instances with at
most 3 certified coordinates the independent oracle feeds it a 2 degree
angular grid instead.  Every other case (mode gamma', or a cone larger than
S') is one batched monotone projected-gradient descent over the cone from 64
and more restarts.  Each of its steps maps back by the exact Euclidean
projection onto the convex piece of the cone around the point the step
starts from, so a finished descent is stationary.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from ._projection import project_l1_columns, project_l1_cone_columns
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
# inner-solve tolerance of the final gamma polish; the light polishes that
# rank the candidates use the looser pair
_INNER_TOL = 1e-9
_LIGHT_INNER_TOL = 1e-7
_LIGHT_INNER_CAP = 20_000
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
        if restart.any():
            mom[restart] = 0.0
            t_new[restart] = 1.0
        W = V_new + mom * dv
        V = V_new
        t = t_new
        it += 1
        if it % check_every == 0 or it >= max_iter:
            g = 2.0 * (Ba + G @ V)
            res = (_col_norms(project_l1_columns(V - step * g, ra) - V)
                   / (1.0 + _col_norms(V)))
            keep = ~(res <= tol)  # not converged; a NaN residual counts as such
            worst = float(res[keep].max() if keep.any() else res.max())
            if keep.all():
                continue
            out[:, active] = V
            if not keep.any():
                return out, it, worst, True
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


def _col_norms(Z):
    """np.linalg.norm(Z, axis=0) by numpy's own formula, without its dispatch."""
    return np.sqrt((Z * Z).sum(axis=0))


def _step(G):
    """1 / (2 lambda_max(G)), the inverse Lipschitz constant of z -> 2 G z."""
    return 1.0 / max(2.0 * float(np.linalg.eigvalsh(G)[-1]), 1e-300)


def _feasible(G, Z, p, den, L, sigma):
    """Project each column onto the convex cone {||v||_1 <= L sigma^T u}, with
    ``sigma`` the cone block's sign pattern where the step started, and
    rescale so that ||z_den|| = 1.  Returns (Z, G Z, rho) with rho = inf
    where the denominator vanishes."""
    Z = project_l1_cone_columns(Z, p, sigma, L)
    dn = _col_norms(Z[den])
    alive = dn > 1e-300
    every = alive.all()
    Z /= dn if every else np.where(alive, dn, 1.0)
    GZ = G @ Z
    rho = np.einsum("dm,dm->m", Z, GZ)
    return Z, GZ, rho if every else np.where(alive, rho, np.inf)


def _descend(G, Z, p, den, L, step0, max_iter, window, rtol):
    """Monotone projected gradient on z^T G z / ||z_den||^2, batched over columns.

    Each step follows the Rayleigh gradient 2 (G z - rho z_den) and maps back
    with ``_feasible``: the exact projection onto the convex piece of the cone
    around the current point, so a column stops moving only at a stationary
    point.  A column's step grows by 2% after an accepted step and halves
    after a rejected one, so no column's objective ever rises.  Start
    columns with a vanishing denominator are dropped.  Stops once no column's
    objective fell by a relative ``rtol`` over the last ``window`` iterations.
    Returns (Z, rho, iterations).
    """
    Z, GZ, rho = _feasible(G, Z, p, den, L, np.sign(Z[:p]))
    keep = np.isfinite(rho)
    Z, GZ, rho = Z[:, keep], GZ[:, keep], rho[keep]
    eta = np.full(rho.size, step0)
    rho_window = rho.copy()
    it = 0
    while it < max_iter:
        grad = 2.0 * GZ
        grad[den] -= 2.0 * rho * Z[den]
        Z1, GZ1, rho1 = _feasible(G, Z - eta * grad, p, den, L, np.sign(Z[:p]))
        accept = rho1 <= rho + 1e-15
        if accept.all():
            eta = np.minimum(eta * 1.02, step0 * 64.0)
            Z, GZ, rho = Z1, GZ1, rho1
        else:
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


def _starts(G, p, sp, L, seed, n_starts):
    """Restart columns for the descent, in the ordered coordinates.

    ``sp`` holds the rows of S'.  The deterministic starts are up to 8 axis
    vectors, the uniform and the flattest direction on S', and each of these
    three loaded with one of the two flattest off-support directions at the
    full l1 budget (kernel-like loads that cancel cone mass cheaply).  Then
    come ``n_starts`` Gaussian ones.
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
    return np.concatenate([np.stack(cols, axis=1), rng.standard_normal((d, n_starts))],
                          axis=1)


def _polish_decomposed(G, p, Z, L, step_inner, inner_tol, inner_cap, max_outer=40):
    """Refine a (d, m) block of candidate columns in lockstep: one exact inner
    solve each, then a short alternating stage with Armijo steps on the sphere
    of the cone block.

    Every column keeps its own step, Armijo try count, outer-step count and
    stop flag, so it follows the path it would follow alone (m = 1).  Each
    round the columns that just moved take one batched tangent gradient, and
    every live column makes one trial step; the inner solves of a round are
    one batched ``_inner_min`` call, warm-started at each column's current
    off-support block, so their residual is checked every 5 iterations.  The
    outer gradient accounts for the l1 budget moving with ||u||_1 whenever
    the inner constraint is active.  Returns (Z, f, inner sweeps, worst inner
    residual, every inner solve converged); a batched sweep counts once.
    """
    G_BA, G_BB = G[p:, :p], G[p:, p:]
    total_inner = 0
    worst_res = 0.0
    inner_ok = True

    def solve_inner(U, warm):
        nonlocal total_inner, worst_res, inner_ok
        r = L * np.abs(U).sum(axis=0)
        V, its, res, conv = _inner_min(G_BB, G_BA @ U, r, step_inner, v0=warm,
                                       tol=inner_tol, max_iter=inner_cap, check_every=5)
        total_inner += its
        worst_res = max(worst_res, res)
        inner_ok = inner_ok and conv
        return np.concatenate([U, V]), r

    Z, r = solve_inner(Z[:p], Z[p:])
    f = _quad(G, Z)
    m = Z.shape[1]
    eta = np.full(m, 0.5)
    outer = np.zeros(m, dtype=int)
    tries = np.zeros(m, dtype=int)
    g_t = np.zeros((p, m))
    gnorm = np.zeros(m)
    live = np.full(m, max_outer > 0)
    i = np.flatnonzero(live)  # the columns that just moved
    while True:
        if i.size:
            U, V, ri = Z[:p, i], Z[p:, i], r[i]
            GZ = 2.0 * (G @ Z[:, i])
            tight = (ri > 0) & (np.abs(V).sum(axis=0) >= ri * (1.0 - 1e-9))
            load = np.einsum("qm,qm->m", GZ[p:], V / np.where(tight, ri, 1.0))
            grad = GZ[:p] + np.where(tight, load * L, 0.0) * np.sign(U)
            g_t[:, i] = grad - np.einsum("pm,pm->m", grad, U) * U
            gnorm[i] = _col_norms(g_t[:, i])
            live[i] = gnorm[i] > 1e-12 * (1.0 + np.abs(f[i]))
            tries[i] = 0
        j = np.flatnonzero(live)
        if j.size == 0:
            break
        U_try = Z[:p, j] - eta[j] * g_t[:, j]
        U_try /= _col_norms(U_try)
        Z_try, r_try = solve_inner(U_try, Z[p:, j])
        f_try = _quad(G, Z_try)
        acc = f_try <= f[j] - 1e-4 * eta[j] * gnorm[j] ** 2
        a, b = j[acc], j[~acc]
        Z[:, a], r[a], f[a] = Z_try[:, acc], r_try[acc], f_try[acc]
        eta[a] = np.minimum(eta[a] * 1.5, 4.0)
        outer[a] += 1
        eta[b] *= 0.5
        tries[b] += 1
        live[b] = (eta[b] >= 1e-16) & (tries[b] < 30)
        live[a] = outer[a] < max_outer
        i = a[live[a]]
    return Z, f, total_inner, worst_res, inner_ok


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


def _gamma_from_directions(G, p, L, U, inner_cap):
    """Mode gamma with cone support == S', from unit cone directions U (one
    per column): a coarse inner sweep over every direction, ranked by the
    quadratic form; one batched light polish of the 8 leaders; and a tight
    joint descent and a full polish of the best of them.  The report's
    iterations add the sweeps of the three batched inner solves, each
    sweep counted once however many columns it carries."""
    step_inner = _step(G[p:, p:])
    V, total, _, _ = _inner_min(G[p:, p:], G[p:, :p] @ U, L * np.abs(U).sum(axis=0),
                                step_inner, tol=1e-5, max_iter=5_000)
    Z = np.concatenate([U, V])
    f = _quad(G, Z)
    Zl, fl, its_light, _, _ = _polish_decomposed(
        G, p, Z[:, np.argsort(f, kind="stable")[:8]], L, step_inner, _LIGHT_INNER_TOL,
        _LIGHT_INNER_CAP, max_outer=10)
    Z, _, _ = _descend(G, Zl[:, [int(np.argmin(fl))]], p, slice(None, p), L, _step(G),
                       max_iter=6000, window=100, rtol=1e-14)
    Z, _, its, worst_res, ok = _polish_decomposed(G, p, Z, L, step_inner, _INNER_TOL,
                                                  inner_cap)
    z = Z[:, 0]
    report = SolverReport(iterations=total + its_light + its,
                          restarts=U.shape[1], residual=worst_res, converged=ok,
                          spread=float(np.max(f) - np.min(f)))
    return z, report


def _re_joint(G, p, sp, den, L, seed, n_starts, max_iter=8000):
    """Joint descent over the whole cone; used for mode gamma_prime (``den``
    every row) and for mode gamma with a cone support strictly larger than
    S' (``den`` = ``sp``, the rows of S')."""
    step0 = _step(G)
    Z, rho, it = _descend(G, _starts(G, p, sp, L, seed, n_starts), p, den, L, step0,
                          max_iter=max_iter, window=80, rtol=1e-13)
    best = int(np.argmin(rho))
    z = Z[:, best].copy()
    grad = 2.0 * (G @ z)
    grad[den] -= 2.0 * rho[best] * z[den]
    # projected-gradient fixed-point residual ||z - P(z - t grad)|| / t
    moved, _, _ = _feasible(G, (z - step0 * grad)[:, None], p, den, L,
                            np.sign(z[:p, None]))
    report = SolverReport(iterations=it, restarts=Z.shape[1],
                          residual=float(np.linalg.norm(moved[:, 0] - z)) / step0,
                          converged=it < max_iter,
                          spread=float(np.max(rho) - np.min(rho)))
    return z, report


def re_constant(X: DesignMatrix, cone: ConeSpec, S_prime: SupportSet,
                mode: str = "gamma", method: str = "multistart", *,
                seed: SeedSpec | None = None, n_starts: int = 64,
                max_inner_iter: int = 100_000) -> Certificate:
    """Certified upper bound on a restricted-eigenvalue constant.

    The minimum runs over the cone of ``cone`` (usually the cone of
    ``S_prime`` itself) with the denominator taken on ``S_prime``:
    ``||z_{S'}||^2`` in mode ``gamma``, ``||z||^2`` in mode ``gamma_prime``.

    When ``S_prime`` covers every column both modes are the smallest
    eigenvalue of the Gram matrix, returned exactly with its eigenvector
    (method ``exact_svd``).  Mode ``gamma`` with cone support ``S_prime``
    takes unit directions u of the cone block, solves the convex inner
    problem over the off-support l1 ball exactly for each, ranks them by
    the quadratic form, polishes the 8 best lightly in one batched polish,
    and descends from the best of them and polishes it fully.
    The two methods differ only in the directions: ``multistart`` uses the
    cone blocks of the restarts (``n_starts`` Gaussian ones and a few
    deterministic ones), ``grid_oracle`` a 2 degree angular grid, which
    limits it to this mode and at most 3 certified coordinates.  Every other
    case, mode ``gamma_prime`` included, descends over whole cone vectors
    from the same restarts, on the exact projection onto the convex piece of
    the cone around each iterate.  ``max_inner_iter`` caps each inner solve
    of the final polish of mode ``gamma``.
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
    if same and mode == "gamma":
        if method == "grid_oracle":
            U = _grid_directions(p)
        else:
            U = np.unique(_starts(G, p, np.arange(p), cone.L, seed, n_starts)[:p], axis=1)
            U /= np.linalg.norm(U, axis=0)
        z, report = _gamma_from_directions(G, p, cone.L, U, max_inner_iter)
    else:
        sp = np.searchsorted(cone.S.array(), S_prime.array())
        z, report = _re_joint(G, p, sp, sp if mode == "gamma" else slice(None), cone.L,
                              seed, n_starts)
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


def _combinations(pool, s):
    """Every s-subset of ``pool``, one row each, in itertools order."""
    count = comb(len(pool), s)
    flat = itertools.chain.from_iterable(itertools.combinations(pool, s))
    return np.fromiter(flat, np.intp, count=count * s).reshape(count, s)


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
    if sample_pairs is not None and sample_pairs < 1:
        raise ValueError(f"sample_pairs must be at least 1, got {sample_pairs}")
    if sample_pairs is None:
        if n_pairs > cap:
            raise EnumerationTooLargeError(
                f"{n_pairs} support pairs exceed the cap {cap}; pass sample_pairs "
                f"(CLI: --sample-pairs) for a sampled lower bound"
            )
        alpha = _combinations(S.indices, s)
        beta = _combinations(comp.indices, s)
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
    the two supports that attain it.  Raises ValueError unless
    1 <= s <= d / 2, the sizes that have a disjoint pair, and
    EnumerationTooLargeError when the C(d, s) * C(d - s, s) / 2 unordered
    pairs exceed ``DEFAULT_ENUM_CAP``.
    """
    d = X.n_cols
    if not 1 <= s <= d // 2:
        raise ValueError(f"need 1 <= s <= d/2 for a disjoint pair, got s={s}, d={d}")
    n_pairs = comb(d, s) * comb(d - s, s) // 2
    if n_pairs > DEFAULT_ENUM_CAP:
        raise EnumerationTooLargeError(
            f"{n_pairs} disjoint support pairs exceed the cap {DEFAULT_ENUM_CAP}")
    supports = _combinations(range(d), s)
    indicators = np.zeros((supports.shape[0], d))
    np.put_along_axis(indicators, supports, 1.0, axis=1)
    bases = _masked_bases(X.entries, supports)
    value, (i, j) = _pair_values_max(bases, indicators=indicators)
    return (value, tuple(int(c) for c in supports[i]),
            tuple(int(c) for c in supports[j]))


def _rip_screen_slack(G, n, s):
    """Twice a bound on the gap between a screened and an SVD deviation.

    Let u be the unit roundoff and c = max(1, max_i G_ii) bound the squared
    column norms.  Each entry of G = E^T E is within n*u*|e_i||e_j| of exact,
    so an s x s block is within n*u*trace(G_S) <= n*u*s*c in spectral norm,
    and eigvalsh adds a backward error of about s*u*|G_S| <= s*u*s*c.  Weyl's
    inequality then puts each computed eigenvalue within
    eps_lam = (n + s)*u*s*c of exact, with a factor 4 of headroom.  As
    |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) for a, b >= 0, the sigma_min term
    of the screened deviation is off by at most sqrt(eps_lam); the sigma_max
    term by as much in any case, and by eps_lam/2 once unit columns give
    lambda_max >= 1.  The SVD of the n x s columns is exact for a
    perturbation of norm about (n + s)*u*|E_S| <= (n + s)*u*sqrt(s*c), again
    with a factor 4, and that moves each singular value, hence the
    deviation, by at most that much, eps_svd.  A screened deviation is so
    within sqrt(eps_lam) + eps_svd of the SVD's, and the support that wins
    by SVD screens within twice that of the best screened value.
    ``_rip_clear_margin`` extends the eigenvalue bound to the Cholesky test
    that clears supports before they are screened.
    """
    u = np.finfo(float).eps / 2
    scale = s * max(float(G.diagonal().max()), 1.0)
    eps_lam = 4.0 * (n + s) * u * scale
    eps_svd = 4.0 * (n + s) * u * math.sqrt(scale)
    return 2.0 * (math.sqrt(eps_lam) + eps_svd)


def _rip_clear_margin(G, n, s):
    """How far below the screen's recheck floor a Cholesky clearance stays.

    With u, c and eps_lam as in ``_rip_screen_slack``, let scale = s*c and
    run the two factorisations of ``_rip_cleared`` on the very block G_S
    that eigvalsh screens, at a threshold tau > 0.  They factor
    A = G_S - a*I and A = b*I - G_S, with a = max(1 - tau, 0)^2 <= 1 and
    b = (1 + tau)^2 <= 4*scale (tau lies below a screened deviation, at most
    about max(1, sqrt(scale))).  So A's diagonal is at most 4*scale in size,
    forming it rounds by at most 4*u*scale, and trace(A) <= 4*s*scale.  A
    factorisation that completes gives A + dA = R^T R with
    |dA| <= gamma_{s+1}*|R^T||R| whatever order its sums take (Higham 2002,
    section 10.1; Demmel 1989), hence
    ||dA|| <= gamma_{s+1}*||R||_F^2 = gamma_{s+1}*trace(A + dA), at most
    about (s + 1)*u*trace(A).  With the rounding of the diagonal, R^T R is
    within eps_chol = 4*(s + 1)^2*u*scale in norm of the exact G_S - a*I (or
    b*I - G_S), and it is positive definite.  So two completed
    factorisations give lambda_min(G_S) > a - eps_chol and
    lambda_max(G_S) < b + eps_chol.  eigvalsh moves each by at most
    eps_lam/4 (eps_lam carries a factor 4 of headroom), and by the
    square-root inequality of ``_rip_screen_slack``, with 1 - sqrt(a) <= tau
    and sqrt(b) - 1 = tau, both terms of the screened deviation lie below
    tau + sqrt(eps_chol + eps_lam/4).  The margin is four times that root.
    A support cleared at tau = best - slack - margin thus screens below
    best - slack - 3*margin/4, outside the recheck set, and the excess covers
    the rounding of tau, a and b.
    """
    u = np.finfo(float).eps / 2
    scale = s * max(float(G.diagonal().max()), 1.0)
    return 4.0 * math.sqrt(u * scale * (n + s + 4 * (s + 1) ** 2))


def _rip_cleared(B, tau):
    """Which blocks B[:, :, i] Cholesky puts strictly inside ((1 - tau)^2, (1 + tau)^2).

    Factors B - max(1 - tau, 0)^2 I and (1 + tau)^2 I - B, for all blocks
    at once in an entry-major (s, s, 2, m) layout and on the lower triangle
    only, and reports the blocks whose pivots all stay positive in both.
    A block that fails keeps a pivot of 1 from then on, so its arithmetic
    stays finite.
    """
    k, _, m = B.shape
    eye = np.eye(k)[:, :, None]
    A = np.empty((k, k, 2, m))
    np.subtract(B, max(1.0 - tau, 0.0) ** 2 * eye, out=A[:, :, 0])
    np.subtract((1.0 + tau) ** 2 * eye, B, out=A[:, :, 1])
    ok = np.ones((2, m), dtype=bool)
    for j in range(k):
        piv = A[j, j]
        ok &= piv > 0.0
        col = A[j + 1:, j] / np.sqrt(np.where(ok, piv, 1.0))
        for i in range(j + 1, k):
            A[i, j + 1:i + 1] -= col[i - j - 1] * col[:i - j]
    return ok.all(axis=0)


def _rip_screened(G, T):
    """Deviation of each support (row of T) from the end eigenvalues of its Gram block."""
    lam = np.linalg.eigvalsh(G[T[:, :, None], T[:, None, :]])
    return np.maximum(1.0 - np.sqrt(np.maximum(lam[:, 0], 0.0)), np.sqrt(lam[:, -1]) - 1.0)


def rip_constant(X_unit: DesignMatrix, s: int, cap: int = DEFAULT_ENUM_CAP,
                 sample_supports: int | None = None,
                 seed: SeedSpec | None = None) -> Certificate:
    """Worst singular-value deviation from 1 over all s-column submatrices.

    The caller passes the design with unit columns (the normalized convention
    divided by sqrt(n)); the value is max(1 - sigma_min, sigma_max - 1) over
    supports of size exactly s, which dominates all smaller supports.

    A screen reads a support's deviation from the end eigenvalues of its
    s x s block of G = E^T E.  Every support whose screened deviation lies
    within a rounding slack of the best (``_rip_screen_slack``) is then
    rechecked by the SVD of its n x s columns, and the value and witness (the
    first maximiser in enumeration order) come from those SVDs, so they equal
    an SVD of every support.  The report's residual is the largest gap
    between a screened and a rechecked deviation, at most half the slack.

    Most supports never reach the screen.  Chunk by chunk, the 8 blocks
    farthest from I in Frobenius norm are screened first; then, with best the
    largest deviation screened so far, two Cholesky factorisations
    (``_rip_cleared``) at tau = best - slack - margin clear every block whose
    eigenvalues they place inside ((1 - tau)^2, (1 + tau)^2).  The margin
    (``_rip_clear_margin``) bounds the Cholesky and eigvalsh rounding, so a
    cleared support screens below best - slack, outside the recheck set,
    and skipping its screen changes no output.  The other blocks are screened.
    """
    d = X_unit.n_cols
    if not 1 <= s <= d:
        raise ValueError(f"need 1 <= s <= d, got s={s}")
    n_sup = comb(d, s)
    if sample_supports is not None and sample_supports < 1:
        raise ValueError(f"sample_supports must be at least 1, got {sample_supports}")
    if sample_supports is None:
        if n_sup > cap:
            raise EnumerationTooLargeError(
                f"{n_sup} supports exceed the cap {cap}; pass sample_supports "
                f"for a sampled lower bound"
            )
        supports = _combinations(range(d), s)
        complete = True
    else:
        rng = seeded_stream(seed if seed is not None else DEFAULT_SOLVER_SEED)
        supports = _sampled_subsets(rng, np.arange(d), s, sample_supports)
        complete = False
    E = X_unit.entries
    G = E.T @ E
    slack = _rip_screen_slack(G, X_unit.n_rows, s)
    margin = _rip_clear_margin(G, X_unit.n_rows, s)
    flat = G.ravel()
    eye = np.eye(s)[:, :, None]
    chunk = 4096
    screened = np.full(supports.shape[0], -np.inf)
    best = -np.inf
    for lo in range(0, supports.shape[0], chunk):
        T = supports[lo:lo + chunk]
        B = flat[T.T[:, None] * d + T.T[None, :]]
        D = B - eye
        far = np.einsum("ijm,ijm->m", D, D)
        lead = np.argpartition(far, -min(8, far.size))[-8:]
        vals = screened[lo:lo + chunk]
        vals[lead] = _rip_screened(G, T[lead])
        best = max(best, float(vals[lead].max()))
        tau = best - slack - margin
        todo = ~_rip_cleared(B, tau) if tau > 0.0 else np.ones(T.shape[0], dtype=bool)
        todo[lead] = False
        if todo.any():
            vals[todo] = _rip_screened(G, T[todo])
            best = max(best, float(vals[todo].max()))
    rechecked = np.flatnonzero(screened >= screened.max() - slack)
    best = -1.0
    best_i = 0
    residual = 0.0
    for lo in range(0, rechecked.size, chunk):
        idx = rechecked[lo:lo + chunk]
        sv = np.linalg.svd(np.moveaxis(E[:, supports[idx]], 0, 1), compute_uv=False)
        dev = np.maximum(1.0 - sv[:, -1], sv[:, 0] - 1.0)
        residual = max(residual, float(np.abs(dev - screened[idx]).max()))
        i = int(np.argmax(dev))
        if float(dev[i]) > best:
            best = float(dev[i])
            best_i = int(idx[i])
    witness = SupportSet(d, tuple(int(i) for i in supports[best_i]))
    return Certificate(
        kind=KIND_RIP, value=best, witness=witness, method="enumeration",
        solver_report=SolverReport(iterations=supports.shape[0], restarts=1,
                                   residual=residual, complete=complete),
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
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative, not NaN")
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
