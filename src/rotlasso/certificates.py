"""Restricted-eigenvalue, orthogonality, and isometry certificates with witnesses.

Minimization constants (the two restricted-eigenvalue variants, the restricted
smallest eigenvalue) are certified by feasible points, so reported values are
upper bounds on the true constants; they equal the objective at the returned
witness.  Maximization constants (restricted normalized orthogonality,
restricted isometry deviation) are exact when computed by complete
enumeration, and lower bounds when sampled.  The isometry enumeration takes
the SVD of every support except those that a Cholesky test on their block
of the Gram matrix places a derived rounding margin below the best, so its
value and witness are those of an SVD of every support.

Computing a restricted eigenvalue exactly is intractable in general.  But
the cone is a subset of R^d, so its minimum is at least the minimum of the
same quotient over R^d, which has a closed form: the smallest eigenvalue of
the Gram matrix (gamma'), or of the S' columns with the span of the rest
projected out (gamma).  When that free minimiser lies in the cone it attains
the cone's minimum, and the multistart returns it with no search; this is
the regime in which the rest of the design is decorrelated from S'.  When
the certified set covers every column, both variants are this smallest
eigenvalue of the Gram matrix, for either method.  Otherwise a search runs:
one batched monotone projected-gradient descent over the cone, finished by
one exact solve on the face of the cone that holds its best point.  Each
step of the descent maps back by the exact Euclidean projection onto the
convex piece of the cone around the point the step starts from, so a
finished descent is stationary.  Mode gamma with the cone on S' itself
starts it from the 8 best of a set of unit directions of the cone block,
each with its inner minimiser over the off-support l1 ball, solved to a
coarse tolerance; the multistart takes the restarts' directions, and on
small instances with at most 3 certified coordinates the independent
oracle, which never takes the closed form, takes a 2 degree angular grid.
Every other case (mode gamma', or a cone larger than S') starts it from 64
and more restarts.

The descent stops on a certificate: once the best column's fixed-point
residual is at most sqrt(u) lambda_max(G), u the unit roundoff.  The
objective is second order in that residual at a stationary point, so the
tolerance leaves the value within rounding, times the local condition
number, of a descent run to the end (``_descend`` gives the derivation).
Otherwise it stops at ``_DESCENT_CAP`` iterations, and every inner solve at
``_INNER_CAP``; the report says which rule stopped the descent, and a
search is ``converged`` only when the residual test passed.  On the face of
its best point, where the signs are fixed, both l1 norms are linear, so the
minimum there is one linear constraint and one small eigenproblem
(``_face_solve``): the active-set view of the constrained Lasso (Osborne,
Presnell and Turlach 2000).  Its point replaces the descent's when it stays
on that face and in the cone and its objective is no higher.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from math import comb

import numpy as np

from ._projection import project_l1_columns, project_l1_cone_columns
from .core import (
    BASIS_RANK_RTOL,
    DegenerateInputError,
    DesignMatrix,
    EnumerationTooLargeError,
    InvalidSupportError,
    SeedSpec,
    SparseVector,
    SupportSet,
    orthonormal_basis,
    seeded_stream,
    sparse_vector_to_json_dict,
)
from .designs import RotationKind, partially_rotate

DEFAULT_ENUM_CAP = 1_000_000
# supports per batched SVD of ``_masked_bases``, and support pairs per chunk
# of ``_pair_values_max``
_BASIS_CHUNK = 2048
_CHUNK_PAIRS = 200_000
# iteration caps of every inner solve and of every descent; a solve that
# reaches its cap reports that it did not converge
_INNER_CAP = 100_000
_DESCENT_CAP = 6_000
# coarse relative residual of the inner solve, which only ranks mode gamma's starts
_INNER_TOL = 1e-5
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
    # the rule that ended an iterative descent: "residual" or "cap"
    stop: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


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
            witness = {"type": "vector", **sparse_vector_to_json_dict(w)}
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


def cone_membership(z, cone: ConeSpec) -> bool:
    """Whether the off-support l1 mass of z is at most L times the on-support mass."""
    zd = z.to_dense() if isinstance(z, SparseVector) else np.asarray(z, dtype=np.float64)
    if zd.size != cone.S.dim:
        raise InvalidSupportError(f"vector dim {zd.size} does not match cone dim {cone.S.dim}")
    on = float(np.abs(zd[cone.S.array()]).sum())
    off = float(np.abs(zd).sum()) - on
    return off <= cone.L * on + 1e-12


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


def _inner_min(G, B, radii):
    """FISTA with gradient restarts for min_v 2 b^T v + v^T G v, ||v||_1 <= r.

    B holds one column b per problem; radii one radius per problem.  Columns
    converged to ``_INNER_TOL`` are frozen and dropped from the working set,
    so the cost tracks the hard problems only; the solve stops after
    ``_INNER_CAP`` iterations.  Returns (V, iterations).
    """
    q, m = B.shape
    if q == 0 or m == 0:
        return np.zeros((q, m)), 0
    step = _step(G)
    out = np.zeros((q, m))
    active = np.arange(m)
    V, W, Ba, ra = out.copy(), out.copy(), B, radii
    t = np.ones(m)
    it = 0
    while it < _INNER_CAP and active.size:
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
        if it % 25 == 0 or it >= _INNER_CAP:
            g = 2.0 * (Ba + G @ V)
            res = (_col_norms(project_l1_columns(V - step * g, ra) - V)
                   / (1.0 + _col_norms(V)))
            keep = ~(res <= _INNER_TOL)  # not converged; a NaN residual counts as such
            if keep.all():
                continue
            out[:, active] = V
            if not keep.any():
                return out, it
            active = active[keep]
            V, W, t = V[:, keep], W[:, keep], t[keep]
            Ba, ra = Ba[:, keep], ra[keep]
    out[:, active] = V
    return out, it


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


def _certificate(step0):
    """sqrt(u) lambda_max(G), u the unit roundoff, from ``step0`` =
    1 / (2 lambda_max(G)): the residual at which a descent stops
    (``_descend`` derives it)."""
    return math.sqrt(np.finfo(float).eps / 2) / (2.0 * step0)


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


def _descend(G, Z, p, den, L, step0):
    """Monotone projected gradient on z^T G z / ||z_den||^2, batched over columns.

    Each step follows the Rayleigh gradient 2 (G z - rho z_den) and maps back
    with ``_feasible``: the exact projection onto the convex piece of the cone
    around the current point, so a column stops moving only at a stationary
    point.  A column's step grows by 2% after an accepted step and halves
    after a rejected one, so no column's objective ever rises.  Start
    columns with a vanishing denominator are dropped.

    Every 20 iterations the best column's fixed-point residual
    ||z - P(z - t grad)|| / t, with t = ``step0`` = 1 / (2 lambda_max(G)) and
    P = ``_feasible`` on z's sign pattern, is tested against
    sqrt(u) lambda_max(G), u the unit roundoff, and the descent stops once it
    passes.  The residual vanishes exactly at a stationary point.  The
    tolerance is derived, not tuned.  The residual is the length of one
    projected-gradient step divided by t, and z and its step are unit-scale
    vectors each rounded to about u, so the residual cannot be resolved
    below about u / t = 2 u lambda_max(G).  Near a stationary point z* the
    objective is second order in the residual r: z lies about r / mu from
    z*, mu the local curvature, and rho within about r^2 / (2 mu) of
    rho(z*).  At r = sqrt(u) lambda_max(G), the geometric mean of that
    rounding floor and the scale lambda_max(G), this is u lambda_max(G)
    times lambda_max(G) / (2 mu): the rounding of rho = z^T G z itself
    (about u lambda_max(G) for unit z) times the local condition number.
    So the remaining iterations of a descent run to the end could move the
    best value only within rounding, up to that factor.
    Otherwise the descent stops after ``_DESCENT_CAP`` iterations.

    Returns (Z, rho, iterations, residual, stop), with ``residual`` that of
    the best column at exit and ``stop`` the rule that ended the descent:
    "residual" or "cap".
    """
    tol = _certificate(step0)
    Z, GZ, rho = _feasible(G, Z, p, den, L, np.sign(Z[:p]))
    keep = np.isfinite(rho)
    Z, GZ, rho = Z[:, keep], GZ[:, keep], rho[keep]
    eta = np.full(rho.size, step0)

    def best_residual():
        if not rho.size:
            return math.inf
        b = int(np.argmin(rho))
        z, grad = Z[:, b], 2.0 * GZ[:, b]
        grad[den] -= 2.0 * rho[b] * z[den]
        moved, _, _ = _feasible(G, (z - step0 * grad)[:, None], p, den, L,
                                np.sign(z[:p, None]))
        return float(np.linalg.norm(moved[:, 0] - z)) / step0

    it = 0
    stop = "cap"
    while it < _DESCENT_CAP and stop == "cap":
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
        if it % 20 == 0 and best_residual() <= tol:
            stop = "residual"
    return Z, rho, it, best_residual(), stop


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


def _face_solve(G, z, p, den, L):
    """The minimum of the RE quotient on the face of the cone that holds z, in
    closed form; returns it when it stays on that face and in the cone, else None.

    The face fixes the signs sigma of z's cone block and s_A of its nonzero
    off-support coordinates A, and keeps every other coordinate at 0.  Both
    l1 norms are linear on it, so where the cone binds at z the cone is the
    one linear constraint a^T w = 0 on w = z_F, with F the cone block and A,
    and a = (-L sigma, s_A).  Mode gamma eliminates the coordinates Y of F
    outside the denominator rows D: for each u = w_D, the best w_Y solves the
    KKT system [[G_YY, a_Y], [a_Y^T, 0]] [w_Y; mu] = -[G_YD u; a_D^T u], by
    SVD least squares since G_YY is singular when |A| > n.  So w = B u with
    B = [I; M], and u is a lowest eigenvector of the p x p matrix B^T G_FF B.
    Mode gamma' takes B, with orthonormal columns, spanning a^perp.  Where the
    lowest eigenvalue is tied, the point of its eigenspace nearest z is
    taken; in mode gamma so is the KKT solution nearest z, which adds a null
    vector of the system that changes neither the objective nor a^T w.  On a
    binding face the off-support block is then scaled so that its l1 mass
    is 1 - 4 eps times L ||u||_1, against the rounding of the sums.  The
    point is returned only if it keeps the signs (sigma, s_A) and passes the
    plain cone inequality.
    """
    eps = np.finfo(float).eps
    F = np.concatenate([np.arange(p), p + np.flatnonzero(z[p:])])
    w0, signs = z[F], np.sign(z[F])
    a = np.concatenate([-L * signs[:p], signs[p:]])
    if a @ w0 < -1e-9 * L * (signs[:p] @ w0[:p]):  # z lies inside the cone
        a[:] = 0.0
    GF = G[np.ix_(F, F)]
    D = np.arange(G.shape[0])[den]
    gamma_prime = D.size == G.shape[0]  # the denominator is the whole face
    if gamma_prime:
        B = np.linalg.svd(a[None, :])[2][1:].T if a.any() else np.eye(F.size)
        x0 = B.T @ w0
    else:
        Y = np.setdiff1d(np.arange(F.size), D)
        K = np.zeros((Y.size + 1, Y.size + 1))
        K[:-1, :-1] = GF[np.ix_(Y, Y)]
        K[:-1, -1] = K[-1, :-1] = a[Y]
        U, s, Vt = np.linalg.svd(K)
        r = int(np.count_nonzero(s > s[0] * K.shape[0] * eps))
        rhs = -np.vstack([GF[np.ix_(Y, D)], a[None, D]])
        B = np.zeros((F.size, D.size))
        B[D] = np.eye(D.size)
        B[Y] = (Vt[:r].T @ ((U[:, :r].T @ rhs) / s[:r, None]))[:-1]
        x0 = w0[D]
    vals, vecs = np.linalg.eigh(B.T @ GF @ B)
    tied = vecs[:, vals <= vals[0] + 16.0 * eps * np.abs(GF).max() * (B * B).sum()]
    x = tied @ (tied.T @ x0)
    if not x.any():
        return None
    w = B @ (x / np.linalg.norm(x))
    if not gamma_prime:
        null = Vt[r:]
        w[Y] += (null.T @ (null @ np.append(w0[Y] - w[Y], 0.0)))[:-1]
    if a.any() and w[p:].any():  # onto the face's plane, 4 eps inside it
        w[p:] *= (1.0 - 4.0 * eps) * L * np.abs(w[:p]).sum() / np.abs(w[p:]).sum()
    if not (np.all(signs * w >= 0.0)
            and np.abs(w[p:]).sum() <= L * np.abs(w[:p]).sum()):
        return None
    out = np.zeros(G.shape[0])
    out[F] = w
    return out


def _lowest_eigenpair(A, n):
    """The smallest eigenvalue of (1/n) A^T A and a unit eigenvector for it."""
    vals, vecs = np.linalg.eigh((A.T @ A) / n)
    return float(vals[0]), vecs[:, 0]


def _free_minimiser(X: DesignMatrix, S_prime: SupportSet, mode: str):
    """A minimiser of the RE quotient over all of R^d, in closed form, dense.

    In mode gamma_prime it is an eigenvector of lambda_min(X^T X / n).  In
    mode gamma, with R the columns outside S', the inner minimum over
    z_R = v of ||X_{S'} u + X_R v||^2 is ||(I - P_R) X_{S'} u||^2, P_R the
    projector onto span(X_R), attained with least norm at
    v = -X_R^+ X_{S'} u.  So u is an eigenvector of lambda_min(M^T M / n)
    with M = (I - P_R) X_{S'}, and one thin SVD of X_R gives P_R and X_R^+,
    without the singular values below numpy's rank tolerance.  No d x d
    matrix is formed in this mode.
    """
    rest = S_prime.complement().array()
    if mode == "gamma_prime" or rest.size == 0:
        return _lowest_eigenpair(X.entries, X.n_rows)[1]
    sp = S_prime.array()
    XS, XR = X.entries[:, sp], X.entries[:, rest]
    U, s, Vt = np.linalg.svd(XR, full_matrices=False)
    r = int(np.count_nonzero(s > s[0] * max(XR.shape) * np.finfo(float).eps))
    C = U[:, :r].T @ XS
    u = _lowest_eigenpair(XS - U[:, :r] @ C, X.n_rows)[1]
    z = np.zeros(X.n_cols)
    z[sp] = u
    z[rest] = -Vt[:r].T @ ((C @ u) / s[:r])
    return z


def _re_search(X: DesignMatrix, cone: ConeSpec, S_prime: SupportSet, mode: str,
               method: str, seed: SeedSpec | None, n_starts: int):
    """The iterative solver of ``re_constant``: one batched descent from a set
    of starts, finished by one face solve; returns (dense witness, report)."""
    order = np.concatenate([cone.S.array(), cone.S.complement().array()])
    E = X.entries[:, order]
    G = (E.T @ E) / X.n_rows
    p = cone.S.size
    sp = np.searchsorted(cone.S.array(), S_prime.array())
    starts = _starts(G, p, sp, cone.L, seed, n_starts)
    sweeps = 0
    if cone.S.indices == S_prime.indices and mode == "gamma":
        # unit directions of the cone block, each with its inner minimiser over
        # the off-support l1 ball to a coarse tolerance; the 8 lowest start
        if method == "grid_oracle":
            U = _grid_directions(p)
        else:
            U = np.unique(starts[:p], axis=1)
            U /= np.linalg.norm(U, axis=0)
        V, sweeps = _inner_min(G[p:, p:], G[p:, :p] @ U, cone.L * np.abs(U).sum(axis=0))
        starts = np.concatenate([U, V])
        starts = starts[:, np.argsort(_quad(G, starts), kind="stable")[:8]]
        restarts, den = U.shape[1], slice(None, p)
    else:
        restarts, den = starts.shape[1], sp if mode == "gamma" else slice(None)
    Z, rho, its, residual, stop = _descend(G, starts, p, den, cone.L, _step(G))
    report = SolverReport(iterations=sweeps + its, restarts=restarts, residual=residual,
                          converged=stop == "residual", spread=float(np.ptp(rho)), stop=stop)
    best = Z[:, int(np.argmin(rho))]
    face = _face_solve(G, best, p, den, cone.L)
    dense = np.zeros((2, X.n_cols))
    dense[:, order] = best if face is None else np.stack([best, face])
    # the face point replaces the descent's only if its objective is no higher
    value = [re_objective_value(X, z, S_prime, mode) for z in dense]
    return dense[1] if value[1] <= value[0] else dense[0], report


def re_constant(X: DesignMatrix, cone: ConeSpec, S_prime: SupportSet,
                mode: str = "gamma", method: str = "multistart", *,
                seed: SeedSpec | None = None, n_starts: int = 64) -> Certificate:
    """Certified upper bound on a restricted-eigenvalue constant.

    The minimum runs over the cone of ``cone`` (usually the cone of
    ``S_prime`` itself) with the denominator taken on ``S_prime``:
    ``||z_{S'}||^2`` in mode ``gamma``, ``||z||^2`` in mode ``gamma_prime``.

    Method ``multistart`` first takes the minimiser of the quotient over
    all of R^d in closed form (``_free_minimiser``): in mode ``gamma_prime`` the
    eigenvector of the smallest eigenvalue of the Gram matrix, in mode
    ``gamma`` that of the off-support block projected out of the S' columns,
    with the least-norm off-support block.  When it lies in the cone it
    attains the minimum, and it is returned with method ``exact_svd`` and a
    report of one eigendecomposition, no descent (``stop`` None).  So is the
    smallest eigenvalue, for either method, when ``S_prime`` covers every
    column.  Otherwise the search runs (``_re_search``): one batched descent
    over whole cone vectors, on the exact projection onto the convex piece
    of the cone around each iterate, and one exact solve on the face of the
    cone that holds its best point (``_face_solve``).  Mode ``gamma`` with
    cone support ``S_prime`` starts the descent from unit directions u of
    the cone block: it solves the convex inner problem over the off-support
    l1 ball to a coarse tolerance for each, ranks them by the quadratic
    form, and descends from the 8 best.  The two methods differ only in the
    directions: ``multistart`` uses the cone blocks of the restarts
    (``n_starts`` Gaussian ones and a few deterministic ones),
    ``grid_oracle`` a 2 degree angular grid, which limits it to this mode
    and at most 3 certified coordinates, and it never takes the closed form,
    so that it stays an independent oracle.  Every other case, mode
    ``gamma_prime`` included, descends from the restarts themselves.

    The report's ``stop`` names the rule that ended the descent
    (``residual`` or ``cap``), and ``converged`` means that its residual
    test passed.  ``residual`` is the best column's fixed-point residual
    where the descent stopped, in every mode.  ``iterations`` counts the
    descent's iterations and, in mode ``gamma`` on its own cone, the sweeps
    of the batched inner solve.  ``restarts`` counts the starting points,
    and ``spread`` is the range of the descent's end values over its
    columns.
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
    if method == "grid_oracle":
        if mode != "gamma" or cone.S.indices != S_prime.indices:
            raise ValueError("grid_oracle supports mode gamma with cone support == S_prime")
        if S_prime.size > 3:
            raise ValueError("grid_oracle supports at most 3 certified coordinates")
    kind = KIND_RE_GAMMA if mode == "gamma" else KIND_RE_GAMMA_PRIME

    # the cone lies in R^d, so a free minimiser inside it attains its minimum
    z = (_free_minimiser(X, S_prime, mode)
         if method == "multistart" or S_prime.size == X.n_cols else None)
    if z is not None and (np.abs(z[cone.S.complement().array()]).sum()
                          <= cone.L * np.abs(z[cone.S.array()]).sum()):
        method, report = "exact_svd", SolverReport(iterations=1, restarts=1)
    else:
        z, report = _re_search(X, cone, S_prime, mode, method, seed, n_starts)
    witness = SparseVector.from_dense(z)
    return Certificate(kind=kind, value=re_objective_value(X, witness, S_prime, mode),
                       witness=witness, method=method, solver_report=report)


def lambda_min_restricted(X: DesignMatrix, S: SupportSet) -> Certificate:
    """Smallest eigenvalue of the scaled on-support Gram matrix, with eigenvector."""
    if S.size < 1:
        raise InvalidSupportError("support must be non-empty")
    if S.dim != X.n_cols:
        raise InvalidSupportError("support dimension must match the design")
    value, u = _lowest_eigenpair(X.entries[:, S.array()], X.n_rows)
    z = np.zeros(X.n_cols)
    z[S.array()] = u
    return Certificate(
        kind=KIND_LAMBDA_MIN,
        value=value,
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


def _row_space(E):
    """A matrix with min(n, d) rows whose columns have the inner products of E's.

    For n > d this is the d x d triangular factor R of E = QR.  Q has
    orthonormal columns, so every inner product of columns, and every
    principal angle between column spans, is the same for R as for E
    (Bjorck and Golub 1973), and each inner product of the enumeration runs
    over d entries instead of n.  For n <= d it is E itself.
    """
    n, d = E.shape
    return np.linalg.qr(E, mode="r") if n > d else E


def _masked_bases(R, supports):
    """Orthonormal span bases of R's columns on a stack of same-size supports.

    ``R`` is the row space of the design (``_row_space``), m x d.  The
    bases are stored plane by plane: the result P is min(m, s) x N x m, and
    P[a, i] is column a of the basis of support i, so that each plane P[a]
    is one contiguous N x m operand for BLAS.  Rank-deficient spans keep
    their full-width factor with the excess columns zeroed, so downstream
    products see exactly the span and nothing more.
    """
    N, s = supports.shape
    m = R.shape[0]
    out = np.empty((min(m, s), N, m))
    for lo in range(0, N, _BASIS_CHUNK):
        hi = min(lo + _BASIS_CHUNK, N)
        stack = np.moveaxis(R[:, supports[lo:hi]], 0, 1)
        U, sv, _ = np.linalg.svd(stack, full_matrices=False)
        lead = np.maximum(sv[:, :1], 1e-300)
        mask = sv > BASIS_RANK_RTOL * lead
        out[:, lo:hi] = np.moveaxis(U, 2, 0) * mask.T[:, :, None]
    return out


def _sigma_max(Pa, Pb):
    """sigma_max(Ua_k^T Ub_k) for each pair k of bases in plane layout, in one batch."""
    C = np.matmul(Pa.transpose(1, 0, 2), Pb.transpose(1, 2, 0))
    return np.linalg.svd(C, compute_uv=False)[:, 0]


def _fro2(Pa, Pb):
    """||Ua_i^T Ub_j||_F^2 for every pair (i, j) of bases in plane layout.

    The sum over the s^2 pairs (a, b) of basis columns of one BLAS product
    Pa[a] @ Pb[b]^T each, squared in place.
    """
    out = np.zeros((Pa.shape[1], Pb.shape[1]))
    plane = np.empty_like(out)
    for a in Pa:
        for b in Pb:
            np.matmul(a, b.T, out=plane)
            plane *= plane
            out += plane
    return out


def _prune_floor2(floor, m, s):
    """The least computed ||C||_F^2 of a pair whose computed sigma_max reaches ``floor``.

    Let u be the unit roundoff.  The basis columns are unit vectors or zero,
    to within about m*u.  An entry of a plane product (``_fro2``) and the
    same entry of the block C that ``_sigma_max`` forms are two computations
    of one inner product of length m, each within gamma_m, about m*u, of
    exact (Higham 2002, section 3.1).  So the s^2 plane entries P of a pair
    lie within 2*s*m*u of C in Frobenius norm, and
    ||P||_F >= ||C||_F - 2*s*m*u >= sigma_max(C) - 2*s*m*u.  The SVD of the
    s x s block returns sigma_max(C) to a relative error far below the
    fixed margin of 1e-12 (about 9000*u).  The sum of the s^2 squares, all
    of one sign, rounds ||P||_F^2 down by a factor of at most
    1 - (s^2 + 1)*u, so ||P||_F by at most (s^2 + 1)*u relatively.  With a
    factor 4 of headroom on the two derived terms, a pair whose computed
    sigma_max reaches floor shows a computed ||C||_F^2 of at least the
    square of floor*(1 - 1e-12 - 4*(s^2 + 1)*u) - 8*s*m*u, when that is
    positive.
    """
    u = np.finfo(float).eps / 2
    return max(floor * (1.0 - 1e-12 - 4.0 * (s * s + 1) * u) - 8.0 * s * m * u, 0.0) ** 2


def _pair_values_max(Pa, Pb=None, indicators=None):
    """Max (and first argmax) of sigma_max(Ua_i^T Ub_j) over pairs (i, j).

    The bases come in the plane layout of ``_masked_bases``.  With ``Pb``
    None the pairs are i < j within ``Pa`` whose supports, given as 0/1
    ``indicators`` (one row per basis), are disjoint; each unordered pair
    comes once, since sigma_max(A^T B) = sigma_max(B^T A).

    Since sigma_max(C) <= ||C||_F, a pair's s x s block C = Ua_i^T Ub_j is
    formed, and gets an SVD, only if its norm reaches a floor.  A chunk of
    about ``_CHUNK_PAIRS`` pairs, some rows i against every j, gets its
    squared norms from s^2 plane products (``_fro2``).  The floor is the
    best value so far, or the best among the chunk's 64 admissible pairs of
    largest norm; ``_prune_floor2`` keeps rounding from dropping a tied or
    winning pair.  The pairs that reach it are formed in batches whose
    gathered bases hold no more entries than a chunk holds pairs.
    """
    s, Na, m = Pa.shape
    Qb = Pa if Pb is None else Pb
    Nb = Qb.shape[1]
    batch = max(1, _CHUNK_PAIRS // (s * m))
    best = -1.0
    best_pair = (0, 0)
    rows = max(1, _CHUNK_PAIRS // max(Nb, 1))
    for lo in range(0, Na, rows):
        hi = min(lo + rows, Na)
        c0 = lo if Pb is None else 0
        fro2 = _fro2(Pa[:, lo:hi], Qb[:, c0:])
        if Pb is None:
            keep = np.arange(c0, Nb) > np.arange(lo, hi)[:, None]
            keep &= indicators[lo:hi] @ indicators[c0:].T == 0.0
            cand = np.flatnonzero(keep)
            if cand.size == 0:
                continue
        else:
            cand = np.arange(fro2.size)
        vals = fro2.ravel()[cand]
        # the admissible pairs of largest norm set a floor the winner must reach
        top = cand[np.argpartition(vals, -min(64, vals.size))[-64:]]
        ta, tb = np.unravel_index(top, fro2.shape)
        floor = max(float(_sigma_max(Pa[:, lo + ta], Qb[:, c0 + tb]).max()), best)
        ia, ib = np.unravel_index(cand[vals >= _prune_floor2(floor, m, s)], fro2.shape)
        for k in range(0, ia.size, batch):
            sv = _sigma_max(Pa[:, lo + ia[k:k + batch]], Qb[:, c0 + ib[k:k + batch]])
            j = int(np.argmax(sv))
            if float(sv[j]) > best:
                best = float(sv[j])
                best_pair = (lo + int(ia[k + j]), c0 + int(ib[k + j]))
    return min(max(best, 0.0), 1.0), best_pair


def _sampled_subsets(rng, pool, s, count):
    pool = np.asarray(pool, dtype=np.intp)
    keys = rng.random((count, pool.size))
    take = np.argpartition(keys, s - 1, axis=1)[:, :s]
    return np.sort(pool[take], axis=1)


def _combinations(pool, s):
    """Every s-subset of ``pool``, 1 <= s <= len(pool), one row each, in the
    lexicographic order of positions that ``itertools.combinations`` uses.

    The rows are filled one column at a time.  Column k lists, in order,
    every prefix's next position: a prefix ending at p goes on with
    p + 1, ..., m - s + k, a run that a cumulative sum of ones builds.  Each
    position q in column k then begins C(m - 1 - q, s - 1 - k) rows, one in
    the last column.
    """
    pool = np.asarray(pool, dtype=np.intp)
    m = pool.size
    level = np.arange(m - s + 1)
    rows = np.empty((comb(m, s), s), dtype=np.intp)
    for k in range(s):
        if k:
            counts = m - s + k - level
            steps = np.ones(int(counts.sum()), dtype=np.intp)
            steps[np.cumsum(counts[:-1])] = level[1:] + 1 - (m - s + k)
            steps[0] = level[0] + 1
            level = np.cumsum(steps, out=steps)
        if k == s - 1:
            rows[:, k] = pool[level]
        else:
            ways = np.array([comb(m - 1 - q, s - 1 - k) for q in range(m)])
            rows[:, k] = np.repeat(pool[level], ways[level])
    return rows


def rno_constant(X: DesignMatrix, S: SupportSet, s: int,
                 cap: int = DEFAULT_ENUM_CAP, sample_pairs: int | None = None,
                 seed: SeedSpec | None = None) -> Certificate:
    """Worst normalized inner product between s-column spans across the S boundary.

    Enumerates supports of size exactly s on both sides (enlarging a support
    enlarges its span, so the maximum is attained at full size).  The span
    bases are taken in the design's row space (``_row_space``), which keeps
    every principal angle.  Complete enumeration is exact: every pair's
    value is the SVD of its s x s block, unless the Frobenius-norm prune of
    ``_pair_values_max`` shows that it cannot reach the best.  When the pair
    count exceeds ``cap`` pass ``sample_pairs`` to get a sampled lower bound
    instead, from the SVD of every sampled pair's block.
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
    R = _row_space(X.entries)
    Ua = _masked_bases(R, alpha)
    Ub = _masked_bases(R, beta)
    if complete:
        value, (ia, ib) = _pair_values_max(Ua, Ub)
    else:
        sv = _sigma_max(Ua, Ub)
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
    whole family of boundary sets of size at least s.  The enumeration runs
    on span bases in the design's row space (``_row_space``) through the
    same prune as ``rno_constant`` (``_pair_values_max``); beyond the
    bases, its memory is a few arrays of one chunk of about 200,000 pairs.
    Returns the value and the first pair in enumeration order that attains
    it.  Raises ValueError unless
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
    bases = _masked_bases(_row_space(X.entries), supports)
    value, (i, j) = _pair_values_max(bases, indicators=indicators)
    return (value, tuple(int(c) for c in supports[i]),
            tuple(int(c) for c in supports[j]))


def _rip_clear_margin(G, n, s):
    """How far below the best deviation a Cholesky clearance stays.

    Let u be the unit roundoff, c = max(1, max_i G_ii) bound the squared
    column norms and scale = s*c, and run the two factorisations of
    ``_rip_cleared`` on the block G_S of G = E^T E at a threshold tau > 0.
    Each entry of G is within n*u*|e_i||e_j| of exact, so G_S is within
    eps_g = n*u*trace(G_S) <= n*u*scale of the exact E_S^T E_S in norm.  The
    factorisations factor A = G_S - a*I and A = b*I - G_S, with
    a = max(1 - tau, 0)^2 <= 1 and b = (1 + tau)^2 <= 4*scale (tau lies
    below an SVD deviation, at most max(1, sqrt(scale))).  So A's diagonal
    is at most 4*scale in size, forming it rounds by at most 4*u*scale, and
    trace(A) <= 4*s*scale.  A factorisation that completes gives
    A + dA = R^T R with |dA| <= gamma_{s+1}*|R^T||R| whatever order its sums
    take (Higham 2002, section 10.1; Demmel 1989), hence
    ||dA|| <= gamma_{s+1}*||R||_F^2 = gamma_{s+1}*trace(A + dA), at most
    about (s + 1)*u*trace(A).  With the rounding of the diagonal, R^T R is
    within eps_chol = 4*(s + 1)^2*u*scale in norm of G_S - a*I (or
    b*I - G_S), and it is positive definite.  So two completed
    factorisations put every exact squared singular value of E_S (zero
    included when E has fewer rows than S has columns) inside
    (a - eps, b + eps) with eps = eps_chol + eps_g + s*u*scale, the last
    term headroom.  As |sqrt(x) - sqrt(y)| <= sqrt(|x - y|) for x, y >= 0,
    with 1 - sqrt(a) <= tau and sqrt(b) - 1 = tau, the exact deviation lies
    below tau + sqrt(eps).  The SVD of the n x s columns is exact for a
    perturbation of norm about (n + s)*u*|E_S| <= (n + s)*u*sqrt(scale),
    which moves each singular value by at most as much; with a factor 4 of
    headroom that is eps_svd.  The margin is 4*sqrt(eps) + 2*eps_svd, so a
    support cleared at tau = best - margin has an SVD deviation below
    best - 3*sqrt(eps) - eps_svd, under best by more than half the margin,
    and the excess covers the rounding of tau, a and b.
    """
    u = np.finfo(float).eps / 2
    scale = s * max(float(G.diagonal().max()), 1.0)
    return (4.0 * math.sqrt(u * scale * (n + s + 4 * (s + 1) ** 2))
            + 8.0 * (n + s) * u * math.sqrt(scale))


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


def _rip_deviation(E, T):
    """max(1 - sigma_min, sigma_max - 1) of the columns of E in each row of T, by SVD.

    With fewer rows than columns, sigma_min is 0.
    """
    sv = np.linalg.svd(np.moveaxis(E[:, T], 0, 1), compute_uv=False)
    sigma_min = sv[:, -1] if E.shape[0] >= T.shape[1] else 0.0
    return np.maximum(1.0 - sigma_min, sv[:, 0] - 1.0)


def rip_constant(X_unit: DesignMatrix, s: int, cap: int = DEFAULT_ENUM_CAP,
                 sample_supports: int | None = None,
                 seed: SeedSpec | None = None) -> Certificate:
    """Worst singular-value deviation from 1 over all s-column submatrices.

    The caller passes the design with unit columns (the normalized convention
    divided by sqrt(n)); the value is max(1 - sigma_min, sigma_max - 1) over
    supports of size exactly s, which dominates all smaller supports.  The
    value and witness (the first maximiser in enumeration order) are those
    of an SVD of every support's n x s columns (``_rip_deviation``).

    Most supports need no SVD.  Chunk by chunk, the 8 blocks of G = E^T E
    farthest from I in Frobenius norm get their SVD first; then, with best
    the largest deviation so far, two Cholesky factorisations
    (``_rip_cleared``) at tau = best - margin clear every block whose
    eigenvalues they place inside ((1 - tau)^2, (1 + tau)^2).  The margin
    (``_rip_clear_margin``) bounds the rounding of G, the Cholesky and the
    SVD, so a cleared support's SVD deviation lies below best and skipping
    it changes no output.  Every other support gets its SVD.
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
    margin = _rip_clear_margin(G, X_unit.n_rows, s)
    flat = G.ravel()
    eye = np.eye(s)[:, :, None]
    chunk = 4096
    best = -np.inf
    best_i = 0
    for lo in range(0, supports.shape[0], chunk):
        T = supports[lo:lo + chunk]
        B = flat[T.T[:, None] * d + T.T[None, :]]
        D = B - eye
        far = np.einsum("ijm,ijm->m", D, D)
        lead = np.argpartition(far, -min(8, far.size))[-8:]
        vals = np.full(T.shape[0], -np.inf)
        vals[lead] = _rip_deviation(E, T[lead])
        tau = max(best, float(vals[lead].max())) - margin
        todo = ~_rip_cleared(B, tau) if tau > 0.0 else np.ones(T.shape[0], dtype=bool)
        todo[lead] = False
        if todo.any():
            vals[todo] = _rip_deviation(E, T[todo])
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_i = lo + i
    witness = SupportSet(d, tuple(int(i) for i in supports[best_i]))
    return Certificate(
        kind=KIND_RIP, value=best, witness=witness, method="enumeration",
        solver_report=SolverReport(iterations=supports.shape[0], restarts=1,
                                   complete=complete),
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


def partial_rotation_failure_rate(X: DesignMatrix, S: SupportSet, kind: RotationKind,
                                  epsilon: float, trials: int, seed: SeedSpec) -> int:
    """Number of partial rotations of X whose two column blocks correlate past epsilon.

    Each trial rotates the columns outside S by a fresh rotation of ``kind``
    (``partially_rotate``) and compares the sum of the S columns, which the
    rotation keeps, with the sum of the rotated columns: the trial fails when
    the cosine between the two exceeds epsilon in absolute value.  The cosine
    is symmetric in the two blocks, so passing the complement of S rotates S.
    Trials run on independent substreams, so the count is reproducible and
    order-independent; the failure rate is the count over ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not epsilon >= 0:
        raise ValueError("epsilon must be non-negative, not NaN")
    Sarr, Carr = S.array(), S.complement().array()
    floor = 1e-12 * math.sqrt(X.n_rows)
    u = X.entries[:, Sarr] @ np.ones(Sarr.size)
    nu = float(np.linalg.norm(u))
    count = 0
    for t in range(trials):
        Xp = partially_rotate(X, S, kind, seed.substream(t))
        v = Xp.entries[:, Carr] @ np.ones(Carr.size)
        nv = float(np.linalg.norm(v))
        if nu <= floor * Sarr.size or nv <= floor * Carr.size:
            raise DegenerateInputError("a block's column sum collapses to zero")
        if abs(float(u @ v)) > epsilon * nu * nv:
            count += 1
    return count
