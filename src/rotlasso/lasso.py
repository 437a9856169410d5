"""Constrained Lasso by accelerated projected gradient over an l1 ball, plus
error metrics.

The solver minimizes the residual ||y - X b||^2 subject to ||b||_1 <= radius
by monotone FISTA (Beck & Teboulle 2009) with gradient-based adaptive restart
(O'Donoghue & Candes 2015), on the exact sort-and-threshold ball projection.
Its step is 1/L for L = sigma_max(X)^2 (gradient of the half-residual), the
top eigenvalue of the smaller of X^T X and X X^T.  A candidate that would
raise the objective is rejected, which keeps the objective trace
non-increasing.  Once the signs of the kept point settle, the problem on
their face of the ball is solved exactly by least squares (the active-set
view; Osborne, Presnell and Turlach 2000), and the solve stops when the
Frank-Wolfe duality gap (Jaggi 2013) at that face point certifies a relative
suboptimality of ``LASSO_TOL``.  The solve closes with one plain
projected-gradient step, whose length is a checkable fixed-point optimality
residual, and reports the duality gap at its end point, a bound on its
objective's distance to the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._projection import project_l1
from .core import (
    DesignMatrix,
    InvalidSupportError,
    SeedSpec,
    SparseVector,
    SupportSet,
    seeded_stream,
)

# stopping rules of lasso_constrained: the duality gap at a face point, or the
# relative objective decrease over a 50-iteration window, at most LASSO_TOL
# times the objective; and an iteration cap past which it reports non-convergence
LASSO_TOL = 1e-8
LASSO_MAX_ITER = 200_000
# accepted steps with one sign vector before the face solve tries it
FACE_AFTER = 3


@dataclass(frozen=True, eq=False)
class RegressionInstance:
    """A design and a response."""

    X: DesignMatrix
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if y.size != self.X.n_rows:
            raise ValueError(f"y has length {y.size}, expected n={self.X.n_rows}")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)


@dataclass(eq=False)
class LassoSolution:
    beta_hat: np.ndarray
    radius: float
    objective: float
    iterations: int
    converged: bool
    fixed_point_residual: float = 0.0
    duality_gap: float = 0.0
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # the rule that ended the loop: "gap", "window", "short" or "cap"
    stop: str | None = None


def synth_response(X: DesignMatrix, beta: SparseVector, sigma: float,
                   seed: SeedSpec) -> RegressionInstance:
    """y = X beta + sigma * g with g standard normal from the stream."""
    if beta.dim != X.n_cols:
        raise ValueError(f"beta dim {beta.dim} does not match d={X.n_cols}")
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative, not NaN")
    y = X.entries @ beta.to_dense()
    if sigma > 0:
        y = y + sigma * seeded_stream(seed).standard_normal(X.n_rows)
    return RegressionInstance(X=X, y=y)


# the public name of the single-vector ball projection
project_l1_ball = project_l1


def _face_step(X, y, b, radius):
    """The minimum of ||y - X beta||^2 on the face of the ball that holds b,
    or None when it leaves that face.

    The face keeps the support A of b and its signs s, so the l1 norm is
    s^T beta there.  Where the ball binds at b, the face is the hyperplane
    s^T beta = radius, written beta0 + B u: beta0 is its point nearest b_A
    and B an orthonormal basis of s^perp (columns 2..m of the Householder
    reflector that maps s/sqrt(m) to a multiple of e_1).  Elsewhere
    beta0 = b_A and B = I.  u is the least-squares solution of
    X_A B u = y - X_A beta0, from the eigendecomposition of (X_A B)^T X_A B,
    which is singular when columns repeat or |A| > n: eigenvalues below
    m eps times the largest count as zero, so u has minimum norm and ties
    go to the point nearest beta0.  The point is returned, with its
    residual X beta - y, only if it keeps every sign in s and lies in the
    ball after a scale-back of rounding size.
    """
    A = np.flatnonzero(b)
    m = A.size
    if m == 0:
        return None
    s = np.sign(b[A])
    XA = X[:, A]
    beta = b[A]
    eps = np.finfo(float).eps
    if np.abs(beta).sum() >= (1.0 - np.sqrt(eps)) * radius:
        beta = beta + (radius - float(s @ beta)) / m * s
        v = s / np.sqrt(m)
        v[0] += s[0]
        B = np.eye(m)[:, 1:] - (2.0 / float(v @ v)) * np.outer(v, v[1:])
    else:
        B = np.eye(m)
    XB = XA @ B
    lam, V = np.linalg.eigh(XB.T @ XB)
    keep = lam > m * eps * lam.max(initial=0.0)
    V = V[:, keep]
    beta = beta + B @ (V @ ((V.T @ (XB.T @ (y - XA @ beta))) / lam[keep]))
    if not np.array_equal(np.sign(beta), s):
        return None
    l1 = float(np.abs(beta).sum())
    if l1 > radius:
        if l1 > radius * (1.0 + 4.0 * m * eps):
            return None
        beta *= radius / l1
    out = np.zeros_like(b)
    out[A] = beta
    return out, XA @ beta - y


def lasso_constrained(instance: RegressionInstance, radius: float) -> LassoSolution:
    """Monotone FISTA with adaptive restart for the l1-constrained least squares
    problem, finished by an exact solve on the face of its settled signs.

    Starts from zero.  Each iteration takes a projected-gradient step from the
    extrapolated point w to a candidate z, at one product with X^T and one with
    X; w's residual follows from the kept ones by linearity.  A candidate
    whose objective exceeds the kept one is rejected and the momentum reset,
    so the next step is a plain projected-gradient step from the kept point.
    The momentum also restarts when <w - z, z - b> > 0 for the kept point b.

    Once the kept point has shown the same sign vector after
    ``FACE_AFTER`` accepted steps, ``_face_step`` solves the problem on that
    face exactly, once per sign vector (the active-set view; Osborne,
    Presnell and Turlach 2000).  The face point replaces b when it keeps the
    signs, lies in the ball and has no higher objective; that counts as an
    iteration and enters the objective trace, and the momentum resets.  The
    loop stops (``stop``) when the duality gap at an adopted face point is
    at most ``LASSO_TOL`` times its objective ("gap"), when the relative
    objective decrease over a 50-iteration window falls below ``LASSO_TOL``
    ("window"), once a step is negligible ("short"), or at
    ``LASSO_MAX_ITER`` ("cap").  One plain projected-gradient step from the
    kept point then gives beta_hat; its length is the
    ``fixed_point_residual`` and decides ``converged``.  The solution is
    feasible either way.

    ``duality_gap`` is the Frank-Wolfe gap g^T beta_hat + radius ||g||_inf of
    the objective f(b) = ||y - X b||^2 at beta_hat, g = grad f(beta_hat):
    f is convex, so f(beta_hat) - f(b) <= g^T (beta_hat - b) for every b in
    the ball, and the right side is at most the gap.  It bounds the
    objective's distance to the optimum from one X^T r at beta_hat; the gap
    stop applies the same bound at the face point.
    """
    if not radius >= 0:
        raise ValueError("radius must be non-negative, not NaN")
    X = instance.X.entries
    y = instance.y
    if radius == 0.0:
        obj = float(y @ y)
        return LassoSolution(np.zeros(instance.X.n_cols), 0.0, obj, 0, True,
                             objective_trace=np.array([obj]), stop="gap")

    # sigma_max(X)^2 is the top eigenvalue of the smaller Gram matrix
    gram = X @ X.T if X.shape[0] < X.shape[1] else X.T @ X
    L = max(float(np.linalg.eigvalsh(gram)[-1]), 1e-300)
    step = 1.0 / L
    b = np.zeros(instance.X.n_cols)
    r = -y
    obj = float(r @ r)
    trace = [obj]
    w, r_w = b, r
    t = 1.0
    window = 50
    signs, settled, tried = np.sign(b), 0, None
    stop = "cap"
    it = 0
    while it < LASSO_MAX_ITER:
        z = project_l1(w - step * (X.T @ r_w), radius)
        r_z = X @ z - y
        obj_z = float(r_z @ r_z)
        it += 1
        short = float(np.linalg.norm(z - w)) <= 1e-9 * (1.0 + float(np.linalg.norm(z)))
        if obj_z <= obj:
            dz = z - b
            if (w - z) @ dz > 0.0:
                t, mom = 1.0, 0.0
            else:
                t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
                t, mom = t_new, (t - 1.0) / t_new
            w, r_w = z + mom * dz, r_z + mom * (r_z - r)
            b, r, obj = z, r_z, obj_z
            z_signs = np.sign(b)
            settled = settled + 1 if np.array_equal(z_signs, signs) else 1
            signs = z_signs
        else:
            t = 1.0
            w, r_w = b, r
        trace.append(obj)
        if short:
            stop = "short"
            break
        if it >= window:
            prev = trace[-1 - window]
            if prev - obj < LASSO_TOL * max(prev, 1e-300):
                stop = "window"
                break
        if settled >= FACE_AFTER and it < LASSO_MAX_ITER and not np.array_equal(signs, tried):
            tried = signs
            face = _face_step(X, y, b, radius)
            obj_f = np.inf if face is None else float(face[1] @ face[1])
            if obj_f <= obj:
                (b, r), obj = face, obj_f
                it += 1
                trace.append(obj)
                t, w, r_w = 1.0, b, r
                g = X.T @ r
                if 2.0 * (float(g @ b) + radius * float(np.abs(g).max())) <= LASSO_TOL * obj:
                    stop = "gap"
                    break
    b_new = project_l1(b - step * (X.T @ r), radius)
    r = X @ b_new - y
    res = float(np.linalg.norm(b_new - b))
    trace.append(float(r @ r))
    converged = res <= 1e-6 * (1.0 + float(np.linalg.norm(b_new)))
    g = 2.0 * (X.T @ r)
    return LassoSolution(
        beta_hat=b_new,
        radius=radius,
        objective=trace[-1],
        iterations=it + 1,
        converged=converged,
        fixed_point_residual=res,
        duality_gap=float(g @ b_new) + radius * float(np.abs(g).max()),
        objective_trace=np.asarray(trace),
        stop=stop,
    )


def prediction_error(X: DesignMatrix, beta_hat, beta) -> float:
    """(1/n) ||X (beta_hat - beta)||^2."""
    bh = np.asarray(beta_hat, dtype=np.float64).ravel()
    bt = beta.to_dense() if isinstance(beta, SparseVector) else np.asarray(beta, float).ravel()
    if bh.size != X.n_cols or bt.size != X.n_cols:
        raise ValueError("vector dimensions must match the design")
    diff = X.entries @ (bh - bt)
    return float(diff @ diff) / X.n_rows


def parameter_errors(beta_hat, beta: SparseVector, S: SupportSet) -> tuple[float, float]:
    """(l1 error, squared l2 error of the support-restricted estimate)."""
    if S != beta.support():
        raise InvalidSupportError("S must equal the support of beta")
    bh = np.asarray(beta_hat, dtype=np.float64).ravel()
    if bh.size != beta.dim:
        raise ValueError("beta_hat dimension must match beta")
    bt = beta.to_dense()
    l1 = float(np.abs(bh - bt).sum())
    restricted = np.zeros_like(bh)
    idx = S.array()
    restricted[idx] = bh[idx]
    diff = restricted - bt
    return l1, float(diff @ diff)
