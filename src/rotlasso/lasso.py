"""Constrained Lasso by accelerated projected gradient over an l1 ball, plus
error metrics.

The solver minimizes the residual ||y - X b||^2 subject to ||b||_1 <= radius
by monotone FISTA (Beck & Teboulle 2009) with gradient-based adaptive restart
(O'Donoghue & Candes 2015), on the exact sort-and-threshold ball projection.
Its step is 1/L for L = sigma_max(X)^2 (gradient of the half-residual), the
top eigenvalue of the smaller of X^T X and X X^T.  A candidate that would
raise the objective is rejected, which keeps the objective trace
non-increasing.  The solve closes with one plain projected-gradient step,
whose length is a checkable fixed-point optimality residual.
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

# stopping rule of lasso_constrained: relative objective decrease over a
# 50-iteration window, and an iteration cap past which it reports non-convergence
LASSO_TOL = 1e-8
LASSO_MAX_ITER = 200_000


@dataclass(frozen=True, eq=False)
class RegressionInstance:
    """A design, a response, and (for synthetic data) the planted truth."""

    X: DesignMatrix
    y: np.ndarray
    beta_true: SparseVector | None = None
    sigma: float = 0.0
    seed: SeedSpec | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if y.size != self.X.n_rows:
            raise ValueError(f"y has length {y.size}, expected n={self.X.n_rows}")
        if not self.sigma >= 0:
            raise ValueError("sigma must be non-negative, not NaN")
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
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))


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
    return RegressionInstance(X=X, y=y, beta_true=beta, sigma=sigma, seed=seed)


# the public name of the single-vector ball projection
project_l1_ball = project_l1


def lasso_constrained(instance: RegressionInstance, radius: float) -> LassoSolution:
    """Monotone FISTA with adaptive restart for the l1-constrained least squares
    problem.

    Starts from zero.  Each iteration takes a projected-gradient step from the
    extrapolated point w to a candidate z, at one product with X^T and one with
    X; w's residual follows from the kept ones by linearity.  A candidate
    whose objective exceeds the kept one is rejected and the momentum reset,
    so the next step is a plain projected-gradient step from the kept point.
    The momentum also restarts when <w - z, z - b> > 0 for the kept point b.
    The loop stops when the relative objective decrease over a 50-iteration
    window falls below ``LASSO_TOL``, once a step is negligible, or at
    ``LASSO_MAX_ITER``.  One plain projected-gradient step from the kept point
    then gives beta_hat; its length is the ``fixed_point_residual`` and decides
    ``converged``.  The solution is feasible either way.
    """
    if not radius >= 0:
        raise ValueError("radius must be non-negative, not NaN")
    X = instance.X.entries
    y = instance.y
    if radius == 0.0:
        obj = float(y @ y)
        return LassoSolution(np.zeros(instance.X.n_cols), 0.0, obj, 0, True,
                             0.0, np.array([obj]))

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
        else:
            t = 1.0
            w, r_w = b, r
        trace.append(obj)
        if short:
            break
        if it >= window:
            prev = trace[-1 - window]
            if prev - obj < LASSO_TOL * max(prev, 1e-300):
                break
    b_new = project_l1(b - step * (X.T @ r), radius)
    r = X @ b_new - y
    res = float(np.linalg.norm(b_new - b))
    trace.append(float(r @ r))
    converged = res <= 1e-6 * (1.0 + float(np.linalg.norm(b_new)))
    return LassoSolution(
        beta_hat=b_new,
        radius=radius,
        objective=trace[-1],
        iterations=it + 1,
        converged=converged,
        fixed_point_residual=res,
        objective_trace=np.asarray(trace),
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
