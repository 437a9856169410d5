"""Constrained Lasso by projected gradient over an l1 ball, plus error metrics.

The solver minimizes the residual ||y - X b||^2 subject to ||b||_1 <= radius,
with the exact sort-and-threshold ball projection and step 1/L for
L = sigma_max(X)^2 (gradient of the half-residual).  That makes the objective
trace non-increasing and yields a checkable fixed-point optimality residual.
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
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
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
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    y = X.entries @ beta.to_dense()
    if sigma > 0:
        y = y + sigma * seeded_stream(seed).standard_normal(X.n_rows)
    return RegressionInstance(X=X, y=y, beta_true=beta, sigma=sigma, seed=seed)


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Exact Euclidean projection of v onto the l1 ball of the given radius."""
    return project_l1(np.asarray(v, dtype=np.float64), radius)


def lasso_constrained(instance: RegressionInstance, radius: float, tol: float = 1e-8,
                      max_iter: int = 200_000) -> LassoSolution:
    """Projected gradient descent for the l1-constrained least squares problem.

    Starts from zero, stops when the relative objective decrease over a
    50-iteration window falls below ``tol`` (or earlier once the fixed-point
    residual is negligible); hitting ``max_iter`` flags the solution as not
    converged but it remains feasible.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    X = instance.X.entries
    y = instance.y
    if radius == 0.0:
        obj = float(y @ y)
        return LassoSolution(np.zeros(instance.X.n_cols), 0.0, obj, 0, True,
                             0.0, np.array([obj]))

    sigma_max = float(np.linalg.svd(X, compute_uv=False)[0])
    L = max(sigma_max * sigma_max, 1e-300)
    step = 1.0 / L
    b = np.zeros(instance.X.n_cols)
    r = X @ b - y
    trace = [float(r @ r)]
    window = 50
    res = np.inf
    it = 0
    while it < max_iter:
        grad_half = X.T @ r
        b_new = project_l1(b - step * grad_half, radius)
        r = X @ b_new - y
        res = float(np.linalg.norm(b_new - b))
        b = b_new
        trace.append(float(r @ r))
        it += 1
        if res <= 1e-9 * (1.0 + float(np.linalg.norm(b))):
            break
        if it >= window:
            prev = trace[-1 - window]
            if prev - trace[-1] < tol * max(prev, 1e-300):
                break
    converged = res <= 1e-6 * (1.0 + float(np.linalg.norm(b)))
    return LassoSolution(
        beta_hat=b,
        radius=radius,
        objective=trace[-1],
        iterations=it,
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
