"""Constrained Lasso on its exact homotopy path, plus error metrics.

The solver minimizes the residual ||y - X b||^2 subject to ||b||_1 <= radius.
The minimizer beta(lam) of ||y - X b||^2 / 2 + lam ||b||_1 is piecewise
linear in lam, and its l1 norm never falls as lam falls from ||X^T y||_inf
to 0, so the constrained solution is the point of that path where the norm
reaches the radius, or the path's end where the ball does not bind.  The
solver walks the path from beta = 0 one breakpoint at a time (the homotopy of
Osborne, Presnell and Turlach 2000; the LARS-lasso of Efron, Hastie,
Johnstone and Tibshirani 2004) and finds that point in closed form on its
segment.  It closes with one plain projected-gradient step, whose length is
a checkable fixed-point optimality residual, and reports the Frank-Wolfe
duality gap (Jaggi 2013) at its end point, a bound on its objective's
distance to the optimum.
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

# breakpoints past which lasso_constrained stops and reports non-convergence
LASSO_MAX_ITER = 10_000
# a column joins the path only while its squared distance from the span of
# the active columns exceeds this share of its squared norm, a distance of
# 1e-6 of its norm.  A column in the span lies at a computed distance of about
# eps cond(X_A) of its norm, far below that while cond(X_A) < 1e9; a column
# nearer than that would put cond(X_A) above 1e6, where solves with the
# active Gram matrix, of condition cond(X_A)^2, keep fewer than 4 digits.
_SPAN_TOL = 1e-12


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
    # where the path ended: on the sphere ||b||_1 = radius ("sphere"), at
    # lam = 0 inside the ball ("interior"), or on the breakpoint cap ("cap")
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


def _steps(num, den):
    """max(num, 0) / den where den > 0, inf elsewhere: the step lengths at
    which quantities closing a gap num at rate den reach it.  A negative num
    is a gap already closed, up to rounding, and gets step 0."""
    out = np.full(num.shape, np.inf)
    np.divide(np.maximum(num, 0.0), den, out=out, where=den > 0.0)
    return out


def lasso_constrained(instance: RegressionInstance, radius: float) -> LassoSolution:
    """The l1-constrained least squares solution, as the point of the Lasso
    path where ||beta||_1 reaches ``radius``.

    The path starts at beta = 0 with lam = ||X^T y||_inf and the column that
    attains it.  On each segment the active columns A, with signs s, keep
    their correlations c_A = X_A^T (y - X beta) at s lam: beta_A moves along
    d = (X_A^T X_A)^{-1} s, which lowers lam and raises ||beta||_1 = s^T beta_A
    at the rates 1 and s^T d > 0.  A segment ends at the first event:
    - an inactive column's |c_j| reaches lam, and it joins with the sign of
      the side it reached;
    - an active coordinate reaches 0, and it leaves;
    - ||beta||_1 reaches the radius ("sphere");
    - lam reaches 0 with the ball not binding ("interior"), where beta is
      least squares on A.
    Three rules keep the walk exact on degenerate designs.  Each active sign
    stays as it was when its column joined, and lam is recomputed as the
    mean of s c_A after every step: near lam = 0, c_A is rounding noise and
    its own signs are not the path's.  A join step that rounding makes
    negative is clamped to 0, so exact ties (such as c_0 = -c_1 at the start)
    join at once.  A column in the span of the active columns never joins:
    none once n columns are active, and none within ``_SPAN_TOL`` of the
    span, which is refused until the next drop.  A column in the span has a
    correlation of lam times a constant on the segment, so it is either a tie
    that adds nothing (an exact duplicate) or never reached, and it would
    make X_A^T X_A singular.  A column only near the span may be one the
    optimum needs; the end point is then off the optimum, and ``converged``
    below reports it.  ``iterations`` counts the segments plus the closing
    step; past ``LASSO_MAX_ITER`` segments the walk stops ("cap").

    One plain projected-gradient step from the path's end point then gives
    beta_hat, which always lies in the ball.  Its step is 1/L' for
    L' = ||X||_F^2 >= L = sigma_max(X)^2, a descent step at one pass over X,
    and its length delta is the ``fixed_point_residual``.  For a step 1/L the
    gap of ||y - X b||^2 / 2 is at most 4 L r delta; for 1/L' the same
    derivation gives only 2 r delta (L + L'), and delta itself shrinks by up
    to L / L'.  So neither the bound 4 L r delta that ``bench/checks.py``
    applies nor a small delta follows from the step: both hold because the
    path's end point is exact.  ``converged`` holds when the walk did not hit
    the cap, delta is at most 1e-6 (1 + ||beta_hat||), and the objective's
    distance to the optimum is at most 1e-8 ||y||^2 (the objective at b = 0,
    a scale that also covers fits whose optimum is 0).  That distance is
    bounded, with no step constant, by the duality gap below and, as the
    optimum is at least 0, by the objective itself, which is the tighter
    bound on near-exact fits with a large radius.  The objective trace holds
    the objective at every breakpoint and at beta_hat; it does not rise.

    ``duality_gap`` is the Frank-Wolfe gap g^T beta_hat + radius ||g||_inf of
    the objective f(b) = ||y - X b||^2 at beta_hat, g = grad f(beta_hat):
    f is convex, so f(beta_hat) - f(b) <= g^T (beta_hat - b) for every b in
    the ball, and the right side is at most the gap.  It bounds the
    objective's distance to the optimum from one X^T r at beta_hat.
    """
    if not radius >= 0:
        raise ValueError("radius must be non-negative, not NaN")
    X = instance.X.entries
    y = instance.y
    n, d = X.shape
    b = np.zeros(d)
    r = y.copy()
    c = X.T @ y
    lam = float(np.abs(c).max())
    trace = [float(y @ y)]
    active = np.zeros(d, dtype=bool)
    refused = np.zeros(d, dtype=bool)
    s = np.zeros(d)
    stop = "sphere" if radius == 0.0 else "interior" if lam == 0.0 else None
    if stop is None:
        j = int(np.argmax(np.abs(c)))
        active[j], s[j] = True, np.sign(c[j])
    A = np.flatnonzero(active)
    it = 0
    while stop is None and it < LASSO_MAX_ITER:
        XA, sA = X[:, A], s[A]
        G = XA.T @ XA
        dA = np.linalg.solve(G, sA)
        u = XA @ dA
        a = X.T @ u
        t, event = max(lam, 0.0), "interior"
        t_sphere = (radius - float(sA @ b[A])) / float(sA @ dA)
        if t_sphere <= t:
            t, event = max(t_sphere, 0.0), "sphere"
        t_drop = _steps(sA * b[A], -sA * dA)
        i = int(np.argmin(t_drop))
        if t_drop[i] < t:
            t, event = t_drop[i], "drop"
        t_up, t_down = _steps(lam - c, 1.0 - a), _steps(lam + c, 1.0 + a)
        t_join = np.minimum(t_up, t_down)
        t_join[active | refused] = np.inf
        while True:
            j = int(np.argmin(t_join))
            if not t_join[j] < t or A.size == n:
                break
            xj = X[:, j]
            e = xj - XA @ np.linalg.solve(G, XA.T @ xj)
            if float(e @ e) > _SPAN_TOL * float(xj @ xj):
                t, event = t_join[j], "join"
                break
            refused[j], t_join[j] = True, np.inf
        b[A] += t * dA
        r -= t * u
        c -= t * a
        it += 1
        trace.append(float(r @ r))
        if event == "drop":
            b[A[i]], active[A[i]] = 0.0, False
            refused[:] = False
        elif event == "join":
            active[j], s[j] = True, 1.0 if t_up[j] <= t_down[j] else -1.0
        else:
            stop = event
        A = np.flatnonzero(active)
        lam = float(s[A] @ c[A]) / A.size
    stop = stop or "cap"

    r = y - X[:, A] @ b[A]
    # any L >= sigma_max(X)^2 makes 1/L a descent step
    L = max(float(np.einsum("ij,ij->", X, X)), 1e-300)
    b_new = project_l1(b + (X.T @ r) / L, radius)
    r = X @ b_new - y
    res = float(np.linalg.norm(b_new - b))
    trace.append(float(r @ r))
    g = 2.0 * (X.T @ r)
    gap = float(g @ b_new) + radius * float(np.abs(g).max())
    return LassoSolution(
        beta_hat=b_new,
        radius=radius,
        objective=trace[-1],
        iterations=it + 1,
        converged=(stop != "cap" and res <= 1e-6 * (1.0 + float(np.linalg.norm(b_new)))
                   and min(gap, trace[-1]) <= 1e-8 * trace[0]),
        fixed_point_residual=res,
        duality_gap=gap,
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
