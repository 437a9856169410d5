"""Constrained Lasso on its exact homotopy path, plus error metrics.

The solver minimizes the residual ||y - X b||^2 subject to ||b||_1 <= radius.
The minimizer beta(lam) of ||y - X b||^2 / 2 + lam ||b||_1 is piecewise
linear in lam, and its l1 norm never falls as lam falls from ||X^T y||_inf
to 0, so the constrained solution is the point of that path where the norm
reaches the radius, or the path's end where the ball does not bind.  The
solver walks the path from beta = 0 one breakpoint at a time (the homotopy of
Osborne, Presnell and Turlach 2000; the LARS-lasso of Efron, Hastie,
Johnstone and Tibshirani 2004) and finds that point in closed form on its
segment.  Each segment's direction comes from a thin QR factor of the active
columns, bordered by Gram-Schmidt when a column joins (Daniel, Gragg, Kaufman
and Stewart 1976) and rebuilt when one leaves.  It closes with one plain
projected-gradient step, whose length is a checkable fixed-point optimality
residual, and reports the Frank-Wolfe duality gap (Jaggi 2013) at its end
point, a bound on its objective's distance to the optimum.
"""

from __future__ import annotations

import math
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
# 1e-6 of its norm.  The distance is the norm of the column's Gram-Schmidt
# residual against the orthonormal factor Q, computed with an error of about
# eps ||x_j||, whatever cond(X_A): a column in the span reads about eps of its
# norm, and one at 1e-6 reads it to 10 digits.  Each join at a relative
# distance rho multiplies cond(X_A) by up to about 1 / rho.
_SPAN_TOL = 1e-12
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


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
    out = np.empty(num.shape)
    out.fill(np.inf)
    np.divide(np.maximum(num, 0.0), den, out=out, where=den > 0.0)
    return out


class _ActiveFactor:
    """A thin QR factor X_A = Q R of the active columns in join order, kept
    as the rows of Q^T and the upper triangular R^{-1}.  Their capacity
    doubles as columns join, so they hold O(n |A|) entries."""

    def __init__(self, n: int):
        self.k = 0
        self.Qt = np.empty((0, n))
        self.Rinv = np.empty((0, 0))

    def residual(self, x):
        """(e, v) with x = Q v + e and e orthogonal to the span of Q, by
        classical Gram-Schmidt run twice (Daniel, Gragg, Kaufman and Stewart
        1976): the second pass leaves e orthogonal to Q to rounding, with an
        error of about eps ||x||."""
        Qt = self.Qt[:self.k]
        v = Qt @ x
        e = x - Qt.T @ v
        v2 = Qt @ e
        e -= Qt.T @ v2
        return e, v + v2

    def refactor(self, XA):
        """Replace the factor by one of the columns of XA, in their order, from
        a Householder QR (its R may have negative diagonal entries)."""
        Q, R = np.linalg.qr(XA)
        self.Qt, self.Rinv, self.k = Q.T.copy(), np.linalg.inv(R), XA.shape[1]

    def append(self, e, v):
        """Border the factor with a column x = Q v + e, e != 0: with
        rho = ||e||, Q gains e / rho, and R^{-1} gains the column
        (-R^{-1} v / rho, 1 / rho)."""
        k = self.k
        if k == self.Qt.shape[0]:
            cap = max(2 * k, 1)
            Qt, Rinv = np.empty((cap, e.size)), np.empty((cap, cap))
            Qt[:k], Rinv[:k, :k] = self.Qt[:k], self.Rinv[:k, :k]
            self.Qt, self.Rinv = Qt, Rinv
        rho = math.sqrt(float(e @ e))
        self.Qt[k] = e / rho
        self.Rinv[:k, k] = (self.Rinv[:k, :k] @ v) / -rho
        self.Rinv[k, :k] = 0.0
        self.Rinv[k, k] = 1.0 / rho
        self.k = k + 1


def lasso_constrained(instance: RegressionInstance, radius: float) -> LassoSolution:
    """The l1-constrained least squares solution, as the point of the Lasso
    path where ||beta||_1 reaches ``radius``.

    The path starts at beta = 0 with lam = ||X^T y||_inf and the column that
    attains it.  On each segment the active columns A, with signs s, keep
    their correlations c_A = X_A^T (y - X beta) at s lam: beta_A moves along
    d = (X_A^T X_A)^{-1} s, which lowers lam and raises ||beta||_1 = s^T beta_A
    at the rates 1 and s^T d > 0.  The walk keeps a thin QR factor X_A = Q R,
    in join order, as Q and R^{-1}.  With w = R^{-T} s it takes d = R^{-1} w,
    the fit's direction X_A d = Q w and the rate s^T d = ||w||^2, which
    rounding cannot make negative; it forms no X_A^T X_A.  A join borders the
    factor by the column's Gram-Schmidt residual against Q, and a drop
    rebuilds it from the remaining columns.  A segment ends at the first
    event:
    - an inactive column's |c_j| reaches lam, and it joins with the sign of
      the side it reached;
    - an active coordinate reaches 0, and it leaves;
    - ||beta||_1 reaches the radius ("sphere");
    - lam reaches 0 with the ball not binding ("interior"), where beta is
      least squares on A;
    - the residual falls to the rounding of a computed residual, and the
      walk stops there ("interior"), unless the segment ended on the
      sphere.  Computed in floating point, each entry of y - X_A beta_A is
      an inner product of length |A| + 1, so its error is at most
      gamma_{|A|+1} (|y| + |X_A| |beta_A|), with gamma_m = m u / (1 - m u)
      and u = eps / 2 the unit roundoff (Higham 2002, section 3.1).  Once
      ||r|| <= (|A| + 1) u (||y|| + sum_A |beta_j| ||x_j||), that bound's
      norm to first order in u, r cannot be told from 0: beta fits y
      exactly to rounding.  Past it, lam and c are rounding noise, and the
      walk would only wander on through columns joining and leaving at
      tiny steps.
    Three rules keep the walk exact on degenerate designs.  Each active sign
    stays as it was when its column joined, and lam is recomputed as the
    mean of s c_A after every step: near lam = 0, c_A is rounding noise and
    its own signs are not the path's.  A join step that rounding makes
    negative is clamped to 0, so exact ties (such as c_0 = -c_1 at the start)
    join at once.  A column in the span of the active columns never joins:
    none once n columns are active, and none within ``_SPAN_TOL`` of the
    span, measured by its Gram-Schmidt residual, which is refused until the
    next drop.  A column in the span has a correlation of lam times a
    constant on the segment, so it is either a tie that adds nothing (an
    exact duplicate) or never reached, and it would make R singular.  A
    column only near the span may be one the optimum needs; the end point is
    then off the optimum, and ``converged`` below reports it.  ``iterations``
    counts the segments plus the closing step; past ``LASSO_MAX_ITER``
    segments the walk stops ("cap").

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
    the objective at every breakpoint and at beta_hat; it does not rise but
    for the rounding of the closing step's fresh residual.

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
    r = y.copy()
    c = X.T @ y
    lam = float(np.abs(c).max())
    trace = [float(y @ y)]
    norms = np.einsum("ij,ij->j", X, X)  # squared column norms
    y_norm, col_norms = math.sqrt(trace[0]), np.sqrt(norms)
    # the first k entries hold the active columns in join order, their signs
    # and their coefficients; closed marks the active and the refused columns
    size = min(n, d)
    cols, signs, coefs = np.zeros(size, dtype=np.intp), np.zeros(size), np.zeros(size)
    closed = np.zeros(d, dtype=bool)
    F = _ActiveFactor(n)
    # a column j joins where c_j - t a_j reaches lam - t (row 0) or t - lam (row 1)
    sides = np.array([[1.0], [-1.0]])
    k = 0
    stop = "sphere" if radius == 0.0 else "interior" if lam == 0.0 else None
    if stop is None:
        j = int(np.argmax(np.abs(c)))
        cols[0], signs[0], closed[j], k = j, np.sign(c[j]), True, 1
        F.append(*F.residual(X[:, j]))
    it = 0
    while stop is None and it < LASSO_MAX_ITER:
        A, sA, bA = cols[:k], signs[:k], coefs[:k]
        Rinv = F.Rinv[:k, :k]
        w = sA @ Rinv
        dA = Rinv @ w
        u = w @ F.Qt[:k]
        a = u @ X
        t, event = max(lam, 0.0), "interior"
        t_sphere = (radius - float(sA @ bA)) / float(w @ w)
        if t_sphere <= t:
            t, event = max(t_sphere, 0.0), "sphere"
        t_drop = _steps(sA * bA, -sA * dA)
        i = int(t_drop.argmin())
        if t_drop[i] < t:
            t, event = t_drop[i], "drop"
        t_side = _steps(lam - sides * c, 1.0 - sides * a)
        t_join = t_side.min(axis=0)
        t_join[closed] = np.inf
        while True:
            j = int(t_join.argmin())
            if not t_join[j] < t or k == n:
                break
            e, v = F.residual(X[:, j])
            if float(e @ e) > _SPAN_TOL * norms[j]:
                t, event = t_join[j], "join"
                break
            closed[j], t_join[j] = True, np.inf
        bA += t * dA
        r -= t * u
        c -= t * a
        it += 1
        trace.append(float(r @ r))
        # r within the rounding of a computed y - X_A beta_A: beta fits y exactly
        noise = (k + 1) * _UNIT_ROUNDOFF * (y_norm + float(np.abs(bA) @ col_norms[A]))
        if event != "sphere" and trace[-1] <= noise * noise:
            event = "interior"
        if event == "drop":
            k -= 1
            cols[i:k], signs[i:k], coefs[i:k] = A[i + 1:], sA[i + 1:], bA[i + 1:]
            closed[:] = False
            closed[cols[:k]] = True
            F.refactor(X[:, cols[:k]])
        elif event == "join":
            cols[k], coefs[k], closed[j] = j, 0.0, True
            signs[k] = 1.0 if t_side[0, j] <= t_side[1, j] else -1.0
            F.append(e, v)
            k += 1
        else:
            stop = event
        lam = float(signs[:k] @ c[cols[:k]]) / k
    stop = stop or "cap"

    A, bA = cols[:k], coefs[:k]
    b = np.zeros(d)
    b[A] = bA
    r = y - X[:, A] @ bA
    # any L >= sigma_max(X)^2 makes 1/L a descent step
    L = max(float(norms.sum()), 1e-300)
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
