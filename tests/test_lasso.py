import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize

from rotlasso import (
    DesignMatrix,
    InvalidSupportError,
    SeedSpec,
    SparseVector,
    SupportSet,
    lasso_constrained,
    parameter_errors,
    prediction_error,
    project_l1_ball,
    synth_response,
)

from conftest import gaussian_design


def project_qp_oracle(v, radius):
    """Independent projection route: QP on the positive-part split via SLSQP."""
    d = v.size

    def obj(x):
        w = x[:d] - x[d:]
        return 0.5 * float((w - v) @ (w - v))

    def grad(x):
        g = (x[:d] - x[d:]) - v
        return np.concatenate([g, -g])

    cons = [{"type": "ineq", "fun": lambda x: radius - x.sum(),
             "jac": lambda x: -np.ones(2 * d)}]
    x0 = np.concatenate([np.clip(v, 0, None), np.clip(-v, 0, None)])
    total = x0.sum()
    if total > radius:
        x0 *= radius / total
    res = minimize(obj, x0, jac=grad, bounds=[(0, None)] * (2 * d),
                   constraints=cons, method="SLSQP",
                   options={"ftol": 1e-14, "maxiter": 500})
    return res.x[:d] - res.x[d:]


def lasso_grid_oracle(X, y, radius, stages=12, pts=15):
    """Refining grid search over the l1 ball (sound for this convex objective)."""
    d = X.shape[1]
    center = np.zeros(d)
    half = radius
    best = math.inf
    for _ in range(stages):
        axes = [np.linspace(center[i] - half, center[i] + half, pts) for i in range(d)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        grid = grid[np.abs(grid).sum(axis=1) <= radius + 1e-12]
        if grid.size == 0:
            break
        resid = X @ grid.T - y[:, None]
        vals = np.einsum("nm,nm->m", resid, resid)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        center = grid[i]
        half *= 4.0 / (pts - 1)
    return best


class TestSynthResponse:
    def test_noiseless_exact(self):
        X = gaussian_design(10, 5, seed=1)
        beta = SparseVector(5, ((0, 2.0), (3, -1.0)))
        inst = synth_response(X, beta, 0.0, SeedSpec(1))
        assert_array_equal(inst.y, X.entries @ beta.to_dense())

    def test_pure_noise_energy(self):
        n = 200
        X = gaussian_design(n, 4, seed=2)
        sigma = 1.5
        beta = SparseVector(4)
        worst = 0.0
        for t in range(20):
            inst = synth_response(X, beta, sigma, SeedSpec(7, t))
            worst = max(worst, abs(float(inst.y @ inst.y) / n - sigma**2))
        assert worst <= 5 * sigma**2 * math.sqrt(8.0 / n)

    def test_determinism(self):
        X = gaussian_design(12, 6, seed=3)
        beta = SparseVector(6, ((1, 1.0),))
        y1 = synth_response(X, beta, 0.7, SeedSpec(4, 9)).y
        y2 = synth_response(X, beta, 0.7, SeedSpec(4, 9)).y
        assert_array_equal(y1, y2)


class TestProjectL1Ball:
    def test_inside_ball_identity(self):
        v = np.array([0.2, -0.3, 0.1])
        assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_axis_case(self):
        assert_allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0], atol=1e-15)

    def test_matches_qp_oracle(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 6))
            v = rng.standard_normal(d) * 3
            radius = float(rng.uniform(0.1, 2.5))
            ours = project_l1_ball(v, radius)
            oracle = project_qp_oracle(v, radius)
            assert np.max(np.abs(ours - oracle)) <= 1e-6
            assert np.abs(ours).sum() <= radius + 1e-9

    def test_zero_radius(self):
        assert_array_equal(project_l1_ball(np.array([1.0, -2.0]), 0.0), [0.0, 0.0])


class TestLassoConstrained:
    def test_noiseless_orthonormal_recovers(self):
        n = 16
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((n, 6)))
        X = DesignMatrix(Q * math.sqrt(n), normalized=True)
        beta = SparseVector(6, ((1, 1.0), (4, -2.0)))
        inst = synth_response(X, beta, 0.0, SeedSpec(1))
        sol = lasso_constrained(inst, radius=beta.norm_l1())
        assert prediction_error(X, sol.beta_hat, beta) <= 1e-8
        assert sol.converged

    def test_matches_grid_oracle_d2(self, rng):
        for trial in range(8):
            n = 8
            X = gaussian_design(n, 2, seed=400 + trial)
            beta = SparseVector.from_dense(rng.standard_normal(2))
            inst = synth_response(X, beta, 0.5, SeedSpec(3, trial))
            radius = beta.norm_l1()
            sol = lasso_constrained(inst, radius)
            grid = lasso_grid_oracle(X.entries, inst.y, radius)
            scale = max(1.0, grid)
            assert abs(sol.objective - grid) <= 1e-5 * scale

    def test_zero_radius(self):
        X = gaussian_design(10, 3, seed=9)
        inst = synth_response(X, SparseVector(3, ((0, 1.0),)), 0.1, SeedSpec(2))
        sol = lasso_constrained(inst, 0.0)
        assert_array_equal(sol.beta_hat, np.zeros(3))
        assert sol.objective == pytest.approx(float(inst.y @ inst.y), rel=1e-12)

    def test_feasibility_and_monotone_trace(self):
        X = gaussian_design(30, 12, seed=11)
        beta = SparseVector(12, ((0, 1.0), (5, -1.0), (9, 0.5)))
        inst = synth_response(X, beta, 1.0, SeedSpec(6))
        sol = lasso_constrained(inst, radius=2.0)
        assert np.abs(sol.beta_hat).sum() <= 2.0 + 1e-9
        assert np.all(np.diff(sol.objective_trace) <= 1e-12)
        assert sol.objective == pytest.approx(
            float(np.sum((inst.y - X.entries @ sol.beta_hat) ** 2)), rel=1e-9)

    def test_fixed_point_optimality(self):
        X = gaussian_design(25, 8, seed=13)
        beta = SparseVector(8, ((2, 1.0), (6, 2.0)))
        inst = synth_response(X, beta, 0.3, SeedSpec(8))
        sol = lasso_constrained(inst, radius=beta.norm_l1())
        L = float(np.linalg.svd(X.entries, compute_uv=False)[0]) ** 2
        grad_half = X.entries.T @ (X.entries @ sol.beta_hat - inst.y)
        fp = project_l1_ball(sol.beta_hat - grad_half / L, sol.radius)
        assert np.linalg.norm(sol.beta_hat - fp) <= 1e-6 * (1 + np.linalg.norm(sol.beta_hat))

    def test_duplicated_columns_converge(self):
        # rank-deficient design: the projection still identifies a minimizer
        rng = np.random.default_rng(15)
        col = rng.standard_normal((20, 1))
        X = DesignMatrix(np.hstack([rng.standard_normal((20, 2)), col, col]))
        from rotlasso import normalize_columns
        X = normalize_columns(X)
        beta = SparseVector(4, ((0, 1.0), (2, 1.0)))
        inst = synth_response(X, beta, 0.2, SeedSpec(3))
        sol = lasso_constrained(inst, radius=beta.norm_l1())
        grid = lasso_grid_oracle(X.entries, inst.y, sol.radius, stages=14)
        assert abs(sol.objective - grid) <= 1e-5 * max(1.0, grid)


class TestErrorMetrics:
    def test_prediction_error_identity(self):
        X = gaussian_design(10, 4, seed=2)
        b = SparseVector(4, ((0, 1.0),))
        assert prediction_error(X, b.to_dense(), b) == 0.0

    def test_prediction_error_axis(self):
        X = gaussian_design(10, 4, seed=2)
        beta = SparseVector(4, ((1, 2.0),))
        bhat = beta.to_dense()
        bhat[0] += 1.0
        # column norm sqrt(n) makes a unit coefficient error cost exactly 1
        assert prediction_error(X, bhat, beta) == pytest.approx(1.0, rel=1e-12)

    def test_prediction_error_random(self, rng):
        X = gaussian_design(9, 5, seed=3)
        bh = rng.standard_normal(5)
        bt = rng.standard_normal(5)
        direct = np.linalg.norm(X.entries @ (bh - bt)) ** 2 / 9
        assert prediction_error(X, bh, bt) == pytest.approx(direct, rel=1e-12)

    def test_parameter_errors_cases(self, rng):
        beta = SparseVector(6, ((0, 1.0), (3, -2.0)))
        S = beta.support()
        assert parameter_errors(beta.to_dense(), beta, S) == (0.0, 0.0)
        l1, l2 = parameter_errors(np.zeros(6), beta, S)
        assert l1 == pytest.approx(3.0, rel=1e-12)
        assert l2 == pytest.approx(5.0, rel=1e-12)
        bh = rng.standard_normal(6)
        l1, l2 = parameter_errors(bh, beta, S)
        assert l1 == pytest.approx(np.abs(bh - beta.to_dense()).sum(), rel=1e-12)
        masked = np.zeros(6)
        masked[[0, 3]] = bh[[0, 3]]
        assert l2 == pytest.approx(np.sum((masked - beta.to_dense()) ** 2), rel=1e-12)

    def test_parameter_errors_support_mismatch(self):
        beta = SparseVector(6, ((0, 1.0),))
        with pytest.raises(InvalidSupportError):
            parameter_errors(np.zeros(6), beta, SupportSet(6, (0, 1)))
