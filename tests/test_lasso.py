import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize

from rotlasso import (
    DesignMatrix,
    InvalidSupportError,
    RegressionInstance,
    SeedSpec,
    SparseVector,
    SupportSet,
    correlated_block_design,
    lasso_constrained,
    normalize_columns,
    parameter_errors,
    prediction_error,
    project_l1_ball,
    lasso,
    synth_response,
)

from conftest import dual_bound, gaussian_design


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


def pg_reference(X, y, radius, max_iter=100_000):
    """Plain projected gradient with step 1/sigma_max(X)^2 from an SVD, run until
    its step is below 1e-13 (1 + ||b||); returns the final objective ||y - X b||^2."""
    L = float(np.linalg.svd(X, compute_uv=False)[0]) ** 2
    b = np.zeros(X.shape[1])
    for _ in range(max_iter):
        b_new = project_l1_ball(b - X.T @ (X @ b - y) / L, radius)
        step = float(np.linalg.norm(b_new - b))
        b = b_new
        if step <= 1e-13 * (1.0 + float(np.linalg.norm(b))):
            break
    r = X @ b - y
    return float(r @ r)


def lasso_gap(X, y, beta_hat, radius):
    """Duality gap of 1/2 ||y - X b||^2 over the l1 ball at beta_hat."""
    g = X.T @ (X @ beta_hat - y)
    return float(g @ beta_hat + radius * np.abs(g).max())


@pytest.fixture(scope="module")
def oracle_solves():
    """60 seeded solves: tall (60 x 20), wide (50 x 400 and 40 x 80) and
    duplicated-column (30 x 12) designs, each at radii ||beta||_1, half and a
    fifth of it."""
    solves = []
    for i in range(60):
        kind = i % 4
        if kind == 0:
            X = gaussian_design(60, 20, seed=700 + i)
        elif kind == 1:
            X = gaussian_design(50, 400, seed=700 + i)
        elif kind == 2:
            base = gaussian_design(30, 8, seed=700 + i).entries
            X = normalize_columns(DesignMatrix(np.hstack([base, base[:, :4]])))
        else:
            X = gaussian_design(40, 80, seed=700 + i)
        beta = SparseVector(X.n_cols, ((0, 1.0), (1, -2.0), (3, 0.5)))
        inst = synth_response(X, beta, 0.5, SeedSpec(17, i))
        radius = (1.0, 0.5, 0.2)[i % 3] * beta.norm_l1()
        solves.append((inst, radius, lasso_constrained(inst, radius)))
    return solves


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

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_bad_sigma_rejected(self, sigma):
        X = gaussian_design(20, 4, seed=1)
        beta = SparseVector(4, ((0, 1.0),))
        with pytest.raises(ValueError, match="sigma"):
            synth_response(X, beta, sigma, SeedSpec(1))

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
        assert sol.stop == "sphere" and sol.converged

    def test_zero_response(self):
        # X^T y = 0 at the start: the path is the single point beta = 0
        X = gaussian_design(10, 3, seed=9)
        sol = lasso_constrained(RegressionInstance(X, np.zeros(10)), 1.0)
        assert_array_equal(sol.beta_hat, np.zeros(3))
        assert sol.objective == 0.0 and sol.duality_gap == 0.0
        assert sol.stop == "interior" and sol.converged

    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_bad_radius_rejected(self, radius):
        X = gaussian_design(10, 3, seed=9)
        inst = synth_response(X, SparseVector(3, ((0, 1.0),)), 0.1, SeedSpec(2))
        with pytest.raises(ValueError):
            lasso_constrained(inst, radius)

    def test_feasibility_and_monotone_trace(self, oracle_solves):
        X = gaussian_design(30, 12, seed=11)
        beta = SparseVector(12, ((0, 1.0), (5, -1.0), (9, 0.5)))
        inst = synth_response(X, beta, 1.0, SeedSpec(6))
        for inst, radius, sol in [(inst, 2.0, lasso_constrained(inst, 2.0))] + oracle_solves:
            assert np.abs(sol.beta_hat).sum() <= radius * (1 + 1e-12)
            # rounding slack of 8 ulps of the starting objective, as the benchmark allows
            slack = 8 * np.finfo(float).eps * max(sol.objective_trace[0], 1.0)
            assert np.all(np.diff(sol.objective_trace) <= slack)
            assert sol.objective == pytest.approx(
                float(np.sum((inst.y - inst.X.entries @ sol.beta_hat) ** 2)), rel=1e-9)

    def test_fixed_point_optimality(self, oracle_solves):
        X = gaussian_design(25, 8, seed=13)
        beta = SparseVector(8, ((2, 1.0), (6, 2.0)))
        inst = synth_response(X, beta, 0.3, SeedSpec(8))
        radius = beta.norm_l1()
        for inst, radius, sol in [(inst, radius, lasso_constrained(inst, radius))] + oracle_solves:
            E, y = inst.X.entries, inst.y
            L = float(np.linalg.svd(E, compute_uv=False)[0]) ** 2
            grad_half = E.T @ (E @ sol.beta_hat - y)
            fp = project_l1_ball(sol.beta_hat - grad_half / L, sol.radius)
            assert np.linalg.norm(sol.beta_hat - fp) <= 1e-6 * (1 + np.linalg.norm(sol.beta_hat))
            # the benchmark's gap bound 4 L r delta (bench/checks.lasso_gap_bound).
            # It is derived for a step 1/L; for the solver's step 1/||X||_F^2
            # it holds because the path's end point is exact
            bound = 4 * L * radius * sol.fixed_point_residual + 1e-9 * max(float(y @ y), 1.0)
            assert lasso_gap(E, y, sol.beta_hat, radius) <= bound

    def test_solve_cut_by_the_breakpoint_cap(self, monkeypatch, oracle_solves):
        # A capped walk ends inside the ball, on the path but short of the
        # radius.  beta_hat must still be one plain projected-gradient step
        # from there, of the reported length delta, and not marked converged.
        monkeypatch.setattr(lasso, "LASSO_MAX_ITER", 2)
        cases = [case for case in oracle_solves if case[2].iterations > 3]
        assert len(cases) >= 20
        for inst, radius, full in cases:
            sol = lasso_constrained(inst, radius)
            t = sol.objective_trace
            assert sol.stop == "cap" and not sol.converged
            assert sol.iterations == 3 and t.size == 4
            E, y = inst.X.entries, inst.y
            L = float(np.linalg.svd(E, compute_uv=False)[0]) ** 2
            Lstep = float(np.sum(E * E))
            delta = sol.fixed_point_residual
            assert np.abs(sol.beta_hat).sum() <= radius * (1 + 1e-12)
            # the benchmark's gap bound 4 L r delta (bench/checks.lasso_gap_bound),
            # on a point that is not exact.  For the step 1/L' with
            # L' = ||X||_F^2 >= L, projection optimality bounds
            # <g(b), b+ - w> by L' delta 2r, and g(b+) - g(b) has norm at most
            # L delta, so the derivation gives only 2 r delta (L + L'); these
            # solves stay within 0.57 of 4 L r delta
            bound = 4 * L * radius * delta + 1e-9 * max(float(y @ y), 1.0)
            assert lasso_gap(E, y, sol.beta_hat, radius) <= bound
            # descent lemma: the step lowers ||y - X b||^2 by at least
            # (2 L' - L) delta^2 >= L' delta^2
            slack = 8 * np.finfo(float).eps * max(t[0], 1.0)
            assert t[-1] <= t[-2] - (1 - 1e-9) * Lstep * delta ** 2 + slack
            assert t[-1] > full.objective * (1 + 1e-6)

    def test_matches_projected_gradient_reference(self, oracle_solves):
        for inst, radius, sol in oracle_solves:
            assert sol.converged
            ref = pg_reference(inst.X.entries, inst.y, radius)
            # every solve ends on the path's exact point, within 2e-15 of
            # the reference here
            assert sol.objective <= ref * (1 + 1e-12)
            # the reported duality gap bounds the distance to the optimum, so
            # to the reference too, up to the reference's rounding
            assert sol.objective - ref <= sol.duality_gap + 1e-13 * ref

    def test_duplicated_columns_converge(self):
        # rank-deficient design: the copy of an active column never joins the path
        rng = np.random.default_rng(15)
        col = rng.standard_normal((20, 1))
        X = DesignMatrix(np.hstack([rng.standard_normal((20, 2)), col, col]))
        X = normalize_columns(X)
        beta = SparseVector(4, ((0, 1.0), (2, 1.0)))
        inst = synth_response(X, beta, 0.2, SeedSpec(3))
        for radius, stop in ((1.0, "sphere"), (beta.norm_l1(), "interior")):
            sol = lasso_constrained(inst, radius)
            grid = lasso_grid_oracle(X.entries, inst.y, sol.radius, stages=14)
            assert abs(sol.objective - grid) <= 1e-5 * max(1.0, grid)
            assert sol.stop == stop and sol.converged
            assert sol.duality_gap <= 1e-8 * sol.objective
        # at ||beta||_1 the ball does not bind: the two copies together carry
        # the least-squares coefficient of their shared column
        b_ls = np.linalg.lstsq(X.entries[:, :3], inst.y)[0]
        merged = sol.beta_hat[:3] + [0.0, 0.0, sol.beta_hat[3]]
        assert_allclose(merged, b_ls, rtol=0, atol=1e-12)

    def test_radius_above_the_least_squares_norm(self):
        # the ball does not bind: the path ends at lam = 0, on least squares
        beta = SparseVector(20, ((0, 1.0), (1, -2.0), (3, 0.5)))
        for seed in range(40, 45):
            X = gaussian_design(60, 20, seed=seed)
            inst = synth_response(X, beta, 0.5, SeedSpec(5))
            b_ls = np.linalg.lstsq(X.entries, inst.y)[0]
            r_ls = X.entries @ b_ls - inst.y
            for factor in (1.0001, 1.01, 2.0):
                sol = lasso_constrained(inst, factor * float(np.abs(b_ls).sum()))
                assert sol.stop == "interior" and sol.converged
                assert sol.objective <= float(r_ls @ r_ls) * (1 + 1e-12)
                assert_allclose(sol.beta_hat, b_ls, rtol=0, atol=1e-12)

    def test_radius_above_the_min_l1_interpolant(self):
        # n < d: the path ends on the interpolant of least l1 norm m, which
        # linprog finds apart from the path (HiGHS holds its constraints to
        # 1e-7).  Above m any interpolant in the ball is optimal; below, the
        # sphere binds.
        from scipy.optimize import linprog

        X = gaussian_design(20, 60, seed=3)
        beta = SparseVector(60, ((0, 1.0), (1, -2.0), (3, 0.5)))
        inst = synth_response(X, beta, 0.5, SeedSpec(9))
        E, y = X.entries, inst.y
        lp = linprog(np.ones(120), A_eq=np.hstack([E, -E]), b_eq=y, bounds=(0, None))
        m = lp.fun
        sol = lasso_constrained(inst, 1.5 * m)
        assert sol.stop == "interior" and sol.converged
        assert sol.objective <= 1e-12 * float(y @ y)
        assert np.abs(sol.beta_hat).sum() <= m * (1 + 1e-6)
        sol = lasso_constrained(inst, 0.9 * m)
        assert sol.stop == "sphere" and sol.converged
        assert sol.objective > 1e-6 * float(y @ y)
        assert sol.objective - dual_bound(E, y, sol.beta_hat, 0.9 * m) <= 1e-12 * float(y @ y)

    def test_a_start_of_path_tie_joins_at_once(self):
        # y = x_0 - x_1 on a design whose off-support columns share one
        # direction: at the start c_0 = -c_1 = ||X^T y||_inf, so x_1 must join
        # with the first step, and the solution is (r/2, -r/2, 0, ...)
        X = correlated_block_design(40, 10, SupportSet(10, (0, 1)), 1, 0.0, SeedSpec(12))
        E = X.entries
        y = E[:, 0] - E[:, 1]
        inst = RegressionInstance(X, y)
        for radius in (0.5, 1.0, 2.0, 3.0):
            sol = lasso_constrained(inst, radius)
            h = min(radius, 2.0) / 2
            assert_allclose(sol.beta_hat, [h, -h] + [0.0] * 8, rtol=0, atol=1e-12)
            assert sol.converged and sol.duality_gap <= 1e-12 * float(y @ y)

    def test_a_mid_path_tie_joins_at_once(self):
        # orthogonal columns and y = X z with z = (3, 1, 1, -1, 0, 0): after
        # x_0, three columns reach lam together, and whichever joins second
        # or third finds its step negative by rounding on some designs.  The
        # solution is z soft-thresholded by 1/4, where its l1 norm is 5.
        z = np.array([3.0, 1.0, 1.0, -1.0, 0.0, 0.0])
        want = np.sign(z) * np.maximum(np.abs(z) - 0.25, 0.0)
        for seed in range(20):
            Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((20, 6)))
            X = DesignMatrix(Q * math.sqrt(20))
            sol = lasso_constrained(RegressionInstance(X, X.entries @ z), 5.0)
            assert sol.stop == "sphere" and sol.converged
            assert_allclose(sol.beta_hat, want, rtol=0, atol=1e-12)

    def test_a_path_that_drops_a_coordinate(self):
        # n = 20 < d = 40: on these paths a coordinate leaves the active set
        # before the sphere at radius 5.  One that is nonzero at a smaller
        # radius and 0 at radius 5 left on the way, so the walk to radius 5
        # took a drop, rebuilt its factor, and went on to the sphere.
        beta = SparseVector(40, ((0, 1.0), (1, -2.0), (3, 0.5), (5, 1.5)))
        for seed in (1, 2, 11, 14, 17, 21, 23, 24):
            X = gaussian_design(20, 40, seed=seed)
            inst = synth_response(X, beta, 0.5, SeedSpec(31, seed))
            sol = lasso_constrained(inst, 5.0)
            yy = float(inst.y @ inst.y)
            assert sol.stop == "sphere" and sol.converged
            assert sol.objective - dual_bound(X.entries, inst.y, sol.beta_hat, 5.0) <= 1e-12 * yy
            earlier = np.zeros(40)
            for radius in np.linspace(0.25, 4.75, 19):
                earlier = np.maximum(earlier, np.abs(lasso_constrained(inst, radius).beta_hat))
            assert np.any((earlier > 1e-3) & (sol.beta_hat == 0.0))

    def test_an_ill_conditioned_interior_end_matches_least_squares(self):
        # the 14 normalized monomials t^0 .. t^13 at 50 points of [-1, 1],
        # cond(X) 2.6e4 to 9.3e4, and a radius twice the least-squares l1
        # norm: the walk ends at lam = 0 with every column active, on least
        # squares.  With its directions taken from a QR factor of X_A it ends
        # within 2.5e-10 of np.linalg.lstsq here, against 1.4e-8 with
        # directions solved on X_A^T X_A and 1.2e-7 with a factor built by one
        # Gram-Schmidt pass, whose Q loses orthogonality.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            t = np.sort(rng.uniform(-1.0, 1.0, 50))
            X = normalize_columns(DesignMatrix(np.vander(t, 14, increasing=True)))
            y = np.sin(3.0 * t) + 0.1 * rng.standard_normal(50)
            b_ls = np.linalg.lstsq(X.entries, y)[0]
            sol = lasso_constrained(RegressionInstance(X, y), 2.0 * float(np.abs(b_ls).sum()))
            assert sol.stop == "interior" and sol.converged
            assert_allclose(sol.beta_hat, b_ls, rtol=0, atol=1e-9 * float(np.abs(b_ls).max()))

    def test_a_near_singular_active_set_ends_inside(self):
        # eight support columns within a relative distance of about 1e-5 of
        # one another, y = X beta exactly, and a radius three times ||beta||_1:
        # the walk reaches lam = 0 inside the ball.  Its sphere rate
        # s^T d = ||R^{-T} s||^2 cannot be negative, so rounding on the
        # near-singular active set cannot make the sphere's step negative and
        # end the walk on it with ||beta||_1 near 8.
        S = SupportSet(64, tuple(range(8)))
        beta = SparseVector(64, tuple((i, (-1.0) ** (i + 1)) for i in range(8)))
        X = correlated_block_design(50, 64, S, 1, 1e-5, SeedSpec(9))
        sol = lasso_constrained(synth_response(X, beta, 0.0, SeedSpec(109)), 24.0)
        assert sol.stop == "interior" and sol.converged
        assert np.abs(sol.beta_hat).sum() < 24.0

    @pytest.mark.parametrize("rho", [1e-4, 1e-5])
    def test_near_collinear_columns_join(self, rho):
        # eight groups of columns at relative distances of about rho from one
        # another, so at squared distances of about 2 rho^2, at least 2e-10,
        # from the span of an active member: above _SPAN_TOL, and the optimum
        # at radius 12 needs them.  Refused, as by a tolerance of sqrt(eps),
        # they leave 17 of these 20 solves up to 3e-5 ||y||^2 above the
        # optimum.
        S = SupportSet(64, (0, 1, 2, 3))
        beta = SparseVector(64, ((0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0)))
        for seed in range(10):
            X = correlated_block_design(50, 64, S, 8, rho, SeedSpec(seed))
            inst = synth_response(X, beta, 1.0, SeedSpec(seed + 100))
            sol = lasso_constrained(inst, 12.0)
            yy = float(inst.y @ inst.y)
            assert sol.stop == "sphere" and sol.converged
            assert sol.objective - dual_bound(X.entries, inst.y, sol.beta_hat, 12.0) <= 1e-12 * yy

    def test_no_column_joins_a_full_active_set(self):
        # n = 30 < d = 64 with 32 near-collinear groups and y = x_0 - x_1: the
        # walk fills the active set with 30 columns, ill-conditioned enough
        # that a 31st, in their span, passes the distance test by rounding.  Let in,
        # it would make X_A^T X_A singular and stop the walk on the sphere
        # with ||beta||_1 = 2 < 6.
        S = SupportSet(64, (0, 1))
        X = correlated_block_design(30, 64, S, 32, 1e-5, SeedSpec(4))
        inst = synth_response(X, SparseVector(64, ((0, 1.0), (1, -1.0))), 0.0, SeedSpec(104))
        sol = lasso_constrained(inst, 6.0)
        assert sol.stop == "interior" and sol.converged
        assert np.abs(sol.beta_hat).sum() < 6.0
        assert sol.objective <= 1e-12 * float(inst.y @ inst.y)

    def test_a_near_exact_fit_converges_on_its_objective(self):
        # n = 30 < d = 64 and a radius of 60, far above the l1 norm of the
        # interpolant: the walk ends at lam = 0 with an objective below
        # 1e-14 ||y||^2, while the gap's term 60 ||g||_inf is 4.4e-8 and
        # 5.8e-7 of ||y||^2.  The optimum is at least 0, so the objective
        # itself bounds the distance to it, and the solve converges.
        S = SupportSet(64, (0, 1))
        beta = SparseVector(64, ((0, 1.0), (1, -1.0)))
        for seed in (2, 10):
            X = correlated_block_design(30, 64, S, 32, 1e-5, SeedSpec(seed))
            inst = synth_response(X, beta, 1.0, SeedSpec(seed + 100))
            sol = lasso_constrained(inst, 60.0)
            yy = float(inst.y @ inst.y)
            assert sol.duality_gap > 1e-8 * yy and sol.objective <= 1e-14 * yy
            assert sol.stop == "interior" and sol.converged

    def test_an_inexact_end_is_not_converged(self):
        # at rho = 1e-7 the group members lie within 1e-6 of one another, so
        # within _SPAN_TOL of the span of an active member, and never join.
        # The walk ends at lam = 0 short of the optimum by more than
        # 1e-8 ||y||^2, and the solve is not marked converged.
        S = SupportSet(64, (0, 1, 2, 3))
        beta = SparseVector(64, ((0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0)))
        for seed in range(10):
            X = correlated_block_design(50, 64, S, 8, 1e-7, SeedSpec(seed))
            inst = synth_response(X, beta, 1.0, SeedSpec(seed + 100))
            sol = lasso_constrained(inst, 12.0)
            yy = float(inst.y @ inst.y)
            assert sol.stop == "interior" and not sol.converged
            assert sol.objective - dual_bound(X.entries, inst.y, sol.beta_hat, 12.0) > 1e-8 * yy


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
