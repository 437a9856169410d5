import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from rotlasso._projection import project_l1, project_l1_columns, project_l1_cone_columns


def _column_loop(V, radii):
    return np.stack([project_l1(V[:, c], r) for c, r in enumerate(radii)], axis=1)


def _random_block(rng):
    """A block whose columns are all inside their balls, all outside, or mixed,
    with radius-0 columns and zero columns (signed zeros included) mixed in."""
    q, m = int(rng.integers(0, 13)), int(rng.integers(1, 9))
    V = rng.standard_normal((q, m)) * rng.choice([1e-3, 1.0, 50.0])
    V[rng.random((q, m)) < 0.2] = 0.0
    dead = rng.random(m) < 0.2
    V[:, dead] = np.where(rng.random((q, int(dead.sum()))) < 0.5, -0.0, 0.0)
    l1 = np.abs(V).sum(axis=0)
    kind = rng.choice(["inside", "outside", "mixed"])
    inside = {"inside": np.ones(m, bool), "outside": np.zeros(m, bool),
              "mixed": rng.random(m) < 0.5}[kind]
    radii = np.where(inside, l1 * rng.uniform(1.0, 2.0, m) + rng.uniform(0.0, 1.0, m),
                     l1 * rng.uniform(0.0, 1.0, m))
    radii[rng.random(m) < 0.15] = 0.0
    radii[dead & (rng.random(m) < 0.5)] = 0.0
    return V, radii


def test_columns_match_single_projection_bit_for_bit():
    rng = np.random.default_rng(2024)
    columns = 0
    for _ in range(4000):
        V, radii = _random_block(rng)
        out = project_l1_columns(V, radii)
        ref = _column_loop(V, radii)
        assert np.array_equal(out, ref)
        # and in the sign of every zero: radius-0 columns come back as +0.0
        assert out.tobytes() == ref.tobytes()
        columns += V.shape[1]
    assert columns > 15_000


def test_does_not_alias_input():
    V = np.array([[0.1, 3.0], [-0.2, 1.0]])
    for radii in (np.array([1.0, 10.0]), np.array([1.0, 1.0])):
        out = project_l1_columns(V, radii)
        out[:] = 7.0
        assert V[0, 0] == 0.1


@pytest.mark.parametrize("V", [np.zeros((3, 2)), np.ones((3, 2)), np.zeros((0, 2))])
def test_negative_radius_raises(V):
    with pytest.raises(ValueError):
        project_l1_columns(V, np.array([1.0, -1.0]))


def test_nan_radius_raises():
    with pytest.raises(ValueError):
        project_l1(np.ones(3), float("nan"))


@pytest.mark.parametrize("V", [np.zeros((3, 2)), np.ones((3, 2)), np.zeros((0, 2))])
def test_nan_radius_raises_columns(V):
    with pytest.raises(ValueError):
        project_l1_columns(V, np.array([1.0, np.nan]))


def _cone_oracle(z, p, sigma, L):
    """Projection of z onto {||v||_1 <= L sigma^T u} by SLSQP on its smooth
    form, with v = v+ - v- and v+, v- >= 0."""
    q = z.size - p

    def split(x):
        return np.concatenate([x[:p], x[p:p + q] - x[p + q:]]) - z

    def f(x):
        w = split(x)
        return w @ w

    def jac(x):
        w = 2.0 * split(x)
        return np.concatenate([w, -w[p:]])

    a = np.concatenate([L * sigma, -np.ones(2 * q)])
    res = minimize(f, np.zeros(p + 2 * q), jac=jac, method="SLSQP",
                   bounds=[(None, None)] * p + [(0.0, None)] * (2 * q),
                   constraints=[{"type": "ineq", "fun": lambda x: a @ x, "jac": lambda x: a}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    return np.concatenate([res.x[:p], res.x[p:p + q] - res.x[p + q:]])


@pytest.mark.parametrize("L", [1.0, 1.5, 3.0])
def test_cone_projection_matches_slsqp(L):
    rng = np.random.default_rng(int(L * 10))
    moved = 0
    for _ in range(40):
        p, q = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        z = rng.standard_normal(p + q) * rng.choice([0.1, 1.0, 10.0])
        sigma = rng.choice([-1.0, 0.0, 1.0], size=p)
        out = project_l1_cone_columns(z[:, None], p, sigma[:, None], L)[:, 0]
        ref = _cone_oracle(z, p, sigma, L)
        scale = 1.0 + np.abs(z).sum()
        assert np.abs(out[p:]).sum() <= L * sigma @ out[:p] + 1e-12 * scale
        # no feasible point is closer to z than the projection
        assert np.sum((out - z) ** 2) <= np.sum((ref - z) ** 2) * (1.0 + 1e-9) + 1e-20
        assert np.linalg.norm(out - ref) <= 1e-6 * scale
        moved += not np.array_equal(out, z)
    assert moved >= 20


def test_cone_projection_keeps_inside_columns_and_zeroes_a_flat_cone():
    rng = np.random.default_rng(5)
    p, q, m = 3, 5, 12
    Z = rng.standard_normal((p + q, m))
    sigma = np.sign(Z[:p])
    sigma[:, 0] = 0.0  # a zero cone block: the cone is v = 0
    Z[p:, 1::2] *= 1e-3  # every other column lies inside its cone
    L = 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_l1_cone_columns(Z, p, sigma, L)
    inside = np.abs(Z[p:]).sum(axis=0) <= L * np.einsum("pm,pm->m", sigma, Z[:p])
    assert inside[1::2].all() and not inside[0]
    assert out[:, inside].tobytes() == Z[:, inside].tobytes()
    assert np.array_equal(out[:p, 0], Z[:p, 0]) and not out[p:, 0].any()
    assert not np.array_equal(out[:, ~inside], Z[:, ~inside])
