import numpy as np
import pytest

from rotlasso._projection import project_l1, project_l1_columns


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
