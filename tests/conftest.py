import numpy as np
import pytest

from rotlasso import DesignMatrix, SeedSpec, normalize_columns


def gaussian_design(n, d, seed=0, stream=0):
    """Random normalized design used across tests."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    return normalize_columns(DesignMatrix(rng.standard_normal((n, d))))


def dual_bound(X, y, beta_hat, radius):
    """A lower bound on min ||y - X b||^2 over the l1 ball, from the residual
    w = y - X beta_hat alone.

    For every t, ||y - X b||^2 >= 2 t^T (y - X b) - ||t||^2, and
    t^T X b <= radius ||X^T t||_inf on the ball.  With t = tau w the right
    side is largest at tau = (w^T y - radius ||X^T w||_inf) / ||w||^2, which
    gives the bound below when tau >= 0, and 0 bounds the minimum always.
    """
    w = y - X @ beta_hat
    ww = float(w @ w)
    if ww == 0.0:
        return 0.0
    return max(float(w @ y) - radius * float(np.abs(X.T @ w).max()), 0.0) ** 2 / ww


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
