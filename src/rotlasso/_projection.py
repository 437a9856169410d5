"""Exact Euclidean projections by sort-and-threshold: onto l1 balls, single and
batched, and onto l1 epigraph cones, batched.  All three share one pivot
scan."""

from __future__ import annotations

import numpy as np


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {w : ||w||_1 <= radius}."""
    v = np.asarray(v, dtype=np.float64)
    return project_l1_columns(v[:, None], np.array([radius], dtype=np.float64))[:, 0]


def project_l1_columns(V: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Project each column of V onto the l1 ball of its own radius.

    ``project_l1`` is its one-column case.  Most calls from the solvers find
    every column inside its ball, so that test comes first: such a call
    costs one reduction and returns a copy, with only radius-0 columns (whose
    entries are then signed zeros) rewritten as +0.0.  A negative or NaN
    radius always fails the test, so the radii are validated on the other
    path only.  On that path, columns already inside their ball are copied,
    and the rest go through one batched sort.
    """
    V = np.asarray(V, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    out = V.copy()
    a = np.abs(V)
    l1 = a.sum(axis=0)
    if (l1 <= radii).all():
        if not radii.all():
            out[:, radii == 0.0] = 0.0
        return out
    if not (radii >= 0).all():
        raise ValueError("radii must be non-negative, not NaN")
    zero = radii == 0.0
    out[:, zero] = 0.0
    need = (~zero) & (l1 > radii)
    if not need.any():
        return out
    A = a[:, need]
    theta = _l1_threshold(A, radii[need], 0)
    out[:, need] = np.sign(V[:, need]) * np.maximum(A - theta, 0.0)
    return out


def project_l1_cone_columns(Z: np.ndarray, p: int, sigma: np.ndarray, L: float) -> np.ndarray:
    """Project each column z = (u, v) = (z[:p], z[p:]) of Z onto the convex cone
    C = {(u, v) : ||v||_1 <= L sigma^T u} of its own column of ``sigma``.

    The projection is v' = soft(v, theta) and u' = u + theta L sigma, where
    theta >= 0 solves ||soft(v, theta)||_1 = L sigma^T u + theta L^2 ||sigma||^2.
    For sigma = sign(u0), C lies inside {||v||_1 <= L ||u||_1} and equals it
    near u0 when u0 has no zero entry.  Columns in C are returned as they
    are; a column with sigma = 0 (C = {v = 0}) keeps u and gets v' = 0.
    """
    Z = np.asarray(Z, dtype=np.float64)
    out = Z.copy()
    a = np.abs(Z[p:])
    c = L * np.einsum("pm,pm->m", sigma, Z[:p])
    need = a.sum(axis=0) > c
    if not need.any():
        return out
    m = (L * L) * np.einsum("pm,pm->m", sigma, sigma)
    out[p:, need & (m == 0.0)] = 0.0
    need &= m > 0.0
    s, A = sigma[:, need], a[:, need]
    theta = _l1_threshold(A, c[need], m[need])
    out[:p, need] += (L * theta) * s
    out[p:, need] = np.sign(Z[p:, need]) * np.maximum(A - theta, 0.0)
    return out


def _l1_threshold(A, c, m):
    """The theta, one per column a >= 0 of A with ||a||_1 > c, that solves
    ||max(a - theta, 0)||_1 = c + m theta: m = 0 for the l1 ball of radius
    c > 0, m > 0 for ``project_l1_cone_columns``.

    With the column sorted decreasingly as U and summed as css (css_0 = 0),
    the coordinates with U_j (j + m) > css_j - c form a prefix of length k,
    and theta = (css_k - c) / (k + m).  The prefix can be empty only for
    m > 0; then theta = -c / m >= max a zeroes the column.
    """
    U = -np.sort(-A, axis=0)
    css = np.zeros((A.shape[0] + 1, A.shape[1]))
    np.cumsum(U, axis=0, out=css[1:])
    j = np.arange(1, A.shape[0] + 1)[:, None]
    k = (U * (j + m) > (css[1:] - c)).sum(axis=0)
    return (css[k, np.arange(A.shape[1])] - c) / (k + m)
