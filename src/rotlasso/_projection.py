"""Exact Euclidean projection onto l1 balls (sort-and-threshold), single and batched."""

from __future__ import annotations

import numpy as np


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {w : ||w||_1 <= radius}."""
    if not radius >= 0:
        raise ValueError("radius must be non-negative, not NaN")
    v = np.asarray(v, dtype=np.float64)
    if radius == 0.0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u * j > (css - radius))[0][-1])
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_l1_columns(V: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Project each column of V onto the l1 ball of its own radius.

    Vectorized over columns, with the arithmetic of ``project_l1``.  Most
    calls from the solvers find every column inside its ball, so that test
    comes first: such a call costs one reduction and returns a copy, with
    only radius-0 columns (whose entries are then signed zeros) rewritten as
    +0.0.  A negative or NaN radius always fails the test, so the radii are
    validated on the other path only.  On that path, columns already inside
    their ball are copied, and the rest go through one batched sort.
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
    A, r = a[:, need], radii[need]
    U = -np.sort(-A, axis=0)
    css = np.cumsum(U, axis=0)
    j = np.arange(1, V.shape[0] + 1)[:, None]
    # the coordinates with U*j > css - r form a prefix; its length is the pivot
    rho = (U * j > (css - r)).sum(axis=0) - 1
    theta = (css[rho, np.arange(A.shape[1])] - r) / (rho + 1.0)
    out[:, need] = np.sign(V[:, need]) * np.maximum(A - theta, 0.0)
    return out
