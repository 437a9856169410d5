"""Maurey-sampling sparsification with l1-norm error control.

An s-sparse surrogate of beta is built by sampling s coordinates with
probability proportional to |beta_i| and averaging; the image error
||X beta - X beta'|| is at most 2 D ||beta||_1 / sqrt(s), with D the largest
column norm.  The bound holds in expectation at half its stated size, so
resampling meets it after a couple of attempts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DesignMatrix, SeedSpec, SparseVector, seeded_stream

# attempts before maurey_sparsify gives up; by Markov's inequality each one
# misses the bound with probability at most 1/4
MAX_ATTEMPTS = 100


class SparsifyFailureError(RuntimeError):
    """All attempts exceeded the deterministic bound; carries the best attempt."""

    def __init__(self, message, best: "SparsifyResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SparsifyResult:
    beta_prime: SparseVector
    error: float
    bound: float
    attempts: int


def _as_dense(beta, dim):
    if isinstance(beta, SparseVector):
        if beta.dim != dim:
            raise ValueError(f"beta dim {beta.dim} does not match design d={dim}")
        return beta.to_dense()
    b = np.asarray(beta, dtype=np.float64).ravel()
    if b.size != dim:
        raise ValueError(f"beta dim {b.size} does not match design d={dim}")
    return b


def sparsification_error(X: DesignMatrix, beta, beta_prime) -> float:
    """||X beta - X beta'||_2."""
    b = _as_dense(beta, X.n_cols)
    bp = _as_dense(beta_prime, X.n_cols)
    return float(np.linalg.norm(X.entries @ (b - bp)))


def maurey_sparsify(X: DesignMatrix, beta, s: int, seed: SeedSpec) -> SparsifyResult:
    """Sample an s-sparse surrogate whose image error meets the deterministic bound.

    Each sampled index j receives mass sign(beta_j) * ||beta||_1 * count_j / s,
    so duplicates aggregate (nnz <= s) and the surrogate's l1 norm never
    exceeds the original's.  Attempts use sequentially derived substreams and
    stop at the first one within the bound; a beta that is already s-sparse is
    returned as-is with zero attempts.
    """
    if s < 1:
        raise ValueError("s must be positive")
    b = _as_dense(beta, X.n_cols)
    support = np.nonzero(b)[0]
    col_norms = np.linalg.norm(X.entries, axis=0)
    D = float(col_norms.max())
    l1 = float(np.abs(b).sum())
    bound = 2.0 * D * l1 / math.sqrt(s)
    if support.size <= s:
        return SparsifyResult(SparseVector.from_dense(b), 0.0, bound, 0)

    weights = np.abs(b[support]) / l1
    signs = np.sign(b[support])
    image = X.entries @ b
    best = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        rng = seeded_stream(seed.substream(attempt - 1))
        picks = rng.choice(support.size, size=s, p=weights)
        counts = np.bincount(picks, minlength=support.size)
        hit = counts > 0
        values = signs[hit] * l1 * counts[hit] / s
        idx = support[hit]
        bp = np.zeros(X.n_cols)
        bp[idx] = values
        err = float(np.linalg.norm(image - X.entries @ bp))
        result = SparsifyResult(
            SparseVector(X.n_cols, tuple(zip(idx.tolist(), values.tolist()))),
            err, bound, attempt,
        )
        if best is None or err < best.error:
            best = result
        if err <= bound:
            return result
    raise SparsifyFailureError(
        f"no attempt met the bound {bound!r} after {MAX_ATTEMPTS} tries "
        f"(best error {best.error!r})", best)
