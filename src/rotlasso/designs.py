"""Generators for every design family used by the experiments.

All generators are pure functions of their inputs and a ``SeedSpec``, and all
outputs satisfy the normalized-column convention (norm sqrt(n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .core import (
    DegenerateColumnError,
    DesignMatrix,
    SeedSpec,
    SupportSet,
    seeded_stream,
)

HAAR_ORTHOGONAL = "haar_orthogonal"
GAUSSIAN_IID = "gaussian_iid"
RADEMACHER_IID = "rademacher_iid"
_ROTATION_VARIANTS = (HAAR_ORTHOGONAL, GAUSSIAN_IID, RADEMACHER_IID)


@dataclass(frozen=True)
class RotationKind:
    """Which random n x n matrix decorrelates the off-support block.

    The i.i.d. variants draw unit-scale entries (standard Gaussian, or +-1
    Rademacher); the designs rescale every rotated column to norm sqrt(n),
    so the scale of the entries does not matter.
    """

    variant: str = HAAR_ORTHOGONAL

    def __post_init__(self):
        if self.variant not in _ROTATION_VARIANTS:
            raise ValueError(f"unknown rotation variant {self.variant!r}")

    @classmethod
    def haar(cls):
        return cls(HAAR_ORTHOGONAL)

    @classmethod
    def gaussian(cls):
        return cls(GAUSSIAN_IID)

    @classmethod
    def rademacher(cls):
        return cls(RADEMACHER_IID)


# rotation kinds by the names the CLI and the experiment grids use
ROTATIONS = {
    "haar": RotationKind.haar,
    "gaussian": RotationKind.gaussian,
    "rademacher": RotationKind.rademacher,
}


def sample_rotation(kind: RotationKind, n: int, seed: SeedSpec) -> np.ndarray:
    """Draw one n x n rotation matrix of the given kind.

    Haar sampling draws the Householder vectors of the QR of an n x n Gaussian
    matrix directly, as independent Gaussian vectors x_k of length n - k
    (Stewart 1980): n(n+1)/2 normals and no QR.  With beta_k = -sign(x_k[0])
    ||x_k||, the k-th diagonal entry of R, the reflectors along
    v_k = x_k - beta_k e_1 give that QR's Q = H_0 ... H_{n-1}.  Plain Q is not
    Haar distributed; folding sign(beta_k) into column k makes it so (Mezzadri
    2007).  The result has exactly the law of the sign-fixed QR.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = seeded_stream(seed)
    if kind.variant == HAAR_ORTHOGONAL:
        return _householder_haar(rng, n)
    if kind.variant == GAUSSIAN_IID:
        return rng.standard_normal((n, n))
    # rademacher
    return 2.0 * rng.integers(0, 2, size=(n, n)).astype(np.float64) - 1.0


def _householder_haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sign-fixed H_0 ... H_{n-1} of ``sample_rotation``, multiplied out by LAPACK.

    ``dorgqr`` takes the reflectors as ``dgeqrf`` leaves them: v_k / v_k[0] in
    column k, and tau_k = 2 v_k[0]^2 / ||v_k||^2 = 1 + |x_k[0]| / ||x_k||.
    Fortran reads this C-ordered array transposed, so reflector k is row k and
    Q comes back transposed.  numpy's own ``lapack_lite`` serves the call:
    importing scipy for it costs more memory than the rotation workload uses.
    """
    A = np.zeros((n, n))
    # row k of the upper triangle takes the next n - k draws, from column k on
    A[~np.tri(n, n, -1, dtype=bool)] = rng.standard_normal(n * (n + 1) // 2)
    x0 = A.diagonal().copy()
    signs = np.where(x0 < 0.0, 1.0, -1.0)  # sign(beta_k)
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    tau = 1.0 + np.abs(x0) / norms
    A /= (x0 - signs * norms)[:, None]
    work = np.zeros(1)
    lapack_lite.dorgqr(n, n, n, A, n, tau, work, -1, 0)  # workspace query
    work = np.zeros(int(work[0]))
    info = lapack_lite.dorgqr(n, n, n, A, n, tau, work, work.size, 0)["info"]
    if info != 0:
        raise RuntimeError(f"LAPACK dorgqr failed with info={info}")
    A *= signs[:, None]
    return A.T


def _rescale_to_sqrt_n(cols: np.ndarray, n: int) -> np.ndarray:
    target = math.sqrt(n)
    norms = np.linalg.norm(cols, axis=0)
    bad = norms < 1e-9 * target
    if np.any(bad):
        j = int(np.argmax(bad))
        raise DegenerateColumnError(f"column {j} degenerated to norm {norms[j]!r}")
    return cols * (target / norms)


def partially_rotate(X: DesignMatrix, S: SupportSet, kind: RotationKind,
                     seed: SeedSpec) -> DesignMatrix:
    """Apply a fresh rotation to the columns outside S, keeping the S columns.

    Rotated columns are re-normalized to norm sqrt(n); this is a no-op up to
    rounding for orthogonal rotations and a correction for the i.i.d. kinds.
    Column order is preserved in place.
    """
    if not X.normalized:
        raise ValueError("partially_rotate requires a normalized design")
    if S.dim != X.n_cols:
        raise ValueError(f"support dim {S.dim} does not match n_cols {X.n_cols}")
    comp = S.complement().array()
    out = np.array(X.entries, order="F")
    if comp.size:
        R = sample_rotation(kind, X.n_rows, seed)
        out[:, comp] = _rescale_to_sqrt_n(R @ X.entries[:, comp], X.n_rows)
    return DesignMatrix(out, normalized=True)


def rank_one_design(n: int, d: int, seed: SeedSpec) -> DesignMatrix:
    """n x d normalized design whose columns all repeat one random direction."""
    rng = seeded_stream(seed)
    rep = rng.standard_normal(n)
    rep *= math.sqrt(n) / np.linalg.norm(rep)
    return DesignMatrix(np.tile(rep[:, None], (1, d)), normalized=True)


def semirandom_gaussian_design(X: DesignMatrix, support: SupportSet,
                               seed: SeedSpec) -> DesignMatrix:
    """Replace the support columns with fresh i.i.d. Gaussian columns of norm sqrt(n)."""
    if not X.normalized:
        raise ValueError("semirandom_gaussian_design requires a normalized design")
    if support.dim != X.n_cols:
        raise ValueError(f"support dim {support.dim} does not match n_cols {X.n_cols}")
    if support.size == 0:
        return X
    rng = seeded_stream(seed)
    fresh = rng.standard_normal((X.n_rows, support.size))
    out = np.array(X.entries, order="F")
    out[:, support.array()] = _rescale_to_sqrt_n(fresh, X.n_rows)
    return DesignMatrix(out, normalized=True)


def rotated_adversary_design(X: DesignMatrix, adversary_cols, kind: RotationKind,
                             seed: SeedSpec) -> DesignMatrix:
    """Append d' adversary columns, rescaled to norm sqrt(n), and rotate them.

    The result is ``partially_rotate`` of the n x (d + d') design [X | A]
    with respect to {0..d-1}: its first d columns are X's, and the adversary
    columns are rotated by one fresh rotation and re-normalized.
    """
    if not X.normalized:
        raise ValueError("rotated_adversary_design requires a normalized design")
    A = np.asarray(adversary_cols, dtype=np.float64)
    if A.size == 0:
        return X
    if A.ndim != 2 or A.shape[0] != X.n_rows:
        raise ValueError(f"adversary columns must be {X.n_rows} x d', got shape {A.shape}")
    stacked = DesignMatrix(np.hstack([X.entries, _rescale_to_sqrt_n(A, X.n_rows)]),
                           normalized=True)
    return partially_rotate(stacked, SupportSet(stacked.n_cols, tuple(range(X.n_cols))),
                            kind, seed)


def counterexample_design(n: int, d: int, k: int,
                          seed: SeedSpec) -> tuple[DesignMatrix, SupportSet]:
    """Design whose weak-form restricted eigenvalue collapses like 1/k.

    Columns 0..k-1 are sqrt(n) times standard basis vectors; columns k and
    k+1 are one rotated vector stored twice (bitwise equal), so the pair can
    cancel exactly; any remaining columns are fresh random directions.
    Returns the design together with the support {0..k-1}.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < k + 2 or d < k + 2:
        raise ValueError(f"need n >= k+2 and d >= k+2, got n={n}, d={d}, k={k}")
    root_n = math.sqrt(n)
    out = np.zeros((n, d), order="F")
    for i in range(k):
        out[i, i] = root_n
    rng = seeded_stream(seed.substream(0))
    a = rng.standard_normal(n)
    rotated = sample_rotation(RotationKind.haar(), n, seed.substream(1)) @ a
    rotated *= root_n / np.linalg.norm(rotated)
    out[:, k] = rotated
    out[:, k + 1] = rotated
    if d > k + 2:
        extra = rng.standard_normal((n, d - k - 2))
        out[:, k + 2:] = _rescale_to_sqrt_n(extra, n)
    return DesignMatrix(out, normalized=True), SupportSet(d, tuple(range(k)))


def correlated_block_design(n: int, d: int, S: SupportSet, groups: int, rho: float,
                            seed: SeedSpec) -> DesignMatrix:
    """Gaussian support columns plus adversarially correlated off-support groups.

    The off-support columns are dealt round-robin into ``groups`` groups, and
    each group's members are copies of one random representative direction,
    exact for rho=0 or perturbed by a relative amount rho and re-normalized.
    One group with rho=0 duplicates a single column across the block.
    """
    if S.dim != d:
        raise ValueError(f"support dim {S.dim} does not match d={d}")
    if S.size == 0:
        raise ValueError("support must be non-empty")
    comp = S.complement().indices
    if not 1 <= groups <= len(comp):
        raise ValueError(f"groups must lie in [1, d - k] = [1, {len(comp)}], got {groups}")
    if not rho >= 0:
        raise ValueError(f"rho must be non-negative, got {rho}")

    root_n = math.sqrt(n)
    out = np.zeros((n, d), order="F")
    rng = seeded_stream(seed.substream(0))
    out[:, S.array()] = _rescale_to_sqrt_n(rng.standard_normal((n, S.size)), n)
    for gi in range(groups):
        grng = seeded_stream(seed.substream(1, gi))
        rep = grng.standard_normal(n)
        rep /= np.linalg.norm(rep)
        if rho == 0.0:
            out[:, comp[gi::groups]] = (root_n * rep)[:, None]
        else:
            for j in comp[gi::groups]:
                w = grng.standard_normal(n)
                w /= np.linalg.norm(w)
                direction = rep + rho * w
                out[:, j] = root_n * direction / np.linalg.norm(direction)
    return DesignMatrix(out, normalized=True)
