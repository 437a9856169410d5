"""Generators for every design family used by the experiments.

All generators are pure functions of their inputs and a ``SeedSpec``, and all
outputs satisfy the normalized-column convention (norm sqrt(n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    ``sigma`` is the entry scale of the i.i.d. variants (Gaussian standard
    deviation, or the magnitude of the +-sigma Rademacher entries); it is
    ignored for Haar orthogonal rotations.
    """

    variant: str = HAAR_ORTHOGONAL
    sigma: float = 1.0

    def __post_init__(self):
        if self.variant not in _ROTATION_VARIANTS:
            raise ValueError(f"unknown rotation variant {self.variant!r}")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    @classmethod
    def haar(cls):
        return cls(HAAR_ORTHOGONAL)

    @classmethod
    def gaussian(cls, sigma: float = 1.0):
        return cls(GAUSSIAN_IID, sigma)

    @classmethod
    def rademacher(cls, sigma: float = 1.0):
        return cls(RADEMACHER_IID, sigma)


# rotation kinds by the names the CLI and the experiment grids use
ROTATIONS = {
    "haar": RotationKind.haar,
    "gaussian": RotationKind.gaussian,
    "rademacher": RotationKind.rademacher,
}


def sample_rotation(kind: RotationKind, n: int, seed: SeedSpec) -> np.ndarray:
    """Draw one n x n rotation matrix of the given kind.

    Haar sampling is QR of an i.i.d. Gaussian matrix with the sign of each
    diagonal entry of R folded into the corresponding column of Q; plain QR of
    a Gaussian matrix is not Haar distributed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = seeded_stream(seed)
    if kind.variant == HAAR_ORTHOGONAL:
        A = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(A)
        signs = np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
        return Q * signs
    if kind.variant == GAUSSIAN_IID:
        return kind.sigma * rng.standard_normal((n, n))
    # rademacher
    return kind.sigma * (2.0 * rng.integers(0, 2, size=(n, n)).astype(np.float64) - 1.0)


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
    """Append d' adversary columns, rotated by a fresh rotation and re-normalized.

    The result is an n x (d + d') design whose first d columns are X; it is
    partially rotated with respect to {0..d-1}.
    """
    if not X.normalized:
        raise ValueError("rotated_adversary_design requires a normalized design")
    A = np.asarray(adversary_cols, dtype=np.float64)
    if A.size == 0:
        return X
    if A.ndim != 2 or A.shape[0] != X.n_rows:
        raise ValueError(f"adversary columns must be {X.n_rows} x d', got shape {A.shape}")
    A = _rescale_to_sqrt_n(A, X.n_rows)
    R = sample_rotation(kind, X.n_rows, seed)
    B = _rescale_to_sqrt_n(R @ A, X.n_rows)
    return DesignMatrix(np.hstack([X.entries, B]), normalized=True)


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


@dataclass(frozen=True)
class CorrelatedGroup:
    """One duplication group: absolute column indices plus a perturbation level.

    ``rho = 0`` repeats the group representative exactly; ``rho > 0`` adds a
    relative perturbation of that size to each member before re-normalizing.
    """

    members: tuple[int, ...]
    rho: float = 0.0

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("empty group")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        object.__setattr__(self, "members", tuple(int(i) for i in self.members))


@dataclass(frozen=True)
class BlockSpec:
    """Partition of the off-support columns into correlated groups."""

    groups: tuple[CorrelatedGroup, ...]

    def __post_init__(self):
        if len(self.groups) == 0:
            raise ValueError("block spec needs at least one group")

    @classmethod
    def single_group(cls, S: SupportSet, rho: float = 0.0) -> "BlockSpec":
        """All off-support columns in one group (fully duplicated when rho=0)."""
        return cls((CorrelatedGroup(S.complement().indices, rho),))

    @classmethod
    def split(cls, S: SupportSet, n_groups: int, rho: float = 0.0) -> "BlockSpec":
        comp = S.complement().indices
        if not 1 <= n_groups <= len(comp):
            raise ValueError(f"cannot split {len(comp)} columns into {n_groups} groups")
        groups = [comp[g::n_groups] for g in range(n_groups)]
        return cls(tuple(CorrelatedGroup(g, rho) for g in groups))


def correlated_block_design(n: int, d: int, S: SupportSet, block_spec: BlockSpec,
                            seed: SeedSpec) -> DesignMatrix:
    """Gaussian support columns plus adversarially correlated off-support groups.

    Each group's members are copies of one random representative direction,
    exact for rho=0 or perturbed by a relative amount rho and re-normalized.
    """
    if S.dim != d:
        raise ValueError(f"support dim {S.dim} does not match d={d}")
    if S.size == 0:
        raise ValueError("support must be non-empty")
    comp = S.complement().indices
    covered: list[int] = []
    for g in block_spec.groups:
        covered.extend(g.members)
    if sorted(covered) != list(comp) or len(covered) != len(set(covered)):
        raise ValueError("block spec must partition the off-support columns exactly")

    root_n = math.sqrt(n)
    out = np.zeros((n, d), order="F")
    rng = seeded_stream(seed.substream(0))
    out[:, S.array()] = _rescale_to_sqrt_n(rng.standard_normal((n, S.size)), n)
    for gi, group in enumerate(block_spec.groups):
        grng = seeded_stream(seed.substream(1, gi))
        rep = grng.standard_normal(n)
        rep /= np.linalg.norm(rep)
        if group.rho == 0.0:
            col = root_n * rep
            for j in group.members:
                out[:, j] = col
        else:
            for j in sorted(group.members):
                w = grng.standard_normal(n)
                w /= np.linalg.norm(w)
                direction = rep + group.rho * w
                out[:, j] = root_n * direction / np.linalg.norm(direction)
    return DesignMatrix(out, normalized=True)
