"""Shared numeric types, column operations, orthonormal bases, and seeded randomness.

Conventions used throughout the package:

* designs are dense n x d float64 matrices whose columns, once normalized,
  have Euclidean norm sqrt(n);
* supports are strictly increasing index tuples into the columns;
* all randomness flows through ``SeedSpec`` / ``seeded_stream`` so that any
  pipeline re-run with the same seeds is bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1

# relative tolerance on |col norm - sqrt(n)| for the normalized flag
COLUMN_NORM_RTOL = 1e-9
# relative singular-value cutoff for rank decisions in basis extraction
BASIS_RANK_RTOL = 1e-10


class InvalidSupportError(ValueError):
    """Support indices are out of range, not strictly increasing, or inconsistent."""


class DegenerateColumnError(ValueError):
    """A column that must carry norm sqrt(n) is numerically zero."""


class DegenerateInputError(ValueError):
    """An input combination collapses to the zero vector where a direction is required."""


class EnumerationTooLargeError(RuntimeError):
    """A support enumeration exceeds the configured cap; use sampling mode (``sample_pairs``)."""


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Dense n x d design; ``normalized`` asserts every column has norm sqrt(n).

    Entries are stored column-major in float64 and frozen after construction,
    so instances are safe to share between concurrent workers.
    """

    entries: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        a = np.asfortranarray(np.asarray(self.entries, dtype=np.float64))
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"design must be a 2-d matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("design entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        if self.normalized:
            target = math.sqrt(self.n_rows)
            norms = np.linalg.norm(a, axis=0)
            bad = np.abs(norms - target) > COLUMN_NORM_RTOL * target
            if np.any(bad):
                j = int(np.argmax(bad))
                raise ValueError(
                    f"normalized flag set but column {j} has norm {norms[j]!r}, "
                    f"expected sqrt(n)={target!r}"
                )

    @property
    def n_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SupportSet:
    """A strictly increasing subset of column indices of a dimension-``dim`` vector."""

    dim: int
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        idx = tuple(int(i) for i in self.indices)
        for a in idx:
            if not 0 <= a < self.dim:
                raise InvalidSupportError(f"index {a} out of range [0, {self.dim})")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidSupportError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, dim, indices) -> "SupportSet":
        """Build from any iterable of unique indices, sorting them."""
        idx = sorted(int(i) for i in indices)
        return cls(dim, tuple(idx))

    @property
    def size(self) -> int:
        return len(self.indices)

    def complement(self) -> "SupportSet":
        inside = set(self.indices)
        return SupportSet(self.dim, tuple(i for i in range(self.dim) if i not in inside))

    def array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def contains(self, other: "SupportSet") -> bool:
        return set(other.indices) <= set(self.indices)


@dataclass(frozen=True)
class SparseVector:
    """Dimension-``dim`` vector stored as strictly increasing (index, value) pairs."""

    dim: int
    terms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        terms = tuple((int(i), float(v)) for i, v in self.terms)
        idx = [i for i, _ in terms]
        for i in idx:
            if not 0 <= i < self.dim:
                raise InvalidSupportError(f"index {i} out of range [0, {self.dim})")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidSupportError("indices must be strictly increasing")
        if any(v == 0.0 for _, v in terms):
            raise ValueError("stored values must be non-zero")
        if any(not math.isfinite(v) for _, v in terms):
            raise ValueError("stored values must be finite")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dense(cls, v, dim: int | None = None) -> "SparseVector":
        a = np.asarray(v, dtype=np.float64).ravel()
        d = int(dim) if dim is not None else a.size
        nz = np.nonzero(a)[0]
        return cls(d, tuple((int(i), float(a[i])) for i in nz))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        for i, v in self.terms:
            out[i] = v
        return out

    @property
    def nnz(self) -> int:
        return len(self.terms)

    def support(self) -> SupportSet:
        return SupportSet(self.dim, tuple(i for i, _ in self.terms))

    def norm_l1(self) -> float:
        return float(sum(abs(v) for _, v in self.terms))


@dataclass(frozen=True)
class SeedSpec:
    """(master_seed, stream_id) key of a counter-based random stream.

    Distinct pairs map to independent Philox streams, so parallel trials can
    derive their own substreams without any draw-order coupling.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = int(getattr(self, name))
            if not 0 <= v <= _MASK64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
            object.__setattr__(self, name, v)

    def substream(self, *ids: int) -> "SeedSpec":
        """Derive a child stream by mixing integers into the stream id."""
        h = self.stream_id
        for x in ids:
            h = _splitmix64((h * 0x100000001B3 ^ (int(x) & _MASK64)) & _MASK64)
        return SeedSpec(self.master_seed, h)

    def to_json_dict(self) -> dict:
        return {"master_seed": self.master_seed, "stream_id": self.stream_id}


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream_id_for_label(label: str) -> int:
    """Deterministic 64-bit stream id for a text label (no PYTHONHASHSEED dependence)."""
    import hashlib

    return int.from_bytes(hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest(), "big")


def seeded_stream(spec: SeedSpec) -> np.random.Generator:
    """Counter-based generator keyed by (master_seed, stream_id)."""
    key = np.array([spec.master_seed, spec.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def restrict_columns(X: DesignMatrix, S: SupportSet) -> DesignMatrix:
    """Submatrix of X keeping the columns indexed by S, in order."""
    if S.dim != X.n_cols:
        raise InvalidSupportError(f"support dim {S.dim} does not match n_cols {X.n_cols}")
    if S.size == 0:
        raise InvalidSupportError("cannot restrict to an empty support")
    return DesignMatrix(X.entries[:, S.array()], normalized=X.normalized)


def normalize_columns(X: DesignMatrix) -> DesignMatrix:
    """Rescale every column to norm sqrt(n)."""
    norms = np.linalg.norm(X.entries, axis=0)
    if np.any(norms == 0.0):
        j = int(np.argmax(norms == 0.0))
        raise DegenerateColumnError(f"column {j} is the zero vector")
    target = math.sqrt(X.n_rows)
    return DesignMatrix(X.entries * (target / norms), normalized=True)


def orthonormal_basis(M) -> np.ndarray:
    """Orthonormal basis of the column span of M, as an n x rank matrix.

    Rank is decided by a relative singular-value cutoff; an all-zero input
    yields a matrix with zero columns rather than an error.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {M.shape}")
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((M.shape[0], 0))
    r = int(np.count_nonzero(s > BASIS_RANK_RTOL * s[0]))
    return np.ascontiguousarray(U[:, :r])


# ---------------------------------------------------------------------------
# file formats: CSV matrix + JSON sidecar, JSON supports and sparse vectors
# ---------------------------------------------------------------------------


def _base_path(path) -> Path:
    p = Path(path)
    if p.suffix in (".csv", ".json"):
        p = p.with_suffix("")
    return p


def _format_row(row) -> str:
    # repr of a Python float is the shortest digit string that round-trips,
    # so re-reading the CSV reproduces the matrix bit for bit
    return ",".join(repr(float(x)) for x in row)


def write_design(X: DesignMatrix, path, seed: SeedSpec | None = None,
                 support: SupportSet | None = None) -> dict:
    """Write ``<base>.csv`` + ``<base>.json`` (and ``<base>.support.json`` if given).

    Returns a dict of the written paths.
    """
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = base.with_suffix(".csv")
    with open(csv_path, "w") as fh:
        for i in range(X.n_rows):
            fh.write(_format_row(X.entries[i, :]))
            fh.write("\n")
    sidecar = {
        "n": X.n_rows,
        "d": X.n_cols,
        "normalized": X.normalized,
        "seed": seed.to_json_dict() if seed is not None else None,
    }
    json_path = base.with_suffix(".json")
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths = {"csv": str(csv_path), "json": str(json_path)}
    if support is not None:
        sup_path = base.parent / (base.name + ".support.json")
        write_support(support, sup_path)
        paths["support"] = str(sup_path)
    return paths


def read_design(path) -> tuple[DesignMatrix, dict]:
    """Read a CSV+JSON design pair written by :func:`write_design`."""
    base = _base_path(path)
    with open(base.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    entries = np.loadtxt(base.with_suffix(".csv"), delimiter=",", ndmin=2)
    if entries.shape != (sidecar["n"], sidecar["d"]):
        raise ValueError(
            f"CSV shape {entries.shape} disagrees with sidecar "
            f"(n={sidecar['n']}, d={sidecar['d']})"
        )
    return DesignMatrix(entries, normalized=bool(sidecar["normalized"])), sidecar


def write_support(S: SupportSet, path) -> None:
    with open(path, "w") as fh:
        json.dump({"dim": S.dim, "indices": list(S.indices)}, fh, sort_keys=True)
        fh.write("\n")


def read_support(path) -> SupportSet:
    with open(path) as fh:
        d = json.load(fh)
    return SupportSet(int(d["dim"]), tuple(int(i) for i in d["indices"]))


def sparse_vector_to_json_dict(v: SparseVector) -> dict:
    return {"dim": v.dim, "terms": [[i, val] for i, val in v.terms]}


def sparse_vector_from_json_dict(d: dict) -> SparseVector:
    terms = sorted(((int(i), float(v)) for i, v in d["terms"]), key=lambda t: t[0])
    return SparseVector(int(d["dim"]), tuple(terms))
