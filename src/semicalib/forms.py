"""Dimension-generic dense multilinear algebra.

Metrics, antisymmetric 2-forms and frames are stored as full
``numpy`` matrices with a canonical-storage rule: a metric mirrors its upper
triangle, a 2-form keeps the strict upper triangle and derives the lower one.
Symmetry and antisymmetry therefore hold exactly as stored, not approximately.

All values are immutable after construction and every operation is a pure
function, so everything in this module is safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, MAX_DIM
from .errors import NotPositiveDefiniteError, RankDeficiencyError

_TINY = 1e-300
_RANK_TOL = 1e-10  # linear independence, relative to the vectors' own scale
# Guard against grossly asymmetric input before canonicalization silently
# rewrites it; canonicalization itself only cleans up rounding dust.
_STORAGE_GUARD = 1e-8


def _as_square(entries, what: str) -> np.ndarray:
    mat = np.array(entries, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"{what} dimension must be in [1, {MAX_DIM}], got {n}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} contains non-finite entries")
    return mat


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """Symmetric positive-definite matrix of a Riemannian metric at one point."""

    entries: np.ndarray
    pd_tol: InitVar[float] = DEFAULT_TOLERANCES.pd

    def __post_init__(self, pd_tol: float):
        mat = _as_square(self.entries, "metric")
        scale = float(np.abs(mat).max())
        if np.abs(mat - mat.T).max() > _STORAGE_GUARD * max(scale, 1.0):
            raise ValueError("metric entries are not symmetric")
        upper = np.triu(mat)
        mat = upper + np.triu(upper, 1).T
        eigmin = float(np.linalg.eigvalsh(mat)[0])
        if eigmin <= pd_tol * max(scale, _TINY):
            raise NotPositiveDefiniteError(
                f"metric is not positive definite (smallest eigenvalue {eigmin:.6g})"
            )
        object.__setattr__(self, "entries", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "MetricTensor":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values) -> "MetricTensor":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def from_upper(cls, dim: int, coeffs) -> "MetricTensor":
        """Build from the upper triangle including the diagonal, row-major."""
        coeffs = np.asarray(coeffs, dtype=float)
        expected = dim * (dim + 1) // 2
        if coeffs.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients, got {coeffs.size}")
        mat = np.zeros((dim, dim))
        mat[np.triu_indices(dim)] = coeffs
        return cls(mat + np.triu(mat, 1).T)


@dataclass(frozen=True, eq=False)
class TwoForm:
    """Antisymmetric coefficient matrix of a 2-form: omega(v, w) = v^T W w."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _as_square(self.entries, "two-form")
        scale = float(np.abs(mat).max())
        if np.abs(mat + mat.T).max() > _STORAGE_GUARD * max(scale, 1.0):
            raise ValueError("two-form entries are not antisymmetric")
        upper = np.triu(mat, 1)
        object.__setattr__(self, "entries", _freeze(upper - upper.T))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "TwoForm":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def from_pairs(cls, dim: int, pairs: dict) -> "TwoForm":
        """Build from {(i, j): coefficient} with i < j, e.g. {(0, 1): 1.0}."""
        mat = np.zeros((dim, dim))
        for (i, j), c in pairs.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"invalid index pair ({i}, {j}) for dimension {dim}")
            mat[i, j] = c
        return cls(mat - mat.T)

    @classmethod
    def from_upper(cls, dim: int, coeffs) -> "TwoForm":
        """Build from the strict upper triangle, row-major."""
        coeffs = np.asarray(coeffs, dtype=float)
        expected = dim * (dim - 1) // 2
        if coeffs.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients, got {coeffs.size}")
        mat = np.zeros((dim, dim))
        mat[np.triu_indices(dim, 1)] = coeffs
        return cls(mat - mat.T)

    @classmethod
    def standard_symplectic(cls, dim: int) -> "TwoForm":
        """dx1^dx2 + dx3^dx4 + ... on an even-dimensional space."""
        if dim % 2:
            raise ValueError("standard symplectic form needs an even dimension")
        return cls.from_pairs(dim, {(2 * i, 2 * i + 1): 1.0 for i in range(dim // 2)})


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered family of vectors, stored as the rows of a (k, n) array."""

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=float)
        if vecs.ndim != 2:
            raise ValueError(f"frame vectors must form a 2-d array, got shape {vecs.shape}")
        if not 1 <= vecs.shape[1] <= MAX_DIM:
            raise ValueError(f"frame dimension must be in [1, {MAX_DIM}], got {vecs.shape[1]}")
        if not np.isfinite(vecs).all():
            raise ValueError("frame contains non-finite entries")
        object.__setattr__(self, "vectors", _freeze(vecs))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i) -> np.ndarray:
        return self.vectors[i]

    @classmethod
    def empty(cls, dim: int) -> "Frame":
        return cls(np.zeros((0, dim)))


def _check_vector(v, dim: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {v.shape}")
    return v


def g_inner(g: MetricTensor, v, w) -> float:
    """Metric inner product g(v, w)."""
    v = _check_vector(v, g.dim)
    w = _check_vector(w, g.dim)
    return float(v @ g.entries @ w)


def eval_two_form(omega: TwoForm, v, w) -> float:
    """Evaluate omega(v, w) = v^T W w.

    Sums W[i][j] * (v[i] w[j] - v[j] w[i]) over the strict upper triangle, so
    swapping the arguments negates every term and the result exactly.
    """
    v = _check_vector(v, omega.dim)
    w = _check_vector(w, omega.dim)
    iu, ju = np.triu_indices(omega.dim, 1)
    terms = omega.entries[iu, ju] * (v[iu] * w[ju] - v[ju] * w[iu])
    return float(terms.sum())


def plane_area(g: MetricTensor, v, w) -> float:
    """Metric area of the parallelogram v ^ w (square root of the Gram determinant).

    A radicand below ``-tol`` relative to its natural scale signals a
    non-positive metric and raises; small negative dust is clamped to zero.
    """
    v = _check_vector(v, g.dim)
    w = _check_vector(w, g.dim)
    gvv = g_inner(g, v, v)
    gww = g_inner(g, w, w)
    gvw = g_inner(g, v, w)
    radicand = gvv * gww - gvw * gvw
    scale = max(abs(gvv * gww), _TINY)
    if radicand < -_RANK_TOL * scale:
        raise ValueError(f"negative Gram determinant {radicand:.6g}; metric is not PSD")
    return float(np.sqrt(max(radicand, 0.0)))


def gram_schmidt(g: MetricTensor, frame: Frame, rank_tol: float = _RANK_TOL) -> Frame:
    """g-orthonormalize a frame, preserving the span and the first direction.

    Modified Gram-Schmidt with a second orthogonalization pass.  Raises
    :class:`RankDeficiencyError` when a vector's residual drops below
    ``rank_tol`` relative to its original norm.
    """
    if frame.dim != g.dim:
        raise ValueError("frame and metric dimensions disagree")
    G = g.entries
    rows: list[np.ndarray] = []
    for v in frame.vectors:
        original = float(np.sqrt(max(v @ G @ v, 0.0)))
        u = v.copy()
        for _ in range(2):
            for b in rows:
                u = u - (b @ G @ u) * b
        norm = float(np.sqrt(max(u @ G @ u, 0.0)))
        if norm <= rank_tol * max(original, _TINY):
            raise RankDeficiencyError(
                f"vector {len(rows)} is dependent on its predecessors "
                f"(residual norm {norm:.6g})"
            )
        rows.append(u / norm)
    if not rows:
        return Frame.empty(frame.dim)
    return Frame(np.array(rows))


def complement_basis(g: MetricTensor, frame: Frame, rank_tol: float = _RANK_TOL) -> Frame:
    """Deterministic g-orthonormal basis of the g-orthogonal complement of a frame.

    Seeds Gram-Schmidt with the frame itself, then sweeps the coordinate
    vectors, skipping dependent candidates.
    """
    if frame.dim != g.dim:
        raise ValueError("frame and metric dimensions disagree")
    n = g.dim
    G = g.entries
    rows = [np.asarray(v) for v in gram_schmidt(g, frame, rank_tol)] if len(frame) else []
    k = len(rows)
    for idx in range(n):
        if len(rows) == n:
            break
        u = np.zeros(n)
        u[idx] = 1.0
        original = float(np.sqrt(max(G[idx, idx], 0.0)))
        for _ in range(2):
            for b in rows:
                u = u - (b @ G @ u) * b
        norm = float(np.sqrt(max(u @ G @ u, 0.0)))
        if norm <= rank_tol * max(original, _TINY):
            continue
        rows.append(u / norm)
    if len(rows) != n:
        raise RankDeficiencyError("could not complete the frame to a full basis")
    if k == n:
        return Frame.empty(n)
    return Frame(np.array(rows[k:]))
