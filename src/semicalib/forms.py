"""Dimension-generic dense multilinear algebra.

Metrics, antisymmetric 2-forms and frames are stored as full
``numpy`` matrices with a canonical-storage rule: a metric mirrors its upper
triangle, a 2-form keeps the strict upper triangle and derives the lower one.
Symmetry and antisymmetry therefore hold exactly as stored, not approximately.

All values are immutable after construction and every operation is a pure
function, so everything in this module is safe to use from multiple threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _linalg, _umath_linalg

from .config import MAX_DIM, PD_TOL
from .errors import NotPositiveDefiniteError, RankDeficiencyError

_TINY = 1e-300
_RANK_TOL = 1e-10  # linear independence, relative to the vectors' own scale
# Guard against grossly asymmetric input before canonicalization silently
# rewrites it; canonicalization itself only cleans up rounding dust.
_STORAGE_GUARD = 1e-8


def _errors(on_error):
    """``np.linalg``'s error state around a LAPACK gufunc: a failed factorization calls ``on_error``."""
    return np.errstate(call=on_error, invalid="call", over="ignore", divide="ignore", under="ignore")


# The LAPACK layer: each function is its ``np.linalg`` counterpart on stacks of
# float64 (``_eigh``: complex128) matrices without the generic wrappers, one
# call of the same gufunc with the same signature and error state, so the same
# bits and the same LinAlgError.
@_errors(_linalg._raise_linalgerror_singular)
def _solve(a, b):
    """``np.linalg.solve`` of (..., n, n) a and (..., n, k) b."""
    return _umath_linalg.solve(a, b, signature="dd->d")


@_errors(_linalg._raise_linalgerror_singular)
def _inv(a):
    """``np.linalg.inv``."""
    return _umath_linalg.inv(a, signature="d->d")


@_errors(_linalg._raise_linalgerror_nonposdef)
def _cholesky(a):
    """``np.linalg.cholesky``: the lower factor."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@_errors(_linalg._raise_linalgerror_eigenvalues_nonconvergence)
def _eigh(a):
    """``np.linalg.eigh`` of complex Hermitian matrices: ascending real eigenvalues and eigenvectors as columns."""
    return _umath_linalg.eigh_lo(a, signature="D->dD")


@_errors(_linalg._raise_linalgerror_eigenvalues_nonconvergence)
def _eigvalsh(a):
    """``np.linalg.eigvalsh``: ascending eigenvalues."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


@_errors(_linalg._raise_linalgerror_svd_nonconvergence)
def _svd(a):
    """``np.linalg.svd(a, full_matrices=False)``: (u, s, vt)."""
    return _umath_linalg.svd_s(a, signature="d->ddd")


@_errors(_linalg._raise_linalgerror_svd_nonconvergence)
def _svd_values(a):
    """``np.linalg.svd(a, compute_uv=False)``: descending singular values."""
    return _umath_linalg.svd(a, signature="d->d")


def _checked(entries, what: str, stack, stacked: bool = False) -> np.ndarray:
    """Read-only canonical form of a matrix or (k, n, n) stack; raises the first fault of its checks."""
    mats = np.array(entries, dtype=float)
    if stacked and mats.ndim != 3:
        raise ValueError(f"{what} stack must have shape (N, n, n), got {mats.shape}")
    if mats.ndim != 2 + stacked or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {mats.shape[stacked:]}")
    if not 1 <= mats.shape[-1] <= MAX_DIM:
        raise ValueError(f"{what} dimension must be in [1, {MAX_DIM}], got {mats.shape[-1]}")
    if not np.isfinite(mats).all():
        raise ValueError(f"{what} contains non-finite entries")
    canonical, checks = stack(mats if stacked else mats[None])
    _raise_first(checks)
    return _freeze(canonical if stacked else canonical[0].copy())  # a view would keep the stack of one alive


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=2 * MAX_DIM + 2)
def _below(n: int, k: int) -> np.ndarray:
    """Mask of the entries of an n x n matrix below its k-th diagonal."""
    return _freeze(np.tri(n, n, k - 1, dtype=bool))


def _triu(mats: np.ndarray, k: int = 0) -> np.ndarray:
    """``np.triu`` of a stack, with the mask built once per (n, k)."""
    return np.where(_below(mats.shape[-1], k), 0.0, mats)


def _trusted(cls, **fields):
    """An instance of a frozen value class around values that already passed its checks.

    The batched stages check a whole stack with :func:`_metric_stack` or
    :func:`_two_form_stack` and wrap it, or each matrix, without checking it again.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, _freeze(value) if isinstance(value, np.ndarray) else value)
    return obj


def _upper_stack(dim: int, coeffs: np.ndarray, offset: int) -> np.ndarray:
    """Canonical (dim, dim) matrices with the rows of ``coeffs`` on their upper triangles, row-major.

    Offset 0 keeps the diagonal and mirrors it (a metric), offset 1 leaves it out and subtracts the
    transpose (a 2-form), by :func:`_metric_stack`'s and :func:`_two_form_stack`'s formulas, signed zeros too.
    """
    upper = np.zeros((len(coeffs), dim, dim))
    rows, cols = np.triu_indices(dim, offset)
    upper[:, rows, cols] = coeffs
    return upper - upper.mT if offset else upper + _triu(upper, 1).mT


def _first_fault(checks) -> tuple[int, Exception] | None:
    """(index, error) of the first matrix of a stack that fails a check, or None.

    ``checks`` are (failure mask, error for an index) in the order one
    matrix is checked, so at that index the earliest failing check wins; a
    later check's mask may be anything where an earlier one fails.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(bad.argmax())
    return next((i, error(i)) for mask, error in checks if mask[i])


def _raise_first(checks) -> None:
    """Raise the error of the first fault among a stack's checks, if there is one."""
    fault = _first_fault(checks)
    if fault is not None:
        raise fault[1]


def _metric_stack(mats: np.ndarray):
    """Canonical form of a (k, n, n) stack of metric matrices, and MetricTensor's checks on it.

    The checks, in order: finite entries, symmetric storage (up to
    ``_STORAGE_GUARD``), then positive definiteness.  The canonical form
    mirrors the upper triangle, as every :class:`MetricTensor` stores it.
    """
    scale = np.abs(mats).max(axis=(1, 2))  # NaN or inf unless every entry is finite
    finite = np.isfinite(scale)
    asymmetric = np.abs(mats - mats.mT).max(axis=(1, 2)) > _STORAGE_GUARD * np.maximum(scale, 1.0)
    upper = _triu(mats)
    canonical = upper + _triu(upper, 1).mT
    if not finite.all():  # eigvalsh may fail on NaN; those matrices fail the first check anyway
        canonical = np.where(finite[:, None, None], canonical, np.eye(mats.shape[-1]))
    eigmin = _eigvalsh(canonical)[:, 0]
    checks = [
        (~finite, lambda i: ValueError("metric contains non-finite entries")),
        (asymmetric, lambda i: ValueError("metric entries are not symmetric")),
        (eigmin <= PD_TOL * np.maximum(scale, _TINY), lambda i: NotPositiveDefiniteError(
            f"metric is not positive definite (smallest eigenvalue {float(eigmin[i]):.6g})")),
    ]
    return canonical, checks


def _two_form_stack(mats: np.ndarray):
    """Canonical form of a (k, n, n) stack of 2-form matrices, and TwoForm's checks on it.

    The checks, in order: finite entries, then antisymmetric storage (up to
    ``_STORAGE_GUARD``).  The canonical form keeps the strict upper triangle.
    """
    scale = np.abs(mats).max(axis=(1, 2))
    symmetric = np.abs(mats + mats.mT).max(axis=(1, 2)) > _STORAGE_GUARD * np.maximum(scale, 1.0)
    upper = _triu(mats, 1)
    checks = [
        (~np.isfinite(scale), lambda i: ValueError("two-form contains non-finite entries")),
        (symmetric, lambda i: ValueError("two-form entries are not antisymmetric")),
    ]
    return upper - upper.mT, checks


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """Symmetric positive-definite matrix of a Riemannian metric at one point."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked(self.entries, "metric", _metric_stack))

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
        return cls(_upper_stack(dim, coeffs[None], 0)[0])


@dataclass(frozen=True, eq=False)
class TwoForm:
    """Antisymmetric coefficient matrix of a 2-form: omega(v, w) = v^T W w."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked(self.entries, "two-form", _two_form_stack))

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
        return cls(_upper_stack(dim, coeffs[None], 1)[0])

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


def _gram_schmidt_stack(G: np.ndarray, X: np.ndarray, floor=0.0):
    """Two-pass modified Gram-Schmidt of a vector-major stack of frames X (k, count, n), in place.

    ``G`` is one (n, n) metric for every frame, or a (count, n, n) stack.  A
    vector whose residual norm is at most its ``floor`` (broadcast to (k,
    count)) is dropped: it comes out zero and no later vector is projected
    on it.  Returns the frames, kept vectors g-orthonormal, and the residual norms (k, count).
    """
    k, count, n = X.shape
    floor = np.broadcast_to(floor, (k, count))
    F = np.empty((k, count, n))
    FG = np.empty((k, count, n))
    residual = np.empty((k, count))
    for j in range(k):
        v = X[j]
        for _ in range(2):
            for i in range(j):
                coeff = np.einsum("cn,cn->c", FG[i], v)
                v -= coeff[:, None] * F[i]
        vg = v @ G if G.ndim == 2 else (v[:, None] @ G)[:, 0]
        residual[j] = np.sqrt(np.maximum(np.einsum("cn,cn->c", vg, v), 0.0))
        norm = np.where(residual[j] > floor[j], residual[j], np.inf)[:, None]
        np.divide(v, norm, out=F[j])
        np.divide(vg, norm, out=FG[j])
    return F, residual


def _polar_factor(mats: np.ndarray) -> np.ndarray:
    """U V^T of the thin SVD of each (k, n) matrix of a stack, k <= n: its nearest orthonormal rows."""
    u, _, vt = _svd(mats)
    return u @ vt


def _orthonormal_rows(g: MetricTensor, vectors: np.ndarray, strict: int) -> np.ndarray:
    """The g-orthonormalized rows of one frame: :func:`_gram_schmidt_stack` on a stack of one.

    A vector with residual at most ``_RANK_TOL`` of its own norm is dropped,
    or among the first ``strict`` raises :class:`RankDeficiencyError`.
    """
    X = np.array(vectors, dtype=float)
    original = np.sqrt(np.maximum(np.einsum("kn,kn->k", X @ g.entries, X), 0.0))
    floor = _RANK_TOL * np.maximum(original, _TINY)
    F, residual = _gram_schmidt_stack(g.entries, X[:, None], floor[:, None])
    kept = residual[:, 0] > floor
    if not kept[:strict].all():
        j = int(np.argmin(kept))
        raise RankDeficiencyError(
            f"vector {j} is dependent on its predecessors (residual norm {residual[j, 0]:.6g})"
        )
    return F[kept, 0]


def gram_schmidt(g: MetricTensor, frame: Frame) -> Frame:
    """g-orthonormalize a frame, preserving the span and the first direction.

    Raises :class:`RankDeficiencyError` when a vector's residual drops below
    ``_RANK_TOL`` = 1e-10 of its original norm.
    """
    if frame.dim != g.dim:
        raise ValueError("frame and metric dimensions disagree")
    return Frame(_orthonormal_rows(g, frame.vectors, len(frame)))


def complement_basis(g: MetricTensor, frame: Frame) -> Frame:
    """Deterministic g-orthonormal basis of the g-orthogonal complement of a frame.

    Seeds Gram-Schmidt with the frame itself, then sweeps the coordinate
    vectors, skipping dependent candidates, until the rows span the space.
    """
    if frame.dim != g.dim:
        raise ValueError("frame and metric dimensions disagree")
    n, k = g.dim, len(frame)
    rows = _orthonormal_rows(g, np.concatenate([frame.vectors, np.eye(n)]), k)[:n]
    if len(rows) != n:
        raise RankDeficiencyError("could not complete the frame to a full basis")
    return Frame(rows[k:])
