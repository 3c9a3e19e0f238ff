"""Spectral analysis of the endomorphism attached to a metric and a 2-form.

The endomorphism ``A`` is defined by omega(v, w) = g(Av, w).  It is
g-skew-adjoint, so ``-A^2`` is g-self-adjoint and positive semidefinite; its
positive eigenvalues come in pairs and each eigenplane carries a g-orthonormal
basis of the shape (v, Av/sqrt(lambda)).  With g = L L^T the pairs are the
eigenvectors of the Hermitian matrix i L^T A L^-T: the real and imaginary
parts of one eigenvector span one eigenplane, so a double eigenvalue needs no
special care, and numpy's ``eigh`` computes a whole stack of points in one
call.  The kernel's basis is the one free choice: the polar factor of the
pair rows completes them, and a pivoted projection (``_canonical_rows``)
fixes the completion, so the input alone decides it, whatever the BLAS
kernel or the order of the coordinates.  Splitting the spectrum into a large
band and a small band separates the tangent space into the non-degenerate
subspace V and its g-orthogonal complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ZERO_TOL
from .errors import GapViolation
from .forms import (
    _TINY,
    MetricTensor,
    TwoForm,
    _cholesky,
    _eigh,
    _freeze,
    _polar_factor,
    _solve,
    _svd_values,
)

_BAND_SLACK = 1e-8  # relative to the largest eigenvalue
_SKEW_LIMIT = 1e-8  # largest relative skew-adjointness defect paired_spectrum accepts


@dataclass(frozen=True, eq=False)
class Endomorphism:
    """Matrix of a linear map in the ambient coordinates."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"endomorphism must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("endomorphism contains non-finite entries")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PairedSpectrum:
    """Eigen-decomposition of -A^2 as one ordered g-orthonormal basis.

    The rows of ``basis`` are the ``npairs`` pairs (v_i, A v_i / sqrt(lambda_i)),
    interleaved and by descending lambda_i, then the basis of the kernel of A
    that :func:`_canonical_rows` fixes.
    ``values`` holds one eigenvalue per row: lambda_i twice for pair i, then,
    for the kernel rows, the eigenvalues of -A^2 left below the zero
    threshold, descending, for diagnostics (rounding-sized for an exact
    kernel).
    """

    basis: np.ndarray    # (n, n) rows
    values: np.ndarray   # (n,) one per row
    npairs: int

    def __post_init__(self):
        for name in ("basis", "values"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name), dtype=float)))

    @property
    def eigenvalues(self) -> np.ndarray:
        """One eigenvalue per pair, descending."""
        return self.values[: 2 * self.npairs : 2]


def associated_endomorphism(g: MetricTensor, omega: TwoForm) -> Endomorphism:
    """The endomorphism A with omega(v, w) = g(Av, w) for all v, w."""
    if g.dim != omega.dim:
        raise ValueError("metric and two-form dimensions disagree")
    return Endomorphism(_solve(g.entries, omega.entries.T))


def skew_adjoint_defect(endo: Endomorphism, g: MetricTensor) -> float:
    """Relative deviation of g(Av, w) + g(v, Aw) from zero."""
    a, ga = endo.matrix, g.entries @ endo.matrix
    return float(np.abs(a.T @ g.entries + ga).max() / max(np.abs(ga).max(), _TINY))


def _canonical_rows(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q^T K for a (P, k, n) stack of g-orthonormal rows K: a basis of their span that the span fixes.

    Q is the orthogonal factor of a pivoted QR of C = K G: k times, the column
    of C with the largest residual (the lowest index on ties) is normalized
    into the next column of Q and projected out of C.  For K -> O K with O
    orthogonal, C -> O C has the same residuals, so Q -> O Q and Q^T K stays;
    a permutation of the coordinates permutes C's columns and the picks.
    """
    c = rows @ g
    q_t = np.empty(c.shape[:2] + c.shape[1:2])  # Q^T: the columns of Q as rows
    at = np.arange(len(c))
    for s in range(c.shape[1]):
        if s:  # project the last pick out
            c = c - q_t[:, s - 1, :, None] * (q_t[:, s - 1, None] @ c)
        residual = np.einsum("pkn,pkn->pn", c, c)
        pick = residual.argmax(axis=1)
        q_t[:, s] = c[at, :, pick] / np.sqrt(residual[at, pick])[:, None]
    return q_t @ rows


def _paired_stack(a: np.ndarray, g: np.ndarray, zero: float = ZERO_TOL):
    """Stacked ``basis``, ``values`` and ``npairs`` of (P, n, n) finite g-skew-adjoint A and g.

    With g = L L^T, i S = i L^T A L^-T is Hermitian with eigenvalues +-t, and
    an eigenvector x + iy of t > 0 gives S x = t y and S y = -t x: the pair
    v = L^-T sqrt2 x, w = L^-T sqrt2 y has A v = t w and lambda = t^2.  Of the
    n // 2 largest t, those with t^2 above ``zero`` times the largest are
    the pairs; ``zero`` is the construction's ``config.ZERO_TOL``, or 0 where
    every pair counts, as for a power's comass maximizer.  The other
    eigenvectors span the kernel, and its rows stay
    zero: the polar factor of all rows, in whitened coordinates, completes
    them to an orthonormal basis and restores the orthonormality that pairs
    of small t lose (about eps / t).  The kernel rows' ``values`` are the lam
    of the middle t, descending, from one masked sort of the stack.  The
    points that share a kernel dimension then take :func:`_canonical_rows`
    of their kernel rows together, so no point's rows depend on its stack.
    Only the skew part of S is read: A = G^-1 W^T is g-skew-adjoint up to
    its solve's rounding, and :func:`paired_spectrum` checks an arbitrary A.
    """
    n = a.shape[-1]
    chol = _cholesky(g)
    # S^T = L^-1 (L^T A)^T, so S = L^T A L^-T needs one solve.
    s_t = _solve(chol, (chol.mT @ a).mT)
    t, z = _eigh(1j * ((s_t.mT - s_t) / 2))
    t, z = t[:, ::-1], z[:, :, ::-1].mT  # descending; eigenvectors as rows
    h, lam = n // 2, t * t
    pair = (t[:, :h] > 0) & (lam[:, :h] > zero * lam.max(axis=1)[:, None])
    npairs = np.count_nonzero(pair, axis=1)  # t descends, so the pairs come first

    kernel_dims = n - 2 * npairs
    rows, values = np.zeros(a.shape), np.zeros(t.shape)
    rows[:, 0 : 2 * h : 2] = np.sqrt(2) * z[:, :h].real
    rows[:, 1 : 2 * h : 2] = np.sqrt(2) * z[:, :h].imag
    values[:, : 2 * h] = lam[:, :h].repeat(2, axis=1)
    if kernel_dims.any():  # zero kernel rows, for the polar factor to complete
        index = np.arange(n)
        kernel = index >= 2 * npairs[:, None]
        rows[kernel] = 0.0
        rest = (index >= npairs[:, None]) & (index < n - npairs[:, None])
        values[kernel] = np.sort(np.where(rest, lam, -np.inf))[:, ::-1][index < kernel_dims[:, None]]
    basis = np.ascontiguousarray(_solve(chol.mT, _polar_factor(rows).mT).mT)
    for k in set(kernel_dims.tolist()) - {0}:
        i = np.flatnonzero(kernel_dims == k)
        basis[i, n - k :] = _canonical_rows(basis[i, n - k :], g[i])
    return basis, values, npairs


def paired_spectrum(endo: Endomorphism, g: MetricTensor) -> PairedSpectrum:
    """Eigenvalues and paired g-orthonormal eigenbasis of -A^2 (see :func:`_paired_stack`).

    Pairs with lambda at or below ``config.ZERO_TOL`` relative to the largest
    one span the kernel with it.  Raises ValueError when A is not g-skew-adjoint.
    """
    if endo.dim != g.dim:
        raise ValueError("endomorphism and metric dimensions disagree")
    defect = skew_adjoint_defect(endo, g)
    if defect > _SKEW_LIMIT:
        raise ValueError(f"endomorphism is not g-skew-adjoint (relative defect {defect:.3g})")
    basis, values, npairs = _paired_stack(endo.matrix[None], g.entries[None])
    return PairedSpectrum(basis=basis[0], values=values[0], npairs=int(npairs[0]))


def _pair_values(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The n // 2 descending pair values of stacks g, omega: every other singular value of L^-1 W L^-T, g = L L^T."""
    chol = _cholesky(g)
    skew = _solve(chol, _solve(chol, w).mT)
    return _svd_values(skew)[:, : g.shape[-1] - 1 : 2]


def _auto_epsilon(values: np.ndarray, npairs: np.ndarray) -> float | None:
    """The automatic gap parameter of stacked spectra: row 0's smallest paired eigenvalue, or None."""
    return float(values[0, 2 * npairs[0] - 2]) if npairs[0] else None


def infer_epsilon(spectrum: PairedSpectrum) -> float | None:
    """Smallest paired eigenvalue (the automatic gap parameter), or None: a stack of one's :func:`_auto_epsilon`."""
    return _auto_epsilon(spectrum.values[None], np.array([spectrum.npairs]))


def _split_stack(values: np.ndarray, npairs: np.ndarray, epsilon: float):
    """(m, offending) of a stack of spectra (``values``, ``npairs``) at one epsilon.

    ``m`` counts each spectrum's pairs in the band [epsilon/2, inf); ``offending``
    masks the values strictly between the bands, each pair once.  The bands are
    widened by ``_BAND_SLACK`` times the largest eigenvalue against rounding dust.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    paired = np.arange(values.shape[-1]) < 2 * npairs[:, None]
    slack = _BAND_SLACK * np.where(paired[:, :1], values[:, :1], 0.0)
    slack *= epsilon / 2 - slack > epsilon / 4 + slack  # no slack where it would cross the edges
    hi_edge, lo_edge = epsilon / 2 - slack, epsilon / 4 + slack
    offending = (lo_edge < values) & (values < hi_edge)
    offending[:, 1::2] &= ~paired[:, 1::2]  # a pair's value sits on two rows
    m = (paired & (values >= hi_edge)).sum(axis=1) // 2
    return m, offending


def split_spaces(spectrum: PairedSpectrum, epsilon: float) -> int:
    """Number m of pairs in the band [epsilon/2, inf): :func:`_split_stack` on a stack of one.

    The V pairs are the first m, so rows ``2m:`` of ``spectrum.basis`` span the
    complement.  Raises :class:`GapViolation`, with the full eigenvalue list,
    when any eigenvalue falls strictly between the bands.
    """
    m, offending = _split_stack(spectrum.values[None], np.array([spectrum.npairs]), epsilon)
    if offending.any():
        raise GapViolation(epsilon, spectrum.values[offending[0]], spectrum.values)
    return int(m[0])
