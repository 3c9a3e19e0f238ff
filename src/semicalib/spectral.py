"""Spectral analysis of the endomorphism attached to a metric and a 2-form.

The endomorphism ``A`` is defined by omega(v, w) = g(Av, w).  It is
g-skew-adjoint, so ``-A^2`` is g-self-adjoint and positive semidefinite; its
positive eigenvalues come in pairs and each eigenplane carries a g-orthonormal
basis of the shape (v, Av/sqrt(lambda)).  With g = L L^T the pairs are the
eigenvectors of the Hermitian matrix i L^T A L^-T: the real and imaginary
parts of one eigenvector span one eigenplane, so a double eigenvalue needs no
special care, and numpy's ``eigh`` computes a whole stack of points in one
call.  Splitting the spectrum into a large band and a small band separates
the tangent space into the non-degenerate subspace V and its g-orthogonal
complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GapViolation
from .forms import MetricTensor, TwoForm, _freeze, _raise_first

_TINY = 1e-300
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
    interleaved and by descending lambda_i, then a basis of the kernel of A.
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
    return Endomorphism(np.linalg.solve(g.entries, omega.entries.T))


def _skew_defect(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Relative deviation of g(Av, w) + g(v, Aw) from zero, for one matrix pair or a stack."""
    ga = g @ a
    scale = np.maximum(np.abs(ga).max(axis=(-2, -1)), _TINY)
    return np.abs(a.mT @ g + ga).max(axis=(-2, -1)) / scale


def skew_adjoint_defect(endo: Endomorphism, g: MetricTensor) -> float:
    """Relative deviation of g(Av, w) + g(v, Aw) from zero."""
    return float(_skew_defect(endo.matrix, g.entries))


def _paired_stack(a: np.ndarray, g: np.ndarray, tol: Tolerances):
    """Stacked ``basis``, ``values`` and ``npairs`` of (k, n, n) finite A and g, and a skew check.

    With g = L L^T, i S = i L^T A L^-T is Hermitian with eigenvalues +-t, and
    an eigenvector x + iy of t > 0 gives S x = t y and S y = -t x: the pair
    v = L^-T sqrt2 x, w = L^-T sqrt2 y has A v = t w and lambda = t^2.  Of the
    n // 2 largest t, those with t^2 above ``tol.zero`` times the largest are
    the pairs.  The other eigenvectors span the kernel; the leading right
    singular vectors of their real and imaginary parts are a real orthonormal
    basis of it.  The polar factor of all rows, in whitened coordinates,
    restores the orthonormality that pairs of small t lose (about eps / t).
    """
    n = a.shape[-1]
    defect = _skew_defect(a, g)
    chol = np.linalg.cholesky(g)
    # S^T = L^-1 (L^T A)^T, so S = L^T A L^-T needs one solve.
    s_t = np.linalg.solve(chol, (chol.mT @ a).mT)
    t, z = np.linalg.eigh(1j * ((s_t.mT - s_t) / 2))
    t, z = t[:, ::-1], z[:, :, ::-1].mT  # descending; eigenvectors as rows
    h, lam = n // 2, t * t
    pair = (t[:, :h] > 0) & (lam[:, :h] > tol.zero * lam.max(axis=1)[:, None])
    npairs = np.count_nonzero(pair, axis=1)  # t descends, so the pairs come first

    rows, values = np.zeros(a.shape), np.zeros(t.shape)
    rows[:, 0 : 2 * h : 2] = np.sqrt(2) * z[:, :h].real
    rows[:, 1 : 2 * h : 2] = np.sqrt(2) * z[:, :h].imag
    values[:, : 2 * h] = lam[:, :h].repeat(2, axis=1)
    index = np.arange(n)
    rest = (index >= npairs[:, None]) & (index < n - npairs[:, None])
    z_rest = np.where(rest[:, :, None], z, 0.0)
    parts = np.concatenate([z_rest.real, z_rest.imag], axis=1)
    kernel = np.linalg.svd(parts, full_matrices=False)[2]
    for i, p in enumerate(npairs):
        rows[i, 2 * p :] = kernel[i, : n - 2 * p]
        values[i, 2 * p :] = np.sort(lam[i, p : n - p])[::-1]
    u, _, vt = np.linalg.svd(rows)
    basis = np.ascontiguousarray(np.linalg.solve(chol.mT, (u @ vt).mT).mT)
    checks = [(defect > _SKEW_LIMIT, lambda i: ValueError(
        f"endomorphism is not g-skew-adjoint (relative defect {defect[i]:.3g})"))]
    return basis, values, npairs, checks


def paired_spectrum(
    endo: Endomorphism, g: MetricTensor, tol: Tolerances = DEFAULT_TOLERANCES
) -> PairedSpectrum:
    """Eigenvalues and paired g-orthonormal eigenbasis of -A^2 (see :func:`_paired_stack`).

    Pairs with lambda at or below ``tol.zero`` relative to the largest one
    span the kernel with it.  Raises ValueError when A is not g-skew-adjoint.
    """
    if endo.dim != g.dim:
        raise ValueError("endomorphism and metric dimensions disagree")
    basis, values, npairs, checks = _paired_stack(endo.matrix[None], g.entries[None], tol)
    _raise_first(checks)
    return PairedSpectrum(basis=basis[0], values=values[0], npairs=int(npairs[0]))


def infer_epsilon(spectrum: PairedSpectrum) -> float | None:
    """Smallest paired eigenvalue (the automatic gap parameter), or None."""
    if spectrum.npairs == 0:
        return None
    return float(spectrum.eigenvalues[-1])


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
