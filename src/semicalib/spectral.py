"""Spectral analysis of the endomorphism attached to a metric and a 2-form.

The endomorphism ``A`` is defined by omega(v, w) = g(Av, w).  It is
g-skew-adjoint, so ``-A^2`` is g-self-adjoint and positive semidefinite; its
positive eigenvalues come in pairs and each eigenplane carries a g-orthonormal
basis of the shape (v, Av/sqrt(lambda)).  The pairs are read off the real
Schur form of the skew-symmetric matrix L^T A L^-T (g = L L^T), whose 2x2
blocks are exactly these eigenplanes (Ward & Gray, ACM TOMS 4, 1978), so a
double eigenvalue needs no special care.  Splitting the spectrum into a large
band and a small band separates the tangent space into the non-degenerate
subspace V and its g-orthogonal complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GapViolation
from .forms import MetricTensor, TwoForm, _freeze

_TINY = 1e-300
_BAND_SLACK = 1e-8  # relative to the largest eigenvalue


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
    ``values`` holds one eigenvalue per row: lambda_i twice for pair i, then
    for each kernel row the square of its Schur block's value (t^2 of a 2x2
    block below the zero threshold, or of a 1x1 block), for diagnostics.
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


def skew_adjoint_defect(endo: Endomorphism, g: MetricTensor) -> float:
    """Relative deviation of g(Av, w) + g(v, Aw) from zero."""
    A, G = endo.matrix, g.entries
    scale = max(float(np.abs(G @ A).max()), _TINY)
    return float(np.abs(A.T @ G + G @ A).max()) / scale


def _sign_fix(rows: np.ndarray) -> np.ndarray:
    """Deterministic sign: the first row's largest-magnitude component is made positive."""
    idx = int(np.argmax(np.abs(rows[0])))
    return -rows if rows[0, idx] < 0 else rows


def paired_spectrum(
    endo: Endomorphism, g: MetricTensor, tol: Tolerances = DEFAULT_TOLERANCES
) -> PairedSpectrum:
    """Eigenvalues and paired g-orthonormal eigenbasis of -A^2.

    With g = L L^T, S = L^T A L^-T is skew-symmetric, and its real Schur form
    S = Z T Z^T is block diagonal up to rounding.  A 2x2 block at (i, i+1)
    with t = T[i+1, i] is one pair: v = L^-T z_i and w = sign(t) L^-T z_i+1
    satisfy A v = |t| w, so lambda = t^2.  Pairs with lambda at or below
    ``tol.zero`` relative to the largest one, and the 1x1 blocks, span the
    kernel.
    """
    if endo.dim != g.dim:
        raise ValueError("endomorphism and metric dimensions disagree")
    defect = skew_adjoint_defect(endo, g)
    if defect > 1e-8:
        raise ValueError(f"endomorphism is not g-skew-adjoint (relative defect {defect:.3g})")
    n = endo.dim
    # S^T = L^-1 (L^T A)^T, so S = L^T A L^-T needs one triangular solve.
    # Endomorphism and MetricTensor already reject non-finite entries.
    chol = np.linalg.cholesky(g.entries)
    s_t = scipy.linalg.solve_triangular(
        chol, (chol.T @ endo.matrix).T, lower=True, check_finite=False
    )
    t, z = scipy.linalg.schur((s_t.T - s_t) / 2, output="real", check_finite=False)
    # Row i is L^-T z_i.
    basis = scipy.linalg.solve_triangular(chol, z, lower=True, trans="T", check_finite=False).T

    blocks: list[tuple[float, np.ndarray]] = []  # (lambda, rows): (v, w) or one vector
    i = 0
    while i < n:
        sub = t[i + 1, i] if i + 1 < n else 0.0
        if sub:
            blocks.append((float(sub * sub), np.array([basis[i], np.sign(sub) * basis[i + 1]])))
            i += 2
        else:
            blocks.append((float(t[i, i] ** 2), basis[i : i + 1]))
            i += 1
    blocks.sort(key=lambda b: -b[0])

    zero_thr = tol.zero * max((lam for lam, _ in blocks), default=0.0)
    pairs = [(lam, _sign_fix(rows)) for lam, rows in blocks if len(rows) == 2 and lam > zero_thr]
    kernel = [
        (lam, _sign_fix(row[None])[0])
        for lam, rows in blocks
        if len(rows) == 1 or lam <= zero_thr
        for row in rows
    ]
    ordered = [(lam, row) for lam, rows in pairs for row in rows] + kernel
    return PairedSpectrum(
        basis=np.array([row for _, row in ordered]),
        values=np.array([lam for lam, _ in ordered]),
        npairs=len(pairs),
    )


def infer_epsilon(spectrum: PairedSpectrum) -> float | None:
    """Smallest paired eigenvalue (the automatic gap parameter), or None."""
    if spectrum.npairs == 0:
        return None
    return float(spectrum.eigenvalues[-1])


def split_spaces(spectrum: PairedSpectrum, epsilon: float) -> int:
    """Number m of pairs in the band [epsilon/2, inf); the rest lie in [0, epsilon/4].

    The V pairs are the first m, so rows ``2m:`` of ``spectrum.basis`` span the
    complement.  Both bands are widened by ``_BAND_SLACK`` times the largest
    eigenvalue so eigenvalues sitting exactly on a band edge are not rejected
    for rounding dust.  Raises :class:`GapViolation` when any eigenvalue falls
    strictly between the bands; it carries the full eigenvalue list so callers
    need not recompute the spectrum.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    lams = spectrum.eigenvalues
    slack = _BAND_SLACK * float(lams[0]) if spectrum.npairs else 0.0
    hi_edge = epsilon / 2 - slack
    lo_edge = epsilon / 4 + slack
    if hi_edge <= lo_edge:
        hi_edge, lo_edge = epsilon / 2, epsilon / 4
    kernel = spectrum.values[2 * spectrum.npairs :]
    offenders = [float(l) for l in (*lams, *kernel) if lo_edge < l < hi_edge]
    if offenders:
        raise GapViolation(epsilon, offenders, spectrum.values)
    return int(np.count_nonzero(lams >= hi_edge))
