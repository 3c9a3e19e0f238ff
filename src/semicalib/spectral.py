"""Spectral analysis of the endomorphism attached to a metric and a 2-form.

The endomorphism ``A`` is defined by omega(v, w) = g(Av, w).  It is
g-skew-adjoint, so ``-A^2`` is g-self-adjoint and positive semidefinite; its
positive eigenvalues come in pairs and each eigenplane carries a g-orthonormal
basis of the shape (v, Av/sqrt(lambda)).  Splitting the spectrum into a large
band and a small band separates the tangent space into the non-degenerate
subspace V and its g-orthogonal complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GapViolation, PairingError
from .forms import Frame, MetricTensor, TwoForm, _freeze

_TINY = 1e-300


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
    """Eigen-decomposition of -A^2 organized into multiplicity-2 pairs.

    ``eigenvalues[i]`` is the (double) eigenvalue of the pair
    ``pair_vectors[i] = (v_i, A v_i / sqrt(lambda_i))``; the kernel of A is
    spanned by ``kernel_vectors``.  The union of all pair vectors and the
    kernel basis is g-orthonormal.
    """

    eigenvalues: np.ndarray       # (npairs,) descending, one entry per pair
    pair_vectors: np.ndarray      # (npairs, 2, n)
    kernel_vectors: np.ndarray    # (k0, n)
    kernel_eigenvalues: np.ndarray  # (k0,) raw near-zero values, for diagnostics

    def __post_init__(self):
        for name in ("eigenvalues", "pair_vectors", "kernel_vectors", "kernel_eigenvalues"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name), dtype=float)))

    @property
    def dim(self) -> int:
        if self.pair_vectors.size:
            return self.pair_vectors.shape[2]
        return self.kernel_vectors.shape[1]

    @property
    def npairs(self) -> int:
        return self.eigenvalues.shape[0]

    def pair(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.pair_vectors[i, 0], self.pair_vectors[i, 1]

    def basis(self) -> np.ndarray:
        """All basis vectors as rows: interleaved pairs, then the kernel."""
        rows = [self.pair_vectors.reshape(-1, self.dim)] if self.npairs else []
        if self.kernel_vectors.size:
            rows.append(self.kernel_vectors)
        if not rows:
            return np.zeros((0, self.dim))
        return np.vstack(rows)

    def all_eigenvalues(self) -> np.ndarray:
        """Full eigenvalue list (pairs doubled, kernel raw), descending."""
        doubled = np.repeat(self.eigenvalues, 2)
        return np.concatenate([doubled, self.kernel_eigenvalues])


@dataclass(frozen=True, eq=False)
class SpaceSplit:
    """Band split of the tangent space: V (large eigenvalues) and its complement.

    ``v_basis`` holds the 2m interleaved pair vectors with eigenvalues at or
    above epsilon/2; ``perp_basis`` the remaining pairs and the kernel, all
    with eigenvalues at or below epsilon/4.
    """

    v_basis: Frame
    perp_basis: Frame
    m: int
    epsilon: float
    v_eigenvalues: np.ndarray     # (m,) one entry per pair

    def __post_init__(self):
        object.__setattr__(self, "v_eigenvalues", _freeze(np.array(self.v_eigenvalues, dtype=float)))

    @property
    def dim(self) -> int:
        return self.v_basis.dim


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


def _sign_fix(v: np.ndarray) -> np.ndarray:
    """Deterministic sign: the largest-magnitude component is made positive."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _orthogonalize(G: np.ndarray, v: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    u = v.copy()
    for _ in range(2):
        for b in basis:
            u = u - (b @ G @ u) * b
    return u


def _pair_cluster(vectors, A, G, bounds) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Pair one eigenvalue cluster into (lambda, v, Av/sqrt(lambda)) families.

    Each input eigenvector either seeds a new pair or dissolves into the span
    of earlier pairs; a leftover odd dimension means the multiplicity-2
    structure broke numerically.
    """
    pairs: list[tuple[float, np.ndarray, np.ndarray]] = []
    basis: list[np.ndarray] = []
    for vec in vectors:
        v = _orthogonalize(G, vec, basis)
        nv = float(np.sqrt(max(v @ G @ v, 0.0)))
        if nv <= 1e-6:
            continue  # consumed by an earlier pair
        v = _sign_fix(v / nv)
        mv = -(A @ (A @ v))
        lam = float(v @ G @ mv)
        if lam <= 0.0:
            raise PairingError("non-positive Rayleigh quotient inside a positive cluster", bounds)
        w = (A @ v) / np.sqrt(lam)
        w = _orthogonalize(G, w, basis + [v])
        nw = float(np.sqrt(max(w @ G @ w, 0.0)))
        if nw <= 0.5:
            raise PairingError("pair vector collapsed during orthogonalization", bounds)
        pairs.append((lam, v, w / nw))
        basis.extend([v, w / nw])
    if 2 * len(pairs) != len(vectors):
        raise PairingError("odd numerical multiplicity after clustering", bounds)
    return pairs


def paired_spectrum(
    endo: Endomorphism, g: MetricTensor, tol: Tolerances = DEFAULT_TOLERANCES
) -> PairedSpectrum:
    """Eigenvalues and paired g-orthonormal eigenbasis of -A^2.

    Eigenvalues within ``tol.cluster`` (relative to the largest one) are
    treated as a single cluster and paired inside it; eigenvalues below
    ``tol.zero`` relative count as the kernel.
    """
    if endo.dim != g.dim:
        raise ValueError("endomorphism and metric dimensions disagree")
    defect = skew_adjoint_defect(endo, g)
    if defect > 1e-8:
        raise ValueError(f"endomorphism is not g-skew-adjoint (relative defect {defect:.3g})")
    A, G = endo.matrix, g.entries
    n = endo.dim

    # g-self-adjoint form of -A^2: solve the symmetric generalized problem
    # (-G A A) x = lambda G x with G-orthonormal eigenvectors.
    K = -G @ A @ A
    K = (K + K.T) / 2
    evals, evecs = scipy.linalg.eigh(K, G)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = evecs[:, order]

    lam_max = max(float(evals[0]) if n else 0.0, 0.0)
    zero_thr = tol.zero * lam_max
    positive = evals > zero_thr

    pairs: list[tuple[float, np.ndarray, np.ndarray]] = []
    idx = 0
    npos = int(np.count_nonzero(positive))
    cluster_gap = tol.cluster * lam_max
    while idx < npos:
        stop = idx + 1
        while stop < npos and evals[stop - 1] - evals[stop] <= cluster_gap:
            stop += 1
        vectors = [evecs[:, j] for j in range(idx, stop)]
        bounds = (float(evals[stop - 1]), float(evals[idx]))
        pairs.extend(_pair_cluster(vectors, A, G, bounds))
        idx = stop

    pairs.sort(key=lambda t: -t[0])
    kernel = np.array([_sign_fix(evecs[:, j]) for j in range(npos, n)])
    if kernel.size == 0:
        kernel = np.zeros((0, n))
    return PairedSpectrum(
        eigenvalues=np.array([p[0] for p in pairs]),
        pair_vectors=(
            np.array([[p[1], p[2]] for p in pairs]) if pairs else np.zeros((0, 2, n))
        ),
        kernel_vectors=kernel,
        kernel_eigenvalues=evals[npos:].copy(),
    )


def infer_epsilon(spectrum: PairedSpectrum) -> float | None:
    """Smallest paired eigenvalue (the automatic gap parameter), or None."""
    if spectrum.npairs == 0:
        return None
    return float(spectrum.eigenvalues[-1])


def split_spaces(
    spectrum: PairedSpectrum, epsilon: float, band_slack: float = 0.0
) -> SpaceSplit:
    """Split the paired spectrum into the bands [epsilon/2, inf) and [0, epsilon/4].

    ``band_slack`` widens both bands so eigenvalues sitting exactly on a band
    edge are not rejected for rounding dust.  Raises :class:`GapViolation`
    when any eigenvalue falls strictly between the bands; it carries the
    full eigenvalue list so callers need not recompute the spectrum.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    hi_edge = epsilon / 2 - band_slack
    lo_edge = epsilon / 4 + band_slack
    if hi_edge <= lo_edge:
        hi_edge, lo_edge = epsilon / 2, epsilon / 4
    lams = spectrum.eigenvalues
    offenders = [float(l) for l in lams if lo_edge < l < hi_edge]
    offenders += [float(l) for l in spectrum.kernel_eigenvalues if lo_edge < l < hi_edge]
    if offenders:
        raise GapViolation(epsilon, offenders, spectrum.all_eigenvalues())

    n = spectrum.dim
    in_v = lams >= hi_edge
    m = int(np.count_nonzero(in_v))
    v_rows = spectrum.pair_vectors[in_v].reshape(-1, n) if m else np.zeros((0, n))
    perp_pairs = spectrum.pair_vectors[~in_v]
    perp_rows_list = []
    if perp_pairs.size:
        perp_rows_list.append(perp_pairs.reshape(-1, n))
    if spectrum.kernel_vectors.size:
        perp_rows_list.append(spectrum.kernel_vectors)
    perp_rows = np.vstack(perp_rows_list) if perp_rows_list else np.zeros((0, n))

    return SpaceSplit(
        v_basis=Frame(v_rows) if m else Frame.empty(n),
        perp_basis=Frame(perp_rows) if perp_rows.size else Frame.empty(n),
        m=m,
        epsilon=float(epsilon),
        v_eigenvalues=lams[in_v],
    )
