"""Comass computation, power forms, and calibrated-plane testing.

The exact comass of omega, or of a normalized power (1/p!) omega^p, is the
product mu_1 ... mu_p of the p largest pair values mu_i = sqrt(lambda_i) of
-A^2 (Wirtinger's inequality for p = 1; Harvey & Lawson, Acta Math. 148,
1982).  The value of (1/p!) omega^p on a frame equals the Pfaffian of the
frame's omega-Gram matrix, and the sampled oracle, an independent
cross-check, maximizes it directly.  Both run on stacks of points, and
``comass_exact`` and ``comass_bruteforce`` are their stacks of one.  The
sampled oracle draws random metric-orthonormal frames for each point from
its own stream, in cache-sized chunks, vector-major, and ranks them by the
|Pf| of their Gram matrices; one deterministic gradient ascent on the
Stiefel manifold then polishes the best ones of every point at once.  The
reported value is the signed Pfaffian of a point's best frame after one
Gram-Schmidt pass over all of them has re-orthonormalized it, so the
sampled estimate stays a lower bound of the true comass by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .config import CALIBRATED_TOL, DEFAULT_TOLERANCES
from .construction import PointConstruction
from .forms import Frame, MetricTensor, TwoForm, _gram_schmidt_stack, _raise_first, gram_schmidt
from .spectral import _paired_stack

# perfbench/workloads.py traces these names by patching them in this module,
# so they stay importable here, though the oracles call neither of them.
from .spectral import associated_endomorphism, paired_spectrum  # noqa: E402, F401

# Frames per sampling chunk: each (chunk, n) temporary stays cache-sized.  The
# sampled values do not depend on it.
_CHUNK = 2048
_POLISH_SHIFT = 0.5
_POLISH_TOL = 1e-10
_POLISH_SINGULAR = 1e-12
_POLISH_MAX_ITER = 1000
_PF_EXPANSION_MAX = 8

_log = logging.getLogger("semicalib")
# Every pair counts, however small its value t > 0: a power's comass needs them all.
_EVERY_BLOCK = replace(DEFAULT_TOLERANCES, zero=0.0)


def _check_power(p: int, dim: int) -> None:
    if p < 1:
        raise ValueError("power must be a positive integer")
    if 2 * p > dim:
        raise ValueError(f"degree {2 * p} exceeds the ambient dimension {dim}")


@dataclass(frozen=True, eq=False)
class PowerForm:
    """The normalized power (1/p!) omega^p, a form of degree 2p."""

    base: TwoForm
    p: int

    def __post_init__(self):
        _check_power(self.p, self.base.dim)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def degree(self) -> int:
        return 2 * self.p


@dataclass(frozen=True, eq=False)
class CalibrationVerdict:
    """Outcome of testing one oriented plane against a form."""

    ratio: float
    calibrated: bool
    tolerance: float


@dataclass(frozen=True, eq=False)
class ComassEstimate:
    """Comass value with the frame that attains it.

    ``mode`` is "exact" (spectral) or "sampled" (maximization;
    a lower bound of the true comass).  ``ascent_iterations`` counts the
    polish steps of the sampled run; ``ascent_capped`` is set when the polish
    stopped at ``_POLISH_MAX_ITER`` with restarts still moving.
    """

    value: float
    maximizer: Frame
    samples: int
    restarts: int
    mode: str
    ascent_iterations: int = 0
    ascent_capped: bool = False


def pfaffian(mat) -> float:
    """Pfaffian of an antisymmetric matrix (see :func:`_pf_batch` for the method)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    return float(_pf_batch(mat[None])[0])


def _pf_batch(mats: np.ndarray) -> np.ndarray:
    """Signed Pfaffians of a batch (..., k, k).

    First-row expansion costs (k-1)!! products: 105 at k = 8, but 10 395 at
    k = 12 and 2 027 025 at k = 16.  It is used up to k = 8; larger k use
    Parlett-Reid elimination, O(k^3).
    """
    k = mats.shape[-1]
    if k % 2:
        return np.zeros(mats.shape[:-2])
    if k > _PF_EXPANSION_MAX:
        return _pf_parlett_reid(mats)
    return _pf_expand(mats, tuple(range(k)))


def _pf_expand(mats: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """Pfaffian of the principal submatrix on ``idx``, expanded along its first row.

    Minors are index tuples, never copies.
    """
    if not idx:
        return np.ones(mats.shape[:-2])
    if len(idx) == 2:
        return mats[..., idx[0], idx[1]]
    total = np.zeros(mats.shape[:-2])
    for j in range(1, len(idx)):
        term = mats[..., idx[0], idx[j]] * _pf_expand(mats, idx[1:j] + idx[j + 1:])
        if j % 2:
            total += term
        else:
            total -= term
    return total


def _pf_parlett_reid(mats: np.ndarray) -> np.ndarray:
    """Pfaffians by batched Parlett-Reid elimination with partial pivoting.

    Wimmer, "Algorithm 923", ACM TOMS 38 (2012), arXiv:1102.3440: each step
    pivots the largest entry of column c below row c into row c + 1 (a
    symmetric swap flips the sign), multiplies in A[c, c+1] and eliminates
    with a skew rank-2 update of the trailing block.
    """
    shape, k = mats.shape[:-2], mats.shape[-1]
    a = np.array(mats, dtype=float).reshape(-1, k, k)
    pick = np.arange(a.shape[0])
    pf = np.ones(a.shape[0])
    for c in range(0, k - 1, 2):
        piv = c + 1 + np.argmax(np.abs(a[:, c + 1:, c]), axis=1)
        swap = piv != c + 1
        rows = a[pick, piv].copy()
        a[pick, piv] = a[:, c + 1]
        a[:, c + 1] = rows
        cols = a[pick, :, piv].copy()
        a[pick, :, piv] = a[:, :, c + 1]
        a[:, :, c + 1] = cols
        pf = np.where(swap, -pf, pf)
        pivot = a[:, c, c + 1]
        pf = pf * pivot
        # a zero pivot means a zero column: the Pfaffian is 0 and tau stays 0
        tau = a[:, c, c + 2:] / np.where(pivot == 0, 1.0, pivot)[:, None]
        col = a[:, c + 2:, c + 1]
        a[:, c + 2:, c + 2:] += tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
    return pf.reshape(shape)


def _form_data(form) -> tuple[TwoForm, int]:
    if isinstance(form, PowerForm):
        return form.base, form.p
    if isinstance(form, TwoForm):
        return form, 1
    raise TypeError(f"expected TwoForm or PowerForm, got {type(form).__name__}")


def _signed_values(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Form values Pf(rows W rows^T) of frames (..., k, n), each with its own or a shared W."""
    return _pf_batch(rows @ w @ rows.mT)


def eval_power(power: PowerForm, frame: Frame) -> float:
    """Value of (1/p!) omega^p on a 2p-frame: the Pfaffian of [omega(f_i, f_j)]."""
    if frame.dim != power.dim:
        raise ValueError("frame and form dimensions disagree")
    if len(frame) != power.degree:
        raise ValueError(f"frame must have exactly {power.degree} vectors, got {len(frame)}")
    return float(_signed_values(power.base.entries, frame.vectors))


def comass_exact(g: MetricTensor, form) -> ComassEstimate:
    """Exact comass of omega or of (1/p!) omega^p: :func:`_exact_powers` on a stack of one.

    It is the product of the p largest pair values.  The top p pairs attain it; no g-orthonormal 2p-frame exceeds it, because
    the pair values of a compression interlace those of the whole form.  A
    form of rank below 2p has comass 0 and an empty maximizer.
    """
    omega, p = _form_data(form)
    if omega.dim != g.dim:
        raise ValueError("metric and two-form dimensions disagree")
    values, basis, npairs = _exact_powers(g.entries[None], omega.entries[None], (p,))
    rows = basis[0, : 2 * p] if npairs[0] >= p else np.zeros((0, g.dim))
    return ComassEstimate(float(values[p][0]), Frame(rows), 0, 0, "exact")


def _exact_powers(G: np.ndarray, W: np.ndarray, powers):
    """Comass of (1/p!) omega^p for every p in ``powers`` at (P, n, n) stacks G, W, one spectrum each.

    Returns ({p: (P,) comass}, paired bases, npairs): a point's maximizer for
    p is the first 2p rows of its basis, none where ``npairs < p`` and the comass is 0.
    """
    for p in powers:
        _check_power(p, G.shape[-1])
    a = np.linalg.solve(G, W.mT)
    finite = np.isfinite(a).all(axis=(1, 2))
    basis, values, npairs, checks = _paired_stack(np.where(finite[:, None, None], a, 0.0), G,
                                                  _EVERY_BLOCK)
    _raise_first([(~finite, lambda i: ValueError("endomorphism contains non-finite entries")), *checks])
    top = np.sqrt(values[:, ::2])  # the pair values, each once
    return {p: np.where(npairs >= p, np.prod(top[:, :p], axis=1), 0.0) for p in powers}, basis, npairs


def _orthonormal_frames(rng, G: np.ndarray, k: int, count: int):
    """Batch of random g-orthonormal k-frames; returns (frames, valid mask).

    The frames are vector-major, shape (k, count, n): ``frames[j]`` holds the
    j-th vector of every frame as one contiguous block.  The normals are
    drawn frame-major, so the stream, and each frame, is the same for any
    layout or chunk size.  A draw is invalid when a vector's residual is
    rounding-sized on the metric's own scale: its squared g-norm at most
    1e-24 of the largest metric entry.
    """
    floor = 1e-12 * np.sqrt(np.abs(G).max())
    X = rng.standard_normal((count, k, G.shape[0]))
    # a view: the draws are not read again, so they are reduced in place
    frames, residual = _gram_schmidt_stack(G, X.transpose(1, 0, 2), floor)
    return frames, (residual > floor).all(axis=0)


def _abs_values(w: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """|form value| on a batch of vector-major frames (k, count, n): |Pf(gram)|.

    One GEMM per frame vector gives f_a W, and one row dot product per
    entry the strict upper triangle of gram = [omega(f_a, f_b)]; its
    Pfaffian is the value the final estimate reports.  The sign is lost, so
    this serves the search only (ranking the samples).
    """
    k, count = frames.shape[:2]
    fw = frames @ w
    # (k, k, count) storage: each entry is a contiguous vector for the expansion
    gram = np.zeros((k, k, count))
    for a in range(k):
        for b in range(a + 1, k):
            gram[a, b] = np.einsum("cn,cn->c", fw[a], frames[b])
            gram[b, a] = -gram[a, b]
    return np.abs(_pf_batch(gram.transpose(2, 0, 1)))


def _polish(G: np.ndarray, w: np.ndarray, frames: np.ndarray, point: np.ndarray):
    """Deterministic ascent of |form value| over g-orthonormal frames, every restart of a stack at once.

    ``G`` and ``w`` are (P, n, n) stacks; restart j is the g-orthonormal
    frame ``frames[j]`` at point ``point[j]``.  In whitened coordinates
    (G = L L^T, Y = F L, W_w = L^-1 W L^-T) the frames are orthonormal rows
    and the value is Pf(M), M = Y W_w Y^T, whose log-gradient is
    E = M^-1 Y W_w.  Each step maps Y to the polar factor of E + s Y, a
    shifted power iteration on the Stiefel manifold (Edelman, Arias & Smith,
    SIAM J. Matrix Anal. Appl. 20, 1998).  A restart stops once the part of E
    normal to its rows, the Riemannian gradient, is at most 1e-10 or no
    smaller than at its previous step, the rounding floor of its point's
    conditioning.  Frames whose |Pf| is rounding-sized next to the form's
    scale (the zero form, or rank below the degree) are left as they are.
    Returns (frames, iterations, capped), the last two per point: the steps
    of its longest restart, and whether one still moved at the cap.
    """
    L = np.linalg.cholesky(G)
    L_inv = np.linalg.inv(L)
    w_w = (L_inv @ w @ L_inv.mT)[point]
    Y = frames @ L[point]
    scale = np.abs(w_w).max(axis=(1, 2)) ** (frames.shape[1] // 2)
    act = np.flatnonzero(np.abs(_signed_values(w_w, Y)) > _POLISH_SINGULAR * scale)
    gradient = np.full(len(Y), np.inf)
    iterations = np.zeros(len(G), dtype=int)
    step = 0
    while act.size and step < _POLISH_MAX_ITER:
        step += 1
        iterations[point[act]] = step
        Ya = Y[act]
        YW = Ya @ w_w[act]
        E = np.linalg.solve(YW @ Ya.mT, YW)
        size = np.linalg.norm(E - (E @ Ya.mT) @ Ya, axis=(1, 2))
        moving = (size > _POLISH_TOL) & (size < gradient[act])
        gradient[act] = size
        act = act[moving]
        u, _, vt = np.linalg.svd(E[moving] + _POLISH_SHIFT * Ya[moving], full_matrices=False)
        Y[act] = u @ vt
    return Y @ L_inv[point], iterations, np.isin(np.arange(len(G)), point[act])


def _sampled_stack(G: np.ndarray, W: np.ndarray, p: int, samples: int, restarts: int, seeds) -> list:
    """Sampled comass of (1/p!) omega^p at a stack of points (G, W), (P, n, n) each.

    Each point draws ``samples`` frames from its own stream,
    ``default_rng(seeds[i])``, and keeps the ``restarts`` best by |Pf| (one
    when ``restarts`` is 0).  One :func:`_polish` then runs every restart of
    every point, unless ``restarts`` is 0; one Gram-Schmidt pass
    re-orthonormalizes all of them, and each point reports its largest
    signed value, the frame's first two vectors swapped where the sign is
    negative, with a lexicographic frame tie-break.  A point's estimate is
    the one it gets on a stack of one.  Returns one ComassEstimate per point.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    k, n, keep = 2 * p, G.shape[-1], max(restarts, 1)
    starts = []
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        parts = []
        for drawn in range(0, samples, _CHUNK):
            frames, valid = _orthonormal_frames(rng, G[i], k, min(_CHUNK, samples - drawn))
            vals = np.where(valid, _abs_values(W[i], frames), -np.inf)
            part = np.argpartition(-vals, min(keep, len(vals)) - 1)[:keep]
            parts.append((frames[:, part].transpose(1, 0, 2), vals[part]))
        top_frames, top_vals = map(np.concatenate, zip(*parts))
        if len(top_vals) > keep:  # the best of every chunk's best, earlier chunks first on ties
            order = np.argsort(-top_vals, kind="stable")[:keep]
            top_frames, top_vals = top_frames[order], top_vals[order]
        finite = np.isfinite(top_vals)
        # every draw degenerate, impossible for a PD metric: polish the coordinate frame
        starts.append(top_frames[finite] if finite.any() else
                      _gram_schmidt_stack(G[i], np.eye(n)[:k, None].copy())[0].transpose(1, 0, 2))
    point = np.repeat(np.arange(len(starts)), [len(f) for f in starts])
    frames = np.concatenate(starts)

    iterations, capped = np.zeros(len(starts), dtype=int), np.zeros(len(starts), dtype=bool)
    if restarts > 0:
        frames, iterations, capped = _polish(G, W, frames, point)
        for _ in np.flatnonzero(capped):
            _log.warning("comass polish stopped at the %d-iteration cap before converging (degree %d, "
                         "n=%d); the sampled value is still a lower bound", _POLISH_MAX_ITER, k, n)

    rows = _gram_schmidt_stack(G[point], frames.transpose(1, 0, 2).copy())[0].transpose(1, 0, 2)
    values = _signed_values(W[point], rows)
    negative = values < 0
    rows[negative, :2] = rows[negative, 1::-1]
    values[negative] = -values[negative]
    # per point: the largest value, then the lexicographically smallest frame, then the first restart
    order = np.lexsort((*rows.reshape(len(rows), -1).T[::-1], -values, point))
    best = order[np.searchsorted(point[order], np.arange(len(starts)))]
    return [
        ComassEstimate(float(values[j]), Frame(rows[j]), samples, len(starts[i]), "sampled",
                       int(iterations[i]), bool(capped[i]))
        for i, j in enumerate(best)
    ]


def comass_bruteforce(g: MetricTensor, form, samples: int = 100_000, restarts: int = 20,
                      seed: int = 0) -> ComassEstimate:
    """Sampled comass: random orthonormal frames plus a deterministic polish.

    :func:`_sampled_stack` on a stack of one.  Deterministic given ``seed``
    (PCG64 stream); the result is a lower bound of the true comass, pair it
    with an exact or analytic upper bound.
    """
    omega, p = _form_data(form)
    if omega.dim != g.dim:
        raise ValueError("form and metric dimensions disagree")
    return _sampled_stack(g.entries[None], omega.entries[None], p, samples, restarts, [seed])[0]


def test_calibrated(g: MetricTensor, form, frame: Frame, tol: float = 1e-9) -> CalibrationVerdict:
    """Test whether the oriented plane spanned by a frame is calibrated.

    The frame is g-orthonormalized (orientation preserved), so the metric area
    is 1 and the ratio is the bare form value.
    """
    omega, p = _form_data(form)
    w = omega.entries
    if len(frame) != 2 * p:
        raise ValueError(f"frame must have exactly {2 * p} vectors, got {len(frame)}")
    if frame.dim != w.shape[0]:
        raise ValueError("frame and form dimensions disagree")
    ratio = float(_signed_values(w, gram_schmidt(g, frame).vectors))
    return CalibrationVerdict(ratio=ratio, calibrated=abs(ratio - 1.0) <= tol, tolerance=tol)


def calibrated_eigenspace(pc: PointConstruction, tol: float = CALIBRATED_TOL) -> Frame:
    """g-orthonormal basis of the eigenvalue-1 eigenspace of -A^2.

    Every positively-oriented plane of the shape (v, Av) inside it is
    calibrated by the input form; the frame is empty when no eigenvalue
    reaches 1 (then no plane is calibrated).
    """
    spectrum = pc.spectrum
    calibrated = np.abs(spectrum.eigenvalues - 1.0) <= tol
    return Frame(spectrum.basis[: 2 * spectrum.npairs][np.repeat(calibrated, 2)])
