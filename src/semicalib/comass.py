"""Comass computation, power forms, and calibrated-plane testing.

The exact comass of omega, or of a normalized power (1/p!) omega^p, is the
product mu_1 ... mu_p of the p largest pair values mu_i = sqrt(lambda_i) of
-A^2 (Wirtinger's inequality for p = 1; Harvey & Lawson, Acta Math. 148,
1982); every exact value comes from one routine, ``spectral._pair_values``,
and only ``comass_exact``'s maximizer needs the paired spectrum.  The value
of (1/p!) omega^p on a frame is the Pfaffian of its omega-Gram matrix, and
the sampled oracle, an independent cross-check, maximizes it directly.  Both
run on stacks of points; ``comass_exact`` and ``comass_bruteforce`` are their
stacks of one.  The sampled oracle draws random frames X for each point from
its own stream, in cache-sized chunks, vector-major, and ranks them by the
value each takes once metric-orthonormalized, |Pf(X W X^T)| / sqrt(det X G
X^T), read off the raw draw; only the best ones are Gram-Schmidt
orthonormalized, and one deterministic gradient ascent on the Stiefel
manifold then polishes them, for every point at once.  For 2-frames (p = 1,
every ``verify`` run) the ascent's solve and polar factor are closed forms
on 2x2 matrices, with no LAPACK call per step.
The reported value is the signed Pfaffian of a point's best frame after one
Gram-Schmidt pass over all of them has re-orthonormalized it, so the sampled
estimate stays a lower bound of the true comass by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import CALIBRATED_TOL
from .construction import PointConstruction
from .forms import (
    Frame,
    MetricTensor,
    TwoForm,
    _cholesky,
    _gram_schmidt_stack,
    _inv,
    _polar_factor,
    gram_schmidt,
)
from .forms import _solve as _lapack_solve
# perfbench/workloads.py traces paired_spectrum by patching it here, so it stays importable; nothing here calls it.
from .spectral import _pair_values, _paired_stack, associated_endomorphism, paired_spectrum  # noqa: F401

# Frames per sampling chunk: each (chunk, n) temporary stays cache-sized.  The
# sampled values do not depend on it.
_CHUNK = 2048
_POLISH_SHIFT = 0.5
_POLISH_TOL = 1e-10
_POLISH_SINGULAR = 1e-12
_POLISH_MAX_ITER = 1000
_PF_EXPANSION_MAX = 8
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])

_log = logging.getLogger("semicalib")


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
    """Comass value with the frame that attains it: one row of a stacked oracle's columns.

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

    The top p pairs of the paired spectrum attain it; no g-orthonormal 2p-frame exceeds it, because
    the pair values of a compression interlace those of the whole form.  A
    form of rank below 2p has comass 0, up to rounding, and an empty maximizer.
    """
    omega, p = _form_data(form)
    if omega.dim != g.dim:
        raise ValueError("metric and two-form dimensions disagree")
    # A = G^-1 W^T is g-skew-adjoint by construction, so the stack's input needs no check
    # every pair counts, however small its value t > 0: a power's maximizer may need them all
    basis, _, npairs = _paired_stack(associated_endomorphism(g, omega).matrix[None], g.entries[None], 0.0)
    rows = basis[0, : 2 * p] if npairs[0] >= p else np.zeros((0, g.dim))
    value = _exact_powers(g.entries[None], omega.entries[None], (p,))[p][0]
    return ComassEstimate(float(value), Frame(rows), 0, 0, "exact")


def _exact_powers(G: np.ndarray, W: np.ndarray, powers) -> dict:
    """{p: (P,) comass of (1/p!) omega^p} for every p in ``powers`` at (P, n, n) stacks G, W.

    Each is the product of a point's p largest :func:`spectral._pair_values`,
    one singular value decomposition per point for every power.
    """
    for p in powers:
        _check_power(p, G.shape[-1])
    top = _pair_values(G, W)
    return {p: np.prod(top[:, :p], axis=1) for p in powers}


def _ranked_draws(rng, G: np.ndarray, w: np.ndarray, k: int, count: int):
    """Random k-frames X, vector-major (k, count, n), and each one's |form value| once g-orthonormalized.

    The normals are drawn frame-major, so the stream, and each draw, is the
    same for any chunk size.  Gram-Schmidt keeps a frame's span and
    orientation, so that value is |Pf(X W X^T)| / sqrt(det X G X^T), read off
    the raw draw: one GEMM per frame vector gives X G and X W, and one row dot
    product per entry the two Gram matrices.  The determinant is the product
    of the unpivoted LDL^T pivots, the squared Gram-Schmidt residuals; a draw
    is invalid, value -inf, when one is rounding-sized on the metric's own
    scale: at most 1e-24 of the largest metric entry.
    """
    X = rng.standard_normal((count, k, G.shape[0])).transpose(1, 0, 2)
    XG, XW = X @ G, X @ w
    # (k, k, count) storage: each entry is a contiguous vector for the elimination and the expansion
    gram, form = np.empty((k, k, count)), np.zeros((k, k, count))
    for a in range(k):
        for b in range(a, k):
            gram[a, b] = gram[b, a] = np.einsum("cn,cn->c", XG[a], X[b])
        for b in range(a + 1, k):
            form[a, b] = np.einsum("cn,cn->c", XW[a], X[b])
            form[b, a] = -form[a, b]
    valid, root, floor = np.ones(count, dtype=bool), np.ones(count), 1e-24 * np.abs(G).max()
    for j in range(k):
        valid &= gram[j, j] > floor
        pivot = np.where(valid, gram[j, j], 1.0)  # an invalid draw's elimination goes on unread
        root *= np.sqrt(pivot)
        gram[j + 1 :, j + 1 :] -= gram[j + 1 :, j, None] * (gram[j, j + 1 :] / pivot)
    return X, np.where(valid, np.abs(_pf_batch(form.transpose(2, 0, 1))) / root, -np.inf)


def _solve(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M^-1 R for a stack of k x k M: the 2x2 adjugate, adj(M) R / det M, at k = 2, LAPACK above."""
    if M.shape[-1] != 2:
        return _lapack_solve(M, R)
    adj = M.mT[:, ::-1, ::-1] * _ADJ_SIGN
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    return adj @ R / det[:, None, None]


def _frame_polar(B: np.ndarray) -> np.ndarray:
    """Polar factor (B B^T)^-1/2 B of a stack of full-rank (c, k, n) B.

    At k = 2 it is a closed form (Higham, SIAM J. Sci. Stat. Comput. 7, 1986):
    with a = B B^T, sigma = sqrt(det a) and tau^2 = tr a + 2 sigma, the square
    root of a is (a + sigma I) / tau, so the factor is
    ((tau^2 - sigma) B - a B) / (sigma tau).  Above k = 2 it is U V^T of the SVD.
    """
    if B.shape[-2] != 2:
        return _polar_factor(B)
    a = B @ B.mT
    sigma = np.sqrt(a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0])
    tau2 = a[:, 0, 0] + a[:, 1, 1] + 2.0 * sigma
    return ((tau2 - sigma)[:, None, None] * B - a @ B) / (sigma * np.sqrt(tau2))[:, None, None]


def _polish(G: np.ndarray, w: np.ndarray, frames: np.ndarray, point: np.ndarray, shift: float, max_iter: int):
    """Deterministic ascent of |form value| over g-orthonormal frames, every restart of a stack at once.

    ``G`` and ``w`` are (P, n, n) stacks; restart j is the g-orthonormal
    frame ``frames[j]`` at point ``point[j]``.  In whitened coordinates
    (G = L L^T, Y = F L, W_w = L^-1 W L^-T) the frames are orthonormal rows
    and the value is Pf(M), M = Y W_w Y^T, whose log-gradient is
    E = M^-1 Y W_w.  Each step maps Y to the polar factor of E + s Y, a
    shifted power iteration on the Stiefel manifold (Edelman, Arias & Smith,
    SIAM J. Matrix Anal. Appl. 20, 1998), with s = ``shift``: the default
    ``_POLISH_SHIFT`` = 0.5 for generic forms (``comass_bruteforce``,
    ``semicalib comass``), and 1 for ``verify``'s run on a calibration whose
    pair values are all 1 (see ``field._VERIFY_POLISH_SHIFT``).  It stops
    after ``max_iter`` steps: ``_POLISH_MAX_ITER`` = 1000 for generic forms,
    and ``field._VERIFY_POLISH_MAX_ITER`` = 50 for ``verify``'s run.  At k = 2 the
    solve and the polar factor are 2x2 closed forms (:func:`_solve`,
    :func:`_frame_polar`) and need no rank guard for any s >= 0: E Y^T = M^-1 M = I,
    so B = E + s Y has B Y^T = (1 + s) I and, Y^T Y being a projection,
    B B^T >= (1 + s)^2 I.  A restart stops
    once the part of E normal to its rows, the Riemannian gradient, is at
    most 1e-10 or no smaller than at its previous step, the rounding floor of
    its point's conditioning.  Frames whose |Pf| is rounding-sized next to
    the form's scale (the zero form, or rank below the degree) are left as
    they are.  Returns (frames, iterations, capped), the last two per point:
    the steps of its longest restart, and whether one still moved at the cap.
    """
    L = _cholesky(G)
    L_inv = _inv(L)
    w_w = (L_inv @ w @ L_inv.mT)[point]
    Y = frames @ L[point]
    scale = np.abs(w_w).max(axis=(1, 2)) ** (frames.shape[1] // 2)
    act = np.flatnonzero(np.abs(_signed_values(w_w, Y)) > _POLISH_SINGULAR * scale)
    gradient = np.full(len(Y), np.inf)
    iterations = np.zeros(len(G), dtype=int)
    step = 0
    while act.size and step < max_iter:
        step += 1
        iterations[point[act]] = step
        Ya = Y[act]
        YW = Ya @ w_w[act]
        E = _solve(YW @ Ya.mT, YW)
        size = np.linalg.norm(E - (E @ Ya.mT) @ Ya, axis=(1, 2))
        moving = (size > _POLISH_TOL) & (size < gradient[act])
        gradient[act] = size
        act = act[moving]
        Y[act] = _frame_polar(E[moving] + shift * Ya[moving])
    return Y @ L_inv[point], iterations, np.isin(np.arange(len(G)), point[act])


def _sampled_stack(G: np.ndarray, W: np.ndarray, p: int, samples: int, restarts: int, seeds,
                   shift: float = _POLISH_SHIFT, max_iter: int | None = None):
    """Sampled comass of (1/p!) omega^p at a stack of points (G, W), (P, n, n) each, as columns.

    Each point draws ``samples`` frames from its own stream,
    ``default_rng(seeds[i])``, keeps the ``restarts`` best by
    :func:`_ranked_draws`' value (one when ``restarts`` is 0) and
    Gram-Schmidt orthonormalizes them.  One :func:`_polish` with ``shift``
    and the step cap ``max_iter`` (``_POLISH_MAX_ITER`` when None) then runs every restart
    of every point, unless ``restarts`` is 0; one Gram-Schmidt pass
    re-orthonormalizes all of them, and each point reports its largest
    signed value, the frame's first two vectors swapped where the sign is
    negative, with a lexicographic frame tie-break.  Returns the columns
    (values, best frames, restarts used, ascent iterations, capped), one row
    per point: the row it gets on a stack of one.  Raises ValueError when
    ``samples`` is below 1 or ``restarts`` below 0.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if restarts < 0:
        raise ValueError("restarts must be >= 0")
    k, n, keep = 2 * p, G.shape[-1], max(restarts, 1)
    starts = []
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        parts = []
        for drawn in range(0, samples, _CHUNK):
            X, vals = _ranked_draws(rng, G[i], W[i], k, min(_CHUNK, samples - drawn))
            part = np.argpartition(-vals, min(keep, len(vals)) - 1)[:keep]
            parts.append((X[:, part].transpose(1, 0, 2), vals[part]))
        top_draws, top_vals = map(np.concatenate, zip(*parts))
        if len(top_vals) > keep:  # the best of every chunk's best, earlier chunks first on ties
            order = np.argsort(-top_vals, kind="stable")[:keep]
            top_draws, top_vals = top_draws[order], top_vals[order]
        finite = np.isfinite(top_vals)
        # every draw degenerate, impossible for a PD metric: polish the coordinate frame
        draws = top_draws[finite] if finite.any() else np.eye(n)[None, :k]
        starts.append(_gram_schmidt_stack(G[i], draws.transpose(1, 0, 2))[0].transpose(1, 0, 2))
    used = np.array([len(f) for f in starts])
    point = np.repeat(np.arange(len(starts)), used)
    frames = np.concatenate(starts)

    iterations, capped = np.zeros(len(starts), dtype=int), np.zeros(len(starts), dtype=bool)
    if restarts > 0:
        max_iter = _POLISH_MAX_ITER if max_iter is None else max_iter
        frames, iterations, capped = _polish(G, W, frames, point, shift, max_iter)
        if capped.any():
            _log.warning("comass polish stopped at the %d-iteration cap at %d point(s) (degree %d, n=%d); "
                         "their sampled values are still lower bounds", max_iter, capped.sum(), k, n)

    rows = _gram_schmidt_stack(G[point], frames.transpose(1, 0, 2).copy())[0].transpose(1, 0, 2)
    values = _signed_values(W[point], rows)
    negative = values < 0
    rows[negative, :2] = rows[negative, 1::-1]
    values[negative] = -values[negative]
    # per point: the largest value, then the lexicographically smallest frame, then the first restart
    order = np.lexsort((*rows.reshape(len(rows), -1).T[::-1], -values, point))
    best = order[np.searchsorted(point[order], np.arange(len(starts)))]
    return values[best], rows[best], used, iterations, capped


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
    columns = _sampled_stack(g.entries[None], omega.entries[None], p, samples, restarts, [seed])
    value, frame, used, iterations, capped = (column[0] for column in columns)
    return ComassEstimate(float(value), Frame(frame), samples, int(used), "sampled",
                          int(iterations), bool(capped))


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


def calibrated_eigenspace(pc: PointConstruction) -> Frame:
    """g-orthonormal basis of the eigenvalue-1 eigenspace of -A^2.

    Every positively-oriented plane of the shape (v, Av) inside it is
    calibrated by the input form; the frame is empty when no eigenvalue
    reaches 1 (then no plane is calibrated).
    """
    spectrum = pc.spectrum
    calibrated = np.abs(spectrum.eigenvalues - 1.0) <= CALIBRATED_TOL
    return Frame(spectrum.basis[: 2 * spectrum.npairs][np.repeat(calibrated, 2)])
