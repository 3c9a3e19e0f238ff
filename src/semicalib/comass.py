"""Comass computation, power forms, and calibrated-plane testing.

The exact comass of omega, or of a normalized power (1/p!) omega^p, is the
product mu_1 ... mu_p of the p largest pair values mu_i = sqrt(lambda_i) of
-A^2 (Wirtinger's inequality for p = 1; Harvey & Lawson, Acta Math. 148,
1982).  The value of (1/p!) omega^p on a frame equals the Pfaffian of the
frame's omega-Gram matrix, and the sampled oracle, an independent
cross-check, maximizes it directly: it draws random metric-orthonormal
frames in cache-sized chunks, vector-major, ranks them by the |Pf| of their
Gram matrices, then polishes the best ones by a deterministic gradient
ascent on the Stiefel manifold.
The reported value is the signed Pfaffian of the best frame after it has
been re-orthonormalized, so the sampled estimate stays a lower bound of the
true comass by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .config import CALIBRATED_TOL, DEFAULT_TOLERANCES
from .construction import PointConstruction
from .forms import Frame, MetricTensor, TwoForm, gram_schmidt
from .spectral import associated_endomorphism, paired_spectrum

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


def _eval_rows(w: np.ndarray, rows: np.ndarray) -> float:
    gram = rows @ w @ rows.T
    return float(_pf_batch(gram[None])[0])


def eval_power(power: PowerForm, frame: Frame) -> float:
    """Value of (1/p!) omega^p on a 2p-frame: the Pfaffian of [omega(f_i, f_j)]."""
    if frame.dim != power.dim:
        raise ValueError("frame and form dimensions disagree")
    if len(frame) != power.degree:
        raise ValueError(f"frame must have exactly {power.degree} vectors, got {len(frame)}")
    return _eval_rows(power.base.entries, frame.vectors)


def comass_exact(g: MetricTensor, form) -> ComassEstimate:
    """Exact comass of omega or of (1/p!) omega^p: the product of the p largest pair values.

    The top p pairs attain it; no g-orthonormal 2p-frame exceeds it, because
    the pair values of a compression interlace those of the whole form.  A
    form of rank below 2p has comass 0 and an empty maximizer.
    """
    omega, p = _form_data(form)
    value, rows = _exact_powers(g, omega, (p,))[p]
    return ComassEstimate(value, Frame(rows), 0, 0, "exact")


def _exact_powers(g: MetricTensor, omega: TwoForm, powers) -> dict[int, tuple[float, np.ndarray]]:
    """(comass, maximizer rows) of (1/p!) omega^p for every p in ``powers``, from one spectrum.

    Rows are empty when the form's rank is below 2p, and the comass is 0.
    """
    for p in powers:
        _check_power(p, omega.dim)
    spectrum = paired_spectrum(associated_endomorphism(g, omega), g, _EVERY_BLOCK)
    out = {}
    for p in powers:
        if spectrum.npairs < p:
            out[p] = (0.0, np.zeros((0, g.dim)))
        else:
            value = float(np.prod(np.sqrt(spectrum.eigenvalues[:p])))
            out[p] = (value, spectrum.basis[: 2 * p])
    return out


def _orthonormal_frames(rng, G: np.ndarray, k: int, count: int):
    """Batch of random g-orthonormal k-frames; returns (frames, valid mask).

    The frames are vector-major, shape (k, count, n): ``frames[j]`` holds the
    j-th vector of every frame as one contiguous block.  The normals are
    drawn frame-major, so the stream, and each frame, is the same for any
    layout or chunk size.  A draw is invalid when a vector's residual is
    rounding-sized on the metric's own scale.
    """
    n = G.shape[0]
    tiny = 1e-24 * np.abs(G).max()
    X = rng.standard_normal((count, k, n))
    F = np.empty((k, count, n))
    FG = np.empty((k, count, n))
    valid = np.ones(count, dtype=bool)
    for j in range(k):
        v = X[:, j, :]  # a view: the draws are not read again, so reduce them in place
        for _ in range(2):
            for i in range(j):
                coeff = np.einsum("cn,cn->c", FG[i], v)
                v -= coeff[:, None] * F[i]
        vg = v @ G
        norm2 = np.einsum("cn,cn->c", vg, v)
        bad = norm2 <= tiny
        valid &= ~bad
        norm = np.sqrt(np.where(bad, 1.0, norm2))[:, None]
        np.divide(v, norm, out=F[j])
        np.divide(vg, norm, out=FG[j])
    return F, valid


def _abs_values(w: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """|form value| on a batch of vector-major frames (k, count, n): |Pf(gram)|.

    One GEMM per frame vector gives f_a W, and one row dot product per
    entry the strict upper triangle of gram = [omega(f_a, f_b)]; its
    Pfaffian is the value the final estimate reports.  The sign is lost, so
    this serves the search only (ranking samples and finding singular frames
    for the polish).
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


def _polish(G: np.ndarray, w: np.ndarray, frames: np.ndarray):
    """Deterministic ascent of |form value| over g-orthonormal frames, batched.

    In whitened coordinates (G = L L^T, Y = F L, W_w = L^-1 W L^-T) the
    frames are orthonormal rows and the value is Pf(M), M = Y W_w Y^T, whose
    log-gradient is E = M^-1 Y W_w.  Each step maps Y to the polar factor of
    E + s Y, a shifted power iteration on the Stiefel manifold (Edelman,
    Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 1998); a restart stops
    once the part of E normal to its rows, the Riemannian gradient, is at
    most 1e-10.  Frames whose |Pf| is rounding-sized next to the form's
    scale (the zero form, or rank below the degree) are left as they are.
    Returns (frames, iterations, capped).
    """
    L = np.linalg.cholesky(G)
    L_inv = np.linalg.inv(L)
    w_w = L_inv @ w @ L_inv.T
    Y = frames @ L
    k = frames.shape[1]
    vals = _abs_values(w_w, Y.transpose(1, 0, 2))
    act = np.flatnonzero(vals > _POLISH_SINGULAR * np.abs(w_w).max() ** (k // 2))
    iterations = 0
    while act.size and iterations < _POLISH_MAX_ITER:
        iterations += 1
        Ya = Y[act]
        YW = Ya @ w_w
        E = np.linalg.solve(YW @ np.swapaxes(Ya, 1, 2), YW)
        normal = E - (E @ np.swapaxes(Ya, 1, 2)) @ Ya
        moving = np.linalg.norm(normal, axis=(1, 2)) > _POLISH_TOL
        act = act[moving]
        u, _, vt = np.linalg.svd(E[moving] + _POLISH_SHIFT * Ya[moving], full_matrices=False)
        Y[act] = u @ vt
    return Y @ L_inv, iterations, bool(act.size)


def comass_bruteforce(
    g: MetricTensor,
    form,
    samples: int = 100_000,
    restarts: int = 20,
    seed: int = 0,
) -> ComassEstimate:
    """Sampled comass: random orthonormal frames plus a deterministic polish.

    Deterministic given ``seed`` (PCG64 stream); the result is a lower bound
    of the true comass, pair it with an exact or analytic upper bound.
    Restart candidates are the best sampled frames; results merge by maximum
    with a lexicographic frame tie-break.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    omega, p = _form_data(form)
    w = omega.entries
    k = 2 * p
    if w.shape[0] != g.dim:
        raise ValueError("form and metric dimensions disagree")
    G = g.entries
    rng = np.random.default_rng(seed)

    top_frames = np.zeros((0, k, g.dim))
    top_vals = np.zeros(0)
    drawn = 0
    while drawn < samples:
        count = min(_CHUNK, samples - drawn)
        frames, valid = _orthonormal_frames(rng, G, k, count)
        vals = np.where(valid, _abs_values(w, frames), -np.inf)
        keep = min(max(restarts, 1), count)
        part = np.argpartition(-vals, keep - 1)[:keep]
        top_frames = np.concatenate([top_frames, frames[:, part].transpose(1, 0, 2)])
        top_vals = np.concatenate([top_vals, vals[part]])
        if top_vals.size > max(restarts, 1):
            order = np.argsort(-top_vals, kind="stable")[: max(restarts, 1)]
            top_frames, top_vals = top_frames[order], top_vals[order]
        drawn += count

    finite = np.isfinite(top_vals)
    if not finite.any():
        # all sampled frames degenerate (cannot happen for a PD metric); fall
        # back to g-orthonormalized coordinate vectors so the estimate stays
        # well-defined
        top_frames = gram_schmidt(g, Frame(np.eye(g.dim)[:k])).vectors[None]
    else:
        top_frames = top_frames[finite]
    n_restarts = top_frames.shape[0]

    iterations, capped = 0, False
    if restarts > 0:
        frames, iterations, capped = _polish(G, w, top_frames)
        if capped:
            _log.warning(
                "comass polish stopped at the %d-iteration cap before converging "
                "(degree %d, n=%d); the sampled value is still a lower bound",
                _POLISH_MAX_ITER, k, g.dim,
            )
    else:
        frames = top_frames

    best_val = -np.inf
    best_rows: np.ndarray | None = None
    for i in range(frames.shape[0]):
        polished = gram_schmidt(g, Frame(frames[i]))
        rows = np.array(polished.vectors)
        value = _eval_rows(w, rows)
        if value < 0:
            rows[[0, 1]] = rows[[1, 0]]
            value = -value
        if value > best_val or (
            value == best_val
            and best_rows is not None
            and tuple(rows.ravel()) < tuple(best_rows.ravel())
        ):
            best_val, best_rows = value, rows
    return ComassEstimate(
        value=float(best_val),
        maximizer=Frame(best_rows),
        samples=drawn,
        restarts=n_restarts,
        mode="sampled",
        ascent_iterations=iterations,
        ascent_capped=capped,
    )


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
    onf = gram_schmidt(g, frame)
    ratio = _eval_rows(w, onf.vectors)
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
