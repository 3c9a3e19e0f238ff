"""Construction of the compatible triple (J, g_J, calibration).

A stack of points (g, omega) runs through four stages, each one routine on
the whole stack: endomorphisms and paired spectra (``_spectra``), the band
split (``spectral._split_stack``), complement frames that follow a chain of
points (``_complement_frames``), and the assembly of points sharing (n, m)
(``_assemble``).  In the paired frame P (the V pairs, then the complement
frame) J = P J0 P^-1, g_J = P^-T diag(d) P^-1 and Omega = -P^-T diag(d) J0 P^-1,
with J0 the 2x2 rotation blocks and d = sqrt(lambda_i) twice per V pair, 1 on
the complement.  On V this is J = Q^-1 A with Q = sqrt(-A^2): a compatible
triple, g_J(v, w) = Omega(v, J w) and J^2 = -Id, in which every plane
calibrated by omega in (R^n, g) stays calibrated.  Each stage reports its
failures as (mask, error) checks; the caller raises the lowest index's, as a
ConstructionError.  ``construct_point`` is every stage on a stack of one.
Stacked LAPACK and BLAS calls give each matrix the bits a call on it alone
gives, so a point's construction does not depend on its batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import CALIBRATED_TOL, DEFAULT_TOLERANCES, MAX_DIM, Tolerances
from .errors import ConstructionError, NotPositiveDefiniteError
from .forms import (
    _RANK_TOL,
    Frame,
    MetricTensor,
    TwoForm,
    _freeze,
    _metric_stack,
    _placed,
    _raise_first,
    _trusted,
    _two_form_stack,
)
from .spectral import (
    Endomorphism,
    PairedSpectrum,
    _paired_stack,
    infer_epsilon,
    split_spaces,
)

# perfbench/workloads.py traces these names by patching them in this module,
# so they stay importable here, though the construction calls none of them.
from .forms import gram_schmidt  # noqa: E402, F401
from .spectral import associated_endomorphism, paired_spectrum  # noqa: E402, F401

_TINY = 1e-300


@dataclass(frozen=True, eq=False)
class PointConstruction:
    """Everything the construction produces at a single point.

    ``frame`` is the paired frame as rows: the ``m`` V pairs of ``spectrum``
    (rows ``:2m``), then the complement frame the construction used (rows
    ``2m:``).  ``j`` is the full almost complex structure in ambient
    coordinates and ``omega_total`` the induced calibration Omega.
    """

    frame: np.ndarray
    m: int
    epsilon: float
    j: Endomorphism
    g_j: MetricTensor
    omega_total: TwoForm
    residuals: dict
    spectrum: PairedSpectrum

    @property
    def dim(self) -> int:
        return self.j.dim


@functools.lru_cache(maxsize=MAX_DIM + 1)
def _rotation_blocks(n: int) -> np.ndarray:
    """J0: 2x2 rotation blocks, e_2i -> e_2i+1 and e_2i+1 -> -e_2i."""
    j0 = np.zeros((n, n))
    j0[1::2, ::2] = np.eye(n // 2)
    j0[::2, 1::2] = -np.eye(n // 2)
    return _freeze(j0)


def paired_frame(
    frame: np.ndarray, v_eigenvalues: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, P^-1, d) for a paired frame given as rows, or for a stack of them.

    The rows of ``frame``, the columns of P, are the V pairs with eigenvalues
    ``v_eigenvalues`` (one per pair) followed by the complement frame; d holds
    sqrt(lambda_i) twice for each V pair, then 1 on the complement.  P^-1 is
    an exact inverse, not P^T G: the pair basis is g-orthonormal only up to
    the spectral solver's error, which grows with the conditioning of g.
    """
    p = frame.mT
    root = np.sqrt(v_eigenvalues)
    d = np.ones(frame.shape[:-1])
    d[..., : 2 * root.shape[-1]] = root.repeat(2, axis=-1)
    return p, np.linalg.inv(p), d


def almost_complex_structure(p: np.ndarray, p_inv: np.ndarray) -> np.ndarray:
    """J = P J0 P^-1: Q^-1 A on V, t_2i -> t_2i+1 rotations on the complement."""
    return p @ _rotation_blocks(p.shape[-1]) @ p_inv


def compatible_metric(p_inv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """g_J = P^-T diag(d) P^-1: omega(v, J w) on V, g on the complement, zero across.

    Symmetric up to rounding; the assembly checks it and mirrors its upper
    triangle, as :class:`MetricTensor` does.
    """
    return p_inv.mT @ (d[..., :, None] * p_inv)


def assemble_calibration(p_inv: np.ndarray, d: np.ndarray, m: int) -> np.ndarray:
    """Omega = -P^-T diag(d) J0 P^-1, summed as its V part plus its complement part.

    The V part agrees with omega on the V pairs and vanishes on the
    complement; the complement part wedges the g_J-dual covectors of
    consecutive complement frame vectors, in frame order.  The parts are
    added as arrays: one product over all rows rounds differently, and the
    reports' bytes depend on this rounding.
    """

    def part(rows: slice) -> np.ndarray:
        rows_inv = p_inv[..., rows, :]
        blocks = _rotation_blocks(rows_inv.shape[-2])
        return -rows_inv.mT @ (d[..., rows, None] * (blocks @ rows_inv))

    return part(slice(0, 2 * m)) + part(slice(2 * m, None))


def lift_odd(g: MetricTensor, omega: TwoForm) -> tuple[MetricTensor, TwoForm]:
    """Embed odd-dimensional data into n+1 flat dimensions.

    The added direction is g-orthonormal to everything and the form does not
    see it.
    """
    n = g.dim
    if g.dim != omega.dim:
        raise ValueError("metric and two-form dimensions disagree")
    if n % 2 == 0:
        raise ValueError(f"dimension {n} is already even; nothing to lift")
    G = np.eye(n + 1)
    G[:n, :n] = g.entries
    W = np.zeros((n + 1, n + 1))
    W[:n, :n] = omega.entries
    return MetricTensor(G), TwoForm(W)


def _polar(hints: np.ndarray, g: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """polar(hint G base^T) of stacks of frames as rows: the R with R base nearest the hint."""
    u, _, vt = np.linalg.svd(hints @ g @ bases.mT)
    return u @ vt


def align_frame(hint: Frame, base: Frame, g: MetricTensor) -> Frame:
    """Rotate an orthonormal frame, inside its own span, closest to a hint.

    Orthogonal Procrustes, polar(hint G base^T) base: the step of
    :func:`_complement_frames` on a stack of one.
    """
    if len(hint) != len(base):
        raise ValueError("hint and base frames have different sizes")
    if len(base) == 0:
        return base
    rotation = _polar(hint.vectors[None], g.entries[None], base.vectors[None])[0]
    return Frame(rotation @ base.vectors)


def _complement_frames(basis, g, m, prev) -> np.ndarray:
    """Paired frames of a stack whose complement rows B_i = ``basis[i, 2m_i:]`` follow a chain.

    ``prev[i]`` is point i's predecessor, of the same m, or -1 where the chain
    restarts with R = I; on a link R_i = R_prev polar(B_prev G_i B_i^T).  As
    polar(R C) = R polar(C) for orthogonal R, R_i B_i is the rotation of B_i
    closest to R_prev B_prev, and stays g-orthonormal.  The polar factors take
    one stacked SVD per complement dimension; only k x k products run point by point.
    """
    n = basis.shape[-1]
    frames = basis.copy()
    rotations: dict[int, np.ndarray] = {}  # polar factors, then R_i in index order
    linked = prev >= 0
    for k in set((n - 2 * m[linked]).tolist()):
        rows = np.flatnonzero(linked & (n - 2 * m == k))
        polar = _polar(basis[prev[rows], n - k :], g[rows], basis[rows, n - k :])
        rotations.update(zip(rows.tolist(), polar))
    for i in sorted(rotations):
        if int(prev[i]) in rotations:  # else the predecessor restarted the chain, R_prev = I
            rotations[i] = rotations[int(prev[i])] @ rotations[i]
        frames[i, 2 * m[i] :] = rotations[i] @ basis[i, 2 * m[i] :]
    return frames


def _failures(checks) -> list:
    """The checks with each error as a ConstructionError of the same message, chained to it."""

    def failure(error, i: int) -> ConstructionError:
        exc = error(i)
        message = str(exc)
        if isinstance(exc, NotPositiveDefiniteError):
            message = f"compatible metric is not positive definite: {message}"
        failed = ConstructionError(message)
        failed.__cause__ = exc
        return failed

    return [(mask, functools.partial(failure, error)) for mask, error in checks]


def _spectra(g: np.ndarray, w: np.ndarray, tol: Tolerances):
    """(a, basis, values, npairs, checks) of an even-dimensional (k, n, n) stack of (G, W).

    A = G^-1 W^T, or zero where not finite; the checks: A finite, then g-skew-adjoint.
    """
    a = np.linalg.solve(g, w.mT)
    finite = np.isfinite(a).all(axis=(1, 2))
    a = np.where(finite[:, None, None], a, 0.0)
    basis, values, npairs, checks = _paired_stack(a, g, tol)
    finite_check = (~finite, lambda i: ValueError("endomorphism contains non-finite entries"))
    return a, basis, values, npairs, _failures([finite_check, *checks])


def _abs_max(mats: np.ndarray) -> np.ndarray:
    return np.abs(mats).max(axis=(-2, -1))


def _forms(mats: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_k^T M y_k for each matrix M of a stack and each row pair (x_k, y_k).

    Evaluated as (x_k @ M) @ y_k, a matrix-vector product and a dot per row,
    which is how one vector at a time rounds: one matrix product over all
    rows rounds differently, and the reports' bytes depend on this rounding.
    """
    return ((x[:, :, None, :] @ mats[:, None]) @ y[..., None])[..., 0, 0]


def _residuals(m, g, a, basis, values, npairs, p, p_inv, d, j, g_j, omega_total):
    """The residuals of a stack of constructions, one array per name, and their check.

    The check is ``plane_area``'s: a calibrated pair's Gram determinant
    under g_J must not be negative beyond rounding.
    """
    n = g.shape[-1]
    eye = np.eye(n)

    res: dict[str, np.ndarray] = {}
    res["j_squared"] = _abs_max(j @ j + eye)
    res["compatibility"] = _abs_max(g_j - omega_total @ j)
    res["j_invariance"] = _abs_max(j.mT @ omega_total @ j - omega_total)
    # The closed form assumes A acts on each V pair as sqrt(lambda_i) J0.
    nv = 2 * m
    av = p_inv[:, :nv] @ a @ p[:, :, :nv]
    res["pairing"] = np.abs(av - d[:, :nv, None] * _rotation_blocks(nv)).max(
        axis=(1, 2), initial=0.0
    )

    res["basis_orthonormality"] = _abs_max(basis @ g @ basis.mT - eye)

    M = -(a @ a)
    m_scale = np.maximum(_abs_max(M), _TINY)
    # M v one row at a time (gemv): M @ basis^T (gemm) rounds differently.
    eig = np.abs((M[:, None] @ basis[..., None])[..., 0] - values[..., None] * basis).max(axis=-1)
    paired = np.arange(n) < 2 * npairs[:, None]
    res["eigen_residual"] = np.where(paired, eig, 0.0).max(axis=-1) / m_scale

    # With g_J = L L^T the comass of Omega is the largest pair value of the
    # skew matrix L^-1 Omega L^-T, which is its spectral norm.
    chol = np.linalg.cholesky(g_j)
    skew = np.linalg.solve(chol, np.linalg.solve(chol, omega_total).mT)
    comass = np.linalg.svd(skew, compute_uv=False).max(axis=-1)
    res["calibration_unit_comass"] = np.abs(comass - 1.0)

    # Omega / area_{g_J} on every calibrated pair (v, w) of the spectrum.
    v, u = basis[:, 0::2], basis[:, 1::2]
    calibrated = np.arange(n // 2) < npairs[:, None]
    calibrated &= np.abs(values[:, 0::2] - 1.0) <= CALIBRATED_TOL
    gvv, guu, gvu = _forms(g_j, v, v), _forms(g_j, u, u), _forms(g_j, v, u)
    radicand = gvv * guu - gvu * gvu
    negative = calibrated & (radicand < -_RANK_TOL * np.maximum(np.abs(gvv * guu), _TINY))
    ratio = _forms(omega_total, v, u) / np.sqrt(np.maximum(radicand, 0.0))
    res["preservation"] = np.where(calibrated, np.abs(ratio - 1.0), 0.0).max(axis=-1)

    dom = basis[:, :nv] @ (g - g_j) @ basis[:, :nv].mT
    res["metric_domination_min_eig"] = (
        np.linalg.eigvalsh((dom + dom.mT) / 2)[:, 0] if m else np.zeros(len(g))
    )

    gram_check = (
        negative.any(axis=-1),
        lambda i: ValueError(
            f"negative Gram determinant {float(radicand[i][negative[i]][0]):.6g}; metric is not PSD"
        ),
    )
    return res, gram_check


def _assemble(g, a, basis, values, npairs, frames, m: int, epsilon: float, tol: Tolerances):
    """The constructions of a stack of points sharing (n, m), and the checks on them.

    The inputs are :func:`_spectra`'s stacks and the paired frames as rows;
    the checks run J, g_J, Omega, then the residuals'.  The constructions
    are built only when every check passes, else the list is empty.
    """
    p, p_inv, d = paired_frame(frames, values[:, : 2 * m : 2])
    j = almost_complex_structure(p, p_inv)
    g_j, metric_checks = _metric_stack(compatible_metric(p_inv, d), tol.pd)
    omega_total, form_checks = _two_form_stack(assemble_calibration(p_inv, d, m))
    j_finite = np.isfinite(j).all(axis=(1, 2))
    j_check = (~j_finite, lambda i: ValueError("endomorphism contains non-finite entries"))
    checks = [j_check, *metric_checks, *form_checks]

    # The residuals need a positive definite g_J: they are computed for the
    # points that pass the checks above, all of them when the stack passes.
    rows = np.flatnonzero(~np.logical_or.reduce([mask for mask, _ in checks]))
    keep = slice(None) if len(rows) == len(g) else rows
    stacks = (g, a, basis, values, npairs, p, p_inv, d, j, g_j, omega_total)
    res, gram_check = _residuals(m, *(x[keep] for x in stacks))
    checks = _failures([*checks, *_placed([gram_check], rows, len(g))])
    if len(rows) < len(g) or gram_check[0].any():
        return [], checks

    columns = {key: column.tolist() for key, column in res.items()}
    return [
        PointConstruction(
            frame=_freeze(frames[i]),
            m=m,
            epsilon=epsilon,
            j=_trusted(Endomorphism, matrix=j[i]),
            g_j=_trusted(MetricTensor, entries=g_j[i]),
            omega_total=_trusted(TwoForm, entries=omega_total[i]),
            residuals={key: column[i] for key, column in columns.items()},
            spectrum=PairedSpectrum(basis[i], values[i], int(npairs[i])),
        )
        for i in range(len(g))
    ], checks


def construct_point(
    g: MetricTensor,
    omega: TwoForm,
    epsilon: float | None = None,
    tframe_hint: Frame | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PointConstruction:
    """Run the construction at one point: every stage of the field's on a stack of one.

    ``epsilon=None`` uses the automatic policy: the smallest paired eigenvalue
    of -A^2 at this point; with none (omega = 0) the whole space is the
    complement.  A ``tframe_hint`` of the complement's size replaces the
    spectral complement frame by :func:`align_frame`.  Raises
    :class:`GapViolation` when an eigenvalue falls between the bands, and
    :class:`ConstructionError` when a stage's check fails.
    """
    if g.dim != omega.dim:
        raise ValueError("metric and two-form dimensions disagree")
    if g.dim % 2:
        raise ValueError(f"dimension {g.dim} is odd; lift the data first")
    G = g.entries[None]
    a, basis, values, npairs, checks = _spectra(G, omega.entries[None], tol)
    _raise_first(checks)
    spectrum = PairedSpectrum(basis[0], values[0], int(npairs[0]))
    if epsilon is None:
        # Degenerate all-kernel spectrum: any positive epsilon produces the
        # same split, so a fixed sentinel keeps the output deterministic.
        epsilon = infer_epsilon(spectrum) or 1.0
    m = split_spaces(spectrum, epsilon)
    frame = basis.copy()
    if tframe_hint is not None and len(tframe_hint) == len(frame[0]) - 2 * m:
        frame[0, 2 * m :] = align_frame(tframe_hint, Frame(frame[0, 2 * m :]), g).vectors
    constructions, checks = _assemble(G, a, basis, values, npairs, frame, m, float(epsilon), tol)
    _raise_first(checks)
    return constructions[0]
