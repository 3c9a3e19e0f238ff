"""Construction of the compatible triple (J, g_J, calibration).

Given a metric g and a 2-form omega at a point, the construction runs in
three stages.  The endomorphisms and paired spectra are computed on a stack
of points.  The frame stage is per point: band split -> paired frame P (the
V pairs, then the complement frame, aligned to a hint when there is one).
The assembly is batched again: one pass over a stack of points sharing
(n, m).  In the paired frame J, g_J and the induced
calibration are block diagonal: with d = sqrt(lambda_i) twice per V pair and
1 on the complement, and J0 the 2x2 rotation blocks, J = P J0 P^-1,
g_J = P^-T diag(d) P^-1 and Omega = -P^-T diag(d) J0 P^-1.  The same pass
checks the stack as MetricTensor and TwoForm check one matrix and computes
every residual.  ``construct_point`` is all three on a stack of one.
Stacked LAPACK and BLAS calls give each matrix the bits a call on it alone
gives, so a point's construction does not depend on its batch.

On V this is J = Q^-1 A with Q = sqrt(-A^2).  The result is a compatible
triple: g_J(v, w) = Omega(v, J w), J^2 = -Id, and every plane calibrated by
omega in (R^n, g) is calibrated by the induced form in (R^n, g_J).
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
    _first_fault,
    _freeze,
    _metric_stack,
    _trusted,
    _two_form_stack,
    gram_schmidt,
)
# perfbench/workloads.py traces associated_endomorphism and paired_spectrum by
# patching these names in this module, so they stay imported, though unused.
from .spectral import (  # noqa: F401
    Endomorphism,
    PairedSpectrum,
    _paired_stack,
    associated_endomorphism,
    infer_epsilon,
    paired_spectrum,
    split_spaces,
)

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


def align_frame(hint: Frame, base: Frame, g: MetricTensor) -> Frame:
    """Rotate an orthonormal frame, inside its own span, closest to a hint.

    Orthogonal Procrustes: the overlap matrix between hint and base is reduced
    to its orthogonal polar factor, applied to the base rows, and the result
    re-orthonormalized.
    """
    if len(hint) != len(base):
        raise ValueError("hint and base frames have different sizes")
    if len(base) == 0:
        return base
    overlap = hint.vectors @ g.entries @ base.vectors.T
    u, _, vt = np.linalg.svd(overlap)
    rotated = (u @ vt) @ base.vectors
    return gram_schmidt(g, Frame(rotated))


@dataclass(frozen=True, eq=False)
class _Spectral:
    """One point's spectra and paired frame: everything the assembly reads."""

    g: MetricTensor
    endo: Endomorphism
    spectrum: PairedSpectrum
    epsilon: float
    m: int
    frame: np.ndarray


def _spectra(points: list[tuple[MetricTensor, TwoForm]], tol: Tolerances) -> list:
    """(endomorphism, paired spectrum) of each point of a stack of even dimension, in order.

    At the first point whose endomorphism is not finite or not g-skew-adjoint
    the list holds that error instead, and ends.
    """
    g = np.array([g.entries for g, _ in points])
    a = np.linalg.solve(g, np.array([omega.entries for _, omega in points]).mT)
    finite = np.isfinite(a).all(axis=(1, 2))
    basis, values, npairs, checks = _paired_stack(np.where(finite[:, None, None], a, 0.0), g, tol)
    finite_check = (~finite, lambda i: ValueError("endomorphism contains non-finite entries"))
    fault = _first_fault([finite_check, *checks])
    out: list = [
        (_trusted(Endomorphism, matrix=a[i]), PairedSpectrum(basis[i], values[i], int(npairs[i])))
        for i in range(len(points) if fault is None else fault[0])
    ]
    return out if fault is None else [*out, fault[1]]


def _frame_stage(g: MetricTensor, endo: Endomorphism, spectrum: PairedSpectrum,
                 epsilon: float | None, tframe_hint: Frame | None) -> _Spectral:
    """Band split and paired frame of one point."""
    if epsilon is None:
        # Degenerate all-kernel spectrum: any positive epsilon produces the
        # same split, so a fixed sentinel keeps the output deterministic.
        epsilon = infer_epsilon(spectrum) or 1.0
    m = split_spaces(spectrum, epsilon)

    frame = spectrum.basis.copy()
    if 2 * m < len(frame):
        base = Frame(frame[2 * m :])
        if tframe_hint is not None and len(tframe_hint) == len(base):
            frame[2 * m :] = align_frame(tframe_hint, base, g).vectors
        else:
            frame[2 * m :] = gram_schmidt(g, base).vectors
    return _Spectral(g, endo, spectrum, float(epsilon), m, frame)


def _abs_max(mats: np.ndarray) -> np.ndarray:
    return np.abs(mats).max(axis=(-2, -1))


def _forms(mats: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_k^T M y_k for each matrix M of a stack and each row pair (x_k, y_k).

    Evaluated as (x_k @ M) @ y_k, a matrix-vector product and a dot per row,
    which is how one vector at a time rounds: one matrix product over all
    rows rounds differently, and the reports' bytes depend on this rounding.
    """
    return ((x[:, :, None, :] @ mats[:, None]) @ y[..., None])[..., 0, 0]


def _residuals(points, m, p, p_inv, d, j, g_j, omega_total):
    """The residuals of a stack of constructions, one array per name, and their check.

    The check is ``plane_area``'s: a calibrated pair's Gram determinant
    under g_J must not be negative beyond rounding.
    """
    g = np.array([s.g.entries for s in points])
    a = np.array([s.endo.matrix for s in points])
    basis = np.array([s.spectrum.basis for s in points])
    values = np.array([s.spectrum.values for s in points])
    npairs = np.array([s.spectrum.npairs for s in points])
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
        np.linalg.eigvalsh((dom + dom.mT) / 2)[:, 0] if m else np.zeros(len(points))
    )

    gram_check = (
        negative.any(axis=-1),
        lambda i: ValueError(
            f"negative Gram determinant {float(radicand[i][negative[i]][0]):.6g}; metric is not PSD"
        ),
    )
    return res, gram_check


def _assemble(points: list[_Spectral], tol: Tolerances):
    """The batched stage for points sharing (n, m): their constructions, or their first fault.

    Returns (constructions, None), or ([], (position, error)) for the first
    point in ``points`` whose construction fails a check, the checks of one
    point running in the order J, g_J, Omega, residuals.  Residuals are
    computed for the points before the first assembly fault only, so a
    residual check that fails earlier still wins.
    """
    m = points[0].m
    frames = np.array([s.frame for s in points])
    p, p_inv, d = paired_frame(frames, np.array([s.spectrum.eigenvalues[:m] for s in points]))
    j = almost_complex_structure(p, p_inv)
    g_j, metric_checks = _metric_stack(compatible_metric(p_inv, d), tol.pd)
    omega_total, form_checks = _two_form_stack(assemble_calibration(p_inv, d, m))
    j_check = (
        ~np.isfinite(j).all(axis=(1, 2)),
        lambda i: ValueError("endomorphism contains non-finite entries"),
    )
    fault = _first_fault([j_check, *metric_checks, *form_checks])
    if fault is not None and isinstance(fault[1], NotPositiveDefiniteError):
        error = ConstructionError(f"compatible metric is not positive definite: {fault[1]}")
        error.__cause__ = fault[1]
        fault = (fault[0], error)

    k = len(points) if fault is None else fault[0]
    if k:
        res, gram_check = _residuals(
            points[:k], m, p[:k], p_inv[:k], d[:k], j[:k], g_j[:k], omega_total[:k]
        )
        fault = _first_fault([gram_check]) or fault
    if fault is not None:
        return [], fault

    columns = {key: values.tolist() for key, values in res.items()}
    return [
        PointConstruction(
            frame=_freeze(s.frame),
            m=m,
            epsilon=s.epsilon,
            j=_trusted(Endomorphism, matrix=j[i]),
            g_j=_trusted(MetricTensor, entries=g_j[i]),
            omega_total=_trusted(TwoForm, entries=omega_total[i]),
            residuals={key: column[i] for key, column in columns.items()},
            spectrum=s.spectrum,
        )
        for i, s in enumerate(points)
    ], None


def construct_point(
    g: MetricTensor,
    omega: TwoForm,
    epsilon: float | None = None,
    tframe_hint: Frame | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> PointConstruction:
    """Run the full pointwise construction: the spectral stage, then the assembly on a batch of one.

    ``epsilon=None`` uses the automatic policy: the smallest paired eigenvalue
    of -A^2 at this point.  A spectrum with no positive eigenvalue (omega = 0)
    is accepted as the degenerate case; the whole space goes to the complement
    and the calibration is built purely from the complement frame.  A provided
    ``tframe_hint`` is aligned to instead of the default spectral frame.

    Raises :class:`GapViolation` when an eigenvalue falls between the bands.
    """
    if g.dim != omega.dim:
        raise ValueError("metric and two-form dimensions disagree")
    if g.dim % 2:
        raise ValueError(f"dimension {g.dim} is odd; lift the data first")
    (spectral,) = _spectra([(g, omega)], tol)
    if isinstance(spectral, Exception):
        raise spectral
    constructions, fault = _assemble([_frame_stage(g, *spectral, epsilon, tframe_hint)], tol)
    if fault is not None:
        raise fault[1]
    return constructions[0]
