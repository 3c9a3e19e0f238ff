"""Construction of the compatible triple (J, g_J, calibration).

A stack of points (g, omega) runs through four stages, each one routine on
the whole stack: endomorphisms and paired spectra (``_form_spectra``), the band
split (``spectral._split_stack``), complement frames that follow a chain of
points (``_complement_frames``), and the assembly of points sharing (n, m)
(``_assemble``), which returns J, g_J and Omega as stacks and one array per
residual.  In the paired frame P (the V pairs, then the complement frame)
each output is one congruence, computed as it reads: J = P J0 P^-1,
g_J = P^-T diag(d) P^-1 and Omega = -P^-T diag(d) J0 P^-1, with J0 the 2x2
rotation blocks and d = sqrt(lambda_i) twice per V pair, 1 on the
complement.  On V this is J = Q^-1 A with Q = sqrt(-A^2): a compatible
triple, g_J(v, w) = Omega(v, J w) and J^2 = -Id, in which every plane
calibrated by omega in (R^n, g) stays calibrated.  The spectra and the
assembly each hand back a stack's first fault, an (index,
ConstructionError) pair; the caller raises the lowest (index, stage)
fault.  ``construct_point`` is every stage on a stack of one, and
``_point_construction`` reads its result off one row of the stacks.
Every product, the residuals' M v and x^T M y included, is one BLAS or
LAPACK call per matrix of a stack, which gives each matrix the bits a call
on it alone gives: a point's construction does not depend on its batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import CALIBRATED_TOL, MAX_DIM
from .errors import ConstructionError, GapViolation, NotPositiveDefiniteError
from .forms import (
    _RANK_TOL,
    _TINY,
    Frame,
    MetricTensor,
    TwoForm,
    _eigvalsh,
    _first_fault,
    _freeze,
    _inv,
    _metric_stack,
    _polar_factor,
    _solve,
    _trusted,
    _two_form_stack,
)
from .spectral import Endomorphism, PairedSpectrum, _auto_epsilon, _pair_values, _paired_stack, _split_stack

# perfbench/workloads.py traces these names by patching them in this module,
# so they stay importable here, though the construction calls none of them.
from .forms import gram_schmidt  # noqa: E402, F401
from .spectral import associated_endomorphism, paired_spectrum, split_spaces  # noqa: E402, F401


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
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n."""
    return _freeze(np.eye(n))


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
    return p, _inv(p), d


def almost_complex_structure(p: np.ndarray, p_inv: np.ndarray) -> np.ndarray:
    """J = P J0 P^-1: Q^-1 A on V, t_2i -> t_2i+1 rotations on the complement."""
    return p @ _rotation_blocks(p.shape[-1]) @ p_inv


def compatible_metric(p_inv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """g_J = P^-T diag(d) P^-1: omega(v, J w) on V, g on the complement, zero across.

    Symmetric up to rounding; the assembly checks it and mirrors its upper
    triangle, as :class:`MetricTensor` does.
    """
    return p_inv.mT @ (d[..., :, None] * p_inv)


def assemble_calibration(p_inv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Omega = -P^-T diag(d) J0 P^-1, one congruence over V and the complement alike.

    Omega agrees with omega on V; on the complement it wedges the g_J-dual
    covectors of consecutive complement frame vectors, in frame order.
    """
    return -p_inv.mT @ (d[..., :, None] * (_rotation_blocks(p_inv.shape[-1]) @ p_inv))


def lift_odd(g: MetricTensor, omega: TwoForm) -> tuple[MetricTensor, TwoForm]:
    """Embed odd-dimensional data into n+1 flat dimensions.

    The added direction is g-orthonormal to everything and the form does not
    see it.
    """
    if g.dim != omega.dim:
        raise ValueError("metric and two-form dimensions disagree")
    if g.dim % 2 == 0:
        raise ValueError(f"dimension {g.dim} is already even; nothing to lift")
    G, W = _lift_stack(g.entries[None], omega.entries[None])
    return MetricTensor(G[0]), TwoForm(W[0])


def _lift_stack(g: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lift_odd` of (k, n, n) stacks: zero padding, then 1 at the new metric corner; even n as is."""
    if g.shape[-1] % 2 == 0:
        return g, w
    g, w = (np.pad(x, ((0, 0), (0, 1), (0, 1))) for x in (g, w))
    g[:, -1, -1] = 1.0
    return g, w


def align_frame(hint: Frame, base: Frame, g: MetricTensor) -> Frame:
    """Rotate an orthonormal frame, inside its own span, closest to a hint.

    Orthogonal Procrustes, polar(hint G base^T) base: the step of
    :func:`_complement_frames` on a stack of one.
    """
    if hint.dim != g.dim or base.dim != g.dim:
        raise ValueError("frame and metric dimensions disagree")
    if len(hint) != len(base):
        raise ValueError("hint and base frames have different sizes")
    if len(base) == 0:
        return base
    rotation = _polar_factor(hint.vectors[None] @ g.entries[None] @ base.vectors[None].mT)[0]
    return Frame(rotation @ base.vectors)


def _complement_frames(basis, g, m, prev) -> np.ndarray:
    """Paired frames of a stack whose complement rows B_i = ``basis[i, 2m_i:]`` follow a chain.

    ``prev[i]`` is point i's predecessor, of the same m, or -1 where the chain
    restarts with R = I; on a link R_i = R_prev polar(B_prev G_i B_i^T).  As
    polar(R C) = R polar(C) for orthogonal R, R_i B_i is the rotation of B_i
    closest to R_prev B_prev, and stays g-orthonormal.  Each product takes one
    Newton-Schulz step R <- 1.5 R - 0.5 R R^T R, so the rounding of a long
    chain's products does not pile up in R.  Per complement dimension k the
    polar factors take one stacked SVD and the frames R_i B_i one stacked
    product; only the recursion's k x k products run point by point, in index
    order, since each R_i needs R_prev.
    """
    n = basis.shape[-1]
    frames = basis.copy()
    linked = prev >= 0
    for k in set((n - 2 * m[linked]).tolist()):
        rows = np.flatnonzero(linked & (n - 2 * m == k))
        r = _polar_factor(basis[prev[rows], n - k :] @ g[rows] @ basis[rows, n - k :].mT)
        at = dict(zip(rows.tolist(), range(len(rows))))  # a row's place in r; links stay in one k
        for i, p in enumerate(prev[rows].tolist()):
            if p in at:  # else the predecessor restarted the chain, R_prev = I
                x = r[at[p]] @ r[i]
                r[i] = 1.5 * x - 0.5 * (x @ x.T @ x)
        frames[rows, n - k :] = r @ basis[rows, n - k :]
    return frames


def _failed(error: Exception) -> ConstructionError:
    """``error`` as a ConstructionError of the same message, chained to it."""
    message = str(error)
    if isinstance(error, NotPositiveDefiniteError):
        message = f"compatible metric is not positive definite: {message}"
    failed = ConstructionError(message)
    failed.__cause__ = error
    return failed


def _form_spectra(g: np.ndarray, w: np.ndarray):
    """The stacks (a, basis, values, npairs) of (G, W), A = G^-1 W^T or 0 where not finite, and the first fault.

    A is g-skew-adjoint by construction, G being symmetric and W
    antisymmetric, so only its finiteness is checked.  The fault is None, or
    the pair (row, ConstructionError) of the lowest row whose A is not finite.
    """
    a = _solve(g, w.mT)
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        a = np.where(finite[:, None, None], a, 0.0)
    fault = _first_fault([(~finite, lambda i: ValueError("endomorphism contains non-finite entries"))])
    return (a, *_paired_stack(a, g)), fault and (fault[0], _failed(fault[1]))


def _abs_max(mats: np.ndarray) -> np.ndarray:
    return np.abs(mats).max(axis=(-2, -1))


def _residuals(m, g, a, basis, values, npairs, p, p_inv, d, j, g_j, omega_total):
    """The residuals of a stack of constructions, one array per name, and their check.

    The check is ``plane_area``'s: a calibrated pair's Gram determinant
    under g_J must not be negative beyond rounding.
    """
    n = g.shape[-1]
    eye = _identity(n)

    res: dict[str, np.ndarray] = {}
    res["j_squared"] = _abs_max(j @ j + eye)
    res["compatibility"] = _abs_max(g_j - omega_total @ j)
    res["j_invariance"] = _abs_max(j.mT @ omega_total @ j - omega_total)
    # The closed form assumes A acts on each V pair as sqrt(lambda_i) J0.
    nv = 2 * m
    av = p_inv[:, :nv] @ a @ p[:, :, :nv]
    res["pairing"] = np.abs(av - d[:, :nv, None] * _rotation_blocks(nv)).max(axis=(1, 2), initial=0.0)

    res["basis_orthonormality"] = _abs_max(basis @ g @ basis.mT - eye)

    M = -(a @ a)
    m_scale = np.maximum(_abs_max(M), _TINY)
    eig = np.abs(basis @ M.mT - values[..., None] * basis).max(axis=-1)
    paired = np.arange(n) < 2 * npairs[:, None]
    res["eigen_residual"] = np.where(paired, eig, 0.0).max(axis=-1) / m_scale

    res["calibration_unit_comass"] = np.abs(_pair_values(g_j, omega_total)[:, 0] - 1.0)  # comass of Omega under g_J

    # Omega / area_{g_J} on every calibrated pair (v, w) of the spectrum.
    v, u = basis[:, 0::2], basis[:, 1::2]
    calibrated = np.arange(n // 2) < npairs[:, None]
    calibrated &= np.abs(values[:, 0::2] - 1.0) <= CALIBRATED_TOL
    gv, gu = v @ g_j, u @ g_j
    gvv, guu, gvu = (gv * v).sum(-1), (gu * u).sum(-1), (gv * u).sum(-1)
    radicand = gvv * guu - gvu * gvu
    negative = calibrated & (radicand < -_RANK_TOL * np.maximum(np.abs(gvv * guu), _TINY))
    ratio = ((v @ omega_total) * u).sum(-1) / np.sqrt(np.maximum(radicand, 0.0))
    res["preservation"] = np.where(calibrated, np.abs(ratio - 1.0), 0.0).max(axis=-1)

    dom = basis[:, :nv] @ (g - g_j) @ basis[:, :nv].mT
    res["metric_domination_min_eig"] = _eigvalsh((dom + dom.mT) / 2)[:, 0] if m else np.zeros(len(g))

    gram_check = (negative.any(axis=-1), lambda i: ValueError(
        f"negative Gram determinant {float(radicand[i][negative[i]][0]):.6g}; metric is not PSD"))
    return res, gram_check


def _assemble(g, a, basis, values, npairs, frames, m: int):
    """The stacks (J, g_J, Omega, residuals) of points sharing (n, m), or None, and the first fault.

    The inputs are :func:`_form_spectra`'s stacks and the paired frames as rows;
    the checks run J, g_J, Omega, then the residuals'.  ``residuals`` maps
    each name to one value per point.  The stacks are returned, with fault
    None, only when every check passes; else the fault is the pair (row,
    ConstructionError) of the lowest failing row and its earliest failing check.
    """
    p, p_inv, d = paired_frame(frames, values[:, : 2 * m : 2])
    j = almost_complex_structure(p, p_inv)
    g_j, metric_checks = _metric_stack(compatible_metric(p_inv, d))
    omega_total, form_checks = _two_form_stack(assemble_calibration(p_inv, d))
    j_finite = np.isfinite(j).all(axis=(1, 2))
    j_check = (~j_finite, lambda i: ValueError("endomorphism contains non-finite entries"))
    checks = [j_check, *metric_checks, *form_checks]

    # The residuals need a positive definite g_J: they are computed for the
    # rows before the first fault above, the only ones that can fault earlier.
    fault = _first_fault(checks)
    end = len(g) if fault is None else fault[0]
    stacks = (g, a, basis, values, npairs, p, p_inv, d, j, g_j, omega_total)
    res, gram_check = _residuals(m, *(x[:end] for x in stacks))
    fault = _first_fault([gram_check]) or fault
    if fault is not None:
        return None, (fault[0], _failed(fault[1]))
    return (j, g_j, omega_total, res), None


def _point_construction(i: int, m: int, epsilon: float, basis, values, npairs, frames, assembled):
    """Row ``i`` of :func:`_form_spectra`'s stacks, the frames and :func:`_assemble`'s as a PointConstruction."""
    j, g_j, omega_total, residuals = assembled
    return PointConstruction(
        frame=_freeze(frames[i]),
        m=m,
        epsilon=epsilon,
        j=_trusted(Endomorphism, matrix=j[i]),
        g_j=_trusted(MetricTensor, entries=g_j[i]),
        omega_total=_trusted(TwoForm, entries=omega_total[i]),
        residuals={key: float(column[i]) for key, column in residuals.items()},
        spectrum=PairedSpectrum(basis[i], values[i], int(npairs[i])),
    )


def construct_point(
    g: MetricTensor,
    omega: TwoForm,
    epsilon: float | None = None,
    tframe_hint: Frame | None = None,
) -> PointConstruction:
    """Run the construction at one point: every stage of the field's on a stack of one.

    ``epsilon=None`` uses the automatic policy: the smallest paired eigenvalue
    of -A^2 at this point; with none (omega = 0) the whole space is the
    complement.  A ``tframe_hint`` of the complement's size replaces the
    spectral complement frame by :func:`align_frame`.  Raises ValueError for
    a hint whose dimension is not g's, :class:`GapViolation` when an
    eigenvalue falls between the bands, and :class:`ConstructionError` when
    a stage's check fails.  The spectrum's kernel threshold
    ``config.ZERO_TOL`` and g_J's definiteness threshold ``config.PD_TOL``
    are fixed and relative: scaling (g, omega) by c scales g_J and Omega by
    c and leaves J as it is.
    """
    if g.dim != omega.dim:
        raise ValueError("metric and two-form dimensions disagree")
    if g.dim % 2:
        raise ValueError(f"dimension {g.dim} is odd; lift the data first")
    if tframe_hint is not None and tframe_hint.dim != g.dim:
        raise ValueError("frame and metric dimensions disagree")
    G = g.entries[None]
    (a, basis, values, npairs), fault = _form_spectra(G, omega.entries[None])
    if fault is not None:
        raise fault[1]
    epsilon = _auto_epsilon(values, npairs) if epsilon is None else epsilon
    if epsilon is None:  # all kernel: any positive epsilon splits alike; a fixed one keeps the output fixed
        epsilon = 1.0
    m, offending = _split_stack(values, npairs, epsilon)
    if offending.any():
        raise GapViolation(epsilon, values[0][offending[0]], values[0])
    m = int(m[0])
    frame = basis.copy()
    if tframe_hint is not None and len(tframe_hint) == len(frame[0]) - 2 * m:
        frame[0, 2 * m :] = align_frame(tframe_hint, Frame(frame[0, 2 * m :]), g).vectors
    assembled, fault = _assemble(G, a, basis, values, npairs, frame, m)
    if fault is not None:
        raise fault[1]
    return _point_construction(0, m, float(epsilon), basis, values, npairs, frame, assembled)
