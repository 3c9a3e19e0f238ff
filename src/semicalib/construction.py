"""Pointwise construction of the compatible triple (J, g_J, calibration).

Given a metric g and a 2-form omega at a point, the construction runs:
endomorphism -> paired spectrum -> band split -> paired frame P (the V pairs,
then the complement frame).  In that frame J, g_J and the induced calibration
are block diagonal: with d = sqrt(lambda_i) twice per V pair and 1 on the
complement, and J0 the 2x2 rotation blocks, J = P J0 P^-1,
g_J = P^-T diag(d) P^-1 and Omega = -P^-T diag(d) J0 P^-1.  On V this is
J = Q^-1 A with Q = sqrt(-A^2).  The result is a compatible triple:
g_J(v, w) = Omega(v, J w), J^2 = -Id, and every plane calibrated by omega in
(R^n, g) is calibrated by the induced form in (R^n, g_J).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ConstructionError, NotPositiveDefiniteError
from .forms import Frame, MetricTensor, TwoForm, gram_schmidt, plane_area
from .spectral import (
    Endomorphism,
    PairedSpectrum,
    SpaceSplit,
    associated_endomorphism,
    infer_epsilon,
    paired_spectrum,
    split_spaces,
)

_TINY = 1e-300


@dataclass(frozen=True, eq=False)
class PointConstruction:
    """Everything the construction produces at a single point.

    ``split.perp_basis`` is the complement frame the construction used;
    ``j`` is the full almost complex structure in ambient coordinates;
    ``omega_total`` is exactly ``omega1 + omega2`` as stored.
    """

    split: SpaceSplit
    j: Endomorphism
    g_j: MetricTensor
    omega1: TwoForm
    omega2: TwoForm
    omega_total: TwoForm
    residuals: dict
    endo: Endomorphism
    spectrum: PairedSpectrum

    @property
    def dim(self) -> int:
        return self.j.dim

    @property
    def epsilon(self) -> float:
        return self.split.epsilon


@dataclass(frozen=True, eq=False)
class OddLift:
    """Odd-dimensional data embedded into one extra flat dimension.

    The added direction is g-orthonormal to everything, the form does not see
    it, and all lifted data is constant along it.
    """

    original_dim: int
    lifted_g: MetricTensor
    lifted_omega: TwoForm


def _rotation_blocks(n: int) -> np.ndarray:
    """J0: 2x2 rotation blocks, e_2i -> e_2i+1 and e_2i+1 -> -e_2i."""
    j0 = np.zeros((n, n))
    j0[1::2, ::2] = np.eye(n // 2)
    j0[::2, 1::2] = -np.eye(n // 2)
    return j0


def paired_frame(split: SpaceSplit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, P^-1, d) for the paired frame of a split.

    The columns of P are the V pairs followed by the complement frame; d holds
    sqrt(lambda_i) twice for each V pair, then 1 on the complement.  P^-1 is
    an exact inverse, not P^T G: the pair basis is g-orthonormal only up to
    the spectral solver's error, which grows with the conditioning of g.
    """
    p = np.vstack([split.v_basis.vectors, split.perp_basis.vectors]).T
    d = np.concatenate([np.repeat(np.sqrt(split.v_eigenvalues), 2), np.ones(len(split.perp_basis))])
    return p, np.linalg.inv(p), d


def almost_complex_structure(p: np.ndarray, p_inv: np.ndarray) -> Endomorphism:
    """J = P J0 P^-1: Q^-1 A on V, t_2i -> t_2i+1 rotations on the complement."""
    return Endomorphism(p @ _rotation_blocks(len(p)) @ p_inv)


def compatible_metric(
    p_inv: np.ndarray, d: np.ndarray, pd_tol: float = DEFAULT_TOLERANCES.pd
) -> MetricTensor:
    """g_J = P^-T diag(d) P^-1: omega(v, J w) on V, g on the complement, zero across."""
    try:
        return MetricTensor(p_inv.T @ (d[:, None] * p_inv), pd_tol)
    except NotPositiveDefiniteError as exc:
        raise ConstructionError(f"compatible metric is not positive definite: {exc}") from exc


def assemble_calibration(
    p_inv: np.ndarray, d: np.ndarray, m: int
) -> tuple[TwoForm, TwoForm, TwoForm]:
    """Omega = -P^-T diag(d) J0 P^-1 as (V part, complement part, their sum).

    The V part agrees with omega on the V pairs and vanishes on the
    complement; the complement part wedges the g_J-dual covectors of
    consecutive complement frame vectors, in frame order.
    """

    def part(rows: slice) -> TwoForm:
        rows_inv = p_inv[rows]
        return TwoForm(-rows_inv.T @ (d[rows, None] * (_rotation_blocks(len(rows_inv)) @ rows_inv)))

    omega1, omega2 = part(slice(0, 2 * m)), part(slice(2 * m, None))
    return omega1, omega2, TwoForm(omega1.entries + omega2.entries)


def lift_odd(g: MetricTensor, omega: TwoForm) -> OddLift:
    """Embed odd-dimensional data into n+1 flat dimensions."""
    n = g.dim
    if g.dim != omega.dim:
        raise ValueError("metric and two-form dimensions disagree")
    if n % 2 == 0:
        raise ValueError(f"dimension {n} is already even; nothing to lift")
    G = np.eye(n + 1)
    G[:n, :n] = g.entries
    W = np.zeros((n + 1, n + 1))
    W[:n, :n] = omega.entries
    return OddLift(original_dim=n, lifted_g=MetricTensor(G), lifted_omega=TwoForm(W))


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


def _unit_comass_defect(g_j: MetricTensor, omega_total: TwoForm) -> float:
    """|comass(total form w.r.t. g_J) - 1|.

    With g_J = L L^T the comass is the largest pair value of the skew matrix
    L^-1 Omega L^-T, which is its spectral norm.
    """
    chol = np.linalg.cholesky(g_j.entries)
    skew = np.linalg.solve(chol, np.linalg.solve(chol, omega_total.entries).T)
    return abs(float(np.linalg.norm(skew, 2)) - 1.0)


def _point_residuals(
    g: MetricTensor,
    omega: TwoForm,
    endo: Endomorphism,
    spectrum: PairedSpectrum,
    split: SpaceSplit,
    p: np.ndarray,
    p_inv: np.ndarray,
    d: np.ndarray,
    j: Endomorphism,
    g_j: MetricTensor,
    omega_total: TwoForm,
    calibrated_tol: float,
) -> dict:
    n = g.dim
    A, G, W = endo.matrix, g.entries, omega.entries
    jm = j.matrix
    wt = omega_total.entries
    w_scale = max(float(np.abs(W).max()), 1.0)

    res: dict[str, float] = {}
    res["j_squared"] = float(np.abs(jm @ jm + np.eye(n)).max())
    res["compatibility"] = float(np.abs(g_j.entries - wt @ jm).max())
    res["j_invariance"] = float(np.abs(jm.T @ wt @ jm - wt).max())
    res["definition"] = float(np.abs(A.T @ G - W).max()) / w_scale
    res["skew_adjoint"] = float(np.abs(A.T @ G + G @ A).max()) / w_scale
    # The closed form assumes A acts on each V pair as sqrt(lambda_i) J0.
    nv = 2 * split.m
    av = p_inv[:nv] @ A @ p[:, :nv]
    res["pairing"] = float(np.abs(av - d[:nv, None] * _rotation_blocks(nv)).max(initial=0.0))

    basis = spectrum.basis()
    res["basis_orthonormality"] = float(np.abs(basis @ G @ basis.T - np.eye(n)).max())

    M = -(A @ A)
    m_scale = max(float(np.abs(M).max()), _TINY)
    eig_res = 0.0
    for lam, pair in zip(spectrum.eigenvalues, spectrum.pair_vectors):
        for v in pair:
            eig_res = max(eig_res, float(np.abs(M @ v - lam * v).max()))
    res["eigen_residual"] = eig_res / m_scale

    res["calibration_unit_comass"] = _unit_comass_defect(g_j, omega_total)

    preserve = 0.0
    for lam, (v, w) in zip(spectrum.eigenvalues, spectrum.pair_vectors):
        if abs(lam - 1.0) <= calibrated_tol:
            ratio = float(v @ wt @ w) / plane_area(g_j, v, w)
            preserve = max(preserve, abs(ratio - 1.0))
    res["preservation"] = preserve

    if split.m:
        BV = split.v_basis.vectors
        dom = BV @ (G - g_j.entries) @ BV.T
        res["metric_domination_min_eig"] = float(np.linalg.eigvalsh((dom + dom.T) / 2)[0])
    else:
        res["metric_domination_min_eig"] = 0.0
    return res


def construct_point(
    g: MetricTensor,
    omega: TwoForm,
    epsilon: float | None = None,
    tframe_hint: Frame | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    calibrated_tol: float = 1e-8,
) -> PointConstruction:
    """Run the full pointwise construction.

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

    endo = associated_endomorphism(g, omega)
    spectrum = paired_spectrum(endo, g, tol)
    if epsilon is None:
        inferred = infer_epsilon(spectrum)
        # Degenerate all-kernel spectrum: any positive epsilon produces the
        # same split, so a fixed sentinel keeps the output deterministic.
        epsilon = inferred if inferred is not None else 1.0
    split = split_spaces(spectrum, epsilon)

    base = split.perp_basis
    if tframe_hint is not None and len(base) and len(tframe_hint) == len(base):
        tframe = align_frame(tframe_hint, base, g)
    elif len(base):
        tframe = gram_schmidt(g, base)
    else:
        tframe = base
    split = replace(split, perp_basis=tframe)

    p, p_inv, d = paired_frame(split)
    j = almost_complex_structure(p, p_inv)
    g_j = compatible_metric(p_inv, d, tol.pd)
    omega1, omega2, omega_total = assemble_calibration(p_inv, d, split.m)
    residuals = _point_residuals(
        g, omega, endo, spectrum, split, p, p_inv, d, j, g_j, omega_total, calibrated_tol
    )
    return PointConstruction(
        split=split,
        j=j,
        g_j=g_j,
        omega1=omega1,
        omega2=omega2,
        omega_total=omega_total,
        residuals=residuals,
        endo=endo,
        spectrum=spectrum,
    )
