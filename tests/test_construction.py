"""Tests for the pointwise compatible-triple construction."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from semicalib import (
    ConstructionError,
    Endomorphism,
    Frame,
    MetricTensor,
    TwoForm,
    align_frame,
    almost_complex_structure,
    assemble_calibration,
    associated_endomorphism,
    comass_exact,
    compatible_metric,
    construct_point,
    eval_two_form,
    g_inner,
    lift_odd,
    paired_frame,
    paired_spectrum,
    plane_area,
    split_spaces,
)
from semicalib.config import CALIBRATED_TOL
from semicalib.field import RESIDUAL_THRESHOLDS, parse_calfield, process_field
from helpers import (
    near_double_form,
    planted_field_text,
    planted_form,
    random_pd_metric,
    random_two_form,
    unit_comass_form,
)

E4 = np.eye(4)
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def blockdiag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out


def frame_for(g, omega, epsilon):
    """(spectral paired frame rows, V eigenvalues): the V pairs, then the spectral complement."""
    spectrum = paired_spectrum(associated_endomorphism(g, omega), g)
    m = split_spaces(spectrum, epsilon)
    return spectrum.basis.copy(), spectrum.eigenvalues[:m]


def congruences(w, epsilon, complement=None):
    """(frame, m, J, g_J, Omega) from the identity metric."""
    frame, v_eigenvalues = frame_for(MetricTensor.identity(w.dim), w, epsilon)
    m = len(v_eigenvalues)
    if complement is not None:
        frame[2 * m :] = complement
    p, p_inv, d = paired_frame(frame, v_eigenvalues)
    return (
        frame,
        m,
        Endomorphism(almost_complex_structure(p, p_inv)),
        MetricTensor(compatible_metric(p_inv, d)),
        TwoForm(assemble_calibration(p_inv, d, m)),
    )


class TestPairedFrame:
    def test_identity_case(self):
        g = MetricTensor.identity(4)
        p, p_inv, d = paired_frame(*frame_for(g, TwoForm.standard_symplectic(4), 1.0))
        np.testing.assert_allclose(p.T @ p, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(p_inv, p.T, atol=1e-12)
        np.testing.assert_allclose(d, np.ones(4), atol=1e-12)

    def test_scaled_blocks(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        _, _, d = paired_frame(*frame_for(g, w, 0.25))
        np.testing.assert_allclose(d, [1, 1, 0.5, 0.5], atol=1e-12)

    def test_two_dims(self):
        g = MetricTensor.identity(2)
        frame = frame_for(g, TwoForm.from_pairs(2, {(0, 1): 1.0}), 1.0)
        np.testing.assert_allclose(paired_frame(*frame)[2], np.ones(2), atol=1e-12)

    def test_pairing_blocks(self):
        # in the paired frame A is sqrt(lambda_i) times a rotation on each V
        # pair, so Q = diag(d) squares to -A^2 there and commutes with A
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = 6
            g = random_pd_metric(rng, n)
            w = unit_comass_form(g, random_two_form(rng, n))
            endo = associated_endomorphism(g, w)
            spectrum = paired_spectrum(endo, g)
            m = split_spaces(spectrum, spectrum.eigenvalues[-1])
            p, p_inv, d = paired_frame(spectrum.basis, spectrum.eigenvalues[:m])
            m2 = 2 * m
            av = (p_inv @ endo.matrix @ p)[:m2, :m2]
            q = np.diag(d[:m2])
            blocks = blockdiag(*[J2] * m)
            assert np.abs(av - q @ blocks).max() <= 1e-10
            assert np.abs(q @ q + av @ av).max() <= 1e-10
            assert np.abs(q @ av - av @ q).max() <= 1e-10


class TestAlmostComplexStructure:
    def test_scaled_blocks(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        _, _, j, _, _ = congruences(w, 0.25)
        np.testing.assert_allclose(j.matrix, blockdiag(J2, J2), atol=1e-12)

    def test_two_dims_identity_q(self):
        _, _, j, _, _ = congruences(TwoForm.from_pairs(2, {(0, 1): 1.0}), 1.0)
        np.testing.assert_allclose(j.matrix, J2, atol=1e-12)

    def test_complement_extension_rule(self):
        # V = span(e1, e2); J rotates the complement frame pairs
        frame, m, j, _, _ = congruences(TwoForm.from_pairs(4, {(0, 1): 1.0}), 1.0)
        t1, t2 = frame[2 * m], frame[2 * m + 1]
        np.testing.assert_allclose(j.matrix @ t1, t2, atol=1e-12)
        np.testing.assert_allclose(j.matrix @ t2, -t1, atol=1e-12)

    def test_j_squared_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = 8
            g = random_pd_metric(rng, n)
            w = unit_comass_form(g, random_two_form(rng, n))
            pc = construct_point(g, w)
            assert np.abs(pc.j.matrix @ pc.j.matrix + np.eye(n)).max() <= 1e-10


class TestCompatibleMetric:
    def test_standard(self):
        g = MetricTensor.identity(4)
        w = TwoForm.standard_symplectic(4)
        pc = construct_point(g, w)
        np.testing.assert_allclose(pc.g_j.entries, np.eye(4), atol=1e-12)

    def test_scaled(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        pc = construct_point(g, w)
        np.testing.assert_allclose(pc.g_j.entries, np.diag([1, 1, 0.5, 0.5]), atol=1e-12)

    def test_complement_copies_g(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        pc = construct_point(g, w)
        np.testing.assert_allclose(pc.g_j.entries, np.eye(4), atol=1e-12)

    def test_split_blocks_orthogonal(self):
        rng = np.random.default_rng(2)
        g = random_pd_metric(rng, 6)
        w, _ = planted_form(rng, g, blocks=1, rest_comass=0.0)
        pc = construct_point(g, w)
        for v in pc.frame[: 2 * pc.m]:
            for t in pc.frame[2 * pc.m :]:
                assert abs(v @ pc.g_j.entries @ t) <= 1e-10


def assert_paired_blocks(frame, m, w, total, atol):
    """Omega in the paired frame: omega on V, zero across, dt_2i^dt_2i+1 on the complement."""
    bv, bc = frame[: 2 * m], frame[2 * m :]
    om = total.entries
    np.testing.assert_allclose(bv @ om @ bv.T, bv @ w.entries @ bv.T, atol=atol)
    assert np.abs(bv @ om @ bc.T).max(initial=0.0) <= atol
    np.testing.assert_allclose(
        bc @ om @ bc.T, TwoForm.standard_symplectic(len(bc)).entries, atol=atol
    )


class TestAssembleCalibration:
    def test_no_complement(self):
        g = MetricTensor.identity(4)
        w = TwoForm.standard_symplectic(4)
        pc = construct_point(g, w)
        assert len(pc.frame) - 2 * pc.m == 0
        np.testing.assert_allclose(pc.omega_total.entries, w.entries, atol=1e-12)

    def test_direct_assembly(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        frame, m, _, gj, total = congruences(w, 1.0, complement=[E4[2], E4[3]])
        np.testing.assert_allclose(gj.entries, np.eye(4), atol=1e-12)
        assert_paired_blocks(frame, m, w, total, atol=1e-12)
        expected = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 1.0})
        np.testing.assert_allclose(total.entries, expected.entries, atol=1e-12)

    def test_frame_order_flips_sign(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        _, _, _, _, total = congruences(w, 1.0, complement=[E4[3], E4[2]])
        expected = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): -1.0})
        np.testing.assert_allclose(total.entries, expected.entries, atol=1e-12)

    def test_sum_exact(self):
        # Omega is the V rows' congruence plus the complement rows', added as
        # arrays and canonicalized once; one product over all rows rounds
        # differently, and the reports' bytes depend on this rounding.
        rng = np.random.default_rng(3)
        g = random_pd_metric(rng, 6)
        w, _ = planted_form(rng, g, blocks=1, rest_comass=0.0)
        pc = construct_point(g, w)
        _, p_inv, d = paired_frame(pc.frame, pc.spectrum.eigenvalues[: pc.m])

        def part(rows):
            q = p_inv[rows]
            return -q.T @ (d[rows, None] * (blockdiag(*[J2] * (len(q) // 2)) @ q))

        nv = 2 * pc.m
        assert nv == 2
        np.testing.assert_array_equal(
            pc.omega_total.entries, TwoForm(part(slice(0, nv)) + part(slice(nv, None))).entries
        )

    def test_blocks_in_paired_frame(self):
        rng = np.random.default_rng(4)
        g = random_pd_metric(rng, 6)
        w, _ = planted_form(rng, g, blocks=1, rest_comass=0.0)
        pc = construct_point(g, w)
        assert len(pc.frame) - 2 * pc.m == 4
        assert_paired_blocks(pc.frame, pc.m, w, pc.omega_total, atol=1e-10)


class TestConstructPoint:
    def test_standard_fixed_point(self):
        pc = construct_point(MetricTensor.identity(4), TwoForm.standard_symplectic(4))
        np.testing.assert_allclose(pc.j.matrix, blockdiag(J2, J2), atol=1e-12)
        np.testing.assert_allclose(pc.g_j.entries, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            pc.omega_total.entries, TwoForm.standard_symplectic(4).entries, atol=1e-12
        )
        assert max(abs(v) for v in pc.residuals.values()) <= 1e-12

    def test_scaled_chain(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        pc = construct_point(g, w)
        np.testing.assert_allclose(pc.j.matrix, blockdiag(J2, J2), atol=1e-12)
        np.testing.assert_allclose(pc.g_j.entries, np.diag([1, 1, 0.5, 0.5]), atol=1e-12)
        np.testing.assert_allclose(pc.omega_total.entries, w.entries, atol=1e-12)

    def test_zero_form_degenerate(self):
        pc = construct_point(MetricTensor.identity(4), TwoForm.zero(4))
        assert pc.m == 0
        np.testing.assert_allclose(
            pc.omega_total.entries, TwoForm.standard_symplectic(4).entries, atol=1e-12
        )
        np.testing.assert_allclose(pc.g_j.entries, np.eye(4), atol=1e-12)

    def test_rejects_odd_dimension(self):
        g = MetricTensor.identity(3)
        with pytest.raises(ValueError, match="odd"):
            construct_point(g, TwoForm.from_pairs(3, {(0, 1): 1.0}))

    def test_compatibility_triple_random(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = [4, 6, 8][trial % 3]
            g = random_pd_metric(rng, n)
            w = unit_comass_form(g, random_two_form(rng, n))
            pc = construct_point(g, w)
            wt, jm = pc.omega_total.entries, pc.j.matrix
            assert np.abs(pc.g_j.entries - wt @ jm).max() <= 1e-10
            assert np.abs(jm.T @ wt @ jm - wt).max() <= 1e-10
            assert np.linalg.eigvalsh(pc.g_j.entries)[0] > 0

    def test_restriction_identity(self):
        # on the eigenvalue-1 eigenspace, J agrees with A and g_J with g
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = 6
            g = random_pd_metric(rng, n)
            w, planted = planted_form(rng, g, blocks=1)
            pc = construct_point(g, w)
            for x in planted:
                np.testing.assert_allclose(
                    pc.j.matrix @ x, associated_endomorphism(g, w).matrix @ x, atol=1e-9
                )
            for x in planted:
                for y in planted:
                    assert abs(
                        x @ pc.g_j.entries @ y - g_inner(g, x, y)
                    ) <= 1e-9

    def test_idempotence(self):
        # the compatible triple is a fixed point of the construction
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 6
            g = random_pd_metric(rng, n)
            w = unit_comass_form(g, random_two_form(rng, n))
            pc = construct_point(g, w)
            pc2 = construct_point(pc.g_j, pc.omega_total)
            assert np.abs(pc2.j.matrix - pc.j.matrix).max() <= 1e-9
            assert np.abs(pc2.g_j.entries - pc.g_j.entries).max() <= 1e-9
            assert np.abs(pc2.omega_total.entries - pc.omega_total.entries).max() <= 1e-9

    def test_metric_comparison_on_v(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = 6
            g = random_pd_metric(rng, n)
            w = unit_comass_form(g, random_two_form(rng, n))
            pc = construct_point(g, w)
            dom = pc.residuals["metric_domination_min_eig"]
            assert dom >= -1e-9 * np.abs(g.entries).max()

    def test_preservation_of_calibrated_planes(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = 6
            g = random_pd_metric(rng, n)
            w, planted = planted_form(rng, g, blocks=1)
            pc = construct_point(g, w)
            v, u = planted[0], planted[1]
            ratio = eval_two_form(pc.omega_total, v, u) / plane_area(pc.g_j, v, u)
            assert abs(ratio - 1.0) <= 1e-9

    def test_fixed_epsilon_honored(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.1})
        # eigenvalues {1, 0.01}: with epsilon=1 the small pair joins the complement
        pc = construct_point(g, w, epsilon=1.0)
        assert pc.m == 1
        assert pc.epsilon == 1.0

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_rejects_non_finite_epsilon(self, epsilon):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.1})
        with pytest.raises(ValueError, match="finite"):
            construct_point(MetricTensor.identity(4), w, epsilon=epsilon)

    def test_tframe_hint_alignment(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        hint = Frame(np.array([E4[3], E4[2]]))
        pc = construct_point(g, w, tframe_hint=hint)
        np.testing.assert_allclose(pc.frame[2 * pc.m :], hint.vectors, atol=1e-12)
        # invariants hold regardless of the frame choice
        assert max(abs(v) for v in pc.residuals.values()) <= 1e-10


def loop_reference(g, omega, pc):
    """(J, g_J, Omega, residuals) from ``pc``'s paired frame, one point and one vector at a time.

    The reference whose bits the batched assembly must match: every product
    here is the per-matrix or per-vector call, so a batched route that rounds
    differently shows.
    """
    n, m, spectrum, basis = g.dim, pc.m, pc.spectrum, pc.spectrum.basis
    A, G = associated_endomorphism(g, omega).matrix, g.entries
    nv, npv = 2 * m, 2 * spectrum.npairs
    p = pc.frame.T
    p_inv = np.linalg.inv(p)
    d = np.concatenate([np.repeat(np.sqrt(spectrum.eigenvalues[:m]), 2), np.ones(n - nv)])

    def j0(k):
        return blockdiag(*[J2] * (k // 2)) if k else np.zeros((0, 0))

    def part(rows):
        q = p_inv[rows]
        return -q.T @ (d[rows, None] * (j0(len(q)) @ q))

    jm = p @ j0(n) @ p_inv
    g_j = MetricTensor(p_inv.T @ (d[:, None] * p_inv))
    wt = TwoForm(part(slice(0, nv)) + part(slice(nv, None))).entries
    res = {
        "j_squared": float(np.abs(jm @ jm + np.eye(n)).max()),
        "compatibility": float(np.abs(g_j.entries - wt @ jm).max()),
        "j_invariance": float(np.abs(jm.T @ wt @ jm - wt).max()),
        "pairing": float(np.abs(p_inv[:nv] @ A @ p[:, :nv] - d[:nv, None] * j0(nv)).max(initial=0.0)),
        "basis_orthonormality": float(np.abs(basis @ G @ basis.T - np.eye(n)).max()),
    }
    M = -(A @ A)
    rows = zip(spectrum.values[:npv], basis[:npv])
    eig = max([float(np.abs(M @ v - lam * v).max()) for lam, v in rows], default=0.0)
    res["eigen_residual"] = eig / max(float(np.abs(M).max()), 1e-300)
    chol = np.linalg.cholesky(g_j.entries)
    skew = np.linalg.solve(chol, np.linalg.solve(chol, wt).T)
    res["calibration_unit_comass"] = abs(float(np.linalg.norm(skew, 2)) - 1.0)
    ratios = [
        abs(float(v @ wt @ w) / plane_area(g_j, v, w) - 1.0)
        for lam, v, w in zip(spectrum.eigenvalues, basis[0:npv:2], basis[1:npv:2])
        if abs(lam - 1.0) <= CALIBRATED_TOL
    ]
    res["preservation"] = max(ratios, default=0.0)
    dom = basis[:nv] @ (G - g_j.entries) @ basis[:nv].T
    res["metric_domination_min_eig"] = float(np.linalg.eigvalsh((dom + dom.T) / 2)[0]) if m else 0.0
    return jm, g_j.entries, wt, res


def assert_matches_loop_reference(g, omega, pc):
    jm, g_j, wt, res = loop_reference(g, omega, pc)
    for got, want in [(pc.j.matrix, jm), (pc.g_j.entries, g_j), (pc.omega_total.entries, wt)]:
        assert got.tobytes() == want.tobytes()
    assert list(pc.residuals) == list(res)
    assert [x.hex() for x in pc.residuals.values()] == [x.hex() for x in res.values()]


class TestLoopReference:
    @pytest.mark.parametrize("n", [4, 7, 8, 16])
    def test_field_matches(self, n):
        grid = parse_calfield(planted_field_text(n, seed=n, points=16))
        for point, outcome in zip(grid.points, process_field(grid).outcomes):
            if outcome.construction is not None:
                g, omega = (point.g, point.omega) if n % 2 == 0 else lift_odd(point.g, point.omega)
                assert_matches_loop_reference(g, omega, outcome.construction)

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6])
    def test_near_double_matches(self, cond):
        rng = np.random.default_rng(1)
        for sep in (1e-9, 1e-6, 1e-3):
            g, omega = near_double_form(rng, cond=cond, sep=sep)
            assert_matches_loop_reference(g, omega, construct_point(g, omega))


class TestNearDoubleIllConditioned:
    def test_triple_residuals_within_verify_thresholds(self):
        # Pairs split by sep under an ill-conditioned g: the Schur blocks give
        # each pair directly, so every residual verify checks stays within
        # its threshold, the spectral ones included.
        for cond in (1e2, 1e3, 1e4):
            for sep in (1e-9, 1e-6, 1e-3):
                rng = np.random.default_rng(0)
                for _ in range(16):
                    g, w = near_double_form(rng, cond=cond, sep=sep)
                    res = construct_point(g, w).residuals
                    for key, threshold in RESIDUAL_THRESHOLDS.items():
                        assert abs(res[key]) <= threshold, (cond, sep, key, res[key])

    @given(
        log_cond=st.floats(0.0, 6.0),
        log_sep=st.floats(-9.0, -3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(log_cond=6.0, log_sep=-6.0, seed=0)
    def test_scale_relative_triple(self, log_cond, log_sep, seed):
        # Up to cond(g) = 1e6 the entries of J grow with the conditioning, so
        # the triple is judged relative to the size of the terms involved.
        g, w = near_double_form(np.random.default_rng(seed), cond=10**log_cond, sep=10**log_sep)
        pc = construct_point(g, w)
        j, g_j, om = pc.j.matrix, pc.g_j.entries, pc.omega_total.entries
        j_scale = np.abs(j).max()
        assert np.abs(j @ j + np.eye(8)).max() / j_scale**2 <= 1e-10
        assert np.abs(g_j - om @ j).max() / (np.abs(om).max() * j_scale) <= 1e-10
        assert abs(comass_exact(pc.g_j, pc.omega_total).value - 1.0) <= 1e-9


class TestLiftOdd:
    def test_basic(self):
        g = MetricTensor.identity(3)
        w = TwoForm.from_pairs(3, {(0, 1): 1.0})
        lifted_g, lifted_omega = lift_odd(g, w)
        np.testing.assert_array_equal(lifted_g.entries, np.eye(4))
        np.testing.assert_array_equal(
            lifted_omega.entries, TwoForm.from_pairs(4, {(0, 1): 1.0}).entries
        )

    def test_block_metric(self):
        g = MetricTensor.diagonal([1.0, 2.0, 3.0])
        lifted_g, _ = lift_odd(g, TwoForm.from_pairs(3, {(0, 1): 1.0}))
        np.testing.assert_array_equal(lifted_g.entries, np.diag([1.0, 2, 3, 1]))

    def test_rejects_even(self):
        with pytest.raises(ValueError, match="even"):
            lift_odd(MetricTensor.identity(2), TwoForm.zero(2))

    def test_lifted_construction_succeeds(self):
        g = MetricTensor.diagonal([1.0, 2.0, 3.0])
        pc = construct_point(*lift_odd(g, TwoForm.from_pairs(3, {(0, 1): 0.5})))
        assert pc.dim == 4
        assert pc.residuals["j_squared"] <= 1e-10


class TestAlignFrame:
    def test_aligns_to_hint(self):
        g = MetricTensor.identity(4)
        base = Frame(np.array([E4[2], E4[3]]))
        hint = Frame(np.array([E4[3], E4[2]]))
        aligned = align_frame(hint, base, g)
        np.testing.assert_allclose(aligned.vectors, hint.vectors, atol=1e-12)

    def test_preserves_span_and_orthonormality(self):
        rng = np.random.default_rng(10)
        g = random_pd_metric(rng, 6)
        from semicalib import gram_schmidt

        base = gram_schmidt(g, Frame(rng.standard_normal((3, 6))))
        hint = gram_schmidt(g, Frame(rng.standard_normal((3, 6))))
        aligned = align_frame(hint, base, g)
        assert np.abs(aligned.vectors @ g.entries @ aligned.vectors.T - np.eye(3)).max() <= 1e-12
        # same span: each aligned vector is a combination of the base vectors
        proj = base.vectors.T @ (base.vectors @ g.entries)
        for v in aligned:
            np.testing.assert_allclose(proj @ v, v, atol=1e-10)
