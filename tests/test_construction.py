"""Tests for the pointwise compatible-triple construction."""

from dataclasses import replace

import numpy as np
import pytest

from semicalib import (
    ConstructionError,
    Frame,
    MetricTensor,
    TwoForm,
    align_frame,
    almost_complex_structure,
    assemble_calibration,
    associated_endomorphism,
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
from helpers import (
    near_double_form,
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


def split_for(g, omega, epsilon):
    endo = associated_endomorphism(g, omega)
    spectrum = paired_spectrum(endo, g)
    return endo, split_spaces(spectrum, epsilon)


def congruences(w, epsilon, complement=None):
    """(split, J, g_J, (omega1, omega2, total)) from the identity metric."""
    g = MetricTensor.identity(w.dim)
    _, split = split_for(g, w, epsilon)
    if complement is not None:
        split = replace(split, perp_basis=Frame(np.array(complement)))
    p, p_inv, d = paired_frame(split)
    return (
        split,
        almost_complex_structure(p, p_inv),
        compatible_metric(p_inv, d),
        assemble_calibration(p_inv, d, split.m),
    )


class TestPairedFrame:
    def test_identity_case(self):
        g = MetricTensor.identity(4)
        _, split = split_for(g, TwoForm.standard_symplectic(4), 1.0)
        p, p_inv, d = paired_frame(split)
        np.testing.assert_allclose(p.T @ p, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(p_inv, p.T, atol=1e-12)
        np.testing.assert_allclose(d, np.ones(4), atol=1e-12)

    def test_scaled_blocks(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        _, split = split_for(g, w, 0.25)
        _, _, d = paired_frame(split)
        np.testing.assert_allclose(d, [1, 1, 0.5, 0.5], atol=1e-12)

    def test_two_dims(self):
        g = MetricTensor.identity(2)
        _, split = split_for(g, TwoForm.from_pairs(2, {(0, 1): 1.0}), 1.0)
        np.testing.assert_allclose(paired_frame(split)[2], np.ones(2), atol=1e-12)

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
            split = split_spaces(spectrum, spectrum.eigenvalues[-1])
            p, p_inv, d = paired_frame(split)
            m2 = 2 * split.m
            av = (p_inv @ endo.matrix @ p)[:m2, :m2]
            q = np.diag(d[:m2])
            blocks = blockdiag(*[J2] * split.m)
            assert np.abs(av - q @ blocks).max() <= 1e-10
            assert np.abs(q @ q + av @ av).max() <= 1e-10
            assert np.abs(q @ av - av @ q).max() <= 1e-10


class TestAlmostComplexStructure:
    def test_scaled_blocks(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        _, j, _, _ = congruences(w, 0.25)
        np.testing.assert_allclose(j.matrix, blockdiag(J2, J2), atol=1e-12)

    def test_two_dims_identity_q(self):
        _, j, _, _ = congruences(TwoForm.from_pairs(2, {(0, 1): 1.0}), 1.0)
        np.testing.assert_allclose(j.matrix, J2, atol=1e-12)

    def test_complement_extension_rule(self):
        # V = span(e1, e2); J rotates the complement frame pairs
        split, j, _, _ = congruences(TwoForm.from_pairs(4, {(0, 1): 1.0}), 1.0)
        t1, t2 = split.perp_basis[0], split.perp_basis[1]
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
        for v in pc.split.v_basis:
            for t in pc.split.perp_basis:
                assert abs(v @ pc.g_j.entries @ t) <= 1e-10


class TestAssembleCalibration:
    def test_no_complement(self):
        g = MetricTensor.identity(4)
        w = TwoForm.standard_symplectic(4)
        pc = construct_point(g, w)
        np.testing.assert_array_equal(pc.omega2.entries, np.zeros((4, 4)))
        np.testing.assert_allclose(pc.omega1.entries, w.entries, atol=1e-12)

    def test_direct_assembly(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        _, _, gj, (o1, o2, total) = congruences(w, 1.0, complement=[E4[2], E4[3]])
        np.testing.assert_allclose(gj.entries, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(o1.entries, w.entries, atol=1e-12)
        np.testing.assert_allclose(
            o2.entries, TwoForm.from_pairs(4, {(2, 3): 1.0}).entries, atol=1e-12
        )
        expected = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 1.0})
        np.testing.assert_allclose(total.entries, expected.entries, atol=1e-12)

    def test_frame_order_flips_sign(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        _, _, _, (_, _, total) = congruences(w, 1.0, complement=[E4[3], E4[2]])
        expected = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): -1.0})
        np.testing.assert_allclose(total.entries, expected.entries, atol=1e-12)

    def test_sum_exact(self):
        rng = np.random.default_rng(3)
        g = random_pd_metric(rng, 6)
        w, _ = planted_form(rng, g, blocks=1)
        pc = construct_point(g, w)
        np.testing.assert_array_equal(
            pc.omega_total.entries, pc.omega1.entries + pc.omega2.entries
        )

    def test_omega1_vanishes_on_complement(self):
        rng = np.random.default_rng(4)
        g = random_pd_metric(rng, 6)
        w, _ = planted_form(rng, g, blocks=1, rest_comass=0.0)
        pc = construct_point(g, w)
        for t in pc.split.perp_basis:
            assert np.abs(pc.omega1.entries @ t).max() <= 1e-10
        for v in pc.split.v_basis:
            assert np.abs(pc.omega2.entries @ v).max() <= 1e-10


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
        assert pc.split.m == 0
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
                    pc.j.matrix @ x, pc.endo.matrix @ x, atol=1e-9
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
        assert pc.split.m == 1
        assert pc.epsilon == 1.0

    def test_tframe_hint_alignment(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        hint = Frame(np.array([E4[3], E4[2]]))
        pc = construct_point(g, w, tframe_hint=hint)
        np.testing.assert_allclose(pc.split.perp_basis.vectors, hint.vectors, atol=1e-12)
        # invariants hold regardless of the frame choice
        assert max(abs(v) for v in pc.residuals.values()) <= 1e-10


class TestNearDoubleIllConditioned:
    def test_triple_residuals_within_verify_thresholds(self):
        # cond(g) = 100 with pairs split by 1e-9: the spectral front end's pair
        # basis is off by ~1e-9 here, so basis_orthonormality, eigen_residual
        # and pairing still exceed their thresholds on some inputs; that is
        # the spectral pairing's defect, not the construction's.  The exact
        # congruences keep the triple's own residuals at rounding level.
        rng = np.random.default_rng(0)
        for _ in range(16):
            g, w = near_double_form(rng, cond=100.0, sep=1e-9)
            res = construct_point(g, w).residuals
            assert res["j_squared"] <= 1e-10
            assert res["compatibility"] <= 1e-10
            assert res["j_invariance"] <= 1e-10
            assert res["calibration_unit_comass"] <= 1e-9


class TestLiftOdd:
    def test_basic(self):
        g = MetricTensor.identity(3)
        w = TwoForm.from_pairs(3, {(0, 1): 1.0})
        lifted = lift_odd(g, w)
        assert lifted.original_dim == 3
        np.testing.assert_array_equal(lifted.lifted_g.entries, np.eye(4))
        np.testing.assert_array_equal(
            lifted.lifted_omega.entries, TwoForm.from_pairs(4, {(0, 1): 1.0}).entries
        )

    def test_block_metric(self):
        g = MetricTensor.diagonal([1.0, 2.0, 3.0])
        lifted = lift_odd(g, TwoForm.from_pairs(3, {(0, 1): 1.0}))
        np.testing.assert_array_equal(lifted.lifted_g.entries, np.diag([1.0, 2, 3, 1]))

    def test_rejects_even(self):
        with pytest.raises(ValueError, match="even"):
            lift_odd(MetricTensor.identity(2), TwoForm.zero(2))

    def test_lifted_construction_succeeds(self):
        g = MetricTensor.diagonal([1.0, 2.0, 3.0])
        lifted = lift_odd(g, TwoForm.from_pairs(3, {(0, 1): 0.5}))
        pc = construct_point(lifted.lifted_g, lifted.lifted_omega)
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
        from semicalib import gram_schmidt, orthonormality_defect

        base = gram_schmidt(g, Frame(rng.standard_normal((3, 6))))
        hint = gram_schmidt(g, Frame(rng.standard_normal((3, 6))))
        aligned = align_frame(hint, base, g)
        assert orthonormality_defect(g, aligned) <= 1e-12
        # same span: each aligned vector is a combination of the base vectors
        proj = base.vectors.T @ (base.vectors @ g.entries)
        for v in aligned:
            np.testing.assert_allclose(proj @ v, v, atol=1e-10)
