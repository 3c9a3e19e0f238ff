"""Tests for the associated endomorphism and its paired spectrum."""

from dataclasses import replace

import numpy as np
import pytest

from semicalib import (
    DEFAULT_TOLERANCES,
    Endomorphism,
    GapViolation,
    MetricTensor,
    PairedSpectrum,
    TwoForm,
    associated_endomorphism,
    comass_exact,
    eval_two_form,
    g_inner,
    infer_epsilon,
    paired_spectrum,
    skew_adjoint_defect,
    split_spaces,
)
from helpers import dual_wedge, random_pd_metric, random_two_form, unit_comass_form

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


class TestAssociatedEndomorphism:
    def test_standard_symplectic(self):
        # identity metric turns the coefficient matrix into the endomorphism
        # up to the sign convention: A e1 = e2 here
        g = MetricTensor.identity(4)
        a = associated_endomorphism(g, TwoForm.standard_symplectic(4))
        np.testing.assert_allclose(a.matrix, blockdiag(J2, J2), atol=1e-15)

    def test_scaled_blocks(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        a = associated_endomorphism(g, w)
        np.testing.assert_allclose(a.matrix, blockdiag(J2, 0.5 * J2), atol=1e-15)

    def test_scaled_metric(self):
        g = MetricTensor.diagonal([4.0, 4.0])
        w = TwoForm.from_pairs(2, {(0, 1): 1.0})
        a = associated_endomorphism(g, w)
        np.testing.assert_allclose(a.matrix, 0.25 * J2, atol=1e-15)

    def test_defining_identity_random(self):
        # g(Av, w) = omega(v, w) on all basis pairs, relative 1e-11
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 11))
            g = random_pd_metric(rng, n)
            w = random_two_form(rng, n)
            a = associated_endomorphism(g, w)
            scale = max(np.abs(w.entries).max(), 1.0)
            for i in range(n):
                for j in range(n):
                    lhs = g_inner(g, a.matrix @ np.eye(n)[i], np.eye(n)[j])
                    rhs = eval_two_form(w, np.eye(n)[i], np.eye(n)[j])
                    assert abs(lhs - rhs) <= 1e-11 * scale

    def test_skew_adjointness(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 8
            g = random_pd_metric(rng, n)
            a = associated_endomorphism(g, random_two_form(rng, n))
            assert skew_adjoint_defect(a, g) <= 1e-11

    def test_v_orthogonal_to_av(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = 8
            g = random_pd_metric(rng, n)
            a = associated_endomorphism(g, random_two_form(rng, n))
            for _ in range(100):
                v = rng.standard_normal(n)
                norm2 = g_inner(g, v, v)
                assert abs(g_inner(g, v, a.matrix @ v)) <= 1e-11 * norm2 * np.abs(a.matrix).max()


class TestPairedSpectrum:
    def test_standard_symplectic(self):
        g = MetricTensor.identity(4)
        a = Endomorphism(blockdiag(J2, J2))
        s = paired_spectrum(a, g)
        np.testing.assert_allclose(s.values, [1, 1, 1, 1], atol=1e-14)
        assert s.basis[2 * s.npairs :].shape == (0, 4)

    def test_scaled_blocks(self):
        g = MetricTensor.identity(4)
        s = paired_spectrum(Endomorphism(blockdiag(J2, 0.5 * J2)), g)
        np.testing.assert_allclose(s.values, [1, 1, 0.25, 0.25], atol=1e-14)

    def test_kernel(self):
        g = MetricTensor.identity(4)
        s = paired_spectrum(Endomorphism(blockdiag(J2, np.zeros((2, 2)))), g)
        np.testing.assert_allclose(s.eigenvalues, [1.0], atol=1e-14)
        kernel = s.basis[2 * s.npairs :]
        assert kernel.shape == (2, 4)
        span = np.abs(kernel[:, :2]).max()
        assert span < 1e-12  # kernel is exactly span(e3, e4)

    def test_pairs_shape(self):
        rng = np.random.default_rng(3)
        g = random_pd_metric(rng, 6)
        w = random_two_form(rng, 6)
        a = associated_endomorphism(g, w)
        s = paired_spectrum(a, g)
        assert s.basis.shape == (6, 6) and s.values.shape == (6,)
        for i in range(s.npairs):
            v, u = s.basis[2 * i], s.basis[2 * i + 1]
            lam = s.eigenvalues[i]
            assert s.values[2 * i] == s.values[2 * i + 1] == lam
            # u is A v / sqrt(lambda)
            np.testing.assert_allclose(a.matrix @ v, np.sqrt(lam) * u, atol=1e-10)

    def test_basis_orthonormality_and_eigen_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 8
            g = random_pd_metric(rng, n)
            a = associated_endomorphism(g, random_two_form(rng, n))
            s = paired_spectrum(a, g)
            basis = s.basis
            gram = basis @ g.entries @ basis.T
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            m2 = -(a.matrix @ a.matrix)
            for lam, v in zip(s.values[: 2 * s.npairs], basis[: 2 * s.npairs]):
                assert np.abs(m2 @ v - lam * v).max() <= 1e-10 * max(np.abs(m2).max(), 1.0)

    def test_pairing_closure(self):
        # A maps the span of each pair to itself
        rng = np.random.default_rng(5)
        g = random_pd_metric(rng, 8)
        a = associated_endomorphism(g, random_two_form(rng, 8))
        s = paired_spectrum(a, g)
        for i in range(s.npairs):
            v, u = s.basis[2 * i], s.basis[2 * i + 1]
            for x in (a.matrix @ v, a.matrix @ u):
                residual = x - (g_inner(g, v, x) * v + g_inner(g, u, x) * u)
                assert np.linalg.norm(residual) <= 1e-9 * max(np.linalg.norm(x), 1.0)

    def test_eigenvalue_bound_at_unit_comass(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = 8
            g = random_pd_metric(rng, n)
            w = unit_comass_form(g, random_two_form(rng, n))
            s = paired_spectrum(associated_endomorphism(g, w), g)
            evs = s.values
            assert evs.max() <= 1 + 1e-9
            assert evs.min() >= -1e-12

    def test_squared_comass_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 6
            g = random_pd_metric(rng, n)
            w = random_two_form(rng, n)
            s = paired_spectrum(associated_endomorphism(g, w), g)
            lam_max = s.eigenvalues[0]
            c = comass_exact(g, w).value
            assert abs(lam_max - c * c) <= 1e-9 * max(lam_max, 1.0)

    def test_reconstruction(self):
        # sum of lambda_i (v v^T + w w^T) G reproduces -A^2
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = 8
            g = random_pd_metric(rng, n)
            a = associated_endomorphism(g, random_two_form(rng, n))
            s = paired_spectrum(a, g)
            m2 = -(a.matrix @ a.matrix)
            recon = np.zeros((n, n))
            for lam, v, u in zip(s.eigenvalues, s.basis[0::2], s.basis[1::2]):
                recon += lam * (np.outer(v, v) + np.outer(u, u)) @ g.entries
            assert np.abs(recon - m2).max() <= 1e-9 * max(np.abs(m2).max(), 1.0)

    @pytest.mark.parametrize(("cond", "bound"), [(1.0, 1e-14), (1e2, 1e-14), (1e4, 1e-12)])
    def test_every_pair_kept_with_an_exact_kernel(self, cond, bound):
        # With zero = 0 every t > 0 is a pair, so the rounding-sized t of a
        # 2-dimensional kernel can make one; the basis stays g-orthonormal.
        rng = np.random.default_rng(10)
        every = replace(DEFAULT_TOLERANCES, zero=0.0)
        for _ in range(20):
            u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            g = MetricTensor((u * np.geomspace(1.0, cond, 8)) @ u.T)
            z, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            f = np.linalg.solve(np.linalg.cholesky(g.entries).T, z).T
            w = sum(mu * dual_wedge(g, f[2 * i], f[2 * i + 1]) for i, mu in enumerate((1, 0.7, 0.3)))
            s = paired_spectrum(associated_endomorphism(g, TwoForm(w)), g, every)
            assert s.npairs >= 3 and np.abs(s.values[6:]).max() <= 1e-14
            assert np.abs(s.basis @ g.entries @ s.basis.T - np.eye(8)).max() <= bound

    def test_zero_form(self):
        g = MetricTensor.identity(4)
        s = paired_spectrum(Endomorphism(np.zeros((4, 4))), g)
        assert s.npairs == 0
        assert s.basis[2 * s.npairs :].shape == (4, 4)
        assert infer_epsilon(s) is None

    def test_rejects_non_skew(self):
        g = MetricTensor.identity(2)
        with pytest.raises(ValueError, match="skew-adjoint"):
            paired_spectrum(Endomorphism(np.eye(2)), g)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        g = random_pd_metric(rng, 6)
        a = associated_endomorphism(g, random_two_form(rng, 6))
        s1 = paired_spectrum(a, g)
        s2 = paired_spectrum(a, g)
        np.testing.assert_array_equal(s1.basis, s2.basis)
        np.testing.assert_array_equal(s1.values, s2.values)


def spectrum_from_eigenvalues(pairs, kernel_dim=0):
    """Synthetic PairedSpectrum on R^{2p + k} with prescribed pair eigenvalues."""
    n = 2 * len(pairs) + kernel_dim
    return PairedSpectrum(
        basis=np.eye(n),
        values=np.concatenate([np.repeat(np.array(pairs, dtype=float), 2), np.zeros(kernel_dim)]),
        npairs=len(pairs),
    )


class TestSplitSpaces:
    def test_all_in_v(self):
        s = spectrum_from_eigenvalues([1.0, 0.25])
        m = split_spaces(s, 0.25)
        assert m == 2
        assert len(s.basis[: 2 * m]) == 4 and len(s.basis[2 * m :]) == 0

    def test_two_bands(self):
        s = spectrum_from_eigenvalues([1.0, 0.01])
        m = split_spaces(s, 1.0)
        assert m == 1
        assert len(s.basis[2 * m :]) == 2
        np.testing.assert_array_equal(s.eigenvalues[:m], [1.0])

    def test_gap_violation(self):
        s = spectrum_from_eigenvalues([1.0, 0.3])
        with pytest.raises(GapViolation) as err:
            split_spaces(s, 1.0)
        assert err.value.offenders == (0.3,)
        assert err.value.epsilon == 1.0

    def test_kernel_goes_to_perp(self):
        s = spectrum_from_eigenvalues([1.0], kernel_dim=2)
        m = split_spaces(s, 1.0)
        assert m == 1
        assert len(s.basis[2 * m :]) == 2

    def test_band_slack_keeps_edge_values(self):
        # the bands are widened by 1e-8 times the largest eigenvalue
        s = spectrum_from_eigenvalues([1.0, 0.5 - 1e-12])
        assert split_spaces(s, 1.0) == 2

    def test_rejects_bad_epsilon(self):
        s = spectrum_from_eigenvalues([1.0])
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                split_spaces(s, epsilon)

    def test_infer_epsilon(self):
        s = spectrum_from_eigenvalues([1.0, 0.25, 0.04])
        assert infer_epsilon(s) == 0.04
