"""Tests for the associated endomorphism and its paired spectrum."""

import numpy as np
import pytest

from semicalib import (
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
from semicalib.field import RESIDUAL_THRESHOLDS, FieldGrid, process_field
from semicalib.spectral import _paired_stack
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
        for _ in range(20):
            u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            g = MetricTensor((u * np.geomspace(1.0, cond, 8)) @ u.T)
            z, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            f = np.linalg.solve(np.linalg.cholesky(g.entries).T, z).T
            w = sum(mu * dual_wedge(g, f[2 * i], f[2 * i + 1]) for i, mu in enumerate((1, 0.7, 0.3)))
            a = associated_endomorphism(g, TwoForm(w)).matrix
            basis, values, npairs = (x[0] for x in _paired_stack(a[None], g.entries[None], 0.0))
            assert npairs >= 3 and np.abs(values[6:]).max() <= 1e-14
            assert np.abs(basis @ g.entries @ basis.T - np.eye(8)).max() <= bound

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


def _normal_form_point(rng, n: int, pair_values, cond: float = 1e3) -> tuple[np.ndarray, np.ndarray]:
    """(G, W) at cond(G) = ``cond``: ``pair_values`` on a random g-orthonormal frame, a kernel past them."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = (q * np.geomspace(1.0, cond, n)) @ q.T
    g = (g + g.T) / 2
    frame = np.linalg.solve(np.linalg.cholesky(g).T, np.linalg.qr(rng.standard_normal((n, n)))[0]).T
    w = sum(mu * dual_wedge(MetricTensor(g), frame[2 * i], frame[2 * i + 1]) for i, mu in enumerate(pair_values))
    return g, w


class TestKernelFreeStacks:
    """``_paired_stack`` skips its kernel block on a stack without a kernel: the same bits as the kernel path.

    Kernel-free points alone take the skip path; in one stack with kernel
    points they take the kernel path, and the kernel points alone take it too.
    Each point's rows must not depend on the stack it is in.
    """

    FREE_ROWS, KERNEL_ROWS = [0, 1, 4, 5, 6, 7, 10, 11], [2, 3, 8, 9]

    @classmethod
    def stacks(cls, n: int):
        """(G, W) stacks of 8 kernel-free points with near-double pair values, 4 kernel points, and all 12 mixed."""
        rng = np.random.default_rng(n)
        near_double = [1.0, 1.0 - 1e-6, 0.6, 0.6 * (1.0 - 1e-6), 0.8, 0.8 * (1.0 - 1e-9), 0.7, 0.9][: n // 2]
        free = [_normal_form_point(rng, n, near_double) for _ in range(8)]
        kernel = [_normal_form_point(rng, n, near_double[:1]) for _ in range(4)]
        mixed = [None] * 12
        for rows, points in ((cls.FREE_ROWS, free), (cls.KERNEL_ROWS, kernel)):
            for i, point in zip(rows, points):
                mixed[i] = point
        return [[np.array(x) for x in zip(*points)] for points in (free, kernel, mixed)]

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_paired_stack_rows(self, n):
        free, kernel, mixed = (_paired_stack(np.linalg.solve(g, w.mT), g)
                               for g, w in self.stacks(n))
        assert (2 * free[2] == n).all() and (2 * kernel[2] < n).all()
        for rows, alone in ((self.FREE_ROWS, free), (self.KERNEL_ROWS, kernel)):
            for x, y in zip(alone[:3], mixed[:3]):
                assert x.tobytes() == y[rows].tobytes()

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_process_field_columns(self, n):
        (g, w), _, (g_mixed, w_mixed) = self.stacks(n)
        alone, mixed = process_field(FieldGrid(n, g, w)), process_field(FieldGrid(n, g_mixed, w_mixed))
        assert alone.built.all() and mixed.built.all() and (2 * mixed.m < n).any()
        for name in ("J", "g_J", "Omega"):
            assert getattr(alone, name).tobytes() == getattr(mixed, name)[self.FREE_ROWS].tobytes()
        for name, column in alone.residuals.items():
            expected = [x.hex() for x in column.tolist()]
            assert [x.hex() for x in mixed.residuals[name][self.FREE_ROWS].tolist()] == expected


class TestKernelRows:
    """The kernel rows ``basis[2 * npairs:]`` span the kernel of A, g-orthonormal and g-orthogonal to the pairs.

    :class:`TestKernelFreeStacks` pins the rows' bits across stacks; this pins
    the subspace they span, which any other choice of kernel basis must keep.
    """

    PAIR_VALUES = [1.0, 0.7, 0.5, 0.3, 0.9, 0.8, 0.6, 0.4]
    KERNEL_DIMS = (0, 2, 4, 6)

    @pytest.mark.parametrize("n", [8, 16])
    def test_kernel_rows_span_the_kernel(self, n):
        rng = np.random.default_rng(n)
        conds = np.geomspace(1.0, 1e6, 7)
        points = [_normal_form_point(rng, n, self.PAIR_VALUES[: (n - k) // 2], cond)
                  for cond in conds for k in self.KERNEL_DIMS]
        g, w = (np.array(x) for x in zip(*points))
        a = np.linalg.solve(g, w.mT)
        basis, _, npairs = _paired_stack(a, g)
        assert (n - 2 * npairs).tolist() == list(self.KERNEL_DIMS) * len(conds)
        limit = RESIDUAL_THRESHOLDS["basis_orthonormality"]
        for gi, ai, rows, p in zip(g, a, basis, npairs.tolist()):
            kernel, pairs = rows[2 * p :], rows[: 2 * p]
            assert np.abs(kernel @ gi @ kernel.T - np.eye(n - 2 * p)).max(initial=0.0) <= limit
            assert np.abs(kernel @ gi @ pairs.T).max(initial=0.0) <= limit
            image = ai @ kernel.T  # A k, one column per kernel row
            norms = np.sqrt(np.maximum(np.einsum("ij,ik,kj->j", image, gi, image), 0.0))
            assert norms.max(initial=0.0) <= 1e-12 * np.abs(ai).max()
