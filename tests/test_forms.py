"""Tests for the core multilinear algebra types and operations."""

import numpy as np
import pytest

from semicalib import (
    Frame,
    MetricTensor,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    TwoForm,
    complement_basis,
    eval_two_form,
    gram_schmidt,
    plane_area,
)
from semicalib import forms
from semicalib.forms import _polar_factor
from helpers import random_pd_metric, random_two_form

E4 = np.eye(4)


class TestMetricTensor:
    def test_identity(self):
        g = MetricTensor.identity(4)
        assert g.dim == 4
        np.testing.assert_array_equal(g.entries, np.eye(4))

    def test_exact_symmetry_after_canonicalization(self):
        mat = np.array([[2.0, 0.3], [0.3 + 1e-14, 1.0]])
        g = MetricTensor(mat)
        assert np.array_equal(g.entries, g.entries.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            MetricTensor(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            MetricTensor(np.diag([1.0, -1.0]))

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            MetricTensor(np.diag([1.0, 0.0]))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="dimension"):
            MetricTensor(np.eye(17))

    def test_stack_reports_a_non_finite_row_first(self):
        # Row 1 is NaN and row 2 indefinite: the eigenvalues run on a stand-in
        # for row 1, and its fault comes first.
        mats = np.stack([np.eye(3), np.full((3, 3), np.nan), -np.eye(3)])
        with np.errstate(all="raise"):
            canonical, checks = forms._metric_stack(mats)
        i, error = forms._first_fault(checks)
        assert i == 1 and type(error) is ValueError and str(error) == "metric contains non-finite entries"
        masks = [[False, True, False], [False, False, False], [False, False, True]]  # finite, symmetric, PD
        assert [mask.tolist() for mask, _ in checks] == masks
        np.testing.assert_array_equal(canonical[[0, 2]], mats[[0, 2]])

    def test_from_upper(self):
        g = MetricTensor.from_upper(2, [4.0, 1.0, 3.0])
        np.testing.assert_array_equal(g.entries, [[4.0, 1.0], [1.0, 3.0]])

    def test_immutable(self):
        g = MetricTensor.identity(2)
        with pytest.raises(ValueError):
            g.entries[0, 0] = 5.0


class TestTwoForm:
    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 5))
        w = TwoForm(np.triu(x, 1) - np.triu(x, 1).T)
        assert np.array_equal(w.entries, -w.entries.T)
        assert np.all(np.diag(w.entries) == 0.0)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            TwoForm(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_from_pairs_and_upper_agree(self):
        a = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        b = TwoForm.from_upper(4, [1.0, 0, 0, 0, 0, 0.5])
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_standard_symplectic(self):
        w = TwoForm.standard_symplectic(4)
        assert eval_two_form(w, E4[0], E4[1]) == 1.0
        assert eval_two_form(w, E4[2], E4[3]) == 1.0
        with pytest.raises(ValueError):
            TwoForm.standard_symplectic(3)


class TestEvalTwoForm:
    def test_basis_pairing(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        assert eval_two_form(w, E4[0], E4[1]) == 1.0

    def test_antisymmetry_of_arguments(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        assert eval_two_form(w, E4[1], E4[0]) == -1.0

    def test_mixed_plane_value(self):
        # value 0.75 = (1 + 0.5)/2 on the diagonal plane, by direct arithmetic
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        v = (E4[0] + E4[2]) / np.sqrt(2)
        u = (E4[1] + E4[3]) / np.sqrt(2)
        assert eval_two_form(w, v, u) == pytest.approx(0.75, abs=1e-15)

    def test_exact_antisymmetry_property(self):
        rng = np.random.default_rng(3)
        w = random_two_form(rng, 6)
        for _ in range(20):
            v, u = rng.standard_normal(6), rng.standard_normal(6)
            assert eval_two_form(w, v, u) == -eval_two_form(w, u, v)

    def test_dimension_mismatch(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0})
        with pytest.raises(ValueError, match="dimension"):
            eval_two_form(w, np.ones(3), np.ones(4))


class TestPlaneArea:
    def test_orthonormal_pair(self):
        assert plane_area(MetricTensor.identity(4), E4[0], E4[1]) == 1.0

    def test_degenerate_pair(self):
        assert plane_area(MetricTensor.identity(4), E4[0], E4[0]) == 0.0

    def test_scaled_metric(self):
        g = MetricTensor.diagonal([1, 1, 0.5, 0.5])
        assert plane_area(g, E4[2], E4[3]) == pytest.approx(0.5, abs=1e-15)

    def test_basis_invariance(self):
        # area is a property of the plane, not of the orthonormal basis chosen
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = 6
            g = random_pd_metric(rng, n)
            f = gram_schmidt(g, Frame(rng.standard_normal((2, n))))
            v, w = f[0], f[1]
            theta = rng.uniform(0, 2 * np.pi)
            v2 = np.cos(theta) * v + np.sin(theta) * w
            w2 = -np.sin(theta) * v + np.cos(theta) * w
            a1, a2 = plane_area(g, v, w), plane_area(g, v2, w2)
            assert abs(a1 - a2) <= 1e-10 * max(a1, 1.0)


class TestGramSchmidt:
    def test_projection_removes_overlap(self):
        g = MetricTensor.identity(2)
        out = gram_schmidt(g, Frame(np.array([[1.0, 0.0], [1.0, 1.0]])))
        np.testing.assert_allclose(out.vectors, np.eye(2), atol=1e-15)

    def test_normalization(self):
        g = MetricTensor.identity(3)
        out = gram_schmidt(g, Frame(np.array([[2.0, 0.0, 0.0]])))
        np.testing.assert_allclose(out.vectors, [[1.0, 0, 0]], atol=1e-15)

    def test_metric_norm(self):
        g = MetricTensor.diagonal([4.0, 1.0])
        out = gram_schmidt(g, Frame(np.array([[1.0, 0.0]])))
        np.testing.assert_allclose(out.vectors, [[0.5, 0.0]], atol=1e-15)

    def test_first_vector_direction_preserved(self):
        rng = np.random.default_rng(5)
        g = random_pd_metric(rng, 5)
        vecs = rng.standard_normal((3, 5))
        out = gram_schmidt(g, Frame(vecs))
        cross = np.outer(out[0], vecs[0]) - np.outer(vecs[0], out[0])
        assert np.abs(cross).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_pd_metric(rng, 6)
            out = gram_schmidt(g, Frame(rng.standard_normal((4, 6))))
            again = gram_schmidt(g, out)
            assert np.abs(again.vectors - out.vectors).max() <= 1e-12

    def test_rank_deficiency(self):
        g = MetricTensor.identity(3)
        with pytest.raises(RankDeficiencyError):
            gram_schmidt(g, Frame(np.array([[1.0, 0, 0], [2.0, 0, 0]])))

    def test_rank_error_names_the_first_dependent_vector(self):
        g = random_pd_metric(np.random.default_rng(12), 4)
        vecs = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, -2.0, 0, 0], [0, 0, 1.0, 0]])
        with pytest.raises(RankDeficiencyError, match="vector 2 is dependent on its predecessors"):
            gram_schmidt(g, Frame(vecs))

    def test_orientation_preserved(self):
        # each output vector is its input minus a combination of the earlier
        # inputs, rescaled by a positive factor: the change of basis is
        # triangular with a positive diagonal, so every leading flag keeps its orientation
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_pd_metric(rng, 6)
            vecs = rng.standard_normal((4, 6))
            out = gram_schmidt(g, Frame(vecs)).vectors
            change = out @ g.entries @ vecs.T  # coefficients of the inputs on the output basis
            assert np.abs(np.tril(change, -1)).max() <= 1e-12 * np.abs(change).max()
            assert (np.diag(change) > 0).all()

    def test_orthonormal_output(self):
        rng = np.random.default_rng(7)
        g = random_pd_metric(rng, 7)
        out = gram_schmidt(g, Frame(rng.standard_normal((5, 7))))
        assert np.abs(out.vectors @ g.entries @ out.vectors.T - np.eye(5)).max() < 1e-12


class TestPolarFactor:
    @pytest.mark.parametrize("k, n", [(2, 2), (2, 8), (3, 5), (8, 8)])
    def test_nearest_orthonormal_rows(self, k, n):
        # B = H Q with H = (B B^T)^1/2: Q has orthonormal rows and B Q^T = H is symmetric positive definite
        B = np.random.default_rng(k * n).standard_normal((20, k, n))
        Q = _polar_factor(B)
        assert np.abs(Q @ Q.mT - np.eye(k)).max() <= 1e-14
        H = B @ Q.mT
        assert np.abs(H - H.mT).max() <= 1e-13
        assert np.linalg.eigvalsh((H + H.mT) / 2)[:, 0].min() > 0


class TestFrame:
    def test_frame_iteration(self):
        f = Frame(np.eye(3)[:2])
        assert len(f) == 2 and f.dim == 3
        np.testing.assert_array_equal(list(f)[1], [0, 1, 0])

    def test_empty_frame(self):
        f = Frame.empty(4)
        assert len(f) == 0 and f.dim == 4


class TestComplementBasis:
    def test_completes_to_full_basis(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = 6
            g = random_pd_metric(rng, n)
            f = gram_schmidt(g, Frame(rng.standard_normal((2, n))))
            comp = complement_basis(g, f)
            assert len(comp) == n - 2
            full = Frame(np.vstack([f.vectors, comp.vectors]))
            assert np.abs(full.vectors @ g.entries @ full.vectors.T - np.eye(n)).max() < 1e-10


def _spd(x):
    return x @ x.mT + x.shape[-1] * np.eye(x.shape[-1])


def _hermitian(x):
    z = x + 1j * np.roll(x, 1, axis=-1)
    return z + z.mT.conj()


def _thin_svd(a):
    return np.linalg.svd(a, full_matrices=False)


def _svd_values(a):
    return np.linalg.svd(a, compute_uv=False)


# (layer function, np.linalg counterpart, inputs from one standard normal stack x and one more y)
LAYER = {
    "_solve": (forms._solve, np.linalg.solve, lambda x, y: (x, y)),
    "_solve_transposed": (forms._solve, np.linalg.solve, lambda x, y: (_spd(x).mT, y.mT)),
    "_inv": (forms._inv, np.linalg.inv, lambda x, y: (x,)),
    "_inv_transposed": (forms._inv, np.linalg.inv, lambda x, y: (x.mT,)),
    "_cholesky": (forms._cholesky, np.linalg.cholesky, lambda x, y: (_spd(x),)),
    "_eigh": (forms._eigh, np.linalg.eigh, lambda x, y: (_hermitian(x),)),
    "_eigh_transposed": (forms._eigh, np.linalg.eigh, lambda x, y: (_hermitian(x).mT,)),
    "_eigvalsh": (forms._eigvalsh, np.linalg.eigvalsh, lambda x, y: (x + x.mT,)),
    "_svd": (forms._svd, _thin_svd, lambda x, y: (x,)),
    "_svd_wide": (forms._svd, _thin_svd, lambda x, y: (x[:, : x.shape[-1] // 2],)),
    "_svd_transposed": (forms._svd, _thin_svd, lambda x, y: (x.mT,)),
    "_svd_values": (forms._svd_values, _svd_values, lambda x, y: (x,)),
    "_svd_values_tall": (forms._svd_values, _svd_values, lambda x, y: (np.concatenate([x, y], axis=1),)),
}


def _bits(result) -> list:
    """dtype, shape and bytes of each array of a result; ``np.linalg``'s named tuples are tuples."""
    return [(a.dtype, a.shape, a.tobytes()) for a in (result if isinstance(result, tuple) else (result,))]


class TestLapackLayer:
    """Each layer function calls the gufunc that ``np.linalg`` calls: the same bits and the same errors."""

    @pytest.mark.parametrize("name", LAYER)
    @pytest.mark.parametrize("n", [2, 7, 8, 16])
    @pytest.mark.parametrize("count", [0, 1, 64])
    def test_bits_equal_numpy(self, name, n, count):
        ours, numpys, args = LAYER[name]
        rng = np.random.default_rng([n, count])
        inputs = args(rng.standard_normal((count, n, n)), rng.standard_normal((count, n, n)))
        assert _bits(ours(*inputs)) == _bits(numpys(*inputs))

    @pytest.mark.parametrize("name", LAYER)
    def test_empty_matrices(self, name):
        ours, numpys, args = LAYER[name]
        inputs = args(np.zeros((3, 0, 0)), np.zeros((3, 0, 0)))
        assert _bits(ours(*inputs)) == _bits(numpys(*inputs))

    @pytest.mark.parametrize("name, matrix", [
        ("_solve", np.zeros((2, 3, 3))),
        ("_inv", np.ones((2, 3, 3))),
        ("_cholesky", np.diag([1.0, -1.0, 1.0])[None].repeat(2, axis=0)),
    ])
    def test_same_linalg_error(self, name, matrix):
        ours, numpys, _ = LAYER[name]
        inputs = (matrix, np.ones((2, 3, 3))) if name == "_solve" else (matrix,)
        with pytest.raises(np.linalg.LinAlgError) as expected:
            numpys(*inputs)
        with pytest.raises(np.linalg.LinAlgError, match=f"^{expected.value}$"):
            ours(*inputs)

    def test_no_error_state_leaks(self):
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError):
            forms._inv(np.zeros((1, 2, 2)))
        assert np.geterr() == before and np.geterrcall() is None

