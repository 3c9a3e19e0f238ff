"""Tests for comass computation, power forms, and plane testing."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import block_diag

import semicalib.comass as comass_module
from semicalib import (
    FieldConfig,
    Frame,
    MetricTensor,
    PowerForm,
    RankDeficiencyError,
    TwoForm,
    associated_endomorphism,
    calibrated_eigenspace,
    comass_bruteforce,
    comass_exact,
    construct_point,
    eval_power,
    eval_two_form,
    paired_spectrum,
    pfaffian,
)
from semicalib import test_calibrated as check_calibrated
from semicalib.field import _VERIFY_POLISH_SHIFT
from helpers import (
    dual_wedge,
    near_double_form,
    planted_form,
    random_pd_metric,
    random_two_form,
    unit_comass_form,
)
from oracles import wedge_power_value

E4 = np.eye(4)
EPS = np.finfo(float).eps


def _random_skew(rng, k: int) -> np.ndarray:
    x = rng.standard_normal((k, k))
    return np.triu(x, 1) - np.triu(x, 1).T


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian([[0.0, 1.7], [-1.7, 0.0]]) == 1.7

    def test_odd_dimension_is_zero(self):
        assert pfaffian(np.zeros((3, 3))) == 0.0

    def test_empty(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    def test_four_by_four_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal((4, 4))
            m = np.triu(x, 1) - np.triu(x, 1).T
            expected = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
            assert pfaffian(m) == pytest.approx(expected, abs=1e-13)

    def test_squares_to_determinant(self):
        # k >= 10 goes through Parlett-Reid elimination instead of the expansion
        rng = np.random.default_rng(1)
        for k in (2, 4, 6, 8, 10, 12, 14, 16):
            for _ in range(1 if k <= 8 else 5):
                m = _random_skew(rng, k)
                assert pfaffian(m) ** 2 == pytest.approx(np.linalg.det(m), rel=1e-10)

    @pytest.mark.parametrize("k", [10, 12, 14, 16])
    def test_block_diagonal_is_product_of_blocks(self, k):
        rng = np.random.default_rng(100 + k)
        sizes = [4] * (k // 4) + [2] * (k % 4 // 2)
        blocks = [_random_skew(rng, size) for size in sizes]
        expected = np.prod([pfaffian(b) for b in blocks])
        assert pfaffian(block_diag(*blocks)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [10, 12, 14, 16])
    def test_congruence_scales_by_determinant(self, k):
        # Pf(B A B^T) = det(B) Pf(A) pins the sign, for a permutation (pure
        # pivoting) and for a general B
        rng = np.random.default_rng(200 + k)
        a = _random_skew(rng, k)
        perm = np.eye(k)[rng.permutation(k)]
        for b in (perm, rng.standard_normal((k, k))):
            m = b @ a @ b.T
            m = (m - m.T) / 2
            assert pfaffian(m) == pytest.approx(np.linalg.det(b) * pfaffian(a), rel=1e-9)

    def test_large_zero_matrix(self):
        assert pfaffian(np.zeros((10, 10))) == 0.0

    def test_elimination_agrees_with_expansion_at_eight(self):
        rng = np.random.default_rng(300)
        mats = np.array([_random_skew(rng, 8) for _ in range(20)])
        np.testing.assert_allclose(
            comass_module._pf_parlett_reid(mats),
            comass_module._pf_expand(mats, tuple(range(8))),
            rtol=1e-11,
        )


class TestEvalPower:
    def test_standard_symplectic_square(self):
        # frozen from the wedge-expansion oracle: Pf of two unit blocks is 1
        w = TwoForm.standard_symplectic(4)
        p = PowerForm(w, 2)
        frame = Frame(np.eye(4))
        oracle = wedge_power_value(w.entries, np.eye(4), 2)
        assert oracle == pytest.approx(1.0, abs=1e-14)
        assert eval_power(p, frame) == pytest.approx(1.0, abs=1e-14)

    def test_alternating(self):
        w = TwoForm.standard_symplectic(4)
        p = PowerForm(w, 2)
        swapped = Frame(np.eye(4)[[1, 0, 2, 3]])
        assert eval_power(p, swapped) == pytest.approx(-1.0, abs=1e-14)

    def test_scaled_blocks(self):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        p = PowerForm(w, 2)
        oracle = wedge_power_value(w.entries, np.eye(4), 2)
        assert oracle == pytest.approx(0.5, abs=1e-14)
        assert eval_power(p, Frame(np.eye(4))) == pytest.approx(0.5, abs=1e-14)

    def test_p1_equals_two_form(self):
        rng = np.random.default_rng(2)
        w = random_two_form(rng, 5)
        for _ in range(10):
            v, u = rng.standard_normal(5), rng.standard_normal(5)
            assert eval_power(PowerForm(w, 1), Frame(np.array([v, u]))) == pytest.approx(
                eval_two_form(w, v, u), abs=1e-13
            )

    def test_oracle_agreement_random(self):
        # the Pfaffian route must match the permutation expansion
        rng = np.random.default_rng(3)
        for trial in range(60):
            p = [1, 2, 3][trial % 3]
            n = int(rng.integers(2 * p, 9))
            w = random_two_form(rng, n)
            vectors = rng.standard_normal((2 * p, n))
            got = eval_power(PowerForm(w, p), Frame(vectors))
            expected = wedge_power_value(w.entries, vectors, p)
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_rejects_wrong_frame_length(self):
        p = PowerForm(TwoForm.standard_symplectic(4), 2)
        with pytest.raises(ValueError, match="exactly 4"):
            eval_power(p, Frame(np.eye(4)[:2]))

    def test_rejects_excessive_degree(self):
        with pytest.raises(ValueError, match="degree"):
            PowerForm(TwoForm.standard_symplectic(4), 3)


class TestComassExact:
    def test_standard(self):
        g = MetricTensor.identity(4)
        est = comass_exact(g, TwoForm.standard_symplectic(4))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.mode == "exact"

    def test_scaled(self):
        g = MetricTensor.identity(2)
        est = comass_exact(g, TwoForm.from_pairs(2, {(0, 1): 2.0}))
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_zero_form(self):
        est = comass_exact(MetricTensor.identity(4), TwoForm.zero(4))
        assert est.value == 0.0
        assert len(est.maximizer) == 0

    def test_maximizer_attains_value(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 6
            g = random_pd_metric(rng, n)
            w = random_two_form(rng, n)
            est = comass_exact(g, w)
            v, u = est.maximizer[0], est.maximizer[1]
            assert eval_two_form(w, v, u) == pytest.approx(est.value, rel=1e-10)


def normal_form(rng, n: int, mu) -> tuple[MetricTensor, TwoForm]:
    """(g, omega) with pair values ``mu`` on a random g-orthonormal frame."""
    g = random_pd_metric(rng, n)
    z, _ = np.linalg.qr(rng.standard_normal((n, n)))
    frame = np.linalg.solve(np.linalg.cholesky(g.entries).T, z).T
    w = np.zeros((n, n))
    for i, value in enumerate(mu):
        w += value * dual_wedge(g, frame[2 * i], frame[2 * i + 1])
    return g, TwoForm(w)


class TestComassExactPower:
    @pytest.mark.parametrize("n", [6, 8, 16])
    def test_product_of_top_pair_values(self, n):
        rng = np.random.default_rng(n)
        mu = np.sort(rng.uniform(0.1, 1.0, n // 2))[::-1]
        g, w = normal_form(rng, n, mu)
        for p in range(1, n // 2 + 1):
            power = PowerForm(w, p)
            est = comass_exact(g, power)
            assert est.mode == "exact"
            assert est.value == pytest.approx(float(np.prod(mu[:p])), rel=1e-10)
            gram = est.maximizer.vectors @ g.entries @ est.maximizer.vectors.T
            assert np.abs(gram - np.eye(2 * p)).max() <= 1e-10
            assert eval_power(power, est.maximizer) == pytest.approx(est.value, rel=1e-10)

    def test_rank_below_2p_is_zero(self):
        w = TwoForm.from_pairs(8, {(0, 1): 1.0, (2, 3): 0.5})
        assert comass_exact(MetricTensor.identity(8), PowerForm(w, 2)).value == 0.5
        for p in (3, 4):
            est = comass_exact(MetricTensor.identity(8), PowerForm(w, p))
            assert est.value == 0.0
            assert len(est.maximizer) == 0

    def test_rank_below_2p_in_a_random_frame_is_rounding(self):
        # the SVD gives the kernel's pair values at rounding size, never more
        rng = np.random.default_rng(3)
        g, w = normal_form(rng, 8, (1.0, 0.5))
        assert comass_exact(g, PowerForm(w, 2)).value == pytest.approx(0.5, rel=1e-10)
        for p in (3, 4):
            assert comass_exact(g, PowerForm(w, p)).value <= 1e-14

    def test_pair_below_kernel_threshold_counts(self):
        # lambda = 1e-10 sits below the default kernel threshold (1e-8 relative),
        # so paired_spectrum files it as kernel; the power comass still sees it
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 1e-5})
        assert paired_spectrum(associated_endomorphism(g, w), g).npairs == 1
        est = comass_exact(g, PowerForm(w, 2))
        assert est.value == pytest.approx(1e-5, rel=1e-12)
        sampled = comass_bruteforce(g, PowerForm(w, 2), samples=2_000, restarts=3, seed=0)
        assert sampled.value <= est.value * (1 + 1e-9)

    @pytest.mark.parametrize("kernel", [False, True])
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
    def test_exact_powers_match_the_paired_spectrum(self, cond, kernel):
        # the whitened form's singular values give the pair values of the paired spectrum
        rng = np.random.default_rng(int(cond))
        for sep in (1e-9, 1e-6, 1e-3):
            g, w = near_double_form(rng, cond, sep, kernel=kernel)
            a = associated_endomorphism(g, w).matrix
            _, values, npairs = (x[0] for x in comass_module._paired_stack(a[None], g.entries[None], 0.0))
            top = np.sqrt(values[: 2 * npairs : 2])
            exact = comass_module._exact_powers(g.entries[None], w.entries[None], (1, 2, 3, 4))
            for p, value in exact.items():
                expected = np.prod(top[:p]) if npairs >= p else 0.0
                assert value[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_first_power_is_the_two_form(self):
        rng = np.random.default_rng(9)
        for n in (4, 7, 10):
            g = random_pd_metric(rng, n)
            w = random_two_form(rng, n)
            a, b = comass_exact(g, w), comass_exact(g, PowerForm(w, 1))
            assert a.value == b.value
            np.testing.assert_array_equal(a.maximizer.vectors, b.maximizer.vectors)

    def test_sampled_stays_below(self):
        rng = np.random.default_rng(12)
        g, w = normal_form(rng, 6, (1.0, 0.8, 0.3))
        for p in (2, 3):
            exact = comass_exact(g, PowerForm(w, p)).value
            sampled = comass_bruteforce(g, PowerForm(w, p), samples=5_000, restarts=5, seed=p)
            assert exact * (1 - 1e-6) <= sampled.value <= exact * (1 + 1e-9)


class TestComassBruteforce:
    def test_standard_reaches_one(self):
        g = MetricTensor.identity(4)
        est = comass_bruteforce(g, TwoForm.standard_symplectic(4), samples=20_000, restarts=10, seed=0)
        assert 1 - 1e-3 <= est.value <= 1 + 1e-9
        assert est.mode == "sampled"

    def test_power_form_unique_plane(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        est = comass_bruteforce(g, PowerForm(w, 2), samples=5_000, restarts=5, seed=0)
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_scaled_two_form(self):
        g = MetricTensor.identity(2)
        est = comass_bruteforce(g, TwoForm.from_pairs(2, {(0, 1): 2.0}), samples=2_000, restarts=5, seed=0)
        assert est.value == pytest.approx(2.0, abs=1e-9)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = 6
            g = random_pd_metric(rng, n)
            w = random_two_form(rng, n)
            exact = comass_exact(g, w).value
            sampled = comass_bruteforce(g, w, samples=10_000, restarts=10, seed=trial)
            assert sampled.value <= exact * (1 + 1e-9)
            assert sampled.value >= exact * 0.99

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        g = random_pd_metric(rng, 6)
        w = random_two_form(rng, 6)
        a = comass_bruteforce(g, w, samples=5_000, restarts=5, seed=123)
        b = comass_bruteforce(g, w, samples=5_000, restarts=5, seed=123)
        assert a.value == b.value
        np.testing.assert_array_equal(a.maximizer.vectors, b.maximizer.vectors)

    def test_maximizer_is_orthonormal_and_attains(self):
        rng = np.random.default_rng(7)
        g = random_pd_metric(rng, 5)
        w = random_two_form(rng, 5)
        est = comass_bruteforce(g, w, samples=5_000, restarts=5, seed=0)
        f = est.maximizer
        gram = f.vectors @ g.entries @ f.vectors.T
        assert np.abs(gram - np.eye(2)).max() <= 1e-10
        assert eval_two_form(w, f[0], f[1]) == pytest.approx(est.value, rel=1e-12)

    def test_zero_form(self):
        est = comass_bruteforce(MetricTensor.identity(4), TwoForm.zero(4), samples=100, restarts=2, seed=0)
        assert est.value == 0.0

    @pytest.mark.parametrize("samples, restarts, message", [
        (0, 2, "samples must be >= 1"),
        (50, -3, "restarts must be >= 0"),
    ])
    def test_sample_and_restart_counts_validated(self, samples, restarts, message):
        # a negative count would skip the polish and report one restart
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        with pytest.raises(ValueError, match=message):
            comass_bruteforce(MetricTensor.identity(4), w, samples=samples, restarts=restarts, seed=0)

    def test_top_power_at_n16_returns(self):
        # a 16-frame spans all of R^16, so every g-orthonormal frame gives
        # |Pf| = prod(mu); before the elimination this call never finished
        rng = np.random.default_rng(16)
        g = random_pd_metric(rng, 16)
        w = random_two_form(rng, 16)
        mu = np.sqrt(paired_spectrum(associated_endomorphism(g, w), g).eigenvalues)
        est = comass_bruteforce(g, PowerForm(w, 8), samples=200, restarts=1, seed=0)
        assert est.value == pytest.approx(float(np.prod(mu)), rel=1e-9)


class TestSamplingAndRanking:
    """The frame sampler's chunking and the |Pf| ranking of the sampled oracle."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("chunk", [1000, 4096, 25_000])
    def test_chunk_size_does_not_change_the_estimate(self, monkeypatch, chunk, p):
        rng = np.random.default_rng(29)
        g, w = random_pd_metric(rng, 8), PowerForm(random_two_form(rng, 8), p)
        reference = comass_bruteforce(g, w, samples=20_000, restarts=10, seed=4)
        monkeypatch.setattr(comass_module, "_CHUNK", chunk)
        est = comass_bruteforce(g, w, samples=20_000, restarts=10, seed=4)
        assert est.value == reference.value
        np.testing.assert_array_equal(est.maximizer.vectors, reference.maximizer.vectors)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
    def test_ranked_value_is_the_pf_of_the_orthonormalized_draw(self, k):
        # k = 10 takes the Parlett-Reid branch of the Pfaffian
        rng = np.random.default_rng(k)
        g, w = random_pd_metric(rng, 12), random_two_form(rng, 12)
        X, values = comass_module._ranked_draws(rng, g.entries, w.entries, k, 500)
        assert X.shape == (k, 500, 12) and np.isfinite(values).all()
        frames, _ = comass_module._gram_schmidt_stack(g.entries, X.copy())
        rows = frames.transpose(1, 0, 2)  # frame-major view (count, k, n)
        assert np.abs(rows @ g.entries @ rows.transpose(0, 2, 1) - np.eye(k)).max() <= 1e-12
        gram = rows @ w.entries @ rows.transpose(0, 2, 1)
        reference = np.abs(comass_module._pf_batch(gram))
        assert np.abs(values - reference).max() <= 1e-12 * reference.max()
        assert np.abs(values - np.sqrt(np.maximum(np.linalg.det(gram), 0.0))).max() <= 1e-12 * reference.max()

    @pytest.mark.parametrize("k", [2, 8])
    def test_repeated_vector_is_an_invalid_draw(self, k):
        # at k = n = 8 a repeated vector leaves X G X^T singular, yet nothing raises or warns
        rng = np.random.default_rng(k)
        g, w = random_pd_metric(rng, 8), random_two_form(rng, 8)

        class Repeated:
            """Normals of which every draw's last vector repeats its first."""

            @staticmethod
            def standard_normal(shape):
                draws = rng.standard_normal(shape)
                draws[:, -1] = draws[:, 0]
                return draws

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, values = comass_module._ranked_draws(Repeated(), g.entries, w.entries, k, 300)
        assert (values == -np.inf).all()
        np.testing.assert_array_equal(X[-1], X[0])


class TestTestCalibrated:
    def test_calibrated_plane(self):
        g = MetricTensor.identity(4)
        w = TwoForm.standard_symplectic(4)
        verdict = check_calibrated(g, w, Frame(np.array([E4[0], E4[1]])))
        assert verdict.calibrated and verdict.ratio == pytest.approx(1.0, abs=1e-12)

    def test_null_plane(self):
        g = MetricTensor.identity(4)
        w = TwoForm.standard_symplectic(4)
        verdict = check_calibrated(g, w, Frame(np.array([E4[0], E4[2]])))
        assert not verdict.calibrated and verdict.ratio == pytest.approx(0.0, abs=1e-12)

    def test_mixed_plane(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        f = Frame(np.array([(E4[0] + E4[2]) / np.sqrt(2), (E4[1] + E4[3]) / np.sqrt(2)]))
        verdict = check_calibrated(g, w, f)
        assert verdict.ratio == pytest.approx(0.75, abs=1e-12)
        assert not verdict.calibrated

    def test_orientation_reversal_negates(self):
        rng = np.random.default_rng(8)
        g = random_pd_metric(rng, 5)
        w = random_two_form(rng, 5)
        vecs = rng.standard_normal((2, 5))
        r1 = check_calibrated(g, w, Frame(vecs)).ratio
        r2 = check_calibrated(g, w, Frame(vecs[::-1])).ratio
        assert r1 == pytest.approx(-r2, abs=1e-12)

    def test_invariant_under_oriented_reframing(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_pd_metric(rng, 5)
            w = random_two_form(rng, 5)
            vecs = rng.standard_normal((2, 5))
            # an orientation-preserving change of basis of the same plane
            a, b, c, d = rng.uniform(-2, 2, 4)
            if a * d - b * c < 0:
                a, b = b, a
                c, d = d, c
            other = np.array([a * vecs[0] + b * vecs[1], c * vecs[0] + d * vecs[1]])
            r1 = check_calibrated(g, w, Frame(vecs)).ratio
            r2 = check_calibrated(g, w, Frame(other)).ratio
            assert abs(r1 - r2) <= 1e-10 * max(1.0, abs(r1))

    def test_degenerate_frame_rejected(self):
        g = MetricTensor.identity(4)
        w = TwoForm.standard_symplectic(4)
        with pytest.raises(RankDeficiencyError):
            check_calibrated(g, w, Frame(np.array([E4[0], 2 * E4[0]])))


class TestCalibratedEigenspace:
    def test_full_space(self):
        pc = construct_point(MetricTensor.identity(4), TwoForm.standard_symplectic(4))
        assert len(calibrated_eigenspace(pc)) == 4

    def test_partial(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        frame = calibrated_eigenspace(construct_point(g, w))
        assert len(frame) == 2
        assert np.abs(frame.vectors[:, 2:]).max() <= 1e-12

    def test_empty_when_below_one(self):
        g = MetricTensor.identity(4)
        w = TwoForm.from_pairs(4, {(0, 1): 0.5})
        assert len(calibrated_eigenspace(construct_point(g, w))) == 0

    def test_planes_inside_are_calibrated(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_pd_metric(rng, 6)
            w, _ = planted_form(rng, g, blocks=2)
            pc = construct_point(g, w)
            frame = calibrated_eigenspace(pc)
            assert len(frame) >= 4
            # A-invariant planes (v, Av) inside the eigenspace are calibrated
            coeff = rng.standard_normal(len(frame))
            v = coeff @ frame.vectors
            av = associated_endomorphism(g, w).matrix @ v
            verdict = check_calibrated(g, w, Frame(np.array([v, av])))
            assert verdict.calibrated


class TestSampledVersusExactInvariant:
    def test_sampled_below_exact_bound(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = 8
            g = random_pd_metric(rng, n)
            w = unit_comass_form(g, random_two_form(rng, n))
            est = comass_bruteforce(g, w, samples=20_000, restarts=10, seed=trial)
            assert est.value <= 1 + 1e-9


# comass_bruteforce values recorded before the search switched to |Pf| =
# sqrt(det) ranking and the active-only ascent: n = 8, one planted unit block
# (pair values 1, 0.5, 0.132..., 0.0172...), 20 000 samples (FieldConfig's
# default when they were recorded) and FieldConfig's default restarts.
# Keyed by (p, seed).
GOLDEN_SAMPLED = {
    (1, 0): 0.9999999999993229,
    (1, 1): 0.9999999999992617,
    (1, 2): 0.9999999999990582,
    (2, 0): 0.4999999999995406,
    (2, 1): 0.4999999999993292,
    (2, 2): 0.49999999999942946,
    (3, 0): 0.06605609012403173,
    (3, 1): 0.0660560901240358,
    (3, 2): 0.06605609012405268,
}


class TestSampledGolden:
    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(2024)
        g = random_pd_metric(rng, 8)
        w, _ = planted_form(rng, g, blocks=1)
        mu = np.sqrt(paired_spectrum(associated_endomorphism(g, w), g).eigenvalues)
        return g, w, mu

    @pytest.mark.parametrize("p, seed", sorted(GOLDEN_SAMPLED))
    def test_matches_recorded_value(self, case, p, seed):
        g, w, mu = case
        config = FieldConfig()
        est = comass_bruteforce(g, PowerForm(w, p), samples=20_000,
                                restarts=config.restarts, seed=seed)
        recorded = GOLDEN_SAMPLED[(p, seed)]
        exact = float(np.prod(mu[:p]))
        # same value, or a better lower bound that still respects the exact one
        assert abs(est.value - recorded) <= 1e-12 or recorded < est.value <= exact * (1 + 1e-9)


class TestMetricScale:
    """The sampled oracle judges degenerate draws on the metric's own scale."""

    @staticmethod
    def scaled(scale):
        g, w = normal_form(np.random.default_rng(17), 8, (1.0, 0.5, 0.3))
        return MetricTensor(scale * g.entries), TwoForm(scale * w.entries)

    @pytest.mark.parametrize("scale", [1e-26, 1.0, 1e26])
    def test_sampled_reaches_exact(self, scale):
        g, w = self.scaled(scale)
        pc = construct_point(g, w)
        for metric, form in ((g, w), (pc.g_j, pc.omega_total)):
            exact = comass_exact(metric, form).value
            sampled = comass_bruteforce(metric, form, samples=20_000, restarts=10, seed=0)
            assert exact * (1 - 1e-6) <= sampled.value <= exact * (1 + 1e-9)

    def test_fallback_frame_is_orthonormal(self, monkeypatch):
        # with every draw rejected the polish starts from the g-orthonormalized
        # coordinate frame, which it can still ascend from
        draw, calls = comass_module._ranked_draws, []

        def rejected(rng, G, w, k, count):
            calls.append(count)
            return draw(rng, G, w, k, count)[0], np.full(count, -np.inf)

        monkeypatch.setattr(comass_module, "_ranked_draws", rejected)
        g, w = self.scaled(1e-26)
        exact = comass_exact(g, w).value
        sampled = comass_bruteforce(g, w, samples=100, restarts=1, seed=0)
        assert calls == [100]
        assert exact * (1 - 1e-6) <= sampled.value <= exact * (1 + 1e-9)


class TestAscentCap:
    def test_cap_is_flagged_and_logged(self, monkeypatch, caplog):
        # at k = n the polish is exact in one step, so the cap needs k < n
        monkeypatch.setattr(comass_module, "_POLISH_MAX_ITER", 5)
        g, w = normal_form(np.random.default_rng(13), 8, (1.0, 0.8, 0.5, 0.3))
        with caplog.at_level(logging.WARNING, logger="semicalib"):
            est = comass_bruteforce(g, PowerForm(w, 2), samples=500, restarts=3, seed=0)
        assert est.ascent_capped
        assert est.ascent_iterations == 5
        assert [r.levelno for r in caplog.records if r.name == "semicalib"] == [logging.WARNING]
        assert "cap" in caplog.records[0].getMessage()

    def test_converged_ascent_is_not_flagged(self, caplog):
        w = TwoForm.from_pairs(4, {(0, 1): 1.0, (2, 3): 0.5})
        with caplog.at_level(logging.WARNING, logger="semicalib"):
            est = comass_bruteforce(MetricTensor.identity(4), PowerForm(w, 2),
                                    samples=500, restarts=3, seed=0)
        assert not est.ascent_capped
        assert 0 < est.ascent_iterations < comass_module._POLISH_MAX_ITER
        assert not caplog.records

    def test_no_ascent_without_restarts(self):
        est = comass_bruteforce(MetricTensor.identity(4), TwoForm.standard_symplectic(4),
                                samples=100, restarts=0, seed=0)
        assert est.ascent_iterations == 0 and not est.ascent_capped


class TestStackedOracle:
    """The stacked oracle gives every point of a stack what comass_bruteforce gives it alone."""

    @staticmethod
    def assert_alone(points, p, restarts):
        seeds = [np.random.SeedSequence(7, spawn_key=(i,)) for i in range(len(points))]
        g = np.array([metric.entries for metric, _ in points])
        w = np.array([form.entries for _, form in points])
        stacked = comass_module._sampled_stack(g, w, p, 256, restarts, seeds)
        assert all(len(column) == len(points) for column in stacked)
        for (metric, form), seed, *row in zip(points, seeds, *stacked):
            value, frame, used, iterations, capped = row
            alone = comass_bruteforce(metric, PowerForm(form, p), samples=256, restarts=restarts, seed=seed)
            assert float(value).hex() == alone.value.hex()
            assert frame.tobytes() == alone.maximizer.vectors.tobytes()
            assert (int(iterations), bool(capped), int(used)) == (
                alone.ascent_iterations, alone.ascent_capped, alone.restarts)
        return dict(zip(("value", "frame", "restarts", "iterations", "capped"), stacked))

    @staticmethod
    def points(count):
        rng = np.random.default_rng(count)
        points = [(random_pd_metric(rng, 8), random_two_form(rng, 8)) for _ in range(count)]
        points[1] = (points[1][0], TwoForm.zero(8))
        return points

    @pytest.mark.parametrize("count", [3, 64])
    @pytest.mark.parametrize("restarts", [0, 10])
    def test_bit_identical_to_a_stack_of_one(self, count, restarts):
        stacked = self.assert_alone(self.points(count), 1, restarts)
        assert stacked["value"][1] == 0.0 and stacked["iterations"][1] == 0
        assert all(stacked["iterations"][2:] > 0) == (restarts > 0)

    def test_powers_bit_identical_to_a_stack_of_one(self):
        self.assert_alone(self.points(3), 3, 10)

    def test_one_capped_point(self, monkeypatch, caplog):
        monkeypatch.setattr(comass_module, "_POLISH_MAX_ITER", 50)
        points = [
            (MetricTensor.identity(8), TwoForm.standard_symplectic(8)),
            normal_form(np.random.default_rng(13), 8, (1.0, 0.8, 0.5, 0.3)),
            (MetricTensor.identity(8), TwoForm.zero(8)),
        ]
        with caplog.at_level(logging.WARNING, logger="semicalib"):
            stacked = self.assert_alone(points, 2, 10)
        assert stacked["capped"].tolist() == [False, True, False]
        assert 0 < stacked["iterations"][0] < 50 == stacked["iterations"][1]
        assert stacked["iterations"][2] == 0
        # one warning from the stack, one from the capped point's stack of one
        assert len([r for r in caplog.records if "cap" in r.getMessage()]) == 2

    def test_two_capped_points_one_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(comass_module, "_POLISH_MAX_ITER", 50)
        points = [normal_form(np.random.default_rng(13), 8, (1.0, 0.8, 0.5, 0.3))] * 2
        g = np.array([metric.entries for metric, _ in points])
        w = np.array([form.entries for _, form in points])
        seeds = [np.random.SeedSequence(7, spawn_key=(i,)) for i in range(2)]
        with caplog.at_level(logging.WARNING, logger="semicalib"):
            capped = comass_module._sampled_stack(g, w, 2, 256, 10, seeds)[4]
        assert capped.tolist() == [True, True]
        messages = [r.getMessage() for r in caplog.records if r.name == "semicalib"]
        assert len(messages) == 1 and "cap at 2 point(s)" in messages[0]


class TestClosedForms:
    """The polish's 2x2 solve and polar factor agree with LAPACK's on stacks of 2-frames in R^n."""

    @staticmethod
    def frames(seed, c, n):
        rng = np.random.default_rng(seed)
        return rng, np.linalg.qr(rng.standard_normal((c, n, 2)))[0].mT

    # the two shifts the polish runs with: comass's default and verify's
    @pytest.mark.parametrize("shift", [comass_module._POLISH_SHIFT, _VERIFY_POLISH_SHIFT])
    @given(c=st.integers(1, 64), n=st.integers(4, 16), seed=st.integers(0, 2**32 - 1))
    def test_polar_factor(self, shift, c, n, seed):
        rng, Y = self.frames(seed, c, n)
        z = rng.standard_normal((c, 2, n))
        E = Y + z - (z @ Y.mT) @ Y  # E Y^T = I, as for the polish's log-gradient
        B = E + shift * Y
        polar = comass_module._frame_polar(B)
        u, _, vt = np.linalg.svd(B, full_matrices=False)
        assert np.abs(polar - u @ vt).max() <= 1e-14
        # an entry of P P^T is an n-term dot product; LAPACK's factor reads up to 2.5 n eps here
        assert np.abs(polar @ polar.mT - np.eye(2)).max() <= 4 * n * EPS
        # B Y^T = (1 + s) I keeps B B^T away from singular: no rank guard is needed
        assert np.linalg.eigvalsh(B @ B.mT)[:, 0].min() >= (1 + shift) ** 2 * (1 - 1e-12)

    @given(c=st.integers(1, 64), n=st.integers(4, 16), seed=st.integers(0, 2**32 - 1))
    def test_solve(self, c, n, seed):
        rng, Y = self.frames(seed, c, n)
        x = rng.standard_normal((c, n, n))
        YW = Y @ (x - x.mT)
        solved = comass_module._solve(YW @ Y.mT, YW)
        lapack = np.linalg.solve(YW @ Y.mT, YW)
        size = np.linalg.norm(lapack, axis=(1, 2))
        assert (np.linalg.norm(solved - lapack, axis=(1, 2)) <= 1e-14 * size).all()


def verify_run(G, W, shift=_VERIFY_POLISH_SHIFT):
    """verify_field's sampled run on the one point (G, W): (value, polish steps, capped)."""
    config = FieldConfig()
    seeds = [np.random.SeedSequence(0, spawn_key=(0, 0))]
    value, _, _, steps, capped = comass_module._sampled_stack(G[None], W[None], 1, config.samples,
                                                              config.restarts, seeds, shift)
    return float(value[0]), int(steps[0]), bool(capped[0])


class TestVerifyRunStopsAtItsFloor:
    """verify's run on (g_J, Omega) at cond(g) = 1e8 stops at its gradient's
    rounding floor within a few steps instead of running to the step cap."""

    @pytest.mark.parametrize("kernel", [False, True])
    @pytest.mark.parametrize("sep", [1e-9, 1e-6, 1e-3])
    def test_not_capped(self, sep, kernel):
        # with the old absolute 1e-10 stop rule every one of these ran to the cap;
        # on the near-double grid (cond 1e2 to 1e8) verify's run takes at most 10 steps
        g, w = near_double_form(np.random.default_rng(0), 1e8, sep, kernel=kernel)
        pc = construct_point(g, w)
        value, steps, capped = verify_run(pc.g_j.entries, pc.omega_total.entries)
        assert not capped and steps <= 12
        assert 1 - 1e-6 <= value <= 1 + 1e-9


class TestVerifyShift:
    """On an exact calibration, every pair value 1, the polish's error factor
    (s - 1)/(s + 1) is 0 at verify's shift 1 and -1/3 at the default 0.5."""

    @staticmethod
    def calibration(case):
        if case == "standard":
            return np.eye(8), TwoForm.standard_symplectic(8).entries
        rng = np.random.default_rng(3)
        g = random_pd_metric(rng, 8)
        pc = construct_point(g, unit_comass_form(g, random_two_form(rng, 8)))
        return pc.g_j.entries, pc.omega_total.entries

    @pytest.mark.parametrize("case", ["standard", "construct_point"])
    def test_shift_one_stops_within_five_steps(self, case):
        G, W = self.calibration(case)
        fast = verify_run(G, W)
        slow = verify_run(G, W, comass_module._POLISH_SHIFT)
        assert fast[1] <= 5 and slow[1] >= 15
        for value, _, capped in (fast, slow):
            assert not capped and 1 - 1e-12 <= value <= 1 + 1e-9


class TestNearDoublePolish:
    """Pair values (1, 1 - sep, 0.5, 0.5 (1 - sep)) at cond(g) 1e2 and 1e4.

    The maximizer is nearly degenerate, so the polish may stop at its cap;
    the value must still come within 2 sep of the exact comass and stay
    below it.
    """

    @pytest.mark.parametrize("cond", [1e2, 1e4])
    @pytest.mark.parametrize("sep", [1e-9, 1e-6, 1e-3])
    def test_within_two_sep_of_exact(self, cond, sep):
        g, w = near_double_form(np.random.default_rng(0), cond, sep)
        for p in (1, 2, 3):
            exact = comass_exact(g, PowerForm(w, p)).value
            sampled = comass_bruteforce(g, PowerForm(w, p), samples=2_000, restarts=5, seed=0).value
            assert exact * (1 - 2 * sep) <= sampled <= exact * (1 + 1e-9)

    def test_zero_and_rank_deficient_forms_are_not_polished(self):
        # a singular Gram matrix has no gradient to follow; the polish skips it
        g = MetricTensor.identity(8)
        zero = comass_bruteforce(g, PowerForm(TwoForm.zero(8), 2), samples=100, restarts=3, seed=0)
        assert zero.value == 0.0 and zero.ascent_iterations == 0
        w = TwoForm.from_pairs(8, {(0, 1): 1.0, (2, 3): 0.5})
        low = comass_bruteforce(g, PowerForm(w, 3), samples=100, restarts=3, seed=0)
        assert abs(low.value) <= 1e-14 and low.ascent_iterations == 0
