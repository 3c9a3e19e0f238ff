"""Tests for comass computation, power forms, and plane testing."""

import logging

import numpy as np
import pytest
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
        # the kernel's Schur blocks carry rounding-sized values, never more
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
    def test_abs_values_is_sqrt_det_of_the_gram_matrix(self, k):
        # k = 10 takes the Parlett-Reid branch of the Pfaffian
        rng = np.random.default_rng(k)
        g, w = random_pd_metric(rng, 12), random_two_form(rng, 12)
        frames, valid = comass_module._orthonormal_frames(rng, g.entries, k, 500)
        assert valid.all()
        rows = frames.transpose(1, 0, 2)  # frame-major view (count, k, n)
        assert np.abs(rows @ g.entries @ rows.transpose(0, 2, 1) - np.eye(k)).max() <= 1e-12
        gram = rows @ w.entries @ rows.transpose(0, 2, 1)
        reference = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
        values = comass_module._abs_values(w.entries, frames)
        assert np.abs(values - reference).max() <= 1e-12 * reference.max()


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
        draw = comass_module._orthonormal_frames

        def rejected(rng, G, k, count):
            frames, _ = draw(rng, G, k, count)
            return frames, np.zeros(count, dtype=bool)

        monkeypatch.setattr(comass_module, "_orthonormal_frames", rejected)
        g, w = self.scaled(1e-26)
        exact = comass_exact(g, w).value
        sampled = comass_bruteforce(g, w, samples=100, restarts=1, seed=0)
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
        assert len(stacked) == len(points)
        for (metric, form), seed, est in zip(points, seeds, stacked):
            alone = comass_bruteforce(metric, PowerForm(form, p), samples=256, restarts=restarts, seed=seed)
            assert est.value.hex() == alone.value.hex()
            assert est.maximizer.vectors.tobytes() == alone.maximizer.vectors.tobytes()
            assert (est.ascent_iterations, est.ascent_capped, est.restarts, est.samples) == (
                alone.ascent_iterations, alone.ascent_capped, alone.restarts, alone.samples)
        return stacked

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
        assert stacked[1].value == 0.0 and stacked[1].ascent_iterations == 0
        assert all(est.ascent_iterations > 0 for est in stacked[2:]) == (restarts > 0)

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
        assert [est.ascent_capped for est in stacked] == [False, True, False]
        assert 0 < stacked[0].ascent_iterations < 50 == stacked[1].ascent_iterations
        assert stacked[2].ascent_iterations == 0
        # one warning from the stack, one from the capped point's stack of one
        assert len([r for r in caplog.records if "cap" in r.getMessage()]) == 2


class TestVerifyRunStopsAtItsFloor:
    """verify's run on (g_J, Omega) at cond(g) = 1e8 stops at its gradient's
    rounding floor instead of running to the step cap."""

    @pytest.mark.parametrize("kernel", [False, True])
    @pytest.mark.parametrize("sep", [1e-9, 1e-6, 1e-3])
    def test_not_capped(self, sep, kernel):
        # with the old absolute 1e-10 stop rule every one of these ran to the cap
        g, w = near_double_form(np.random.default_rng(0), 1e8, sep, kernel=kernel)
        pc = construct_point(g, w)
        config = FieldConfig()
        est = comass_bruteforce(pc.g_j, pc.omega_total, samples=config.samples, restarts=config.restarts,
                                seed=np.random.SeedSequence(0, spawn_key=(0, 0)))
        assert not est.ascent_capped and est.ascent_iterations < 100
        assert 1 - 1e-6 <= est.value <= 1 + 1e-9


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
