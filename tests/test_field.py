"""Tests for CALFIELD parsing, field processing, and verification."""

import dataclasses

import numpy as np
import pytest

import semicalib.comass
import semicalib.construction
import semicalib.field
from semicalib import (
    EpsilonInferenceError,
    FieldConfig,
    ParseError,
    TwoForm,
    build_report,
    demo_calfield,
    parse_calfield,
    process_field,
    verify_field,
)
from semicalib.field import _verify_point
from semicalib.jsonio import dumps
from semicalib.spectral import associated_endomorphism, paired_spectrum
from helpers import (
    constant_field_text,
    dual_wedge,
    planted_form,
    ramp_field_text,
    random_pd_metric,
    rotating_plane_field_text,
)

MINIMAL = """CALFIELD 1
DIM 4
POINTS 1
P 0
X 0 0 0 0
G 1 0 0 0 1 0 0 1 0 1
W 1 0 0 0 0 1
"""

FAST = FieldConfig(samples=2_000, restarts=3)


def jumps(cf, matrix):
    """Frobenius norms of the change of ``matrix(construction)`` between consecutive included points."""
    built = [o.construction for o in cf.outcomes if o.construction is not None]
    return [float(np.linalg.norm(matrix(b) - matrix(a))) for a, b in zip(built, built[1:])]


def frames(pc):
    return pc.frame[2 * pc.m :]


def omegas(pc):
    return pc.omega_total.entries


class TestParser:
    def test_minimal_valid(self):
        grid = parse_calfield(MINIMAL)
        assert grid.dim == 4 and len(grid.points) == 1
        np.testing.assert_array_equal(grid.points[0].g.entries, np.eye(4))
        assert grid.points[0].omega.entries[0, 1] == 1.0
        assert grid.points[0].omega.entries[2, 3] == 1.0

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\nCALFIELD 1  # trailing\nDIM 4\nPOINTS 1\nP 0\nX 0 0 0 0\nG 1 0 0 0 1 0 0 1 0 1\nW 1 0 0 0 0 1\n"
        assert len(parse_calfield(text).points) == 1

    def test_point_count_mismatch(self):
        text = MINIMAL.replace("POINTS 1", "POINTS 2")
        with pytest.raises(ParseError, match="point count mismatch"):
            parse_calfield(text)

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="point count mismatch"):
            parse_calfield(MINIMAL + "P 1\n")

    def test_non_pd_metric_reports_point(self):
        text = MINIMAL.replace("G 1 0 0 0 1 0 0 1 0 1", "G -1 0 0 0 1 0 0 1 0 1")
        with pytest.raises(ParseError, match="positive definite at point 0"):
            parse_calfield(text)

    def test_non_finite_number(self):
        text = MINIMAL.replace("W 1 0 0 0 0 1", "W inf 0 0 0 0 1")
        with pytest.raises(ParseError, match="non-finite"):
            parse_calfield(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="CALFIELD"):
            parse_calfield("NOTAFIELD 1\n")

    def test_bad_version(self):
        with pytest.raises(ParseError, match="version"):
            parse_calfield(MINIMAL.replace("CALFIELD 1", "CALFIELD 2"))

    def test_wrong_coefficient_count(self):
        with pytest.raises(ParseError, match="expected 10 metric"):
            parse_calfield(MINIMAL.replace("G 1 0 0 0 1 0 0 1 0 1", "G 1 0 0"))

    def test_wrong_index(self):
        with pytest.raises(ParseError, match="point index"):
            parse_calfield(MINIMAL.replace("P 0", "P 3"))

    def test_dim_bounds(self):
        with pytest.raises(ParseError, match=r"\[2, 16\]"):
            parse_calfield("CALFIELD 1\nDIM 17\nPOINTS 1\n")

    def test_error_carries_line_number(self):
        text = MINIMAL.replace("W 1 0 0 0 0 1", "W 1 0 junk 0 0 1")
        with pytest.raises(ParseError, match=r"line 7"):
            parse_calfield(text)


class TestProcessField:
    def test_constant_field_identical_points(self):
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 1", 9))
        cf = process_field(grid)
        assert cf.epsilon == pytest.approx(1.0, abs=1e-12)
        assert all(o.gap_ok for o in cf.outcomes)
        assert all(v == 0.0 for v in jumps(cf, frames))
        first = cf.outcomes[0].construction
        for o in cf.outcomes[1:]:
            np.testing.assert_array_equal(o.construction.j.matrix, first.j.matrix)

    def test_ramp_all_gap_ok(self):
        grid = parse_calfield(ramp_field_text(np.linspace(0.6, 1.0, 5)))
        cf = process_field(grid)
        assert cf.epsilon == pytest.approx(0.36, abs=1e-12)
        assert all(o.gap_ok for o in cf.outcomes)
        for o, s in zip(cf.outcomes, np.linspace(0.6, 1.0, 5)):
            np.testing.assert_allclose(
                o.construction.g_j.entries, np.diag([1, 1, s, s]), atol=1e-10
            )

    def test_ramp_gap_violations_flagged(self):
        svals = np.linspace(0.6, 0.1, 5)
        grid = parse_calfield(ramp_field_text(svals))
        cf = process_field(grid)
        expected_bad = {k for k, s in enumerate(svals) if 0.09 < s * s < 0.18}
        assert expected_bad == {o.index for o in cf.outcomes if not o.gap_ok}
        bad = next(o for o in cf.outcomes if not o.gap_ok)
        assert bad.offending_eigenvalues == pytest.approx((0.1225,), abs=1e-12)
        assert bad.construction is None

    def test_base_epsilon_inference_failure(self):
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "0 0 0 0 0 0", 2))
        with pytest.raises(EpsilonInferenceError, match="cannot infer epsilon"):
            process_field(grid)

    def test_one_spectrum_per_point(self, monkeypatch):
        calls = []
        for module in (semicalib.field, semicalib.construction):
            spectrum = module.paired_spectrum
            monkeypatch.setattr(module, "paired_spectrum",
                                lambda *a, _f=spectrum, **k: calls.append(1) or _f(*a, **k))
        process_field(parse_calfield(ramp_field_text(np.linspace(0.6, 1.0, 5))))
        assert len(calls) == 5  # the base point's epsilon comes from its own construction

    def test_base_gap_violation_keeps_inferred_epsilon(self):
        # base pair values (1, 3e-8, 0.9e-8) in lambda: the last pair is kernel
        # (<= 1e-8) but lies in the band (eps/4, eps/2) of eps = 3e-8
        upper = np.triu_indices(6, 1)
        g_text = " ".join(str(x) for x in np.eye(6)[np.triu_indices(6)])
        lines = ["CALFIELD 1", "DIM 6", "POINTS 2"]
        for k, lams in enumerate([(1.0, 3e-8, 0.9e-8), (1.0, 0.5, 0.3)]):
            w = np.zeros((6, 6))
            w[0, 1], w[2, 3], w[4, 5] = np.sqrt(lams)
            lines += [f"P {k}", "X " + " ".join(["0"] * 6), "G " + g_text,
                      "W " + " ".join(repr(float(x)) for x in w[upper])]
        cf = process_field(parse_calfield("\n".join(lines) + "\n"))
        assert not cf.outcomes[0].gap_ok
        assert cf.epsilon == pytest.approx(3e-8, rel=1e-6)
        assert cf.outcomes[1].gap_ok and cf.outcomes[1].construction.epsilon == cf.epsilon

    def test_fixed_epsilon_accepted(self):
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "0 0 0 0 0 0", 2))
        cf = process_field(grid, FieldConfig(epsilon=1.0))
        assert all(o.gap_ok for o in cf.outcomes)
        assert cf.outcomes[0].construction.m == 0

    def test_odd_dimension_lifted(self):
        grid = parse_calfield(constant_field_text(3, "1 0 0 1 0 1", "1 0 0", 3))
        cf = process_field(grid)
        assert cf.lifted_from == 3 and cf.dim == 4
        assert all(o.construction.dim == 4 for o in cf.outcomes)
        report = build_report(cf)
        assert "lifted from 3 to 4" in report["notes"]

    def test_exclusion_does_not_alter_other_points(self):
        svals = [0.6, 0.475, 0.35, 0.225, 0.1]
        full = process_field(parse_calfield(ramp_field_text(svals)))
        pruned_vals = [s for s in svals if not (0.09 < s * s < 0.18)]
        pruned = process_field(parse_calfield(ramp_field_text(pruned_vals)))
        kept = [o for o in full.outcomes if o.gap_ok]
        assert len(kept) == len(pruned.outcomes)
        for a, b in zip(kept, pruned.outcomes):
            np.testing.assert_array_equal(a.construction.j.matrix, b.construction.j.matrix)
            np.testing.assert_array_equal(a.construction.g_j.entries, b.construction.g_j.entries)

    def test_empty_grid_rejected(self):
        import semicalib

        with pytest.raises(ValueError, match="empty"):
            process_field(semicalib.FieldGrid(dim=4, points=()))


class TestFramePropagation:
    def test_hints_keep_frames_continuous(self):
        thetas = np.linspace(0.0, np.pi / 2, 9)
        grid = parse_calfield(rotating_plane_field_text(thetas))
        cf_on = process_field(grid, FieldConfig(use_hints=True))
        cf_off = process_field(grid, FieldConfig(use_hints=False))
        on_max = max(jumps(cf_on, frames))
        off_max = max(jumps(cf_off, frames))
        assert on_max < 0.3
        assert off_max > 1.0  # sign-fixed spectral frames flip along the path

    def test_flip_visible_in_field_differences(self):
        thetas = np.linspace(0.0, np.pi / 2, 9)
        grid = parse_calfield(rotating_plane_field_text(thetas))
        on = jumps(process_field(grid, FieldConfig(use_hints=True)), omegas)
        off = jumps(process_field(grid, FieldConfig(use_hints=False)), omegas)
        assert max(on) < 0.6
        assert max(off) > 2.0

    def test_hints_do_not_change_invariants(self):
        thetas = np.linspace(0.0, np.pi / 2, 5)
        grid = parse_calfield(rotating_plane_field_text(thetas))
        cfg_on = FieldConfig(samples=2_000, restarts=3, use_hints=True)
        cfg_off = FieldConfig(samples=2_000, restarts=3, use_hints=False)
        rep_on = verify_field(process_field(grid, cfg_on), grid, cfg_on)
        rep_off = verify_field(process_field(grid, cfg_off), grid, cfg_off)
        assert rep_on.passed and rep_off.passed
        for a, b in zip(rep_on.data["points"], rep_off.data["points"]):
            for key, chk in a["checks"].items():
                other = b["checks"][key]
                assert abs(chk["value"] - other["value"]) <= 1e-9


class TestFiniteDifferenceContinuity:
    def test_constant_field_zero(self):
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 1", 3))
        cf = process_field(grid)
        for matrix in (lambda pc: pc.j.matrix, lambda pc: pc.g_j.entries, omegas):
            assert jumps(cf, matrix) == [0.0, 0.0]

    def test_ramp_steps(self):
        svals = np.linspace(0.6, 1.0, 5)
        grid = parse_calfield(ramp_field_text(svals))
        cf = process_field(grid)
        # g_J = diag(1, 1, s, s) and Omega = dx1^dx2 + s dx3^dx4: step 0.1 on two entries
        expected = np.sqrt(2) * 0.1
        assert max(jumps(cf, lambda pc: pc.j.matrix)) <= 1e-12
        assert jumps(cf, lambda pc: pc.g_j.entries) == pytest.approx([expected] * 4, abs=1e-10)
        assert jumps(cf, omegas) == pytest.approx([expected] * 4, abs=1e-10)


class TestVerifyField:
    def test_constant_standard_passes(self):
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 1", 3))
        cf = process_field(grid, FAST)
        report = verify_field(cf, grid, FAST)
        assert report.passed
        assert report.data["summary"]["pass"] is True
        maxres = report.data["summary"]["max_residuals"]
        assert max(maxres[k] for k in ("j_squared", "compatibility", "j_invariance")) <= 1e-12

    def test_ramp_passes_with_expected_metrics(self):
        grid = parse_calfield(ramp_field_text(np.linspace(0.6, 1.0, 5)))
        cf = process_field(grid, FAST)
        report = verify_field(cf, grid, FAST)
        assert report.passed

    def test_adversarial_comass_flagged(self):
        # omega = 2 dx1^dx2 has comass 2: eigenvalue 4 must fail the bound
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "2 0 0 0 0 0", 2))
        cf = process_field(grid, FAST)
        report = verify_field(cf, grid, FAST)
        assert not report.passed
        entry = report.data["points"][0]
        assert max(entry["eigenvalues"]) == pytest.approx(4.0, abs=1e-9)
        assert entry["checks"]["input_eigenvalue_bound"]["pass"] is False

    def test_power_checks_included(self):
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 1", 2))
        cfg = FieldConfig(samples=2_000, restarts=3, powers=(2,))
        report = verify_field(process_field(grid, cfg), grid, cfg)
        assert report.passed
        checks = report.data["points"][0]["checks"]
        assert "power_2_comass_bound" in checks and "power_2_calibration_bound" in checks

    def test_power_bound_fails_above_comass_one(self):
        # pair values (2, 1): comass 2, and omega^2/2 has comass 2 as well
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "2 0 0 0 0 1", 1))
        cfg = FieldConfig(samples=2_000, restarts=3, powers=(2,))
        report = verify_field(process_field(grid, cfg), grid, cfg)
        assert not report.passed
        checks = report.data["points"][0]["checks"]
        assert checks["power_2_comass_bound"]["value"] == pytest.approx(2.0, rel=1e-12)
        assert checks["power_2_comass_bound"]["pass"] is False
        assert checks["power_2_calibration_bound"]["pass"] is True

    def test_one_sampled_run_per_point(self, monkeypatch):
        calls = []
        sampled = semicalib.field.comass_bruteforce

        def counting(*args, **kwargs):
            calls.append(args[1])
            return sampled(*args, **kwargs)

        monkeypatch.setattr(semicalib.field, "comass_bruteforce", counting)
        spectra = []
        spectrum = semicalib.comass.paired_spectrum
        monkeypatch.setattr(semicalib.comass, "paired_spectrum",
                            lambda *a, **k: spectra.append(1) or spectrum(*a, **k))
        iu = np.triu_indices(8, 1)
        w = np.zeros((8, 8))
        w[0, 1], w[2, 3], w[4, 5] = 1.0, 0.7, 0.4
        g_upper = " ".join(str(x) for x in np.eye(8)[np.triu_indices(8)])
        grid = parse_calfield(constant_field_text(8, g_upper, " ".join(str(x) for x in w[iu]), 3))
        cfg = FieldConfig(samples=500, restarts=2, powers=(2, 3))
        report = verify_field(process_field(grid, cfg), grid, cfg)
        assert report.passed
        assert len(calls) == 3
        assert all(isinstance(form, TwoForm) for form in calls)  # on Omega, not a power
        assert len(spectra) == 2 * 3  # one per form, (g, omega) and (g_J, Omega), for all powers
        checks = report.data["points"][0]["checks"]
        assert checks["power_3_comass_bound"]["value"] == pytest.approx(0.28, rel=1e-12)

    def test_invalid_power_raises(self):
        grid = parse_calfield(MINIMAL)
        cfg = FieldConfig(samples=200, restarts=1, powers=(3,))
        with pytest.raises(ValueError, match="exceeds the ambient dimension"):
            verify_field(process_field(grid, cfg), grid, cfg)

    def test_odd_power_checks_match_explicit_lift(self):
        cfg = FieldConfig(samples=2_000, restarts=3, powers=(2,))
        odd = parse_calfield(demo_calfield("odd3"))
        lifted = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 0", 3))
        reports = [verify_field(process_field(grid, cfg), grid, cfg).data for grid in (odd, lifted)]
        for p_odd, p_lifted in zip(*(r["points"] for r in reports)):
            for key in ("power_2_comass_bound", "power_2_calibration_bound"):
                assert p_odd["checks"][key] == p_lifted["checks"][key]

    def test_gap_points_listed_but_not_failing(self):
        grid = parse_calfield(ramp_field_text([0.6, 0.475, 0.35, 0.225, 0.1]))
        cf = process_field(grid, FAST)
        report = verify_field(cf, grid, FAST)
        assert report.passed  # excluded point is reported, not failed
        flagged = [p for p in report.data["points"] if not p["gap_ok"]]
        assert len(flagged) == 1 and flagged[0]["m"] is None


class TestSampledRunTwoSided:
    """verify's one sampled run, at FieldConfig defaults, catches an Omega that
    is too small as well as one that is too large."""

    @pytest.fixture(scope="class")
    def built(self):
        rng = np.random.default_rng(5)
        g = random_pd_metric(rng, 8)
        w, _ = planted_form(rng, g, blocks=1)
        text = constant_field_text(
            8,
            " ".join(repr(float(x)) for x in g.entries[np.triu_indices(8)]),
            " ".join(repr(float(x)) for x in w.entries[np.triu_indices(8, 1)]),
            1,
        )
        grid = parse_calfield(text)
        return process_field(grid).outcomes[0], grid.points[0]

    @staticmethod
    def checks(built, omega=None):
        outcome, point = built
        if omega is not None:
            pc = dataclasses.replace(outcome.construction, omega_total=TwoForm(omega))
            outcome = dataclasses.replace(outcome, construction=pc)
        return _verify_point(outcome, point, FieldConfig())

    def test_construction_passes_both_sides(self, built):
        checks = self.checks(built)
        assert checks["Omega_comass_sampled_bound"]["pass"] is True
        assert checks["Omega_comass_sampled_attained"]["pass"] is True
        assert checks["Omega_comass_sampled_attained"]["threshold"] == 1e-6

    def test_shrunk_omega_fails_attained(self, built):
        omega = built[0].construction.omega_total.entries
        checks = self.checks(built, 0.99 * omega)
        assert checks["Omega_comass_sampled_bound"]["pass"] is True
        assert checks["Omega_comass_sampled_attained"]["value"] == pytest.approx(0.01, rel=1e-9)
        assert checks["Omega_comass_sampled_attained"]["pass"] is False

    def test_inflated_pair_fails_bound(self, built):
        # Omega grown by 1e-6 on one g_J-orthonormal pair has comass 1 + 1e-6
        pc = built[0].construction
        omega = pc.omega_total.entries
        b0, b1 = paired_spectrum(associated_endomorphism(pc.g_j, pc.omega_total), pc.g_j).basis[:2]
        inflated = omega + 1e-6 * (b0 @ omega @ b1) * dual_wedge(pc.g_j, b0, b1)
        checks = self.checks(built, inflated)
        assert checks["Omega_comass_sampled_bound"]["value"] > 1 + 1e-8
        assert checks["Omega_comass_sampled_bound"]["pass"] is False
        assert checks["Omega_comass_sampled_attained"]["pass"] is True


class TestDeterminism:
    def test_reports_byte_identical(self):
        grid = parse_calfield(ramp_field_text(np.linspace(0.6, 1.0, 4)))
        a = dumps(verify_field(process_field(grid, FAST), grid, FAST).data)
        b = dumps(verify_field(process_field(grid, FAST), grid, FAST).data)
        assert a == b

    def test_build_report_byte_identical(self):
        grid = parse_calfield(rotating_plane_field_text(np.linspace(0, 1, 5)))
        a = dumps(build_report(process_field(grid)))
        b = dumps(build_report(process_field(grid)))
        assert a == b


class TestDemos:
    @pytest.mark.parametrize("name", ["standard", "scaled", "rank-deficient", "odd3"])
    def test_demo_parses_and_verifies(self, name):
        text = demo_calfield(name)
        grid = parse_calfield(text)
        cf = process_field(grid, FAST)
        report = verify_field(cf, grid, FAST)
        assert report.passed

    def test_unknown_demo(self):
        with pytest.raises(ValueError, match="unknown demo"):
            demo_calfield("nope")
