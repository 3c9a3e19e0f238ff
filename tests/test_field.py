"""Tests for CALFIELD parsing, field processing, and verification."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import semicalib.comass
import semicalib.construction
import semicalib.field
from semicalib import (
    ConstructionError,
    EpsilonInferenceError,
    FieldConfig,
    FieldGrid,
    FieldPoint,
    Frame,
    GapViolation,
    MetricTensor,
    ParseError,
    TwoForm,
    align_frame,
    build_report,
    construct_point,
    lift_odd,
    demo_calfield,
    gram_schmidt,
    parse_calfield,
    process_field,
    verify_field,
)
from semicalib.jsonio import dumps
from semicalib.spectral import associated_endomorphism, paired_spectrum
from helpers import (
    constant_field_text,
    dual_wedge,
    near_double_form,
    planted_field_text,
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


def two_faults(kinds, at=(1, 2)):
    """(A field with faults of ``kinds`` at points ``at``, the same field with the first only).

    The field has two points after the last fault.
    """

    def text(faults):
        points = at[-1] + 3
        lines = constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 0.5", points).splitlines()
        for point, kind in faults:
            row = 3 + 4 * point  # the point's P line
            if kind == "bad token":
                lines[row + 2] = lines[row + 2].replace("G 1 0", "G 1 1_0x", 1)
            elif kind == "non-finite":
                lines[row + 3] = "W 1 0 0 0 nan 0.5"
            elif kind == "wrong count":
                lines[row + 1] = "X 0 0 0"
            elif kind == "non-PD metric":
                lines[row + 2] = "G 1 0 0 0 -1 0 0 1 0 1"
        return "\n".join(lines) + "\n"

    return text(list(zip(at, kinds))), text([(at[0], kinds[0])])


FAULTS = ("bad token", "non-finite", "wrong count", "non-PD metric")


# Metrics are checked in slices of _BATCH points: faults on both sides of a boundary.
SLICE_EDGE = (semicalib.field._BATCH - 1, semicalib.field._BATCH)


class TestParseOrder:
    @staticmethod
    def assert_earlier_line_reported(kinds, at):
        both, first = two_faults(kinds, at)
        with pytest.raises(ParseError) as expected:
            parse_calfield(first)
        with pytest.raises(ParseError) as raised:
            parse_calfield(both)
        assert str(raised.value) == str(expected.value)
        assert raised.value.line == expected.value.line

    @pytest.mark.parametrize("kinds", [(a, b) for a in FAULTS for b in FAULTS])
    def test_earlier_line_reported(self, kinds):
        self.assert_earlier_line_reported(kinds, (1, 2))

    @pytest.mark.parametrize("kinds", [(a, b) for a in FAULTS for b in FAULTS])
    def test_earlier_line_reported_across_a_slice_boundary(self, kinds):
        self.assert_earlier_line_reported(kinds, SLICE_EDGE)

    @pytest.mark.parametrize("point", [semicalib.field._BATCH, 2 * semicalib.field._BATCH + 5])
    def test_non_pd_metric_in_a_later_slice(self, point):
        _, text = two_faults(("non-PD metric", "non-PD metric"), (point, point + 1))
        with pytest.raises(ParseError) as raised:
            parse_calfield(text)
        assert str(raised.value).startswith(f"metric not positive definite at point {point}: ")
        assert raised.value.line == 4 + 4 * point + 2

    @pytest.mark.parametrize(
        "later", ["W 1 0 0 0 junk 0.5", "W 1 0 0 0 inf 0.5", "W 1 0 0 0 0", "P 5"]
    )
    def test_non_pd_metric_before_a_later_fault_on_its_point(self, later):
        lines = MINIMAL.splitlines()
        lines[5] = "G 1 0 0 0 0 0 0 1 0 1"
        lines[6 if later.startswith("W") else 7:] = [later]
        with pytest.raises(ParseError, match=r"positive definite at point 0: .* \(line 6\)$"):
            parse_calfield("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("X 0 0 0 junk", "cannot parse number 'junk' (line 5)"),
            ("G 1 0 0 0 1 0 0 1 0 -inf", "non-finite number '-inf' (line 6)"),
            ("W 1 0 0 0 0", "expected 6 form coefficients, got 5 (line 7)"),
            ("G 1 0 0 0 1 0 0 1 0 -1", "metric not positive definite at point 0: metric is not "
             "positive definite (smallest eigenvalue -1) (line 6)"),
        ],
    )
    def test_messages_and_line_numbers(self, line, message):
        lines = MINIMAL.splitlines()
        lines[4 + "XGW".index(line[0])] = line
        with pytest.raises(ParseError) as raised:
            parse_calfield("\n".join(lines) + "\n")
        assert str(raised.value) == message

    def test_python_float_spellings(self):
        g_tokens = "1_0 +0 -0.0 .5 1E1 0 0 1e1 5. 1_0.0_1".split()
        w_tokens = ["+1e3", "-1_0", "4.9e-324", "1e-320", "-.25", "1_0E-1_0"]
        text = MINIMAL.replace("G 1 0 0 0 1 0 0 1 0 1", "G " + " ".join(g_tokens))
        text = text.replace("W 1 0 0 0 0 1", "W " + " ".join(w_tokens))
        point = parse_calfield(text).points[0]
        g = MetricTensor.from_upper(4, [float(t) for t in g_tokens])
        w = TwoForm.from_upper(4, [float(t) for t in w_tokens])
        assert point.g.entries.tobytes() == g.entries.tobytes()
        assert point.omega.entries.tobytes() == w.entries.tobytes()


def with_complement(g, omega, pc, complement, tol):
    """``pc`` assembled again on a stack of one, with ``complement`` as its complement frame."""
    frame = pc.frame[None].copy()
    frame[0, 2 * pc.m :] = complement
    s = pc.spectrum
    a = associated_endomorphism(g, omega).matrix
    stacks = (g.entries, a, s.basis, s.values, np.array(s.npairs))
    stacks = (*(x[None] for x in stacks), frame)
    built, _ = semicalib.construction._assemble(*stacks, pc.m, pc.epsilon, tol)
    return built[0]


def pointwise(grid, config):
    """process_field's outcomes one point at a time: None for an excluded point.

    Without hints this is a construct_point loop.  With hints each complement
    frame is the chain's step on a stack of one: R = R_prev polar(B_prev G B^T)
    while the complement keeps its dimension, then the frame R B is assembled
    on a stack of one.
    """
    epsilon, prev, rotation, out = config.epsilon, None, None, []
    for point in grid.points:
        g, omega = (point.g, point.omega) if grid.dim % 2 == 0 else lift_odd(point.g, point.omega)
        try:
            pc = construct_point(g, omega, epsilon, None, config.tolerances)
        except GapViolation as exc:
            epsilon = exc.epsilon if epsilon is None else epsilon
            out.append(None)
            continue
        epsilon = pc.epsilon if epsilon is None else epsilon
        base = pc.frame[2 * pc.m :]
        if config.use_hints and len(base):
            if prev is not None and len(prev) == len(base):
                step = semicalib.construction._polar(prev[None], g.entries[None], base[None])[0]
                rotation = step if rotation is None else rotation @ step
                pc = with_complement(g, omega, pc, rotation @ base, config.tolerances)
            else:
                rotation = None
            prev = base
        out.append(pc)
    return out


class TestBatchedAssembly:
    @pytest.mark.parametrize("n", [4, 7, 8])
    @pytest.mark.parametrize(
        "config", [FieldConfig(), FieldConfig(use_hints=False), FieldConfig(epsilon=0.04)]
    )
    @pytest.mark.parametrize("batch", [3, semicalib.field._BATCH])
    def test_bitwise_equal_to_pointwise(self, n, config, batch, monkeypatch):
        monkeypatch.setattr(semicalib.field, "_BATCH", batch)
        grid = parse_calfield(planted_field_text(n, seed=n, points=16))
        cf = process_field(grid, config)
        ms = [o.construction.m for o in cf.outcomes if o.gap_ok]
        assert len(set(ms)) == 2 and not all(o.gap_ok for o in cf.outcomes)
        for outcome, ref in zip(cf.outcomes, pointwise(grid, config), strict=True):
            pc = outcome.construction
            assert (pc is None) == (ref is None)
            if pc is None:
                continue
            for got, want in [
                (pc.frame, ref.frame),
                (pc.j.matrix, ref.j.matrix),
                (pc.g_j.entries, ref.g_j.entries),
                (pc.omega_total.entries, ref.omega_total.entries),
            ]:
                assert got.tobytes() == want.tobytes()
            assert list(pc.residuals) == list(ref.residuals)
            assert [v.hex() for v in pc.residuals.values()] == [v.hex() for v in ref.residuals.values()]
            assert outcome.eigenvalues == tuple(ref.spectrum.values.tolist())

    @staticmethod
    def breakdowns(monkeypatch, metric_faults=(), spectral_point=None):
        """Break the construction of some points.

        ``metric_faults[k]`` maps rows of the k-th assembled batch to a
        factor f: that g_J becomes -f g_J, so its error names -f times its
        largest eigenvalue.  The stacked spectra fail a check at ``spectral_point``.
        """
        metric, batches = semicalib.construction.compatible_metric, []

        def broken_metric(p_inv, d):
            out = metric(p_inv, d)
            faults = metric_faults[len(batches)] if len(batches) < len(metric_faults) else {}
            batches.append(1)
            for row, factor in faults.items():
                if row < len(out):
                    out[row] *= -factor
            return out

        stack, points = semicalib.construction._paired_stack, []

        def broken_stack(a, *args):
            basis, values, npairs, checks = stack(a, *args)
            index = np.arange(len(points), len(points) + len(a))
            points.extend(index)
            message = f"spectral stage failed at point {spectral_point}"
            failed = (index == spectral_point, lambda i: ValueError(message))
            return basis, values, npairs, [*checks, failed]

        monkeypatch.setattr(semicalib.construction, "compatible_metric", broken_metric)
        monkeypatch.setattr(semicalib.construction, "_paired_stack", broken_stack)

    @staticmethod
    def field(svals):
        """Identity metric and omega = dx1^dx2 + s dx3^dx4.

        At epsilon 0.2 a point with s = 0.9 has m = 2 and one with s = 1e-3 has m = 1.
        """
        return parse_calfield(ramp_field_text(svals))

    CONFIG = FieldConfig(epsilon=0.2)

    def test_earlier_construction_error_beats_later_spectral_error(self, monkeypatch):
        self.breakdowns(monkeypatch, metric_faults=[{1: 2.0}], spectral_point=3)
        with pytest.raises(ConstructionError, match=r"smallest eigenvalue -2\)$"):
            process_field(self.field([0.9] * 5), self.CONFIG)

    def test_earlier_spectral_error_beats_later_construction_error(self, monkeypatch):
        self.breakdowns(monkeypatch, metric_faults=[{3: 2.0}], spectral_point=1)
        with pytest.raises(ConstructionError, match="spectral stage failed at point 1"):
            process_field(self.field([0.9] * 5), self.CONFIG)

    @staticmethod
    def overflow(field, point):
        """``field`` with g = 1e-300 I and omega of size 1e300 at ``point``: A overflows there."""
        lines = field.splitlines()
        lines[5 + 4 * point] = "G 1e-300 0 0 0 1e-300 0 0 1e-300 0 1e-300"
        lines[6 + 4 * point] = "W 1e300 0 0 0 0 1e300"
        return parse_calfield("\n".join(lines) + "\n")

    def test_stacked_spectral_error_in_a_later_slice(self, monkeypatch):
        # Spectra of slices of two points: point 3 fails in the second slice.
        monkeypatch.setattr(semicalib.field, "_BATCH", 2)
        with pytest.raises(ConstructionError, match="endomorphism contains non-finite entries"):
            process_field(self.overflow(ramp_field_text([0.9] * 5), 3), self.CONFIG)
        self.breakdowns(monkeypatch, metric_faults=[{1: 2.0}])
        with pytest.raises(ConstructionError, match=r"smallest eigenvalue -2\)$"):
            process_field(self.overflow(ramp_field_text([0.9] * 5), 3), self.CONFIG)

    def test_construction_error_chained_to_the_check(self):
        with pytest.raises(ConstructionError) as raised:
            process_field(self.overflow(ramp_field_text([0.9] * 3), 1), self.CONFIG)
        cause = raised.value.__cause__
        assert type(cause) is ValueError and str(cause) == str(raised.value)

    def test_stacked_spectral_error_beats_later_construction_error(self, monkeypatch):
        self.breakdowns(monkeypatch, metric_faults=[{2: 2.0}])
        with pytest.raises(ConstructionError, match="endomorphism contains non-finite entries"):
            process_field(self.overflow(ramp_field_text([0.9] * 5), 2), self.CONFIG)

    def test_lowest_construction_error_in_a_batch(self, monkeypatch):
        self.breakdowns(monkeypatch, metric_faults=[{3: 4.0, 2: 3.0}])
        with pytest.raises(ConstructionError, match=r"smallest eigenvalue -3\)$"):
            process_field(self.field([0.9] * 5), self.CONFIG)

    def test_first_faulty_batch_of_a_group_wins(self, monkeypatch):
        # Batches of two: points (0, 1), (2, 3), (4,); points 3 and 4 fail.
        monkeypatch.setattr(semicalib.field, "_BATCH", 2)
        self.breakdowns(monkeypatch, metric_faults=[{}, {1: 3.0}, {0: 2.0}])
        with pytest.raises(ConstructionError, match=r"smallest eigenvalue -3\)$"):
            process_field(self.field([0.9] * 5), self.CONFIG)

    def test_lowest_construction_error_across_groups(self, monkeypatch):
        # The m = 2 batch (points 0, 3, 4) is assembled first; its row 1 is
        # point 3.  Row 0 of the m = 1 batch (points 1, 2) is point 1.
        self.breakdowns(monkeypatch, metric_faults=[{1: 5.0}, {0: 7.0}])
        with pytest.raises(ConstructionError, match=r"smallest eigenvalue -7\)$"):
            process_field(self.field([0.9, 1e-3, 2e-3, 0.8, 0.7]), self.CONFIG)


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
        rows = []
        stack = semicalib.construction._paired_stack
        monkeypatch.setattr(semicalib.construction, "_paired_stack",
                            lambda a, *rest: rows.append(len(a)) or stack(a, *rest))
        process_field(parse_calfield(ramp_field_text(np.linspace(0.6, 1.0, 5))))
        assert rows == [5]  # the base point's epsilon comes from its own construction

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


def perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded field generator, imported by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def gram_schmidt_chain(grid, cf):
    """{index: complement frame} by the Procrustes and Gram-Schmidt chain, one point at a time.

    Each point's spectral complement is aligned to the previous frame of the
    same size with :func:`align_frame`, then g-orthonormalized; a point
    without such a predecessor is g-orthonormalized alone.
    """
    hint, out = None, {}
    for point, outcome in zip(grid.points, cf.outcomes):
        pc = outcome.construction
        if pc is None or 2 * pc.m == pc.dim:
            continue
        base = Frame(pc.spectrum.basis[2 * pc.m :])
        if hint is not None and len(hint) == len(base):
            base = align_frame(hint, base, point.g)
        hint = gram_schmidt(point.g, base)
        out[outcome.index] = hint.vectors
    return out


def frame_defect(pc, g):
    """max |F G F^T - I| of the complement frame F of a construction."""
    f = pc.frame[2 * pc.m :]
    return float(np.abs(f @ g.entries @ f.T - np.eye(len(f))).max())


class TestComplementChain:
    @pytest.fixture(scope="class", params=[8, 16])
    def smooth(self, request):
        n = request.param
        field = perfbench_inputs().smooth_field(np.random.default_rng(1), f"n{n}", n, 1000, 0)
        grid = parse_calfield(field.text)
        return grid, process_field(grid)

    def test_frames_match_gram_schmidt_chain(self, smooth):
        grid, cf = smooth
        reference = gram_schmidt_chain(grid, cf)
        assert len(reference) == len(cf.outcomes)
        for outcome in cf.outcomes:
            pc = outcome.construction
            frame = pc.frame[2 * pc.m :]
            np.testing.assert_allclose(frame, reference[outcome.index], rtol=0, atol=1e-12)

    def test_frames_g_orthonormal(self, smooth):
        grid, cf = smooth
        for point, outcome in zip(grid.points, cf.outcomes):
            assert frame_defect(outcome.construction, point.g) <= 1e-13

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("sep", [1e-9, 1e-6, 1e-3])
    def test_near_double_frame_defect_bounded_by_basis(self, cond, sep):
        # Sixteen ill-conditioned points with a 4-dim kernel, chained.  An
        # orthogonal k x k rotation of the basis' defect grows its largest
        # entry by at most a factor k, so over the cell the frames' defect
        # stays within k times the largest basis_orthonormality.
        rng = np.random.default_rng(0)
        pairs = [near_double_form(rng, cond, sep, kernel=True) for _ in range(16)]
        grid = FieldGrid(8, tuple(FieldPoint(i, g, w) for i, (g, w) in enumerate(pairs)))
        built = [o.construction for o in process_field(grid).outcomes]
        assert all(2 * pc.m == 4 for pc in built)
        worst_frame = max(frame_defect(pc, g) for pc, (g, _) in zip(built, pairs))
        worst_basis = max(pc.residuals["basis_orthonormality"] for pc in built)
        assert worst_frame <= 4 * worst_basis


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
    def test_slice_size_does_not_change_the_report(self, monkeypatch):
        text = planted_field_text(8, seed=8, points=12)
        grid = parse_calfield(text)
        cfg = FieldConfig(powers=(2, 3))
        cf = process_field(grid, cfg)
        reference = dumps(verify_field(cf, grid, cfg).data)
        monkeypatch.setattr(semicalib.field, "_BATCH", 3)
        assert dumps(verify_field(cf, grid, cfg).data) == reference

    def test_restarts_below_one_raise(self):
        grid = parse_calfield(MINIMAL)
        cfg = FieldConfig(restarts=0)
        with pytest.raises(ValueError, match="restarts"):
            verify_field(process_field(grid, cfg), grid, cfg)

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
        # one stacked sampled run over the slice's points, on Omega (p = 1),
        # and one stacked spectrum per form, (g, omega) and (g_J, Omega), for all powers
        calls, spectra = [], []
        sampled, exact = semicalib.field._sampled_stack, semicalib.field._exact_powers

        def counting(g, w, p, *args):
            calls.append((len(g), p))
            return sampled(g, w, p, *args)

        def counting_exact(g, w, powers):
            spectra.append((len(g), tuple(powers)))
            return exact(g, w, powers)

        monkeypatch.setattr(semicalib.field, "_sampled_stack", counting)
        monkeypatch.setattr(semicalib.field, "_exact_powers", counting_exact)
        iu = np.triu_indices(8, 1)
        w = np.zeros((8, 8))
        w[0, 1], w[2, 3], w[4, 5] = 1.0, 0.7, 0.4
        g_upper = " ".join(str(x) for x in np.eye(8)[np.triu_indices(8)])
        grid = parse_calfield(constant_field_text(8, g_upper, " ".join(str(x) for x in w[iu]), 3))
        cfg = FieldConfig(samples=500, restarts=2, powers=(2, 3))
        report = verify_field(process_field(grid, cfg), grid, cfg)
        assert report.passed
        assert calls == [(3, 1)]
        assert spectra == [(3, (2, 3))] * 2
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
        return process_field(grid), grid

    @staticmethod
    def checks(built, omega=None):
        cf, grid = built
        if omega is not None:
            outcome = cf.outcomes[0]
            pc = dataclasses.replace(outcome.construction, omega_total=TwoForm(omega))
            cf = dataclasses.replace(cf, outcomes=(dataclasses.replace(outcome, construction=pc),))
        return verify_field(cf, grid, FieldConfig()).data["points"][0]["checks"]

    def test_construction_passes_both_sides(self, built):
        checks = self.checks(built)
        assert checks["Omega_comass_sampled_bound"]["pass"] is True
        assert checks["Omega_comass_sampled_attained"]["pass"] is True
        assert checks["Omega_comass_sampled_attained"]["threshold"] == 1e-6

    def test_shrunk_omega_fails_attained(self, built):
        omega = built[0].outcomes[0].construction.omega_total.entries
        checks = self.checks(built, 0.99 * omega)
        assert checks["Omega_comass_sampled_bound"]["pass"] is True
        assert checks["Omega_comass_sampled_attained"]["value"] == pytest.approx(0.01, rel=1e-9)
        assert checks["Omega_comass_sampled_attained"]["pass"] is False

    def test_inflated_pair_fails_bound(self, built):
        # Omega grown by 1e-6 on one g_J-orthonormal pair has comass 1 + 1e-6
        pc = built[0].outcomes[0].construction
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
