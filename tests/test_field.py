"""Tests for CALFIELD parsing, field processing, and verification."""

import dataclasses
import importlib.util
import logging
import sys
import tracemalloc
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
from semicalib.forms import _polar_factor
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

    def test_peak_memory_bounded_by_the_text_and_columns(self):
        # Each record is converted when it is read, so no token outlives its
        # line.  On this 2000-point n = 8 field the peak is about 0.7x the
        # text and the grid's columns; a token string kept per number of the
        # file made it about 3.8x.
        text = planted_field_text(8, seed=8, points=2000)
        grid, peak = parse_peak(text)
        assert peak <= 2 * (len(text) + grid.g.nbytes + grid.w.nbytes)

    def test_peak_memory_holds_no_copy_of_the_lines(self):
        # The coefficient buffers (half the columns at n = 8), the columns and
        # one block's lines: about 1.61x the columns on this field.  Holding
        # every line of the file until the end made it about 2.07x.
        grid, peak = parse_peak(planted_field_text(8, seed=8, points=2000))
        assert peak <= 1.75 * (grid.g.nbytes + grid.w.nbytes)

    @pytest.mark.parametrize("block", range(1, 8))
    def test_lines_split_in_blocks_are_those_of_splitlines(self, monkeypatch, block):
        monkeypatch.setattr(semicalib.field, "_BLOCK", block)
        ends = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
        fills = ["", "a", "bc", "def"]
        texts = [a + x + b + y + c for x in ends for y in ends for a in fills for b in fills for c in ("", "g", "h\n")]
        texts += ["", "\n", "\r\r\n\n\r", "\n\r" * 5, MINIMAL.replace("\n", "\r\n")]
        for text in texts:
            assert sum(semicalib.field._line_blocks(text), []) == text.splitlines(), repr(text)


def parse_peak(text: str):
    """(parse_calfield(text), the parse's tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        grid = parse_calfield(text)
        return grid, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def _bad_rows():
    """(name, metric, form, the value class whose check the pair fails) of faulty matrices."""
    eye, omega = np.eye(4), TwoForm.standard_symplectic(4).entries
    asymmetric = eye.copy()
    asymmetric[0, 1] = 0.5
    non_finite = omega.copy()
    non_finite[0, 1], non_finite[1, 0] = np.inf, -np.inf
    return [
        ("not-pd", np.diag([-1.0, 1, 1, 1]), omega, MetricTensor),
        ("asymmetric-metric", asymmetric, omega, MetricTensor),
        ("non-finite-metric", np.where(eye == 1, np.nan, 0.0), omega, MetricTensor),
        ("non-finite-form", eye, non_finite, TwoForm),
        ("symmetric-form", eye, np.abs(omega), TwoForm),
    ]


class TestFieldGrid:
    """A grid's columns: the checks of the value classes on every row, and the per-point view."""

    @pytest.mark.parametrize("name, g, w, cls", _bad_rows(), ids=[row[0] for row in _bad_rows()])
    def test_stack_rejects_what_the_value_class_rejects(self, name, g, w, cls):
        with pytest.raises(Exception) as alone:
            cls(g if cls is MetricTensor else w)
        gs, ws = np.array([np.eye(4)] * 3), np.array([TwoForm.standard_symplectic(4).entries] * 3)
        gs[1], ws[1] = g, w
        with pytest.raises(type(alone.value)) as stacked:
            FieldGrid(4, gs, ws)
        assert str(stacked.value) == str(alone.value)

    def test_misshaped_stack_rejected_as_its_matrix(self):
        with pytest.raises(ValueError) as alone:
            MetricTensor(np.zeros((4, 3)))
        with pytest.raises(ValueError) as stacked:
            FieldGrid(4, np.zeros((2, 4, 3)), np.zeros((2, 4, 4)))
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(ValueError, match="stack must have shape"):
            FieldGrid(4, np.eye(4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="share one shape"):
            FieldGrid(4, np.array([np.eye(4)]), np.zeros((1, 6, 6)))

    def test_points_are_read_only_views_of_the_rows(self):
        grid = parse_calfield(planted_field_text(7, seed=7, points=5))
        assert len(grid.points) == len(grid.g) == len(grid.w) == 5
        for i, point in enumerate(grid.points):
            assert isinstance(point, FieldPoint) and point.index == i
            for entries, row in ((point.g.entries, grid.g[i]), (point.omega.entries, grid.w[i])):
                assert entries.tobytes() == row.tobytes()
                assert not entries.flags.writeable and not row.flags.writeable
        assert grid.points is grid.points  # built once

    def test_parsed_grid_is_canonical(self):
        # a grid rebuilt from a parsed grid's stacks is the same grid, and
        # building one leaves the caller's arrays writable
        grid = parse_calfield(planted_field_text(8, seed=8, points=5))
        g, w = grid.g.copy(), grid.w.copy()
        rebuilt = FieldGrid(8, g, w)
        assert rebuilt.g.tobytes() == grid.g.tobytes() and rebuilt.w.tobytes() == grid.w.tobytes()
        assert g.flags.writeable and w.flags.writeable


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
        assert_canonical_rows(4, g_tokens, w_tokens)

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_parsed_rows_have_canonical_bits(self, dim):
        # Zeros of both signs among the coefficients: a parse that wrote a form's
        # lower triangle as -coefficient would store -0.0 where TwoForm stores +0.0.
        cycle = ["0", "-0", ".125", "-0", "0", "-2.5e-1"]
        g_tokens = ["1_0" if i == j else cycle[(i + j) % 6] for i in range(dim) for j in range(i, dim)]
        w_tokens = [cycle[k % 6] for k in range(dim * (dim - 1) // 2)]
        assert_canonical_rows(dim, g_tokens, w_tokens)


def assert_canonical_rows(dim, g_tokens, w_tokens):
    """The parsed rows of a one-point field of these tokens have its value types' canonical bits."""
    grid = parse_calfield(constant_field_text(dim, " ".join(g_tokens), " ".join(w_tokens), 1))
    g = MetricTensor.from_upper(dim, [float(t) for t in g_tokens])
    w = TwoForm.from_upper(dim, [float(t) for t in w_tokens])
    assert grid.g[0].tobytes() == g.entries.tobytes() == MetricTensor(grid.g[0]).entries.tobytes()
    assert grid.w[0].tobytes() == w.entries.tobytes() == TwoForm(grid.w[0]).entries.tobytes()
    point = grid.points[0]
    assert point.g.entries.tobytes() == g.entries.tobytes()
    assert point.omega.entries.tobytes() == w.entries.tobytes()


def with_complement(g, omega, pc, complement):
    """``pc`` assembled again on a stack of one, with ``complement`` as its complement frame."""
    frame = pc.frame[None].copy()
    frame[0, 2 * pc.m :] = complement
    s = pc.spectrum
    a = associated_endomorphism(g, omega).matrix
    stacks = (g.entries, a, s.basis, s.values, np.array(s.npairs))
    stacks = (*(x[None] for x in stacks), frame)
    assembled, _ = semicalib.construction._assemble(*stacks, pc.m)
    return semicalib.construction._point_construction(0, pc.m, pc.epsilon, *stacks[2:5], frame, assembled)


def pointwise(grid, config):
    """process_field's outcomes one point at a time: None for an excluded point.

    Without hints this is a construct_point loop.  With hints each complement
    frame is the chain's step on a stack of one: R = R_prev polar(B_prev G B^T),
    with one Newton-Schulz step R <- 1.5 R - 0.5 R R^T R, while the complement
    keeps its dimension, then the frame R B is assembled on a stack of one.
    """
    epsilon, prev, rotation, out = config.epsilon, None, None, []
    for point in grid.points:
        g, omega = (point.g, point.omega) if grid.dim % 2 == 0 else lift_odd(point.g, point.omega)
        try:
            pc = construct_point(g, omega, epsilon)
        except GapViolation as exc:
            epsilon = exc.epsilon if epsilon is None else epsilon
            out.append(None)
            continue
        epsilon = pc.epsilon if epsilon is None else epsilon
        base = pc.frame[2 * pc.m :]
        if config.use_hints and len(base):
            if prev is not None and len(prev) == len(base):
                step = _polar_factor(prev[None] @ g.entries[None] @ base[None].mT)[0]
                if rotation is None:
                    rotation = step
                else:
                    r = rotation @ step
                    rotation = 1.5 * r - 0.5 * (r @ r.T @ r)
                pc = with_complement(g, omega, pc, rotation @ base)
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
        largest eigenvalue.  The stacked spectra fail their finite check at
        ``spectral_point``, whose A is made infinite and then zeroed: it has
        m = 0 and leaves the m > 0 batches.
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

        solve, points = semicalib.construction._solve, []

        def broken_solve(g, w_t):
            a = solve(g, w_t)
            index = np.arange(len(points), len(points) + len(a))
            points.extend(index)
            a[index == spectral_point] = np.inf
            return a

        monkeypatch.setattr(semicalib.construction, "compatible_metric", broken_metric)
        monkeypatch.setattr(semicalib.construction, "_solve", broken_solve)

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
        # point 1 leaves the m = 2 batch, so its row 2 is point 3
        self.breakdowns(monkeypatch, metric_faults=[{2: 2.0}], spectral_point=1)
        with pytest.raises(ConstructionError, match="endomorphism contains non-finite entries"):
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

    def test_spectral_error_beats_epsilon_error_at_the_base_point(self):
        # A overflows at point 0 and is zeroed there, so the base point has no
        # pairs either: its spectrum and the epsilon inference both fail.
        field = self.overflow(ramp_field_text([0.9] * 3), 0)
        with pytest.raises(ConstructionError, match="endomorphism contains non-finite entries"):
            process_field(field)

    def test_epsilon_error_beats_later_construction_error(self, monkeypatch):
        # Point 0 has omega = 0.  At epsilon 1 (the fallback of the failed
        # inference) it is the m = 0 batch, assembled first; the m = 2 batch
        # (points 1, 2) breaks at its row 0, point 1.
        field = parse_calfield(ramp_field_text([0.9] * 3).replace("W 1 0 0 0 0 0.9", "W 0 0 0 0 0 0", 1))
        self.breakdowns(monkeypatch, metric_faults=[{}, {0: 2.0}])
        with pytest.raises(ConstructionError, match=r"smallest eigenvalue -2\)$"):
            process_field(field, FieldConfig(epsilon=1.0))
        self.breakdowns(monkeypatch, metric_faults=[{}, {0: 2.0}])
        with pytest.raises(EpsilonInferenceError, match="cannot infer epsilon"):
            process_field(field)

    def test_peak_memory_bounded_by_the_columns(self, monkeypatch):
        # Each slice's and batch's checks are reduced to one fault as they
        # come, so no fault bookkeeping grows with the field per slice.  On a
        # 1024-point n = 4 field in slices of 4 the peak is about 1.8x the
        # result's columns; a field-sized mask per check made it about 9x.
        monkeypatch.setattr(semicalib.field, "_BATCH", 4)
        grid = parse_calfield(planted_field_text(4, seed=4, points=1024))
        tracemalloc.start()
        try:
            cf = process_field(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = [x for x in (*vars(cf).values(), *cf.residuals.values()) if isinstance(x, np.ndarray)]
        assert peak <= 4 * sum(x.nbytes for x in columns)


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

    def test_columns_and_their_per_point_view(self):
        grid = parse_calfield(ramp_field_text(np.linspace(0.6, 0.1, 5)))
        cf = process_field(grid)
        assert cf.built.tolist() == [o.gap_ok for o in cf.outcomes]
        assert cf.outcomes is cf.outcomes  # built once, on first use
        for i, o in enumerate(cf.outcomes):
            assert o.eigenvalues == tuple(cf.values[i].tolist())
            if o.construction is None:  # an excluded point's construction rows are NaN
                assert np.isnan(cf.J[i]).all() and np.isnan(cf.residuals["j_squared"][i])
                continue
            assert o.construction.j.matrix.tobytes() == cf.J[i].tobytes()
            assert o.construction.omega_total.entries.tobytes() == cf.Omega[i].tobytes()
            assert o.construction.residuals == {key: float(c[i]) for key, c in cf.residuals.items()}
        for column in (cf.values, cf.built, cf.frames, cf.J, cf.g_J, cf.Omega, *cf.residuals.values()):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

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
            process_field(semicalib.FieldGrid(dim=4, g=np.zeros((0, 4, 4)), w=np.zeros((0, 4, 4))))


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

    @staticmethod
    def chained_defects(pairs):
        """(largest frame defect, largest basis_orthonormality) of the chained field of kernel points ``pairs``."""
        grid = FieldGrid(8, np.array([g.entries for g, _ in pairs]), np.array([w.entries for _, w in pairs]))
        built = [o.construction for o in process_field(grid).outcomes]
        assert all(2 * pc.m == 4 for pc in built)
        worst_frame = max(frame_defect(pc, g) for pc, (g, _) in zip(built, pairs))
        return worst_frame, max(pc.residuals["basis_orthonormality"] for pc in built)

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("sep", [1e-9, 1e-6, 1e-3])
    def test_near_double_frame_defect_bounded_by_basis(self, cond, sep):
        # Sixteen ill-conditioned points with a 4-dim kernel, chained.  An
        # orthogonal k x k rotation of the basis' defect grows its largest
        # entry by at most a factor k, so over the cell the frames' defect
        # stays within k times the largest basis_orthonormality.
        rng = np.random.default_rng(0)
        worst_frame, worst_basis = self.chained_defects(
            [near_double_form(rng, cond, sep, kernel=True) for _ in range(16)])
        assert worst_frame <= 4 * worst_basis

    def test_long_chain_frame_defect_bounded_by_basis(self):
        # Two hundred links: without the Newton-Schulz step on each product
        # the rounding of the rotations piles up, past 6 times the basis'
        # defect on this chain.
        rng = np.random.default_rng(0)
        worst_frame, worst_basis = self.chained_defects(
            [near_double_form(rng, 1e2, 10 ** rng.uniform(-9, -3), kernel=True) for _ in range(200)])
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

    @pytest.mark.parametrize(("change", "message"), [
        ({"samples": 0}, "samples must be >= 1"),
        ({"powers": (3,)}, "degree 6 exceeds the ambient dimension 4"),
        ({"powers": (0,)}, "power must be a positive integer"),
    ])
    def test_invalid_config_raises_with_every_point_excluded(self, change, message):
        # epsilon 0.9 excludes every point, so no sampled run or power check would reject the config
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 0.6", 2))
        cfg = dataclasses.replace(FieldConfig(epsilon=0.9, samples=200, restarts=1), **change)
        cf = process_field(grid, cfg)
        assert not cf.built.any()
        with pytest.raises(ValueError, match=message):
            verify_field(cf, grid, cfg)

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

    @staticmethod
    def counted_run(monkeypatch, powers):
        """verify_field on a 3-point n = 8 field: its report, sampled runs, exact-power calls,
        pair-value calls and paired-spectrum calls, the last three as the rows of each call."""
        calls, exact_rows, pair_rows, spectrum_rows = [], [], [], []
        sampled, exact = semicalib.field._sampled_stack, semicalib.field._exact_powers
        pair_values, paired = semicalib.comass._pair_values, semicalib.construction._paired_stack

        def counting(g, w, p, *args):
            calls.append((len(g), p))
            return sampled(g, w, p, *args)

        def counting_exact(g, w, powers):
            exact_rows.append((len(g), tuple(powers)))
            return exact(g, w, powers)

        iu = np.triu_indices(8, 1)
        w = np.zeros((8, 8))
        w[0, 1], w[2, 3], w[4, 5] = 1.0, 0.7, 0.4
        g_upper = " ".join(str(x) for x in np.eye(8)[np.triu_indices(8)])
        grid = parse_calfield(constant_field_text(8, g_upper, " ".join(str(x) for x in w[iu]), 3))
        cfg = FieldConfig(samples=500, restarts=2, powers=powers)
        cf = process_field(grid, cfg)
        monkeypatch.setattr(semicalib.field, "_sampled_stack", counting)
        monkeypatch.setattr(semicalib.field, "_exact_powers", counting_exact)
        monkeypatch.setattr(semicalib.comass, "_pair_values", lambda g, *rest: pair_rows.append(len(g))
                            or pair_values(g, *rest))
        for module in (semicalib.construction, semicalib.spectral):
            monkeypatch.setattr(module, "_paired_stack", lambda a, *rest: spectrum_rows.append(len(a))
                                or paired(a, *rest))
        return verify_field(cf, grid, cfg), calls, exact_rows, pair_rows, spectrum_rows

    def test_one_sampled_run_per_point(self, monkeypatch):
        # one stacked sampled run over the slice's points, on Omega (p = 1), and
        # one stacked pair-value call over the rows of (g, omega) and (g_J, Omega),
        # for all powers; no paired spectrum runs after the build
        report, calls, exact_rows, pair_rows, spectrum_rows = self.counted_run(monkeypatch, (2, 3))
        assert report.passed
        assert calls == [(3, 1)]
        assert exact_rows == [(6, (2, 3))]
        assert pair_rows == [6]
        assert spectrum_rows == []
        checks = report.data["points"][0]["checks"]
        assert checks["power_3_comass_bound"]["value"] == pytest.approx(0.28, rel=1e-12)

    def test_no_spectrum_without_powers(self, monkeypatch):
        report, calls, exact_rows, pair_rows, spectrum_rows = self.counted_run(monkeypatch, ())
        assert report.passed
        assert calls == [(3, 1)]
        assert exact_rows == pair_rows == spectrum_rows == []

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

    def test_check_table_contract(self):
        # metric c I with omega c (dx1^dx2 + s dx3^dx4): |g_J| scales with c; s = 0.35 is in the band
        lines = ["CALFIELD 1", "DIM 4", "POINTS 4"]
        for k, (c, s) in enumerate([(0.5, 0.6), (3.0, 0.6), (1.0, 0.35), (20.0, 0.6)]):
            lines += [f"P {k}", f"X {k} 0 0 0", f"G {c} 0 0 0 {c} 0 0 {c} 0 {c}", f"W {c} 0 0 0 0 {c * s}"]
        grid = parse_calfield("\n".join(lines) + "\n")
        cfg = FieldConfig(samples=500, restarts=2, powers=(1, 2))
        cf = process_field(grid, cfg)
        points = verify_field(cf, grid, cfg).data["points"]
        assert cf.built.tolist() == [True, True, False, True]
        assert points[2]["checks"] == {}
        thresholds = []
        for i in (0, 1, 3):
            checks = points[i]["checks"]
            thresholds.append(checks["metric_domination"]["threshold"])
            assert thresholds[-1] == 1e-9 * max(float(np.abs(cf.g_J[i]).max()), 1.0)
            for check in checks.values():
                assert type(check["value"]) is float and type(check["threshold"]) is float
                assert type(check["pass"]) is bool
        assert thresholds[0] == 1e-9 and 1e-9 < thresholds[1] < thresholds[2]

    def test_every_point_excluded_passes_with_no_checks(self):
        # epsilon 0.9 puts the second pair's eigenvalue 0.36 in the band (0.225, 0.45) at every point
        grid = parse_calfield(constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 0.6", 2))
        cfg = FieldConfig(epsilon=0.9, samples=200, restarts=1, powers=(2,))
        report = verify_field(process_field(grid, cfg), grid, cfg)
        assert report.passed and report.data["summary"]["pass"] is True
        assert [p["checks"] for p in report.data["points"]] == [{}, {}]


def planted_point_field(seed: int):
    """(construction, grid, planted pair) of a one-point n = 8 field whose form has one calibrated pair."""
    rng = np.random.default_rng(seed)
    g = random_pd_metric(rng, 8)
    w, planted = planted_form(rng, g, blocks=1)
    text = constant_field_text(
        8,
        " ".join(repr(float(x)) for x in g.entries[np.triu_indices(8)]),
        " ".join(repr(float(x)) for x in w.entries[np.triu_indices(8, 1)]),
        1,
    )
    grid = parse_calfield(text)
    return process_field(grid), grid, planted.vectors


def sampled_checks(cf, grid, omega=None, seed=0):
    """verify_field's checks of a one-point field at FieldConfig defaults, Omega optionally replaced."""
    if omega is not None:
        cf = dataclasses.replace(cf, Omega=TwoForm(omega).entries[None])
    return verify_field(cf, grid, FieldConfig(seed=seed)).data["points"][0]["checks"]


def spectral_pair(cf):
    """The first pair of the paired spectrum of a one-point field's (g_J, Omega)."""
    g_j, omega = MetricTensor(cf.g_J[0]), TwoForm(cf.Omega[0])
    return paired_spectrum(associated_endomorphism(g_j, omega), g_j).basis[:2]


def inflated(cf, b0, b1, eps):
    """Omega grown by eps on the g_J-orthonormal pair (b0, b1) it calibrates: comass 1 + eps."""
    omega = cf.Omega[0]
    return omega + eps * (b0 @ omega @ b1) * dual_wedge(MetricTensor(cf.g_J[0]), b0, b1)


class TestSampledRunTwoSided:
    """verify's one sampled run, at FieldConfig defaults, catches an Omega that
    is too small as well as one that is too large."""

    @pytest.fixture(scope="class")
    def built(self):
        return planted_point_field(5)[:2]

    @staticmethod
    def checks(built, omega=None):
        return sampled_checks(*built, omega)

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
        checks = self.checks(built, inflated(built[0], *spectral_pair(built[0]), 1e-6))
        assert checks["Omega_comass_sampled_bound"]["value"] > 1 + 1e-8
        assert checks["Omega_comass_sampled_bound"]["pass"] is False
        assert checks["Omega_comass_sampled_attained"]["pass"] is True


class TestSampledBoundDetection:
    """How often verify's sampled run, at FieldConfig defaults, catches an Omega grown by eps on one pair.

    One-point fields as TestSampledRunTwoSided builds its own, at rng seeds 0-5,
    each verified with seeds 0-2: 18 runs per case.  ``planted`` grows the
    input's calibrated pair, which stays g_J-orthonormal and calibrated by
    Omega.  ``spectral`` grows the first pair of Omega's paired spectrum under
    g_J, one arbitrary choice in an eigenspace where every pair value is 1;
    at some seeds it lies where g_J is small against the coordinates, which
    the sampler's draws, isotropic in the coordinates, rarely reach: there a
    1e-6 excess can go unseen.  The counts are floors that a change to the
    sampled run must keep; ``calibration_unit_comass`` is the exact check.
    """

    CAUGHT = {("planted", 1e-6): 18, ("planted", 1e-8): 18, ("spectral", 1e-6): 17, ("spectral", 1e-8): 10}

    @pytest.fixture(scope="class")
    def fields(self):
        return [planted_point_field(seed) for seed in range(6)]

    @pytest.mark.parametrize("pair, eps", list(CAUGHT))
    def test_caught_at_defaults(self, fields, pair, eps):
        caught = 0
        for cf, grid, planted in fields:
            b0, b1 = planted if pair == "planted" else spectral_pair(cf)
            for seed in range(3):
                checks = sampled_checks(cf, grid, inflated(cf, b0, b1, eps), seed)
                caught += not checks["Omega_comass_sampled_bound"]["pass"]
        assert caught >= self.CAUGHT[pair, eps]


class TestVerifyPolishCap:
    """verify's sampled run stops at its own step cap, not comass_bruteforce's 1000."""

    @staticmethod
    def recorded_run(monkeypatch, omega_of):
        """(checks, sampled columns) of verify on rng seed 1's one-point field, Omega replaced by omega_of(cf, pair)."""
        columns = []
        sampled_stack = semicalib.field._sampled_stack

        def recorded(*args):
            columns.append(sampled_stack(*args))
            return columns[-1]

        monkeypatch.setattr(semicalib.field, "_sampled_stack", recorded)
        cf, grid, planted = planted_point_field(1)
        checks = sampled_checks(cf, grid, omega_of(cf, planted))
        (column,) = columns
        return checks, column

    def test_planted_excess_stops_at_the_cap_and_is_caught(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="semicalib"):
            checks, (_, _, _, iterations, capped) = self.recorded_run(
                monkeypatch, lambda cf, pair: inflated(cf, *pair, 1e-6))
        assert semicalib.field._VERIFY_POLISH_MAX_ITER == 50
        assert iterations.tolist() == [50] and capped.tolist() == [True]
        assert checks["Omega_comass_sampled_bound"]["pass"] is False
        assert checks["Omega_comass_sampled_bound"]["value"] > 1 + 5e-7
        messages = [r.getMessage() for r in caplog.records if r.name == "semicalib"]
        assert len(messages) == 1 and "the 50-iteration cap at 1 point(s)" in messages[0]

    def test_valid_point_converges_far_below_the_cap(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="semicalib"):
            checks, (_, _, _, iterations, capped) = self.recorded_run(monkeypatch, lambda cf, pair: None)
        assert 0 < iterations[0] <= 10 and not capped[0]
        assert checks["Omega_comass_sampled_bound"]["pass"] is True
        assert not caplog.records


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
