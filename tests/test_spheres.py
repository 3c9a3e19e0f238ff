"""The sphere semi-calibrations of Harvey-Lawson II.5 as closed-form fixtures.

Contracting a parallel 3-form calibration of R^n with the Euler field x gives
a semi-calibration of S^{n-1}.  On S^2, from the volume form of R^3, it is
the area form: one pair of value 1, m = 1, and the construction must return
J = A, g_J = g and Omega = omega.  On S^6, from the associative form,
-A^2 = I: every pair value is 1, m = 3, and the construction must return
the input in the same way, with every normalized power of unit comass.  On
S^5, from Re(dz1 dz2 dz3), the pair values are (1, 1) with a 1-dim kernel,
so after the lift J = A and Omega = omega hold on the 4-dim V, while the
complement's J is LAPACK's choice; g_J = g holds everywhere.  The chart is
the graph over the equator, with cond(g) = 1 / (1 - |y|^2) exactly, and the
tolerance is c eps cond(g): the construction's errors grow with cond(g),
linearly (at most 0.51 eps cond(g) measured up to cond 1e6).  At cond 1e9,
past what ``verify`` judges on today's scale, the fields still build.
"""

import numpy as np
import pytest

from semicalib import PowerForm, comass_exact, construct_point, lift_odd
from semicalib.cli import main
from semicalib.field import FieldConfig, FieldGrid, calfield_text, process_field, verify_field
from semicalib.jsonio import dumps
from helpers import (ASSOCIATIVE, SPECIAL_LAGRANGIAN, VOLUME, sphere_chart, sphere_directions, sphere_field_text,
                     sphere_point)

CONDS = [1.0, 1e2, 1e4]


def tolerance(cond: float) -> float:
    return 16 * np.finfo(float).eps * cond


def relative(x: np.ndarray, reference: np.ndarray) -> float:
    return float(np.abs(x - reference).max() / np.abs(reference).max())


def sphere_points(phi, cond: float):
    """:func:`sphere_chart` lifted to even dimension, with A = G^-1 W^T."""
    for g, omega in sphere_chart(phi, cond):
        if g.dim % 2:
            g, omega = lift_odd(g, omega)
        yield g, omega, np.linalg.solve(g.entries, omega.entries.T)


def test_the_forms_and_the_chart():
    assert ASSOCIATIVE[0, 1, 2] == 1 and ASSOCIATIVE[4, 1, 6] == 1 and ASSOCIATIVE[2, 3, 6] == -1
    assert SPECIAL_LAGRANGIAN[0, 2, 4] == 1 and SPECIAL_LAGRANGIAN[3, 5, 0] == -1
    assert VOLUME[0, 1, 2] == 1 and VOLUME[2, 1, 0] == -1 and np.count_nonzero(VOLUME) == 6
    for phi in (VOLUME, ASSOCIATIVE, SPECIAL_LAGRANGIAN):
        assert np.array_equal(phi, -phi.transpose(1, 0, 2)) and np.array_equal(phi, -phi.transpose(0, 2, 1))
    y = sphere_directions(np.random.default_rng(0), ASSOCIATIVE, 1e4, 1)[0]
    g, omega = sphere_point(ASSOCIATIVE, y)
    assert np.linalg.cond(g.entries) == pytest.approx(1e4, rel=1e-8)
    x = np.append(y, np.sqrt(1.0 - y @ y))
    tangent = np.vstack([np.eye(6), -y / x[-1]]).T  # dF e_i, rows
    assert np.abs(tangent @ x).max() < 1e-12
    np.testing.assert_allclose(g.entries, tangent @ tangent.T, rtol=1e-12)
    values = np.einsum("ijk,i,aj,bk->ab", ASSOCIATIVE, x, tangent, tangent)
    np.testing.assert_allclose(omega.entries, values, atol=1e-12 * np.abs(values).max())


@pytest.mark.parametrize("cond", CONDS)
class TestS2:
    """The volume form's S^2: omega is the area form of g, so J = A, g_J = g and Omega = omega."""

    def test_pair_value_is_one(self, cond):
        for g, omega, _ in sphere_points(VOLUME, cond):
            pc = construct_point(g, omega)
            assert pc.m == 1 and pc.spectrum.npairs == 1
            assert abs(pc.spectrum.eigenvalues[0] - 1.0) <= tolerance(cond)

    def test_construction_is_the_input(self, cond):
        for g, omega, a in sphere_points(VOLUME, cond):
            pc = construct_point(g, omega)
            assert relative(pc.j.matrix, a) <= tolerance(cond)
            assert relative(pc.g_j.entries, g.entries) <= tolerance(cond)
            assert relative(pc.omega_total.entries, omega.entries) <= tolerance(cond)

    def test_area_form_has_unit_comass(self, cond):
        for g, omega, _ in sphere_points(VOLUME, cond):
            assert abs(comass_exact(g, omega).value - 1.0) <= tolerance(cond)


@pytest.mark.parametrize("cond", CONDS)
class TestS6:
    """The associative form's S^6: -A^2 = I, so J = A, g_J = g and Omega = omega."""

    def test_pair_values_are_one(self, cond):
        for g, omega, _ in sphere_points(ASSOCIATIVE, cond):
            pc = construct_point(g, omega)
            assert pc.m == 3 and pc.spectrum.npairs == 3
            assert np.abs(pc.spectrum.eigenvalues - 1.0).max() <= tolerance(cond)

    def test_construction_is_the_input(self, cond):
        for g, omega, a in sphere_points(ASSOCIATIVE, cond):
            pc = construct_point(g, omega)
            assert relative(pc.j.matrix, a) <= tolerance(cond)
            assert relative(pc.g_j.entries, g.entries) <= tolerance(cond)
            assert relative(pc.omega_total.entries, omega.entries) <= tolerance(cond)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_powers_have_unit_comass(self, cond, p):
        for g, omega, _ in sphere_points(ASSOCIATIVE, cond):
            assert abs(comass_exact(g, PowerForm(omega, p)).value - 1.0) <= tolerance(cond)


@pytest.mark.parametrize("cond", CONDS)
class TestS5:
    """Re(dz1 dz2 dz3)'s S^5, lifted to 6 dimensions: pair values (1, 1), J = A and Omega = omega on V."""

    def test_pair_values_are_one(self, cond):
        for g, omega, _ in sphere_points(SPECIAL_LAGRANGIAN, cond):
            pc = construct_point(g, omega)
            assert pc.m == 2 and pc.spectrum.npairs == 2
            assert np.abs(pc.spectrum.eigenvalues - 1.0).max() <= tolerance(cond)

    def test_construction_is_the_input_on_v(self, cond):
        for g, omega, a in sphere_points(SPECIAL_LAGRANGIAN, cond):
            pc = construct_point(g, omega)
            v = pc.frame[: 2 * pc.m]
            assert relative(pc.j.matrix @ v.T, a @ v.T) <= tolerance(cond)
            assert relative(v @ pc.omega_total.entries, v @ omega.entries) <= tolerance(cond)
            assert relative(pc.g_j.entries, g.entries) <= tolerance(cond)


@pytest.mark.parametrize("cond", CONDS)
@pytest.mark.parametrize("phi, powers", [(VOLUME, ()), (ASSOCIATIVE, (2,)), (SPECIAL_LAGRANGIAN, ())],
                         ids=["S2", "S6-p2", "S5"])
def test_verify_passes_on_a_sphere_field(phi, powers, cond, tmp_path):
    points = sphere_chart(phi, cond)
    grid = FieldGrid(phi.shape[0] - 1, np.array([g.entries for g, _ in points]),
                     np.array([omega.entries for _, omega in points]))
    config = FieldConfig(powers=powers)
    cf = process_field(grid, config)
    assert cf.built.all() and cf.lifted_from == (5 if phi is SPECIAL_LAGRANGIAN else None)
    report = verify_field(cf, grid, config)
    assert report.passed
    # the same field as a file: the CLI reads the grid back bit for bit, so its report is the library's
    field, out = tmp_path / "sphere.calfield", tmp_path / "verify.json"
    field.write_text(calfield_text(grid.g, grid.w))
    assert main(["verify", str(field), *(f"--power={p}" for p in powers), "-o", str(out)]) == 0
    assert out.read_text() == dumps(report.data)


@pytest.mark.parametrize("phi", [ASSOCIATIVE, SPECIAL_LAGRANGIAN], ids=["S6", "S5"])
def test_build_exits_0_at_cond_1e9(phi, tmp_path):
    # A = G^-1 W^T is g-skew-adjoint up to its solve's rounding, about 3e-17 cond(g): nothing checks that
    points = sphere_chart(phi, 1e9)
    field = tmp_path / "sphere.calfield"
    field.write_text(sphere_field_text(phi, 1e9))
    assert main(["build", str(field), "-o", str(tmp_path / "build.json")]) == 0
    if phi is ASSOCIATIVE:
        for g, omega in points:
            assert abs(comass_exact(g, PowerForm(omega, 3)).value - 1.0) <= tolerance(1e9)
