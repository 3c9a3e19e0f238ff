"""Exact symmetries of the construction, checked with no reference values.

A change of units scales (G, W) by c.  A = G^-1 W^T and the eigenvalues of
-A^2 do not move, the g-orthonormal frame P scales by c^-1/2, so J = P J0
P^-1 must stay as it is while g_J and Omega scale by c.  Every threshold of
the construction is relative (``config.PD_TOL``, ``config.ZERO_TOL``), so
no stage may tell the scaled input from the original.  With c an even power
of 2 every product, solve, factorization and square root scales exactly, so
the check is bit for bit: an absolute floor anywhere the scaling crosses,
such as ``max(x, 1.0)``, moves a bit or fails a point at 2^-40 or 2^40.
"""

import json

import numpy as np
import pytest

from semicalib import MetricTensor, TwoForm, construct_point
from semicalib.cli import main
from semicalib.field import FieldGrid, demo_calfield, process_field
from helpers import near_double_form

SCALES = (4.0, 0.25, 2.0**40, 2.0**-40)
CONDS = tuple(np.geomspace(1.0, 1e6, 7))
SEPS = (1e-9, 1e-6, 1e-3)


def assert_scaled(scaled: np.ndarray, original: np.ndarray, c: float) -> None:
    assert scaled.tobytes() == (c * original).tobytes()


@pytest.mark.parametrize("kernel", [False, True], ids=["no-kernel", "kernel"])
def test_construct_point_commutes_with_units(kernel):
    rng = np.random.default_rng(40 + kernel)
    for cond in CONDS:
        for sep in SEPS:
            for _ in range(4):
                g, omega = near_double_form(rng, cond, sep, kernel=kernel)
                pc = construct_point(g, omega)
                assert 2 * pc.m == (4 if kernel else 8)
                for c in SCALES:
                    scaled = construct_point(MetricTensor(c * g.entries), TwoForm(c * omega.entries))
                    assert scaled.m == pc.m and scaled.epsilon == pc.epsilon
                    assert scaled.spectrum.values.tobytes() == pc.spectrum.values.tobytes()
                    assert scaled.j.matrix.tobytes() == pc.j.matrix.tobytes()
                    assert_scaled(scaled.g_j.entries, pc.g_j.entries, c)
                    assert_scaled(scaled.omega_total.entries, pc.omega_total.entries, c)


def test_process_field_commutes_with_units_on_a_kernel_chain():
    # 16 points with a 4-dim kernel: every point's complement frame follows the chain.
    rng = np.random.default_rng(16)
    points = [near_double_form(rng, cond, 1e-6, kernel=True) for cond in np.geomspace(1.0, 1e4, 16)]
    g, w = (np.array([x.entries for x in column]) for column in zip(*points))
    cf = process_field(FieldGrid(8, g, w))
    assert cf.built.all() and (cf.m == 2).all()
    for c in SCALES:
        scaled = process_field(FieldGrid(8, c * g, c * w))
        assert scaled.built.all() and scaled.epsilon == cf.epsilon
        assert scaled.J.tobytes() == cf.J.tobytes()
        assert_scaled(scaled.g_J, cf.g_J, c)
        assert_scaled(scaled.Omega, cf.Omega, c)


def scaled_field_text(text: str, c: float) -> str:
    """A CALFIELD text with every G and W entry multiplied by ``c``."""
    lines = []
    for line in text.splitlines():
        if line[:2] in ("G ", "W "):
            line = line[:2] + " ".join(repr(c * float(x)) for x in line[2:].split())
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["scaled", "rank-deficient"])
def test_build_commutes_with_units(name, tmp_path):
    reports = {}
    for c in (1.0, *SCALES):
        field = tmp_path / f"{c!r}.calfield"
        field.write_text(scaled_field_text(demo_calfield(name), c))
        out = tmp_path / f"{c!r}.json"
        assert main(["build", str(field), "-o", str(out)]) == 0
        reports[c] = json.loads(out.read_text())
    original = reports.pop(1.0)
    for c, report in reports.items():
        assert report["epsilon"] == original["epsilon"]
        for point, want in zip(report["points"], original["points"], strict=True):
            assert point["J"] == want["J"] and point["eigenvalues"] == want["eigenvalues"]
            assert point["m"] == want["m"]
            for key in ("gJ", "Omega"):
                assert_scaled(np.array(point[key], dtype=float), np.array(want[key], dtype=float), c)
