"""Shared random-instance generators and field fixtures."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from semicalib import (
    Frame,
    MetricTensor,
    TwoForm,
    comass_exact,
    complement_basis,
    gram_schmidt,
)


def random_pd_metric(rng, n: int, cond_range=(0.5, 2.0)) -> MetricTensor:
    """Well-conditioned random SPD metric: random rotation of a bounded diagonal."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return MetricTensor(q @ np.diag(rng.uniform(*cond_range, n)) @ q.T)


def random_two_form(rng, n: int) -> TwoForm:
    x = rng.standard_normal((n, n))
    return TwoForm(np.triu(x, 1) - np.triu(x, 1).T)


def unit_comass_form(g: MetricTensor, omega: TwoForm) -> TwoForm:
    """Rescale a nonzero form to exact comass 1 with respect to g."""
    c = comass_exact(g, omega).value
    assert c > 0, "cannot normalize the zero form"
    return TwoForm(omega.entries / c)


def dual_wedge(g: MetricTensor, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the wedge of the g-dual covectors of u and v."""
    a, b = g.entries @ u, g.entries @ v
    return np.outer(a, b) - np.outer(b, a)


def planted_form(rng, g: MetricTensor, blocks: int, rest_comass: float = 0.5):
    """Unit-comass form with `blocks` planted calibrated planes.

    Returns (form, planted_frame) where the frame holds the 2*blocks
    g-orthonormal vectors spanning the planted eigenvalue-1 planes; the
    remainder of the form lives on the g-orthogonal complement, scaled to
    comass `rest_comass` when there is room.
    """
    n = g.dim
    k = 2 * blocks
    assert k <= n
    planted = gram_schmidt(g, Frame(rng.standard_normal((k, n))))
    w = np.zeros((n, n))
    for i in range(blocks):
        w += dual_wedge(g, planted[2 * i], planted[2 * i + 1])
    comp = complement_basis(g, planted)
    if len(comp) >= 2 and rest_comass > 0:
        small = random_two_form(rng, len(comp))
        # push the complement-coordinate form into ambient coordinates
        d = g.entries @ comp.vectors.T
        rest = d @ small.entries @ d.T
        c = comass_exact(g, TwoForm(rest)).value
        if c > 0:
            w += rest * (rest_comass / c)
    return TwoForm(w), planted


def near_double_form(rng, cond: float, sep: float, kernel: bool = False):
    """(g, omega) at n = 8 with cond(g) = cond and near-double pair values.

    ``g = U diag(geomspace(1, cond, 8)) U^T``; omega has g-normal-form values
    ``(1, 1 - sep, 0.5, 0.5 (1 - sep))`` on a random g-orthonormal frame, so
    it is valid input of comass 1 with no kernel.  With ``kernel`` the values
    are ``(1, 1 - sep, 0, 0)``: a 4-dimensional kernel.
    """
    n = 8
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gm = (u * np.geomspace(1.0, cond, n)) @ u.T
    g = MetricTensor((gm + gm.T) / 2)
    z, _ = np.linalg.qr(rng.standard_normal((n, n)))
    frame = np.linalg.solve(np.linalg.cholesky(g.entries).T, z).T
    w = np.zeros((n, n))
    lower = (0.0, 0.0) if kernel else (0.5, 0.5 * (1.0 - sep))
    for i, mu in enumerate((1.0, 1.0 - sep, *lower)):
        w += mu * dual_wedge(g, frame[2 * i], frame[2 * i + 1])
    return g, TwoForm(w)


def three_form(n: int, terms: dict) -> np.ndarray:
    """The (n, n, n) antisymmetric coefficients of a 3-form given as {"ijk": coefficient}, 1-based digits."""
    phi = np.zeros((n, n, n))
    for digits, c in terms.items():
        i, j, k = (int(d) - 1 for d in digits)
        for a, b, d, sign in ((i, j, k, 1), (j, k, i, 1), (k, i, j, 1), (j, i, k, -1), (i, k, j, -1), (k, j, i, -1)):
            phi[a, b, d] = sign * c
    return phi


# The volume form of R^3, the associative 3-form of R^7 (Harvey-Lawson, Acta
# Math. 148, 1982), and Re(dz1 dz2 dz3) on C^3 = R^6 with z_k = x_{2k-1} +
# i x_{2k}: parallel calibrations whose contraction with the Euler field is
# a semi-calibration of S^2 (its area form), of S^6 (its nearly Kahler form)
# and of S^5 (Harvey-Lawson II.5).
VOLUME = three_form(3, {"123": 1})
ASSOCIATIVE = three_form(7, {"123": 1, "145": 1, "167": 1, "246": 1, "257": -1, "347": -1, "356": -1})
SPECIAL_LAGRANGIAN = three_form(6, {"135": 1, "146": -1, "236": -1, "245": -1})


def sphere_point(phi: np.ndarray, y) -> tuple[MetricTensor, TwoForm]:
    """(g, omega) of the contraction of ``phi`` with x at x = (y, sqrt(1 - |y|^2)) on the unit sphere.

    The chart is the graph over the equator: g = dF^T dF = I + y y^T / (1 - |y|^2),
    so cond(g) = 1 / (1 - |y|^2) exactly, and omega = dF^T (i_x phi) dF.
    """
    y = np.asarray(y, dtype=float)
    top = np.sqrt(1.0 - y @ y)
    x = np.append(y, top)
    df = np.vstack([np.eye(len(y)), -y / top])
    g = np.eye(len(y)) + np.outer(y, y) / (1.0 - y @ y)
    return MetricTensor(g), TwoForm(df.T @ np.tensordot(x, phi, axes=1) @ df)


def sphere_directions(rng, phi: np.ndarray, cond: float, count: int) -> np.ndarray:
    """``count`` seeded chart points y with cond(g) = ``cond``: |y|^2 = 1 - 1/cond in random directions."""
    u = rng.standard_normal((count, phi.shape[0] - 1))
    return u / np.linalg.norm(u, axis=1, keepdims=True) * np.sqrt(1.0 - 1.0 / cond)


def ramp_field_text(svals, coords_axis: int = 0) -> str:
    """n=4 field with omega = dx1^dx2 + s dx3^dx4 and identity metric."""
    lines = ["CALFIELD 1", "DIM 4", f"POINTS {len(svals)}"]
    for k, s in enumerate(svals):
        x = ["0"] * 4
        x[coords_axis] = str(k)
        lines += [
            f"P {k}",
            "X " + " ".join(x),
            "G 1 0 0 0 1 0 0 1 0 1",
            f"W 1 0 0 0 0 {float(s)!r}",
        ]
    return "\n".join(lines) + "\n"


def rotating_plane_field_text(thetas) -> str:
    """n=4 field whose calibrated plane rotates through the coordinates.

    omega(theta) is the dual wedge of (cos t e1 + sin t e3) and e2 with the
    identity metric, so the kernel rotates too; the default spectral frames
    flip sign along the path while hint propagation keeps them continuous.
    """
    lines = ["CALFIELD 1", "DIM 4", f"POINTS {len(thetas)}"]
    for k, th in enumerate(thetas):
        u1 = np.array([np.cos(th), 0.0, np.sin(th), 0.0])
        u2 = np.array([0.0, 1.0, 0.0, 0.0])
        w = np.outer(u1, u2) - np.outer(u2, u1)
        wu = [f"{float(w[i, j])!r}" for i in range(4) for j in range(i + 1, 4)]
        lines += [f"P {k}", f"X {k} 0 0 0", "G 1 0 0 0 1 0 0 1 0 1", "W " + " ".join(wu)]
    return "\n".join(lines) + "\n"


def constant_field_text(n: int, g_upper: str, w_upper: str, points: int) -> str:
    lines = ["CALFIELD 1", f"DIM {n}", f"POINTS {points}"]
    for k in range(points):
        lines += [
            f"P {k}",
            "X " + " ".join([str(k)] + ["0"] * (n - 1)),
            "G " + g_upper,
            "W " + w_upper,
        ]
    return "\n".join(lines) + "\n"


def planted_field_text(n: int, seed: int, points: int = 12) -> str:
    """Smooth n-dim field along a path; the smallest pair value ramps 0.3 -> 0.05.

    The other pair values are 1, 0.9, 0.8, ...; odd n keeps one kernel
    direction.  With the automatic epsilon (0.09, from the base point) pair
    values in (0.15, 0.212) violate the gap, with epsilon 0.04 those in
    (0.1, 0.141): both runs see V pairs, complement pairs and excluded points,
    and the complement grows by one pair along the path.
    """
    rng = np.random.default_rng(seed)
    npairs = n // 2
    s0 = rng.standard_normal((n, n))
    s1 = rng.standard_normal((n, n))
    g0 = s0 @ s0.T / n + np.eye(n)
    g1 = (s1 + s1.T) / (4 * n)
    k = rng.standard_normal((n, n))
    turn = (k - k.T) / 4
    z0, _ = np.linalg.qr(rng.standard_normal((n, n)))
    iu, su = np.triu_indices(n), np.triu_indices(n, 1)
    lines = ["CALFIELD 1", f"DIM {n}", f"POINTS {points}"]
    for i in range(points):
        t = i / (points - 1)
        g = MetricTensor(g0 + np.sin(np.pi * t) * g1)
        z = scipy.linalg.expm(t * turn) @ z0
        frame = np.linalg.solve(np.linalg.cholesky(g.entries).T, z).T
        mu = [1.0 - 0.1 * j for j in range(npairs - 1)] + [0.3 - 0.25 * t]
        w = sum(m * dual_wedge(g, frame[2 * j], frame[2 * j + 1]) for j, m in enumerate(mu))
        lines += [
            f"P {i}",
            "X " + " ".join(repr(float(x)) for x in [t] + [0.0] * (n - 1)),
            "G " + " ".join(repr(float(x)) for x in g.entries[iu]),
            "W " + " ".join(repr(float(x)) for x in w[su]),
        ]
    return "\n".join(lines) + "\n"


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_script(name: str):
    """``bench/<name>.py`` as a module; ``sys.path`` and ``os.environ`` are left as they were."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = dict(os.environ)
    sys.path.insert(0, str(BENCH))  # for the scripts' ``import harness``
    try:
        spec.loader.exec_module(module)
    finally:  # harness pins BLAS threads for the scripts' own runs
        sys.path.remove(str(BENCH))
        os.environ.clear()
        os.environ.update(saved)
    return module
