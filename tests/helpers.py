"""Shared random-instance generators and field fixtures."""

from __future__ import annotations

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
