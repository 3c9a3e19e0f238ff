"""Seeded input generators with a planted g-normal form.

Every input is built from a g-orthonormal frame ``P`` (columns) and pair
values ``mu``: ``W = G P S P^T G`` with ``S`` block diagonal, blocks
``mu_i [[0, 1], [-1, 0]]``.  Because the g-normal form is planted, the
benchmark knows without asking the library the spectrum of ``-A^2``
(``mu_i^2``, each twice), the exact comass of ``omega^p/p!``
(``mu_1 ... mu_p``) and the calibrated plane (``P[:, 0], P[:, 1]``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pair values below the unit block, spaced 0.05 apart; the smooth modulation
# along a field stays under +-1%, so pairs never come near each other.
_REMAINDER_TOP = 0.85
_REMAINDER_STEP = 0.05
_MODULATION = 0.01
_METRIC_SPREAD = 0.7   # spectral norm of log G, so cond(G) <= e^1.4
_FRAME_TURN = 0.6      # rotation angle scale of the frame along a field


@dataclass(frozen=True)
class PlantedPoint:
    """One (g, omega) input in ambient dimension ``n`` with its planted data."""

    g: np.ndarray        # (n, n) metric
    w: np.ndarray        # (n, n) 2-form coefficients
    frame: np.ndarray    # (n, n) g-orthonormal columns; pairs first, kernel last
    mu: np.ndarray       # pair values, descending; zeros for the kernel pairs
    gap_violating: bool = False


@dataclass(frozen=True)
class Field:
    """A CALFIELD field: its planted points and its file text."""

    name: str
    dim: int
    points: tuple[PlantedPoint, ...]
    text: str


def _random_rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _random_symmetric(rng, n: int, norm: float) -> np.ndarray:
    x = rng.standard_normal((n, n))
    s = (x + x.T) / 2
    return s * (norm / np.abs(np.linalg.eigvalsh(s)).max())


def _random_skew(rng, n: int, norm: float) -> np.ndarray:
    x = rng.standard_normal((n, n))
    k = (x - x.T) / 2
    return k * (norm / np.abs(np.linalg.eigvals(k)).max())


def _expm_symmetric(s: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(s)
    return (v * np.exp(lam)) @ v.T


def _expm_skew(k: np.ndarray) -> np.ndarray:
    # exp of a real skew matrix via the Hermitian matrix i*k
    lam, v = np.linalg.eigh(1j * k)
    return ((v * np.exp(-1j * lam)) @ v.conj().T).real


def planted_form(g: np.ndarray, q: np.ndarray, mu: np.ndarray):
    """(W, P) for metric ``g``, rotation ``q`` and pair values ``mu``.

    ``P = L^-T q`` with ``g = L L^T`` is g-orthonormal; ``mu`` has one entry
    per consecutive column pair of ``P``, and an odd trailing column is kernel.
    """
    n = g.shape[0]
    chol = np.linalg.cholesky(g)
    p = np.linalg.solve(chol.T, q)
    s = np.zeros((n, n))
    for i, m in enumerate(mu):
        s[2 * i, 2 * i + 1] = m
        s[2 * i + 1, 2 * i] = -m
    gp = g @ p
    w = gp @ s @ gp.T
    return (w - w.T) / 2, p


def field_pair_values(n: int) -> np.ndarray:
    """Unit block, remainder pairs spaced 0.05 apart, then a 2-dim kernel.

    Odd ``n`` keeps a 1-dim kernel that the odd lift grows to 2 dimensions.
    """
    remainder = (n - 3) // 2 if n % 2 else (n - 4) // 2
    values = [1.0] + [_REMAINDER_TOP - _REMAINDER_STEP * i for i in range(remainder)]
    return np.array(values + [0.0] * (n // 2 - len(values)))


def _format(values) -> str:
    return " ".join(repr(float(x)) for x in values)


def calfield_text(dim: int, coords, metrics, forms) -> str:
    """CALFIELD v1 text, floats written with full round-trip precision."""
    iu = np.triu_indices(dim)
    su = np.triu_indices(dim, 1)
    lines = ["CALFIELD 1", f"DIM {dim}", f"POINTS {len(metrics)}"]
    for k, (x, g, w) in enumerate(zip(coords, metrics, forms)):
        lines += [f"P {k}", "X " + _format(x), "G " + _format(g[iu]), "W " + _format(w[su])]
    return "\n".join(lines) + "\n"


def smooth_field(rng, name: str, dim: int, npoints: int, gap_points: int, values=None) -> Field:
    """A smooth field along a closed path with ``gap_points`` gap violations.

    ``values`` are the pair values (default :func:`field_pair_values`); all
    but the unit block and the kernel are modulated by +-1% along the path.
    Point 0 is the base point, which fixes the automatic epsilon, and is
    never a gap violation.  At a gap-violating point the first kernel pair is
    lifted to ``mu = sqrt(3 eps / 8)``, inside the forbidden band
    (eps/4, eps/2).
    """
    base_mu = field_pair_values(dim) if values is None else np.asarray(values, dtype=float)
    positive = base_mu[base_mu > 0]
    epsilon = float(positive[-1] ** 2)
    kernel_pair = int(np.count_nonzero(base_mu))
    if gap_points and kernel_pair == base_mu.size:
        raise ValueError("gap violations need a kernel pair to lift into the band")
    phases = rng.uniform(0, 2 * np.pi, base_mu.size)
    s0, s1 = (_random_symmetric(rng, dim, _METRIC_SPREAD) for _ in range(2))
    q0 = _random_rotation(rng, dim)
    turn = _random_skew(rng, dim, _FRAME_TURN)
    violating = set()
    if gap_points:
        violating = {int(i) for i in rng.choice(np.arange(1, npoints), gap_points, replace=False)}

    points, coords = [], []
    for k in range(npoints):
        t = k / npoints
        theta = 2 * np.pi * t
        g = _expm_symmetric(np.cos(theta) * s0 + np.sin(theta) * s1)
        g = (g + g.T) / 2
        q = q0 @ _expm_skew(np.sin(theta) * turn)
        mu = base_mu.copy()
        mu[1:kernel_pair] *= 1 + _MODULATION * np.sin(theta + phases[1:kernel_pair])
        if k in violating:
            mu[kernel_pair] = np.sqrt(3 * epsilon / 8)
        w, p = planted_form(g, q, mu)
        points.append(PlantedPoint(g=g, w=w, frame=p, mu=mu, gap_violating=k in violating))
        coords.append(np.r_[t, np.zeros(dim - 1)])
    text = calfield_text(dim, coords, [p.g for p in points], [p.w for p in points])
    return Field(name=name, dim=dim, points=tuple(points), text=text)


def adversarial_grid(rng, conds, seps, repeats: int) -> list[tuple[float, float, PlantedPoint]]:
    """Ill-conditioned n = 8 metrics with near-double pair values, ``repeats`` per (cond, d).

    ``G = U diag(geomspace(1, cond, 8)) U^T`` with random rotations ``U`` and
    pair values ``(1, 1-d, 0.5, 0.5 (1-d))``: every input is valid (comass 1,
    no kernel), but nearly degenerate pairs meet a badly scaled metric.
    """
    n = 8
    out = []
    for cond in conds:
        for d in [d for d in seps for _ in range(repeats)]:
            u = _random_rotation(rng, n)
            g = (u * np.geomspace(1.0, cond, n)) @ u.T
            g = (g + g.T) / 2
            mu = np.array([1.0, 1.0 - d, 0.5, 0.5 * (1.0 - d)])
            w, p = planted_form(g, _random_rotation(rng, n), mu)
            out.append((float(cond), float(d), PlantedPoint(g=g, w=w, frame=p, mu=mu)))
    return out
