"""Correctness checks that do not ask the library.

Every threshold is fixed here.  Residuals are scale-relative: the library's
own verify thresholds (1e-10 for J^2 = -I and compatibility, 1e-9 for unit
comass and preservation) are multiplied by the size of the terms involved, so
they are the library's thresholds on a well-conditioned point and grow only
with the conditioning.  Each check returns a list of failure messages; an
empty list means the output is correct.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.linalg

J_SQUARED_REL = 1e-10        # |J^2 + I| / |J|^2
COMPATIBILITY_REL = 1e-10    # |g_J - Omega J| / (|Omega| |J|)
SYMMETRY_REL = 1e-12         # |g_J - g_J^T| / |g_J|
UNIT_COMASS = 1e-9           # |comass(Omega; g_J) - 1|
CALIBRATED = 1e-9            # |Omega(v, w) / area(v, w) - 1| on the planted plane
HOLOMORPHIC_REL = 1e-9       # |J v - w| / |J| on the planted plane
EIGENVALUE_ABS = 1e-9        # reported spectrum of -A^2 against the planted one
SAMPLED_SLACK = 1e-9         # sampled comass <= exact * (1 + slack)
SAMPLED_TIGHTNESS = 1e-6     # sampled comass >= exact * (1 - tightness)


def _amax(x: np.ndarray) -> float:
    return float(np.abs(x).max())


def comass2(g: np.ndarray, w: np.ndarray) -> float:
    """Comass of a 2-form: sqrt of the top eigenvalue of W^T g^-1 W in the g metric."""
    k = w.T @ np.linalg.solve(g, w)
    lam = scipy.linalg.eigh((k + k.T) / 2, g, eigvals_only=True)
    return float(np.sqrt(max(lam[-1], 0.0)))


def check_triple(j: np.ndarray, g_j: np.ndarray, om: np.ndarray, plane) -> list[str]:
    """J^2 = -I, g_J = Omega J, g_J SPD, unit comass, and the plane calibrated.

    ``plane`` is the planted g-orthonormal pair ``(v, w)`` with
    ``omega(v, w) = 1``; it must stay calibrated by Omega in g_J and satisfy
    ``J v = w``.
    """
    n = j.shape[0]
    bad = []
    j_scale = max(_amax(j), 1.0)
    r = _amax(j @ j + np.eye(n)) / j_scale**2
    if not r <= J_SQUARED_REL:
        bad.append(f"J^2 + I relative residual {r:.3g}")
    r = _amax(g_j - om @ j) / max(_amax(om) * j_scale, 1e-300)
    if not r <= COMPATIBILITY_REL:
        bad.append(f"g_J - Omega J relative residual {r:.3g}")
    g_scale = max(_amax(g_j), 1e-300)
    r = _amax(g_j - g_j.T) / g_scale
    if not r <= SYMMETRY_REL:
        bad.append(f"g_J asymmetry {r:.3g}")
    sym = (g_j + g_j.T) / 2
    if not np.linalg.eigvalsh(sym)[0] > 0:
        bad.append("g_J is not positive definite")
        return bad
    c = comass2(sym, om)
    if not abs(c - 1.0) <= UNIT_COMASS:
        bad.append(f"comass of Omega under g_J is {c!r}")
    v, w = plane
    gvv, gww, gvw = v @ sym @ v, w @ sym @ w, v @ sym @ w
    area = np.sqrt(max(gvv * gww - gvw**2, 0.0))
    ratio = (v @ om @ w) / area if area > 0 else np.inf
    if not abs(ratio - 1.0) <= CALIBRATED:
        bad.append(f"planted plane ratio {ratio!r}")
    r = _amax(j @ v - w) / j_scale
    if not r <= HOLOMORPHIC_REL:
        bad.append(f"planted plane not J-holomorphic ({r:.3g})")
    return bad


def _embed(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.r_[vec, np.zeros(dim - vec.size)]


def expected_eigenvalues(mu: np.ndarray, dim: int) -> np.ndarray:
    """Spectrum of -A^2 from the planted pair values, descending, padded to ``dim``."""
    return np.sort(np.r_[np.repeat(np.asarray(mu) ** 2, 2), np.zeros(dim - 2 * len(mu))])[::-1]


def check_point_entry(entry: dict, point, dim: int) -> list[str]:
    """One point of a build or verify report against its planted data."""
    bad = []
    if bool(entry["gap_ok"]) == point.gap_violating:
        return [f"gap_ok is {entry['gap_ok']} but the point was planted "
                f"{'inside' if point.gap_violating else 'outside'} the forbidden band"]
    got = np.sort(np.asarray(entry["eigenvalues"], dtype=float))[::-1]
    want = expected_eigenvalues(point.mu, dim)
    if got.shape != want.shape or not _amax(got - want) <= EIGENVALUE_ABS:
        bad.append("reported spectrum differs from the planted one")
    if point.gap_violating:
        return bad
    plane = (_embed(point.frame[:, 0], dim), _embed(point.frame[:, 1], dim))
    bad += check_triple(
        np.asarray(entry["J"]), np.asarray(entry["gJ"]), np.asarray(entry["Omega"]), plane
    )
    return bad


def check_report(report: dict, field, dim: int) -> dict[int, list[str]]:
    """Failure messages of every failing point of a build or verify report."""
    if len(report["points"]) != len(field.points):
        return {-1: [f"{len(report['points'])} points reported, {len(field.points)} given"]}
    bad = {}
    for entry, point in zip(report["points"], field.points):
        msgs = check_point_entry(entry, point, dim)
        if msgs:
            bad[entry["index"]] = msgs
    return bad


def sampled_values(report: dict, field, powers) -> list[tuple[str, float, float]]:
    """(label, sampled, exact) for every sampled comass in a verify report.

    Exact values: 1 for Omega and its powers (all its pair values are 1), and
    ``mu_1 ... mu_p`` for the input's ``omega^p/p!``.
    """
    out = []
    for entry, point in zip(report["points"], field.points):
        checks = entry["checks"]
        if not checks:
            continue
        i = entry["index"]
        out.append((f"point {i} Omega", float(checks["Omega_comass_sampled_bound"]["value"]), 1.0))
        for p in powers:
            exact_in = float(np.prod(np.sort(point.mu)[::-1][:p]))
            out.append((f"point {i} omega^{p}", float(checks[f"power_{p}_comass_bound"]["value"]), exact_in))
            out.append((f"point {i} Omega^{p}", float(checks[f"power_{p}_calibration_bound"]["value"]), 1.0))
    return out


def check_sampled(values) -> tuple[list[str], float]:
    """Sampled values never exceed the exact ones and stay tight; returns the largest gap."""
    bad = []
    gap_max = 0.0
    for label, sampled, exact in values:
        if not sampled <= exact * (1 + SAMPLED_SLACK):
            bad.append(f"{label}: sampled comass {sampled!r} above exact {exact!r}")
        gap = (exact - sampled) / exact
        gap_max = max(gap_max, gap)
        if not gap <= SAMPLED_TIGHTNESS:
            bad.append(f"{label}: sampled comass {sampled!r} falls {gap:.3g} below exact {exact!r}")
    return bad, gap_max


def check_exit(label: str, code) -> list[str]:
    return [] if code == 0 else [f"{label}: exit code {code}, expected 0"]


class Ledger:
    """Digests of outputs by key; a later pass must reproduce the first one's bytes."""

    def __init__(self):
        self.digests: dict = {}

    def record(self, key, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"{key}: output bytes differ between passes"]
