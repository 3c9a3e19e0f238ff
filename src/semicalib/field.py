"""Grid-level orchestration: CALFIELD parsing, field processing, verification.

A field is an ordered list of sample points, each carrying a metric and a
2-form; the file's coordinates are checked but not kept.  Point 0 is the
designated base point: the automatic gap parameter epsilon is read off its
spectrum and shared by every point.  The construction runs pointwise in index
order, propagating the complement frame from one point to the next by
orthogonal Procrustes alignment so the output fields stay continuous; points
whose spectrum violates the band gap are flagged and excluded rather than
fatal.

CALFIELD v1 (plain text, whitespace separated, '#' comments to end of line)::

    CALFIELD 1
    DIM n          # 2 <= n <= 16
    POINTS N       # N >= 1
    P idx          # then per point, idx = 0..N-1 in order:
    X x1 ... xn
    G g11 g12 ... gnn   # upper triangle incl. diagonal, row-major
    W w12 w13 ... w(n-1)n  # strict upper triangle, row-major
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# comass_exact, associated_endomorphism and paired_spectrum are not called
# here; perfbench/workloads.py traces them by patching these names in this
# module, so they stay imported.
from .comass import _exact_powers, comass_bruteforce, comass_exact  # noqa: F401
from .config import DEFAULT_TOLERANCES, Tolerances
from .construction import PointConstruction, construct_point, lift_odd
from .errors import (
    EpsilonInferenceError,
    GapViolation,
    NotPositiveDefiniteError,
    ParseError,
)
from .forms import Frame, MetricTensor, TwoForm
from .spectral import associated_endomorphism, infer_epsilon, paired_spectrum  # noqa: F401

FORMAT_VERSION = 5

# Thresholds applied by verify_field, per check.
RESIDUAL_THRESHOLDS = {
    "j_squared": 1e-10,
    "compatibility": 1e-10,
    "j_invariance": 1e-10,
    "pairing": 1e-10,
    "definition": 1e-12,
    "skew_adjoint": 1e-12,
    "basis_orthonormality": 1e-10,
    "eigen_residual": 1e-10,
    "calibration_unit_comass": 1e-9,
    "preservation": 1e-9,
}
EIGENVALUE_LOWER = -1e-12
EIGENVALUE_UPPER = 1e-9       # slack above 1
COMASS_SLACK = 1e-9           # comass bounds, sampled and exact
SAMPLED_TIGHTNESS = 1e-6      # the sampled run on Omega must reach 1 - this
METRIC_DOMINATION_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class FieldPoint:
    index: int
    g: MetricTensor
    omega: TwoForm


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Validated sample points in traversal order (row-major by index)."""

    dim: int
    points: tuple[FieldPoint, ...]


@dataclass(frozen=True)
class FieldConfig:
    """Knobs for processing and verification.

    ``epsilon=None`` means the automatic policy (from the base point).  All
    randomness used in verification flows from ``seed``; point ``i`` uses the
    child stream seeded by ``[seed, i]``.  ``samples`` and ``restarts`` size
    the one sampled run on ``(g_J, Omega)``: every pair value of ``Omega`` is
    1, so its maximum is attained on a large set and a few hundred starts
    suffice for the polish.
    """

    epsilon: float | None = None
    seed: int = 0
    samples: int = 256
    restarts: int = 10
    powers: tuple[int, ...] = ()
    use_hints: bool = True
    tolerances: Tolerances = DEFAULT_TOLERANCES


@dataclass(frozen=True, eq=False)
class PointOutcome:
    """One point's construction, or the gap diagnostics when it was excluded."""

    index: int
    construction: PointConstruction | None
    gap_ok: bool
    offending_eigenvalues: tuple[float, ...]
    eigenvalues: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ConstructionField:
    """Per-point constructions plus the shared epsilon."""

    epsilon: float
    dim: int
    lifted_from: int | None
    outcomes: tuple[PointOutcome, ...]


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """JSON-ready verification results; serialization is byte-reproducible."""

    data: dict
    passed: bool


def _parse_number(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"cannot parse number {token!r}", line) from exc
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r}", line)
    return value


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"cannot parse {what} {token!r}", line) from exc


class _Records:
    """Logical lines of a CALFIELD file: (line number, tokens)."""

    def __init__(self, text: str):
        self.records: list[tuple[int, list[str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.records.append((lineno, body.split()))
        self.pos = 0
        self.last_line = self.records[-1][0] if self.records else 1

    def take(self, tag: str, what: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.records):
            raise ParseError(f"unexpected end of file, expected {what}", self.last_line)
        lineno, tokens = self.records[self.pos]
        self.pos += 1
        if tokens[0] != tag:
            raise ParseError(f"expected {what}, got {tokens[0]!r}", lineno)
        return lineno, tokens[1:]

    def exhausted(self) -> bool:
        return self.pos >= len(self.records)


def parse_calfield(text: str) -> FieldGrid:
    """Parse CALFIELD v1 text into a validated grid; errors carry line numbers."""
    records = _Records(text)

    lineno, rest = records.take("CALFIELD", "header 'CALFIELD 1'")
    if rest != ["1"]:
        raise ParseError(f"unsupported CALFIELD version {' '.join(rest) or '<missing>'}", lineno)
    lineno, rest = records.take("DIM", "'DIM n'")
    if len(rest) != 1:
        raise ParseError("DIM takes exactly one value", lineno)
    dim = _parse_int(rest[0], lineno, "dimension")
    if not 2 <= dim <= 16:
        raise ParseError(f"dimension must be in [2, 16], got {dim}", lineno)
    lineno, rest = records.take("POINTS", "'POINTS N'")
    if len(rest) != 1:
        raise ParseError("POINTS takes exactly one value", lineno)
    npoints = _parse_int(rest[0], lineno, "point count")
    if npoints < 1:
        raise ParseError(f"point count must be >= 1, got {npoints}", lineno)

    n_g = dim * (dim + 1) // 2
    n_w = dim * (dim - 1) // 2
    points: list[FieldPoint] = []
    for i in range(npoints):
        if records.exhausted():
            raise ParseError(
                f"point count mismatch: expected {npoints} points, file ends after {i}",
                records.last_line,
            )
        lineno, rest = records.take("P", f"'P {i}'")
        if len(rest) != 1 or _parse_int(rest[0], lineno, "point index") != i:
            raise ParseError(f"expected point index {i}", lineno)
        lineno, rest = records.take("X", "coordinates 'X ...'")
        if len(rest) != dim:
            raise ParseError(f"expected {dim} coordinates, got {len(rest)}", lineno)
        for t in rest:
            _parse_number(t, lineno)
        lineno, rest = records.take("G", "metric 'G ...'")
        if len(rest) != n_g:
            raise ParseError(f"expected {n_g} metric coefficients, got {len(rest)}", lineno)
        g_coeffs = [_parse_number(t, lineno) for t in rest]
        try:
            g = MetricTensor.from_upper(dim, g_coeffs)
        except NotPositiveDefiniteError as exc:
            raise ParseError(f"metric not positive definite at point {i}: {exc}", lineno) from exc
        lineno, rest = records.take("W", "two-form 'W ...'")
        if len(rest) != n_w:
            raise ParseError(f"expected {n_w} form coefficients, got {len(rest)}", lineno)
        omega = TwoForm.from_upper(dim, [_parse_number(t, lineno) for t in rest])
        points.append(FieldPoint(index=i, g=g, omega=omega))

    if not records.exhausted():
        lineno, tokens = records.records[records.pos]
        raise ParseError(
            f"point count mismatch: trailing content {tokens[0]!r} after {npoints} points",
            lineno,
        )
    return FieldGrid(dim=dim, points=tuple(points))


def _lift_grid_point(point: FieldPoint) -> tuple[MetricTensor, TwoForm]:
    """The point's (g, omega), lifted to the next even dimension when odd."""
    if point.g.dim % 2 == 0:
        return point.g, point.omega
    return lift_odd(point.g, point.omega)


def process_field(grid: FieldGrid, config: FieldConfig = FieldConfig()) -> ConstructionField:
    """Run the construction at every point with smooth frame propagation.

    Epsilon comes from the base point (automatic policy) or the config; gap
    violations flag and exclude the offending point.  Each point's complement
    frame hint is the last successful point's frame.
    """
    if not grid.points:
        raise ValueError("grid is empty")
    lifted_from = grid.dim if grid.dim % 2 else None
    dim = grid.dim + 1 if lifted_from else grid.dim

    data = [(point, *_lift_grid_point(point)) for point in grid.points]

    # Under the automatic policy (epsilon None) the base point's construction
    # infers its own epsilon, which every later point then shares.
    epsilon = config.epsilon
    outcomes: list[PointOutcome] = []
    hint: Frame | None = None
    for point, g, omega in data:
        try:
            pc = construct_point(
                g,
                omega,
                epsilon=epsilon,
                tframe_hint=hint if config.use_hints else None,
                tol=config.tolerances,
            )
        except GapViolation as exc:
            if epsilon is None:
                epsilon = exc.epsilon
            outcomes.append(
                PointOutcome(
                    index=point.index,
                    construction=None,
                    gap_ok=False,
                    offending_eigenvalues=exc.offenders,
                    eigenvalues=exc.eigenvalues,
                )
            )
            continue
        if epsilon is None:
            epsilon = infer_epsilon(pc.spectrum)
            if epsilon is None:
                raise EpsilonInferenceError(
                    "cannot infer epsilon: base point has no positive eigenvalue above threshold"
                )
        outcomes.append(
            PointOutcome(
                index=point.index,
                construction=pc,
                gap_ok=True,
                offending_eigenvalues=(),
                eigenvalues=tuple(float(x) for x in pc.spectrum.values),
            )
        )
        if 2 * pc.m < dim:
            hint = Frame(pc.frame[2 * pc.m :])

    return ConstructionField(
        epsilon=float(epsilon), dim=dim, lifted_from=lifted_from, outcomes=tuple(outcomes)
    )


def _point_entry(outcome: PointOutcome) -> dict:
    entry: dict = {
        "index": outcome.index,
        "gap_ok": outcome.gap_ok,
        "eigenvalues": list(outcome.eigenvalues),
        "offending_eigenvalues": list(outcome.offending_eigenvalues),
    }
    pc = outcome.construction
    if pc is None:
        entry.update({"m": None, "J": None, "gJ": None, "Omega": None, "residuals": {}})
    else:
        entry.update(
            {
                "m": pc.m,
                "J": pc.j.matrix,
                "gJ": pc.g_j.entries,
                "Omega": pc.omega_total.entries,
                "residuals": dict(pc.residuals),
            }
        )
    return entry


def _max_residuals(outcomes) -> dict:
    keys: set[str] = set()
    for o in outcomes:
        if o.construction is not None:
            keys.update(o.construction.residuals)
    maxima = {}
    for key in sorted(keys):
        vals = [
            abs(o.construction.residuals[key])
            for o in outcomes
            if o.construction is not None and key in o.construction.residuals
        ]
        maxima[key] = max(vals) if vals else 0.0
    return maxima


def _notes(cf: ConstructionField) -> list[str]:
    notes = []
    if cf.lifted_from:
        notes.append(f"lifted from {cf.lifted_from} to {cf.dim}")
    excluded = [o.index for o in cf.outcomes if not o.gap_ok]
    if excluded:
        notes.append(f"excluded gap-violating points: {excluded}")
    return notes


def build_report(cf: ConstructionField) -> dict:
    """JSON-ready build report: per-point construction data plus summary."""
    return {
        "format_version": FORMAT_VERSION,
        "epsilon": cf.epsilon,
        "notes": _notes(cf),
        "points": [_point_entry(o) for o in cf.outcomes],
        "summary": {
            "max_residuals": _max_residuals(cf.outcomes),
            "pass": all(o.gap_ok for o in cf.outcomes),
        },
    }


def _check(value: float, threshold: float, ok: bool | None = None) -> dict:
    passed = value <= threshold if ok is None else ok
    return {"value": value, "threshold": threshold, "pass": bool(passed)}


def _verify_point(outcome: PointOutcome, point: FieldPoint, config: FieldConfig) -> dict:
    pc = outcome.construction
    checks: dict[str, dict] = {}
    for key, threshold in RESIDUAL_THRESHOLDS.items():
        checks[key] = _check(float(pc.residuals[key]), threshold)

    eigs = np.array(outcome.eigenvalues)
    low = float(eigs.min()) if eigs.size else 0.0
    high = float(eigs.max()) if eigs.size else 0.0
    checks["input_eigenvalue_bound"] = _check(
        high, 1.0 + EIGENVALUE_UPPER, ok=(low >= EIGENVALUE_LOWER and high <= 1.0 + EIGENVALUE_UPPER)
    )

    g_scale = max(float(np.abs(pc.g_j.entries).max()), 1.0)
    dom = float(pc.residuals["metric_domination_min_eig"])
    checks["metric_domination"] = _check(-dom, METRIC_DOMINATION_SLACK * g_scale)

    # The one sampled run: an independent lower bound on comass(Omega) = 1,
    # checked from both sides: not above 1, and attained.
    sampled = comass_bruteforce(
        pc.g_j,
        pc.omega_total,
        samples=config.samples,
        restarts=config.restarts,
        seed=np.random.SeedSequence(entropy=config.seed, spawn_key=(outcome.index, 0)),
    )
    checks["Omega_comass_sampled_bound"] = _check(sampled.value, 1.0 + COMASS_SLACK)
    checks["Omega_comass_sampled_attained"] = _check(1.0 - sampled.value, SAMPLED_TIGHTNESS)

    powers = sorted(set(config.powers))
    if powers:
        power_in = _exact_powers(*_lift_grid_point(point), powers)
        power_out = _exact_powers(pc.g_j, pc.omega_total, powers)
        for p in powers:
            checks[f"power_{p}_comass_bound"] = _check(power_in[p][0], 1.0 + COMASS_SLACK)
            checks[f"power_{p}_calibration_bound"] = _check(power_out[p][0], 1.0 + COMASS_SLACK)
    return checks


def verify_field(cf: ConstructionField, grid: FieldGrid, config: FieldConfig = FieldConfig()) -> VerificationReport:
    """Check every included point against the construction guarantees.

    Failures become report entries, not exceptions; gap-excluded points are
    listed but do not fail verification (their exclusion is already recorded).
    """
    by_index = {p.index: p for p in grid.points}
    data = build_report(cf)
    all_pass = True
    for entry, outcome in zip(data["points"], cf.outcomes):
        checks = {}
        if outcome.construction is not None:
            checks = _verify_point(outcome, by_index[outcome.index], config)
            all_pass &= all(c["pass"] for c in checks.values())
        entry["checks"] = checks
    data["summary"]["pass"] = bool(all_pass)
    return VerificationReport(data=data, passed=bool(all_pass))


_DEMO_SPECS = {
    "standard": {
        "description": "compatible triple already: identity metric, standard symplectic form",
        "dim": 4,
        "w": lambda k: ["1", "0", "0", "0", "0", "1"],
        "points": 3,
    },
    "scaled": {
        "description": "unit block plus a 0.5-scaled block; rank 2, comass 1",
        "dim": 4,
        "w": lambda k: ["1", "0", "0", "0", "0", "0.5"],
        "points": 3,
    },
    "rank-deficient": {
        "description": "single unit block; rank 1, two kernel directions",
        "dim": 4,
        "w": lambda k: ["1", "0", "0", "0", "0", "0"],
        "points": 3,
    },
    "odd3": {
        "description": "odd ambient dimension; processing lifts every point to dimension 4",
        "dim": 3,
        "w": lambda k: ["1", "0", "0"],
        "points": 3,
    },
}

DEMO_NAMES = tuple(sorted(_DEMO_SPECS))


def demo_calfield(name: str) -> str:
    """Generate a documented CALFIELD file for one of the built-in demos."""
    if name not in _DEMO_SPECS:
        raise ValueError(f"unknown demo {name!r}; choose one of {', '.join(DEMO_NAMES)}")
    spec = _DEMO_SPECS[name]
    dim = spec["dim"]
    lines = [
        f"# demo '{name}': {spec['description']}",
        "# G is the upper triangle (incl. diagonal) of the metric, row-major;",
        "# W is the strict upper triangle of the 2-form, row-major.",
        "CALFIELD 1",
        f"DIM {dim}",
        f"POINTS {spec['points']}",
    ]
    identity_upper = []
    for i in range(dim):
        identity_upper.append("1")
        identity_upper.extend("0" for _ in range(dim - i - 1))
    for k in range(spec["points"]):
        coords = [str(k)] + ["0"] * (dim - 1)
        lines.append(f"P {k}")
        lines.append("X " + " ".join(coords))
        lines.append("G " + " ".join(identity_upper))
        lines.append("W " + " ".join(spec["w"](k)))
    return "\n".join(lines) + "\n"
