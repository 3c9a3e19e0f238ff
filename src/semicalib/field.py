"""Grid-level orchestration: CALFIELD parsing, field processing, verification.

A field is an ordered list of sample points, each carrying a metric and a
2-form; the file's coordinates are checked but not kept.  Point 0 is the
designated base point: the automatic gap parameter epsilon is read off its
spectrum and shared by every point.  Processing runs the construction's
stages on the whole field, each one routine on a stack: spectra, band split,
complement frames and assembly.  Points whose spectrum violates the band gap
are flagged and excluded rather than fatal.  The complement frames follow a
chain of points by orthogonal Procrustes rotations, so the output fields
stay continuous; the assembly runs on batches of points sharing (n, m), and
a point's results do not depend on its batch.  Verification runs each comass
oracle once per slice of points, sampled on (g_J, Omega) and exact on the
powers.  Parsing likewise reads the records first, then converts every
number of the field at once and checks the metrics in slices of points.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

# construct_point, lift_odd, comass_bruteforce, comass_exact,
# associated_endomorphism and paired_spectrum are not called here;
# perfbench/workloads.py traces them by patching these names in this module,
# so they stay imported.
from .comass import _exact_powers, _sampled_stack, comass_bruteforce, comass_exact  # noqa: F401
from .config import DEFAULT_TOLERANCES, Tolerances
from .construction import (  # noqa: F401
    PointConstruction,
    _assemble,
    _complement_frames,
    _spectra,
    construct_point,
    lift_odd,
)
from .errors import EpsilonInferenceError, ParseError
from .forms import (
    MetricTensor,
    TwoForm,
    _first_fault,
    _metric_stack,
    _placed,
    _raise_first,
    _triu,
    _trusted,
    _two_form_stack,
    _upper_stack,
)
from .spectral import (  # noqa: F401
    PairedSpectrum,
    _split_stack,
    associated_endomorphism,
    infer_epsilon,
    paired_spectrum,
)

FORMAT_VERSION = 8
# Points per assembly batch: enough to share each stacked call's overhead,
# few enough that a batch's temporaries stay small whatever the field size.
_BATCH = 64

# Thresholds applied by verify_field, per check.
RESIDUAL_THRESHOLDS = {
    "j_squared": 1e-10,
    "compatibility": 1e-10,
    "j_invariance": 1e-10,
    "pairing": 1e-10,
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


def _floats(lines: list[tuple[int, list[str]]]) -> np.ndarray:
    """Every token of these records as a float, in order; raises ValueError on a bad token."""
    tokens = itertools.chain.from_iterable(tokens for _, tokens in lines)
    return np.fromiter(map(float, tokens), float, count=sum(len(tokens) for _, tokens in lines))


def _number_fault(lines: list[tuple[int, list[str]]]) -> tuple[int, ParseError] | None:
    """(position in ``lines``, error) of the first token that is not a finite number."""
    for k, (lineno, tokens) in enumerate(lines):
        for token in tokens:
            try:
                _parse_number(token, lineno)
            except ParseError as exc:
                return k, exc
    return None


def parse_calfield(text: str) -> FieldGrid:
    """Parse CALFIELD v1 text into a validated grid; errors carry line numbers.

    The records are read in order first, then every number of the field is
    converted at once and the metrics are checked in slices of ``_BATCH``
    points.  Of several faults, the one on the earliest line is raised: a
    metric that is not positive definite counts on its ``G`` line.
    """
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
    numeric: list[tuple[int, list[str]]] = []  # X, G and W records, in file order
    g_lines: list[int] = []
    fault: ParseError | None = None
    try:
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
            numeric.append((lineno, rest))
            lineno, rest = records.take("G", "metric 'G ...'")
            if len(rest) != n_g:
                raise ParseError(f"expected {n_g} metric coefficients, got {len(rest)}", lineno)
            numeric.append((lineno, rest))
            g_lines.append(lineno)
            lineno, rest = records.take("W", "two-form 'W ...'")
            if len(rest) != n_w:
                raise ParseError(f"expected {n_w} form coefficients, got {len(rest)}", lineno)
            numeric.append((lineno, rest))
        if not records.exhausted():
            lineno, tokens = records.records[records.pos]
            raise ParseError(
                f"point count mismatch: trailing content {tokens[0]!r} after {npoints} points",
                lineno,
            )
    except ParseError as exc:
        fault = exc

    # Every record read so far precedes the structural fault, if any.  A bad
    # number ends the records whose metrics are checked below.
    try:
        values = _floats(numeric)
        finite = bool(np.isfinite(values).all())
    except ValueError:
        finite = False
    if not finite:
        k, fault = _number_fault(numeric)
        numeric = numeric[:k]
        values = _floats(numeric)

    # One row per point whose G record was read (X, G, W); the last may lack W.
    count = (len(numeric) + 1) // 3
    stride = dim + n_g + n_w
    if len(values) < count * stride:
        values = np.concatenate([values, np.zeros(count * stride - len(values))])
    table = values[: count * stride].reshape(count, stride)
    # Slices of _BATCH points keep the temporaries small; stacked eigvalsh
    # gives each metric the bits it gives the metric alone.
    points: list[FieldPoint] = []
    for lo in range(0, count, _BATCH):
        rows = table[lo : lo + _BATCH]
        upper = _upper_stack(dim, rows[:, dim : dim + n_g], 0)
        upper += _triu(upper, 1).mT
        metrics, checks = _metric_stack(upper)
        # The entries are finite and mirrored: only positive definiteness can fail.
        metric_fault = _first_fault(checks)
        if metric_fault is not None:
            i, exc = lo + metric_fault[0], metric_fault[1]
            message = f"metric not positive definite at point {i}: {exc}"
            raise ParseError(message, g_lines[i]) from exc
        upper = _upper_stack(dim, rows[:, dim + n_g :], 1)
        forms, _ = _two_form_stack(upper - upper.mT)
        points += [
            FieldPoint(lo + i, _trusted(MetricTensor, entries=g), _trusted(TwoForm, entries=w))
            for i, (g, w) in enumerate(zip(metrics, forms))
        ]
    if fault is not None:
        raise fault
    return FieldGrid(dim=dim, points=tuple(points))


def _grid_stacks(grid: FieldGrid) -> tuple[np.ndarray, np.ndarray]:
    """The grid's (N, n, n) metric and form stacks, padded as :func:`lift_odd` pads a point at odd n."""
    g = np.array([point.g.entries for point in grid.points])
    w = np.array([point.omega.entries for point in grid.points])
    if grid.dim % 2:
        g, w = (np.pad(x, ((0, 0), (0, 1), (0, 1))) for x in (g, w))
        g[:, -1, -1] = 1.0
    return g, w


def process_field(grid: FieldGrid, config: FieldConfig = FieldConfig()) -> ConstructionField:
    """Run the construction's stages on the whole field, with complement frames that follow it.

    Spectra run on slices of ``_BATCH`` points and the assembly on batches of
    up to ``_BATCH`` included points sharing m.  Epsilon comes from the base
    point (automatic policy) or the config; gap violations flag and exclude
    the offending point.  With ``use_hints`` the frame chain links each point
    to the last included one with a complement of the same dimension.  Of
    several faults the lowest index's is raised, as if each point were built
    in turn: spectrum, epsilon at the base point, J, g_J, Omega, residuals.
    """
    if not grid.points:
        raise ValueError("grid is empty")
    lifted_from = grid.dim if grid.dim % 2 else None
    dim = grid.dim + 1 if lifted_from else grid.dim
    size = len(grid.points)
    g, w = _grid_stacks(grid)

    tol = config.tolerances
    parts, checks = [], []
    for lo in range(0, size, _BATCH):
        *arrays, part_checks = _spectra(g[lo : lo + _BATCH], w[lo : lo + _BATCH], tol)
        parts.append(arrays)
        checks += _placed(part_checks, np.arange(lo, lo + len(arrays[0])), size)
    a, basis, values, npairs = map(np.concatenate, zip(*parts))

    epsilon = config.epsilon
    if epsilon is None:
        epsilon = infer_epsilon(PairedSpectrum(basis[0], values[0], int(npairs[0])))
        no_epsilon = (np.arange(size) == 0) & (epsilon is None)
        checks.append((no_epsilon, lambda i: EpsilonInferenceError(
            "cannot infer epsilon: base point has no positive eigenvalue above threshold")))
        epsilon = epsilon or 1.0
    m, offending = _split_stack(values, npairs, epsilon)
    included = ~offending.any(axis=1)

    chain = np.flatnonzero(included & (2 * m < dim))
    prev = np.full(size, -1)
    if config.use_hints:
        linked = m[chain[1:]] == m[chain[:-1]]
        prev[chain[1:][linked]] = chain[:-1][linked]
    frames = _complement_frames(basis, g, m, prev)
    stacks = (g, a, basis, values, npairs, frames)

    constructions = {}
    for mi in dict.fromkeys(m[included].tolist()):  # the m groups, in order of first appearance
        members = np.flatnonzero(included & (m == mi))
        for lo in range(0, len(members), _BATCH):
            rows = members[lo : lo + _BATCH]
            built, batch_checks = _assemble(*(x[rows] for x in stacks), mi, float(epsilon), tol)
            checks += _placed(batch_checks, rows, size)
            constructions.update(zip(rows.tolist(), built))
    _raise_first(checks)
    outcomes = tuple(
        PointOutcome(point.index, constructions.get(i), i in constructions,
                     tuple(values[i][offending[i]].tolist()), tuple(values[i].tolist()))
        for i, point in enumerate(grid.points)
    )
    return ConstructionField(float(epsilon), dim, lifted_from, outcomes)


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
    tables = [o.construction.residuals for o in outcomes if o.construction is not None]
    return {key: max(abs(t[key]) for t in tables) for key in sorted(set().union(*tables))}


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


def _point_checks(outcome: PointOutcome, sampled: float, powers: dict) -> dict:
    """A built point's checks; ``powers`` maps p to the exact comass of (input, output) p-th powers."""
    pc = outcome.construction
    checks = {key: _check(float(pc.residuals[key]), threshold)
              for key, threshold in RESIDUAL_THRESHOLDS.items()}
    low, high = min(outcome.eigenvalues), max(outcome.eigenvalues)
    checks["input_eigenvalue_bound"] = _check(
        high, 1.0 + EIGENVALUE_UPPER, ok=(low >= EIGENVALUE_LOWER and high <= 1.0 + EIGENVALUE_UPPER)
    )

    g_scale = max(float(np.abs(pc.g_j.entries).max()), 1.0)
    dom = float(pc.residuals["metric_domination_min_eig"])
    checks["metric_domination"] = _check(-dom, METRIC_DOMINATION_SLACK * g_scale)

    # The one sampled run: an independent lower bound on comass(Omega) = 1,
    # checked from both sides: not above 1, and attained.
    checks["Omega_comass_sampled_bound"] = _check(sampled, 1.0 + COMASS_SLACK)
    checks["Omega_comass_sampled_attained"] = _check(1.0 - sampled, SAMPLED_TIGHTNESS)
    for p, (comass_in, comass_out) in powers.items():
        checks[f"power_{p}_comass_bound"] = _check(comass_in, 1.0 + COMASS_SLACK)
        checks[f"power_{p}_calibration_bound"] = _check(comass_out, 1.0 + COMASS_SLACK)
    return checks


def verify_field(cf: ConstructionField, grid: FieldGrid, config: FieldConfig = FieldConfig()) -> VerificationReport:
    """Check every included point against the construction guarantees.

    The comass checks run once per slice of ``_BATCH`` included points: the
    sampled run on their ``(g_J, Omega)``, and with ``powers`` the exact
    comass of the powers of the lifted input and of ``(g_J, Omega)``; a
    point's values do not depend on its slice.  Failures become report
    entries, not exceptions; gap-excluded points are listed but do not fail
    verification.  Raises ValueError when ``config.restarts`` is below 1:
    unpolished, the sampled run cannot attain comass 1.
    """
    if config.restarts < 1:
        raise ValueError("verify needs restarts >= 1: unpolished, its sampled run cannot attain 1")
    powers = sorted(set(config.powers))
    g_in, w_in = _grid_stacks(grid)
    data = build_report(cf)
    for entry in data["points"]:
        entry["checks"] = {}
    outcomes = cf.outcomes
    included = [i for i, o in enumerate(outcomes) if o.construction is not None]
    for lo in range(0, len(included), _BATCH):
        rows = included[lo : lo + _BATCH]
        g_j = np.array([outcomes[i].construction.g_j.entries for i in rows])
        omega = np.array([outcomes[i].construction.omega_total.entries for i in rows])
        seeds = [np.random.SeedSequence(config.seed, spawn_key=(outcomes[i].index, 0)) for i in rows]
        sampled = _sampled_stack(g_j, omega, 1, config.samples, config.restarts, seeds)
        comass_in = _exact_powers(g_in[rows], w_in[rows], powers)[0] if powers else {}
        comass_out = _exact_powers(g_j, omega, powers)[0] if powers else {}
        for b, i in enumerate(rows):
            by_power = {p: (float(comass_in[p][b]), float(comass_out[p][b])) for p in powers}
            data["points"][i]["checks"] = _point_checks(outcomes[i], sampled[b].value, by_power)
    data["summary"]["pass"] = all(c["pass"] for e in data["points"] for c in e["checks"].values())
    return VerificationReport(data=data, passed=data["summary"]["pass"])


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
    identity_upper = ["1" if i == j else "0" for i in range(dim) for j in range(i, dim)]
    for k in range(spec["points"]):
        coords = [str(k)] + ["0"] * (dim - 1)
        lines.append(f"P {k}")
        lines.append("X " + " ".join(coords))
        lines.append("G " + " ".join(identity_upper))
        lines.append("W " + " ".join(spec["w"](k)))
    return "\n".join(lines) + "\n"
