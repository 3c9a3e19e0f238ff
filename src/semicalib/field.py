"""Grid-level orchestration: CALFIELD parsing, field processing, verification.

A field is an ordered list of sample points, each a metric and a 2-form; a
FieldGrid holds them as the columns ``g`` and ``w``, and the file's
coordinates are checked but not kept.  Point 0 is the base point: the
automatic epsilon is read off its spectrum and shared by every point.
Processing runs the construction's stages on the whole field, each one
routine on a stack: spectra, band split, complement frames and assembly.
Points whose spectrum violates the band gap are excluded rather than fatal.
The complement frames follow a chain of points by orthogonal Procrustes
rotations, so the output fields stay continuous; the assembly runs on
batches of points sharing (n, m), and a point's results do not depend on
its batch.  The result, a ConstructionField, keeps the stacks the stages
compute as columns, one row per point.  The report and verification read
the columns of the grid, the result and the comass oracles, each run once
per slice of points; ``grid.points`` and ``cf.outcomes`` are per-point
views built on demand.  Parsing reads the file once, in order: each record
is checked and converted when it is taken, and the metrics read are checked
in slices at the first fault or at the end, so no token outlives its line.

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

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

# construct_point, lift_odd, comass_bruteforce, comass_exact,
# associated_endomorphism and paired_spectrum are not called here;
# perfbench/workloads.py traces them by patching these names in this module,
# so they stay imported.
from .comass import _check_power, _exact_powers, _sampled_stack, comass_bruteforce, comass_exact  # noqa: F401
from .config import MAX_DIM
from .construction import (  # noqa: F401
    PointConstruction,
    _assemble,
    _complement_frames,
    _form_spectra,
    _lift_stack,
    _point_construction,
    construct_point,
    lift_odd,
)
from .errors import EpsilonInferenceError, ParseError
from .forms import (
    MetricTensor,
    TwoForm,
    _checked,
    _first_fault,
    _freeze,
    _metric_stack,
    _trusted,
    _two_form_stack,
    _upper_stack,
)
from .spectral import _auto_epsilon, _split_stack, associated_endomorphism, paired_spectrum  # noqa: F401

FORMAT_VERSION = 13
# Points per assembly batch: enough to share each stacked call's overhead,
# few enough that a batch's temporaries stay small whatever the field size.
_BATCH = 64
# Characters of CALFIELD text split into lines at a time: the parse holds one
# block's lines, not a second copy of the file.
_BLOCK = 1 << 16

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
# The polish shift s of the sampled run on (g_J, Omega).  A polish step is
# Y <- polar(M^-1 Y W_w + s Y); linearised at a maximiser, it multiplies the
# error off the maximiser set by (s - 1)/(s + 1) where the pair values are
# equal, as all of Omega's are (1) under g_J.  At s = 1 that factor is 0 and
# the run stops in about 4 steps; at s = 0.5 it is -1/3, about 23 steps.
# Generic forms keep comass._POLISH_SHIFT = 0.5: with a pair-value ratio
# r < 1 the factors are (s +- r)/(1 + s), so s = 1 is slower there, and s = 0
# never converges on equal pair values.
_VERIFY_POLISH_SHIFT = 1.0
# The step cap of that run, 5x the largest count of valid input (10 steps on
# the near-double grid).  Where Omega exceeds comass 1 by a small eps on one
# pair, a step contracts toward that pair only by about 1 - eps/2, so the
# polish runs to its cap; generic forms keep comass._POLISH_MAX_ITER = 1000.
_VERIFY_POLISH_MAX_ITER = 50


@dataclass(frozen=True, eq=False)
class FieldPoint:
    index: int
    g: MetricTensor
    omega: TwoForm


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Validated sample points as read-only (N, n, n) stacks ``g`` and ``w``, one row per point."""

    dim: int
    g: np.ndarray  # (N, n, n)
    w: np.ndarray  # (N, n, n)

    def __post_init__(self):
        object.__setattr__(self, "g", _checked(self.g, "metric", _metric_stack, stacked=True))
        object.__setattr__(self, "w", _checked(self.w, "two-form", _two_form_stack, stacked=True))
        if self.w.shape != self.g.shape or self.g.shape[-1] != self.dim:
            raise ValueError(f"metric and two-form stacks must share one shape (N, {self.dim}, {self.dim})")

    @functools.cached_property
    def points(self) -> tuple[FieldPoint, ...]:
        """One FieldPoint per row, built on first use; its matrices are views of the rows."""
        return tuple(FieldPoint(i, _trusted(MetricTensor, entries=g), _trusted(TwoForm, entries=w))
                     for i, (g, w) in enumerate(zip(self.g, self.w)))


@dataclass(frozen=True)
class FieldConfig:
    """The settings of processing and verification; the numerical thresholds are fixed in ``config``.

    ``epsilon=None`` means the automatic policy (from the base point).  All
    randomness used in verification flows from ``seed``; point ``i`` draws
    from ``SeedSequence(seed, spawn_key=(i, 0))``.  ``samples`` and
    ``restarts`` size the one sampled run on ``(g_J, Omega)``: every pair
    value of ``Omega`` is 1, so its maximum is attained on a large set and a
    few hundred starts suffice for the polish.
    """

    epsilon: float | None = None
    seed: int = 0
    samples: int = 256
    restarts: int = 10
    powers: tuple[int, ...] = ()
    use_hints: bool = True


@dataclass(frozen=True, eq=False)
class PointOutcome:
    """One point's construction, or its gap diagnostics if excluded: a row of a ConstructionField."""

    index: int
    construction: PointConstruction | None
    gap_ok: bool
    offending_eigenvalues: tuple[float, ...]
    eigenvalues: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ConstructionField:
    """The field's construction as columns, one row per point, plus the shared epsilon.

    ``values``, ``basis`` and ``npairs`` are the paired spectra, ``offending``
    masks the eigenvalues inside the forbidden band, ``m`` counts the V pairs
    and ``frames`` holds the paired frames as rows.  ``built`` marks the
    points outside the band; their rows of ``J``, ``g_J``, ``Omega`` and of
    each ``residuals`` column hold the construction, the other rows NaN.
    """

    epsilon: float
    dim: int
    lifted_from: int | None
    values: np.ndarray     # (N, n)
    offending: np.ndarray  # (N, n) bool
    built: np.ndarray      # (N,) bool
    m: np.ndarray          # (N,)
    basis: np.ndarray      # (N, n, n)
    npairs: np.ndarray     # (N,)
    frames: np.ndarray     # (N, n, n)
    J: np.ndarray          # (N, n, n)
    g_J: np.ndarray        # (N, n, n)
    Omega: np.ndarray      # (N, n, n)
    residuals: dict        # name -> (N,)

    def __post_init__(self):  # the per-point view's value objects are views of these rows
        for value in (*vars(self).values(), *self.residuals.values()):
            if isinstance(value, np.ndarray):
                _freeze(value)

    @functools.cached_property
    def outcomes(self) -> tuple[PointOutcome, ...]:
        """The columns as one PointOutcome per point, built on first use."""
        spectra, assembled = (self.basis, self.values, self.npairs), (self.J, self.g_J, self.Omega, self.residuals)
        rows = zip(self.built.tolist(), self.m.tolist(), self.values, self.offending)
        return tuple(
            PointOutcome(i, _point_construction(i, m, self.epsilon, *spectra, self.frames, assembled) if ok else None,
                         ok, tuple(values[offending].tolist()), tuple(values.tolist()))
            for i, (ok, m, values, offending) in enumerate(rows)
        )


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


def _line_blocks(text: str):
    r"""``text.splitlines()`` in parts: the lines of one block of about ``_BLOCK`` characters at a time.

    Each block ends just after a ``\n``, which always ends a line and never
    splits a ``\r\n``, so the blocks' lines, chained, are the text's.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _BLOCK - 1)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end].splitlines()
        start = end


class _Records:
    """Logical lines of a CALFIELD file, (line number, tokens), read as they are taken.

    ``next`` is the record ``take`` returns next, or None at the end of the
    file; ``last_line`` is then the line of the file's last record.
    """

    def __init__(self, text: str):
        lines = chain.from_iterable(_line_blocks(text))
        self._lines = ((lineno, tokens) for lineno, raw in enumerate(lines, start=1)
                       if (tokens := raw.split("#", 1)[0].split()))
        self.last_line = 1
        self.next = self._read()

    def _read(self) -> tuple[int, list[str]] | None:
        record = next(self._lines, None)
        if record is not None:
            self.last_line = record[0]
        return record

    def take(self, tag: str, what: str) -> tuple[int, list[str]]:
        if self.next is None:
            raise ParseError(f"unexpected end of file, expected {what}", self.last_line)
        (lineno, tokens), self.next = self.next, self._read()
        if tokens[0] != tag:
            raise ParseError(f"expected {what}, got {tokens[0]!r}", lineno)
        return lineno, tokens[1:]

    def numbers(self, tag: str, what: str, count: int, noun: str) -> tuple[int, list[float]]:
        """The next record, a ``tag`` line of ``count`` finite numbers: (line number, values)."""
        lineno, tokens = self.take(tag, what)
        if len(tokens) != count:
            raise ParseError(f"expected {count} {noun}, got {len(tokens)}", lineno)
        try:
            values = list(map(float, tokens))
            if math.isfinite(sum(values)):  # else a value, or only their sum, is not finite
                return lineno, values
        except ValueError:
            pass
        return lineno, [_parse_number(token, lineno) for token in tokens]


def parse_calfield(text: str) -> FieldGrid:
    """Parse CALFIELD v1 text into a validated grid; errors carry line numbers.

    One pass in file order: each record is checked and converted when it is
    taken, and the metric and form coefficients go to two flat buffers.  At
    the first structural or number fault, or at the end, the metrics read so
    far are checked in slices of ``_BATCH`` points; a metric that is not
    positive definite counts on its ``G`` line, which precedes the fault, so
    of several faults the one on the earliest line is raised.
    """
    records = _Records(text)

    lineno, rest = records.take("CALFIELD", "header 'CALFIELD 1'")
    if rest != ["1"]:
        raise ParseError(f"unsupported CALFIELD version {' '.join(rest) or '<missing>'}", lineno)
    lineno, rest = records.take("DIM", "'DIM n'")
    if len(rest) != 1:
        raise ParseError("DIM takes exactly one value", lineno)
    dim = _parse_int(rest[0], lineno, "dimension")
    if not 2 <= dim <= MAX_DIM:
        raise ParseError(f"dimension must be in [2, {MAX_DIM}], got {dim}", lineno)
    lineno, rest = records.take("POINTS", "'POINTS N'")
    if len(rest) != 1:
        raise ParseError("POINTS takes exactly one value", lineno)
    npoints = _parse_int(rest[0], lineno, "point count")
    if npoints < 1:
        raise ParseError(f"point count must be >= 1, got {npoints}", lineno)

    n_g, n_w = dim * (dim + 1) // 2, dim * (dim - 1) // 2
    g_rows, w_rows, g_lines = array("d"), array("d"), []  # G and W coefficients; each G's line
    fault: ParseError | None = None
    try:
        for i in range(npoints):
            if records.next is None:
                raise ParseError(
                    f"point count mismatch: expected {npoints} points, file ends after {i}",
                    records.last_line,
                )
            lineno, rest = records.take("P", f"'P {i}'")
            if len(rest) != 1 or _parse_int(rest[0], lineno, "point index") != i:
                raise ParseError(f"expected point index {i}", lineno)
            records.numbers("X", "coordinates 'X ...'", dim, "coordinates")
            lineno, values = records.numbers("G", "metric 'G ...'", n_g, "metric coefficients")
            g_rows.fromlist(values)
            g_lines.append(lineno)
            w_rows.fromlist(records.numbers("W", "two-form 'W ...'", n_w, "form coefficients")[1])
        if records.next is not None:
            lineno, tokens = records.next
            raise ParseError(
                f"point count mismatch: trailing content {tokens[0]!r} after {npoints} points",
                lineno,
            )
    except ParseError as exc:
        fault = exc

    # Slices of _BATCH points keep the temporaries small; stacked eigvalsh
    # gives each metric the bits it gives the metric alone.
    count = len(g_lines)
    g_rows, g = np.frombuffer(g_rows).reshape(count, n_g), np.empty((count, dim, dim))
    for lo in range(0, count, _BATCH):
        g[lo : lo + _BATCH], checks = _metric_stack(_upper_stack(dim, g_rows[lo : lo + _BATCH], 0))
        # The entries are finite and mirrored: only positive definiteness can fail.
        metric_fault = _first_fault(checks)
        if metric_fault is not None:
            i, exc = lo + metric_fault[0], metric_fault[1]
            raise ParseError(f"metric not positive definite at point {i}: {exc}", g_lines[i]) from exc
    if fault is not None:
        raise fault
    w_rows, w = np.frombuffer(w_rows).reshape(count, n_w), np.empty_like(g)
    for lo in range(0, count, _BATCH):
        w[lo : lo + _BATCH] = _upper_stack(dim, w_rows[lo : lo + _BATCH], 1)  # TwoForm's storage: finite, antisymmetric
    return _trusted(FieldGrid, dim=dim, g=g, w=w)  # every row passed FieldGrid's checks above


def process_field(grid: FieldGrid, config: FieldConfig = FieldConfig()) -> ConstructionField:
    """Run the construction's stages on the whole field, with complement frames that follow it.

    Spectra run on slices of ``_BATCH`` points and the assembly on batches of
    up to ``_BATCH`` included points sharing m, each written into the
    field's columns at its rows.  Epsilon comes from the base
    point (automatic policy) or the config; gap violations flag and exclude
    the offending point.  With ``use_hints`` the frame chain links each point
    to the last included one with a complement of the same dimension.  Each
    slice and batch is reduced at once to its first fault, an (index, stage,
    error) triple; of several, the lowest (index, stage) is raised, as if
    each point were built in turn: spectrum, epsilon at the base point, then
    the assembly's J, g_J, Omega and residuals.
    """
    g, w = _lift_stack(grid.g, grid.w)
    size, dim = g.shape[:2]
    if not size:
        raise ValueError("grid is empty")
    lifted_from = grid.dim if dim > grid.dim else None

    faults = []  # (index, stage, error), stages 0 spectrum, 1 epsilon, 2 assembly
    a, basis, values, npairs = np.empty_like(g), np.empty_like(g), np.empty((size, dim)), np.empty(size, dtype=int)
    for lo in range(0, size, _BATCH):
        rows = slice(lo, lo + _BATCH)
        (a[rows], basis[rows], values[rows], npairs[rows]), fault = _form_spectra(g[rows], w[rows])
        if fault is not None:
            faults.append((lo + fault[0], 0, fault[1]))

    epsilon = _auto_epsilon(values, npairs) if config.epsilon is None else config.epsilon
    if epsilon is None:  # 1.0 keeps the band split defined until the fault is raised
        epsilon = 1.0
        faults.append((0, 1, EpsilonInferenceError(
            "cannot infer epsilon: base point has no positive eigenvalue above threshold")))
    m, offending = _split_stack(values, npairs, epsilon)
    included = ~offending.any(axis=1)

    chain = np.flatnonzero(included & (2 * m < dim))
    prev = np.full(size, -1)
    if config.use_hints:
        linked = m[chain[1:]] == m[chain[:-1]]
        prev[chain[1:][linked]] = chain[:-1][linked]
    frames = _complement_frames(basis, g, m, prev)
    stacks = (g, a, basis, values, npairs, frames)

    matrices, residuals = np.full((3, size, dim, dim), np.nan), {}
    for mi in dict.fromkeys(m[included].tolist()):  # the m groups, in order of first appearance
        members = np.flatnonzero(included & (m == mi))
        for lo in range(0, len(members), _BATCH):
            rows = members[lo : lo + _BATCH]
            assembled, fault = _assemble(*(x[rows] for x in stacks), mi)
            if fault is not None:
                faults.append((int(rows[fault[0]]), 2, fault[1]))
                continue
            matrices[:, rows] = assembled[:3]
            for key, column in assembled[3].items():
                residuals.setdefault(key, np.full(size, np.nan))[rows] = column
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    return ConstructionField(float(epsilon), dim, lifted_from, values, offending, included, m,
                             basis, npairs, frames, *matrices, residuals)


def _point_entries(cf: ConstructionField) -> list[dict]:
    """One report entry per point, read from the columns; its arrays are float64 rows."""
    keys, residuals = list(cf.residuals), list(zip(*(c.tolist() for c in cf.residuals.values())))
    rows = zip(cf.built.tolist(), cf.m.tolist(), cf.values, cf.offending, cf.J, cf.g_J, cf.Omega)
    entries = []
    for i, (ok, m, values, offending, j, g_j, omega) in enumerate(rows):
        entry = {"index": i, "gap_ok": ok, "eigenvalues": values, "offending_eigenvalues": values[offending],
                 "m": None, "J": None, "gJ": None, "Omega": None, "residuals": {}}
        if ok:
            entry.update({"m": m, "J": j, "gJ": g_j, "Omega": omega, "residuals": dict(zip(keys, residuals[i]))})
        entries.append(entry)
    return entries


def _max_residuals(cf: ConstructionField) -> dict:
    return {key: float(np.abs(cf.residuals[key][cf.built]).max()) for key in sorted(cf.residuals)}


def _notes(cf: ConstructionField) -> list[str]:
    notes = [f"lifted from {cf.lifted_from} to {cf.dim}"] if cf.lifted_from else []
    excluded = np.flatnonzero(~cf.built).tolist()
    if excluded:
        notes.append(f"excluded gap-violating points: {excluded}")
    return notes


def build_report(cf: ConstructionField) -> dict:
    """JSON-ready build report: per-point construction data plus summary."""
    return {
        "format_version": FORMAT_VERSION,
        "epsilon": cf.epsilon,
        "notes": _notes(cf),
        "points": _point_entries(cf),
        "summary": {
            "max_residuals": _max_residuals(cf),
            "pass": bool(cf.built.all()),
        },
    }


def _check_columns(cf: ConstructionField, sampled: np.ndarray, powers: dict):
    """The check names and their (checks, N) value, threshold and pass tables; built points' columns count.

    ``powers`` maps p to the (2, N) exact comass of the input's and the output's p-th powers.
    """
    if not cf.residuals:  # no point built: an empty table
        return [], *np.zeros((3, 0, len(cf.built)), dtype=bool)
    bounds = {key: (cf.residuals[key], threshold) for key, threshold in RESIDUAL_THRESHOLDS.items()}
    bounds["input_eigenvalue_bound"] = cf.values.max(axis=1), 1.0 + EIGENVALUE_UPPER
    slack = METRIC_DOMINATION_SLACK * np.maximum(np.abs(cf.g_J).max(axis=(1, 2)), 1.0)  # on |g_J|'s scale
    bounds["metric_domination"] = -cf.residuals["metric_domination_min_eig"], slack
    # The one sampled run: an independent lower bound on comass(Omega) = 1,
    # checked from both sides: not above 1, and attained.
    bounds["Omega_comass_sampled_bound"] = sampled, 1.0 + COMASS_SLACK
    bounds["Omega_comass_sampled_attained"] = 1.0 - sampled, SAMPLED_TIGHTNESS
    for p, (comass_in, comass_out) in powers.items():
        bounds[f"power_{p}_comass_bound"] = comass_in, 1.0 + COMASS_SLACK
        bounds[f"power_{p}_calibration_bound"] = comass_out, 1.0 + COMASS_SLACK
    value = np.array([column for column, _ in bounds.values()])
    threshold = np.array([np.broadcast_to(limit, value.shape[1:]) for _, limit in bounds.values()])
    ok = value <= threshold
    ok[list(bounds).index("input_eigenvalue_bound")] &= cf.values.min(axis=1) >= EIGENVALUE_LOWER
    return list(bounds), value, threshold, ok


def verify_field(cf: ConstructionField, grid: FieldGrid, config: FieldConfig = FieldConfig()) -> VerificationReport:
    """Check every included point against the construction guarantees.

    The comass checks run once per slice of ``_BATCH`` included points: the
    sampled run on their rows of ``g_J`` and ``Omega``, and with ``powers``
    one :func:`comass._exact_powers` call over the lifted input's rows and
    those of ``(g_J, Omega)``, whose pair values give the exact comass of
    every power of both without a paired spectrum; a point's values do not
    depend on its slice.  Failures become
    report entries, not exceptions; gap-excluded points are listed but do not
    fail verification.  Raises ValueError, before any point is sampled, when
    ``config.samples`` is below 1, when a power's degree 2p exceeds the
    lifted dimension, or when ``config.restarts`` is below 1: unpolished, the
    sampled run cannot attain comass 1.
    """
    if config.samples < 1:
        raise ValueError("samples must be >= 1")
    if config.restarts < 1:
        raise ValueError("verify needs restarts >= 1: unpolished, its sampled run cannot attain 1")
    powers = sorted(set(config.powers))
    for p in powers:
        _check_power(p, cf.dim)
    g_in, w_in = _lift_stack(grid.g, grid.w) if powers else (None, None)
    sampled = np.full(len(cf.built), np.nan)
    comass = {p: np.full((2, len(cf.built)), np.nan) for p in powers}
    included = np.flatnonzero(cf.built)
    for lo in range(0, len(included), _BATCH):
        rows = included[lo : lo + _BATCH]
        g_j, omega = cf.g_J[rows], cf.Omega[rows]
        seeds = [np.random.SeedSequence(config.seed, spawn_key=(i, 0)) for i in rows.tolist()]
        sampled[rows] = _sampled_stack(g_j, omega, 1, config.samples, config.restarts, seeds,
                                       _VERIFY_POLISH_SHIFT, _VERIFY_POLISH_MAX_ITER)[0]
        if powers:
            exact = _exact_powers(np.concatenate([g_in[rows], g_j]), np.concatenate([w_in[rows], omega]), powers)
            for p in powers:
                comass[p][:, rows] = exact[p].reshape(2, len(rows))
    data = build_report(cf)
    names, value, threshold, ok = _check_columns(cf, sampled, comass)
    for entry, *row in zip(data["points"], value.T.tolist(), threshold.T.tolist(), ok.T.tolist()):
        checks = zip(names, *row) if entry["gap_ok"] else ()
        entry["checks"] = {name: {"value": v, "threshold": t, "pass": o} for name, v, t, o in checks}
    data["summary"]["pass"] = bool(ok[:, cf.built].all())
    return VerificationReport(data=data, passed=data["summary"]["pass"])


# name: (description, dimension, W line); every demo has 3 points and the identity metric.
_DEMO_SPECS = {
    "standard": ("compatible triple already: identity metric, standard symplectic form", 4, "1 0 0 0 0 1"),
    "scaled": ("unit block plus a 0.5-scaled block; rank 2, comass 1", 4, "1 0 0 0 0 0.5"),
    "rank-deficient": ("single unit block; rank 1, two kernel directions", 4, "1 0 0 0 0 0"),
    "odd3": ("odd ambient dimension; processing lifts every point to dimension 4", 3, "1 0 0"),
}
_DEMO_POINTS = 3

DEMO_NAMES = tuple(sorted(_DEMO_SPECS))


def demo_calfield(name: str) -> str:
    """Generate a documented CALFIELD file for one of the built-in demos."""
    if name not in _DEMO_SPECS:
        raise ValueError(f"unknown demo {name!r}; choose one of {', '.join(DEMO_NAMES)}")
    description, dim, w_line = _DEMO_SPECS[name]
    lines = [
        f"# demo '{name}': {description}",
        "# G is the upper triangle (incl. diagonal) of the metric, row-major;",
        "# W is the strict upper triangle of the 2-form, row-major.",
        "CALFIELD 1",
        f"DIM {dim}",
        f"POINTS {_DEMO_POINTS}",
    ]
    identity_upper = " ".join("1" if i == j else "0" for i in range(dim) for j in range(i, dim))
    for k in range(_DEMO_POINTS):
        lines += [f"P {k}", "X " + " ".join([str(k)] + ["0"] * (dim - 1)), "G " + identity_upper, "W " + w_line]
    return "\n".join(lines) + "\n"
