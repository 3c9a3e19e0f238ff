"""Command-line interface.

Commands: ``build`` (run the construction over a CALFIELD file), ``verify``
(build + check every guarantee), ``comass`` (exact + sampled comass per
point), ``plane-test`` (test one oriented plane), ``demo`` (write a
documented example field).

Exit codes: 0 success / verification passed, 1 verification failure,
2 input or parse error, 3 base-point failure (gap violation at point 0, or
the automatic epsilon policy found no positive eigenvalue there),
4 the construction broke down at some point.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import comass
from . import field as field_mod
from .comass import PowerForm, test_calibrated
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    ConstructionError,
    EpsilonInferenceError,
    GapViolation,
    ParseError,
    RankDeficiencyError,
)
from .field import FieldConfig, build_report, demo_calfield, parse_calfield, process_field, verify_field
from .forms import Frame
from .jsonio import dumps

_TOLERANCE_NAMES = tuple(f.name for f in dataclasses.fields(Tolerances))
_DEFAULTS = FieldConfig()
# `comass` searches raw forms and their powers, whose pair values can be
# near-double or below 1, so it keeps many more starts than verify's run.
_COMASS_SAMPLES = 20_000


def _tol_arg(text: str):
    name, _, value = text.partition("=")
    if name not in _TOLERANCE_NAMES or not value:
        raise argparse.ArgumentTypeError(
            f"tolerance override must look like name=value with name in "
            f"{', '.join(_TOLERANCE_NAMES)}; got {text!r}"
        )
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance value {value!r}")
    if not (math.isfinite(parsed) and parsed > 0):
        raise argparse.ArgumentTypeError("tolerances must be finite and positive")
    return name, parsed


def _plane_tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse calibration tolerance {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("calibration tolerance must be finite and non-negative")
    return value


def _epsilon_arg(text: str):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"epsilon must be 'auto' or a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("epsilon must be finite and positive")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every ``main`` call.

    Sharing is safe: parsing never mutates the parser, and the ``append``
    actions copy their list defaults before appending.
    """
    parser = argparse.ArgumentParser(
        prog="semicalib",
        description="Construct almost complex structures and compatible "
        "calibrations from sampled (metric, 2-form) fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples: int | None):
        p.add_argument("input", help="CALFIELD input file")
        p.add_argument("-o", "--output", help="write the report here instead of stdout")
        p.add_argument("--epsilon", type=_epsilon_arg, default=None,
                       help="gap parameter: 'auto' (default, from the base point) or a finite positive number")
        p.add_argument("--seed", type=int, default=0, help="non-negative PRNG seed (default 0)")
        p.add_argument("--no-hints", action="store_true",
                       help="disable frame propagation between points")
        p.add_argument("--tol", type=_tol_arg, action="append", default=[],
                       metavar="NAME=VALUE",
                       help=f"override a tolerance ({', '.join(_TOLERANCE_NAMES)}); repeatable")
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples,
                           help=f"random frames per sampled comass run (default {samples})")
            p.add_argument("--restarts", type=int, default=_DEFAULTS.restarts,
                           help=f"best sampled frames to polish (default {_DEFAULTS.restarts})")

    p_build = sub.add_parser("build", help="run the construction and emit the report")
    common(p_build, samples=None)

    p_verify = sub.add_parser("verify", help="build, then verify every guarantee")
    common(p_verify, samples=_DEFAULTS.samples)
    p_verify.add_argument("--power", type=int, action="append", default=[],
                          help="also check the normalized power of this order (repeatable)")

    p_comass = sub.add_parser("comass", help="per-point comass table (exact + sampled)")
    common(p_comass, samples=_COMASS_SAMPLES)
    p_comass.add_argument("--power", type=int, default=1,
                          help="comass of the normalized power of this order (default 1)")

    p_plane = sub.add_parser("plane-test", help="test one oriented plane at one point")
    p_plane.add_argument("input", help="CALFIELD input file")
    p_plane.add_argument("-o", "--output", help="write the verdict here instead of stdout")
    p_plane.add_argument("--point", type=int, default=0, help="point index (default 0)")
    p_plane.add_argument("--power", type=int, default=1,
                         help="test against the normalized power of this order (default 1)")
    p_plane.add_argument("--tol", type=_plane_tol_arg, default=1e-9,
                         help="calibration tolerance, finite and non-negative (default 1e-9)")
    p_plane.add_argument("--vectors", type=float, nargs="+", required=True,
                         help="2p*n reals, row-major: the frame spanning the plane")

    p_demo = sub.add_parser("demo", help="write a documented demo CALFIELD file")
    p_demo.add_argument("--name", required=True, choices=field_mod.DEMO_NAMES)
    p_demo.add_argument("-o", "--output", help="write here instead of stdout")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _config(args, powers=()) -> FieldConfig:
    return FieldConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        samples=getattr(args, "samples", _DEFAULTS.samples),
        restarts=getattr(args, "restarts", _DEFAULTS.restarts),
        powers=tuple(powers),
        use_hints=not args.no_hints,
        tolerances=dataclasses.replace(DEFAULT_TOLERANCES, **dict(args.tol)),
    )


class _UsageError(Exception):
    """A flag value the input makes invalid; exits 2 like an argparse error."""


def _check_power(power: int, dim: int) -> None:
    try:
        comass._check_power(power, dim)
    except ValueError as exc:
        raise _UsageError(f"--power {power}: {exc}") from exc


def _process(grid, config: FieldConfig):
    """process_field; a gap violation at the base point is raised (exit 3)."""
    cf = process_field(grid, config)
    base = cf.outcomes[0]
    if not base.gap_ok:
        raise GapViolation(cf.epsilon, base.offending_eigenvalues, base.eigenvalues)
    return cf


def _cmd_build(args) -> int:
    grid = parse_calfield(_read(args.input))
    cf = _process(grid, _config(args))
    _emit(dumps(build_report(cf)), args.output)
    return 0


def _cmd_verify(args) -> int:
    grid = parse_calfield(_read(args.input))
    for power in args.power:
        _check_power(power, grid.dim + grid.dim % 2)  # odd fields are lifted
    config = _config(args, powers=args.power)
    cf = _process(grid, config)
    report = verify_field(cf, grid, config)
    _emit(dumps(report.data), args.output)
    if not report.passed:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def _cmd_comass(args) -> int:
    grid = parse_calfield(_read(args.input))
    _check_power(args.power, grid.dim)
    rows = []
    for lo in range(0, len(grid.points), field_mod._BATCH):
        points = grid.points[lo : lo + field_mod._BATCH]
        g = np.array([point.g.entries for point in points])
        w = np.array([point.omega.entries for point in points])
        seeds = [np.random.SeedSequence(entropy=args.seed, spawn_key=(p.index,)) for p in points]
        sampled = comass._sampled_stack(g, w, args.power, args.samples, args.restarts, seeds)
        exact = comass._exact_powers(g, w, (args.power,))[0][args.power]
        for point, estimate, value in zip(points, sampled, exact.tolist()):
            rows.append({"index": point.index, "power": args.power, "exact": value,
                         "sampled": estimate.value, "samples": estimate.samples,
                         "restarts": estimate.restarts})
    _emit(dumps({"format_version": field_mod.FORMAT_VERSION, "seed": args.seed, "points": rows}),
          args.output)
    return 0


def _cmd_plane_test(args) -> int:
    grid = parse_calfield(_read(args.input))
    if not 0 <= args.point < len(grid.points):
        raise _UsageError(f"point index {args.point} out of range")
    _check_power(args.power, grid.dim)
    k = 2 * args.power
    if len(args.vectors) != k * grid.dim:
        raise _UsageError(
            f"expected {k * grid.dim} reals for a {k}-frame in dimension {grid.dim}, "
            f"got {len(args.vectors)}"
        )
    point = grid.points[args.point]
    frame = Frame(np.array(args.vectors).reshape(k, grid.dim))
    form = point.omega if args.power == 1 else PowerForm(point.omega, args.power)
    try:
        verdict = test_calibrated(point.g, form, frame, tol=args.tol)
    except RankDeficiencyError as exc:
        raise _UsageError(f"degenerate frame: {exc}") from exc
    _emit(
        dumps(
            {
                "point": args.point,
                "power": args.power,
                "ratio": verdict.ratio,
                "calibrated": verdict.calibrated,
                "tolerance": verdict.tolerance,
            }
        ),
        args.output,
    )
    return 0


def _cmd_demo(args) -> int:
    _emit(demo_calfield(args.name), args.output)
    return 0


_DISPATCH = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "comass": _cmd_comass,
    "plane-test": _cmd_plane_test,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1 or getattr(args, "restarts", 0) < 0:
        parser.error("--samples must be >= 1 and --restarts >= 0")
    if args.command == "verify" and args.restarts < 1:
        parser.error("verify needs --restarts >= 1: unpolished, its sampled run cannot attain comass 1")
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be >= 0")
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, OSError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EpsilonInferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GapViolation as exc:
        print(f"error: gap violation at base point: {exc}", file=sys.stderr)
        return 3
    except (ConstructionError, RankDeficiencyError) as exc:
        print(f"error: construction failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
