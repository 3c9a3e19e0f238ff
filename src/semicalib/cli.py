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
import sys

import numpy as np

from . import field as field_mod
from .comass import PowerForm, comass_bruteforce, comass_exact, test_calibrated
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
    if parsed <= 0:
        raise argparse.ArgumentTypeError("tolerances must be positive")
    return name, parsed


def _epsilon_arg(text: str):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"epsilon must be 'auto' or a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("epsilon must be positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicalib",
        description="Construct almost complex structures and compatible "
        "calibrations from sampled (metric, 2-form) fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_sampling: bool):
        p.add_argument("input", help="CALFIELD input file")
        p.add_argument("-o", "--output", help="write the report here instead of stdout")
        p.add_argument("--epsilon", type=_epsilon_arg, default=None,
                       help="gap parameter: 'auto' (default, from the base point) or a positive number")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
        p.add_argument("--no-hints", action="store_true",
                       help="disable frame propagation between points")
        p.add_argument("--tol", type=_tol_arg, action="append", default=[],
                       metavar="NAME=VALUE",
                       help=f"override a tolerance ({', '.join(_TOLERANCE_NAMES)}); repeatable")
        if with_sampling:
            p.add_argument("--samples", type=int, default=20_000,
                           help="random frames per sampled comass run (default 20000)")
            p.add_argument("--restarts", type=int, default=10,
                           help="local-ascent restarts (default 10)")

    p_build = sub.add_parser("build", help="run the construction and emit the report")
    common(p_build, with_sampling=False)

    p_verify = sub.add_parser("verify", help="build, then verify every guarantee")
    common(p_verify, with_sampling=True)
    p_verify.add_argument("--power", type=int, action="append", default=[],
                          help="also check the normalized power of this order (repeatable)")

    p_comass = sub.add_parser("comass", help="per-point comass table (exact + sampled)")
    common(p_comass, with_sampling=True)
    p_comass.add_argument("--power", type=int, default=1,
                          help="comass of the normalized power of this order (default 1)")

    p_plane = sub.add_parser("plane-test", help="test one oriented plane at one point")
    p_plane.add_argument("input", help="CALFIELD input file")
    p_plane.add_argument("-o", "--output", help="write the verdict here instead of stdout")
    p_plane.add_argument("--point", type=int, default=0, help="point index (default 0)")
    p_plane.add_argument("--power", type=int, default=1,
                         help="test against the normalized power of this order (default 1)")
    p_plane.add_argument("--tol", type=float, default=1e-9,
                         help="calibration tolerance (default 1e-9)")
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
        samples=getattr(args, "samples", 20_000),
        restarts=getattr(args, "restarts", 10),
        powers=tuple(powers),
        use_hints=not args.no_hints,
        tolerances=dataclasses.replace(DEFAULT_TOLERANCES, **dict(args.tol)),
    )


def _cmd_build(args) -> int:
    grid = parse_calfield(_read(args.input))
    cf = process_field(grid, _config(args))
    if not cf.outcomes[0].gap_ok:
        print(
            f"error: gap violation at base point: offending eigenvalues "
            f"{list(cf.outcomes[0].offending_eigenvalues)}",
            file=sys.stderr,
        )
        return 3
    _emit(dumps(build_report(cf)), args.output)
    return 0


def _cmd_verify(args) -> int:
    grid = parse_calfield(_read(args.input))
    config = _config(args, powers=args.power)
    cf = process_field(grid, config)
    if not cf.outcomes[0].gap_ok:
        print(
            f"error: gap violation at base point: offending eigenvalues "
            f"{list(cf.outcomes[0].offending_eigenvalues)}",
            file=sys.stderr,
        )
        return 3
    report = verify_field(cf, grid, config)
    _emit(dumps(report.data), args.output)
    if not report.passed:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def _cmd_comass(args) -> int:
    grid = parse_calfield(_read(args.input))
    if args.power < 1:
        print("error: --power must be >= 1", file=sys.stderr)
        return 2
    if 2 * args.power > grid.dim:
        print(f"error: degree {2 * args.power} exceeds dimension {grid.dim}", file=sys.stderr)
        return 2
    rows = []
    for point in grid.points:
        form = point.omega if args.power == 1 else PowerForm(point.omega, args.power)
        sampled = comass_bruteforce(
            point.g,
            form,
            samples=args.samples,
            restarts=args.restarts,
            seed=np.random.SeedSequence(entropy=args.seed, spawn_key=(point.index,)),
        )
        entry = {
            "index": point.index,
            "power": args.power,
            "exact": comass_exact(point.g, point.omega).value if args.power == 1 else None,
            "sampled": sampled.value,
            "samples": sampled.samples,
            "restarts": sampled.restarts,
        }
        rows.append(entry)
    _emit(dumps({"format_version": field_mod.FORMAT_VERSION, "seed": args.seed, "points": rows}),
          args.output)
    return 0


def _cmd_plane_test(args) -> int:
    grid = parse_calfield(_read(args.input))
    if not 0 <= args.point < len(grid.points):
        print(f"error: point index {args.point} out of range", file=sys.stderr)
        return 2
    k = 2 * args.power
    if args.power < 1 or k > grid.dim:
        print(f"error: invalid power {args.power} for dimension {grid.dim}", file=sys.stderr)
        return 2
    if len(args.vectors) != k * grid.dim:
        print(
            f"error: expected {k * grid.dim} reals for a {k}-frame in dimension {grid.dim}, "
            f"got {len(args.vectors)}",
            file=sys.stderr,
        )
        return 2
    point = grid.points[args.point]
    frame = Frame(np.array(args.vectors).reshape(k, grid.dim))
    form = point.omega if args.power == 1 else PowerForm(point.omega, args.power)
    try:
        verdict = test_calibrated(point.g, form, frame, tol=args.tol)
    except RankDeficiencyError as exc:
        print(f"error: degenerate frame: {exc}", file=sys.stderr)
        return 2
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
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, OSError) as exc:
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
