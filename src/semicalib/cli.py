"""Command-line interface.

Commands, with the flags each reads besides ``-o``: ``build INPUT`` runs the
construction over a CALFIELD file (``--epsilon``, ``--no-hints``);
``verify INPUT`` builds, then checks every guarantee (build's flags, ``--seed``,
``--samples``, ``--restarts``, ``--power``); ``comass INPUT`` tabulates exact +
sampled comass per point (``--seed``, ``--samples``, ``--restarts``, ``--power``);
``plane-test INPUT`` tests one oriented plane (``--point``, ``--power``, ``--tol``,
``--vectors``); ``demo`` writes a documented example field (``--name``).

Exit codes: 0 success / verification passed, 1 verification failure,
2 input or parse error, 3 base-point failure (gap violation at point 0, or
the automatic epsilon policy found no positive eigenvalue there),
4 the construction broke down at some point.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import comass
from . import field as field_mod
from .comass import PowerForm, test_calibrated
from .errors import (
    ConstructionError,
    EpsilonInferenceError,
    GapViolation,
    ParseError,
    RankDeficiencyError,
)
from .field import FieldConfig, build_report, demo_calfield, parse_calfield, process_field, verify_field
from .forms import Frame, MetricTensor, TwoForm
from .jsonio import dumps

_DEFAULTS = FieldConfig()
# `comass` searches raw forms and their powers, whose pair values can be
# near-double or below 1, so it keeps many more starts than verify's run.
_COMASS_SAMPLES = 20_000


def _real(parse_message: str, range_message: str, in_range=lambda v: True):
    """An argparse type: a finite float passing ``in_range``. ``{!r}`` in a message is the flag's text."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(parse_message.format(text))
        if not (math.isfinite(value) and in_range(value)):
            raise argparse.ArgumentTypeError(range_message.format(text))
        return value
    return parse


_epsilon_value = _real("epsilon must be 'auto' or a number, got {!r}", "epsilon must be finite and positive",
                       lambda v: v > 0)
_plane_tol = _real("cannot parse calibration tolerance {!r}",
                   "calibration tolerance must be finite and non-negative", lambda v: v >= 0)
_vector_entry = _real("cannot parse frame vector entry {!r}", "frame vector entries must be finite, got {!r}")


def _epsilon_arg(text: str):
    return None if text == "auto" else _epsilon_value(text)


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

    def common(p, builds: bool, samples: int | None):
        p.add_argument("input", help="CALFIELD input file")
        p.add_argument("-o", "--output", help="write the report here instead of stdout")
        if builds:
            p.add_argument("--epsilon", type=_epsilon_arg, default=None,
                           help="gap parameter: 'auto' (default, from the base point) or a finite positive number")
            p.add_argument("--no-hints", action="store_true",
                           help="disable frame propagation between points")
        if samples is not None:
            p.add_argument("--seed", type=int, default=0, help="non-negative PRNG seed (default 0)")
            p.add_argument("--samples", type=int, default=samples,
                           help=f"random frames per sampled comass run (default {samples})")
            p.add_argument("--restarts", type=int, default=_DEFAULTS.restarts,
                           help=f"best sampled frames to polish (default {_DEFAULTS.restarts})")

    p_build = sub.add_parser("build", help="run the construction and emit the report")
    common(p_build, builds=True, samples=None)

    p_verify = sub.add_parser("verify", help="build, then verify every guarantee")
    common(p_verify, builds=True, samples=_DEFAULTS.samples)
    p_verify.add_argument("--power", type=int, action="append", default=[],
                          help="also check the normalized power of this order (repeatable)")

    p_comass = sub.add_parser("comass", help="per-point comass table (exact + sampled)")
    common(p_comass, builds=False, samples=_COMASS_SAMPLES)
    p_comass.add_argument("--power", type=int, default=1,
                          help="comass of the normalized power of this order (default 1)")

    p_plane = sub.add_parser("plane-test", help="test one oriented plane at one point")
    p_plane.add_argument("input", help="CALFIELD input file")
    p_plane.add_argument("-o", "--output", help="write the verdict here instead of stdout")
    p_plane.add_argument("--point", type=int, default=0, help="point index (default 0)")
    p_plane.add_argument("--power", type=int, default=1,
                         help="test against the normalized power of this order (default 1)")
    p_plane.add_argument("--tol", type=_plane_tol, default=1e-9,
                         help="calibration tolerance, finite and non-negative (default 1e-9)")
    p_plane.add_argument("--vectors", type=_vector_entry, nargs="+", required=True,
                         help="2p*n finite reals, row-major: the frame spanning the plane")

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
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8-sig")  # UTF-8, a leading byte-order mark dropped
    except UnicodeDecodeError as exc:  # its offsets index exc.object, the data after any mark
        line = len((exc.object[: exc.start].decode() + "x").splitlines())  # numbered as the parser does
        raise ParseError(f"cannot decode byte 0x{exc.object[exc.start]:02x} as UTF-8", line) from exc


def _config(args, powers=()) -> FieldConfig:
    return FieldConfig(
        epsilon=args.epsilon,
        seed=getattr(args, "seed", _DEFAULTS.seed),
        samples=getattr(args, "samples", _DEFAULTS.samples),
        restarts=getattr(args, "restarts", _DEFAULTS.restarts),
        powers=tuple(powers),
        use_hints=not args.no_hints,
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
    if not cf.built[0]:
        raise GapViolation(cf.epsilon, cf.values[0][cf.offending[0]], cf.values[0])
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
    for lo in range(0, len(grid.g), field_mod._BATCH):
        g, w = grid.g[lo : lo + field_mod._BATCH], grid.w[lo : lo + field_mod._BATCH]
        indices = range(lo, lo + len(g))
        seeds = [np.random.SeedSequence(entropy=args.seed, spawn_key=(i,)) for i in indices]
        values, _, used, _, _ = comass._sampled_stack(g, w, args.power, args.samples, args.restarts, seeds)
        exact = comass._exact_powers(g, w, (args.power,))[args.power]
        for i, value, sampled, restarts in zip(indices, exact.tolist(), values.tolist(), used.tolist()):
            rows.append({"index": i, "power": args.power, "exact": value, "sampled": sampled,
                         "samples": args.samples, "restarts": restarts})
    _emit(dumps({"format_version": field_mod.FORMAT_VERSION, "seed": args.seed, "points": rows}),
          args.output)
    return 0


def _cmd_plane_test(args) -> int:
    grid = parse_calfield(_read(args.input))
    if not 0 <= args.point < len(grid.g):
        raise _UsageError(f"point index {args.point} out of range")
    _check_power(args.power, grid.dim)
    k = 2 * args.power
    if len(args.vectors) != k * grid.dim:
        raise _UsageError(
            f"expected {k * grid.dim} reals for a {k}-frame in dimension {grid.dim}, "
            f"got {len(args.vectors)}"
        )
    g, form = MetricTensor(grid.g[args.point]), PowerForm(TwoForm(grid.w[args.point]), args.power)
    frame = Frame(np.array(args.vectors).reshape(k, grid.dim))
    try:
        verdict = test_calibrated(g, form, frame, tol=args.tol)
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
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be >= 1")
    if getattr(args, "restarts", 0) < 0:
        parser.error("--restarts must be >= 0")
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
