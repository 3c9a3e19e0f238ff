"""Digests of semicalib's reports and constructions over a fixed, seeded input set.

    python bench/report_digests.py [--src DIR] [-o FILE] [--reports DIR]

Writes ``{name: [exit code, sha256]}`` as JSON, one entry per run:

- ``demo/<name>/build``, ``demo/<name>/verify-p2``, ``demo/<name>/build-no-hints``:
  the four demos under ``build``, ``verify --power 2`` and ``build --no-hints``;
- ``field/n<n>/<auto|eps>``: ``build`` of a smooth planted field at n = 4, 7,
  8 and 16 whose smallest pair value ramps through the forbidden band, so
  some points are gap violations, with the automatic epsilon and with a fixed
  ``--epsilon``;
- ``field/n8/verify-p2-p3``: ``verify --power 2 --power 3`` on the n = 8 field,
  and ``field/n8/auto-no-hints``: its ``build --no-hints`` (the demos' fields
  are constant, so hints change nothing there);
- ``demo/scaled/comass``: ``comass`` at ``--power 1`` and the default
  sampling; ``field/n8/comass-p2``: ``comass --power 2`` on the n = 8 field
  with ``--samples 500``; ``field/n7/comass``: ``comass`` on the odd n = 7
  field, which it does not lift, with ``--samples 2000``;
- ``demo/standard/plane-test`` and ``demo/standard/plane-test-p2``:
  ``plane-test`` at point 2 of the standard demo, on a plane whose frame is
  not orthonormal (power 1) and on a 4-frame (power 2);
- ``construct_point/near-double``: one digest over ``J``, ``g_J``, ``Omega``
  and the residuals of ``construct_point`` on 256 near-double n = 8 inputs,
  cond(G) from 1 to 1e6 and pair separation from 1e-9 to 1e-3; its first
  item counts the inputs that raised, in place of an exit code.

CLI runs go through ``semicalib.cli.main`` in process; their digest is the
sha256 of the report file (of nothing when the run wrote none).  With
``--reports DIR`` each CLI run also writes the bytes it hashed to
``DIR/<name>.json`` (empty when the run wrote no report) and its exit code to
``DIR/exit_codes.txt``, so ``report_compare.py`` can compare report sets value
by value across trees and BLAS kernels.  ``--src``
chooses the source tree to import, so one copy of this script checks that two
commits give byte-identical reports: run it once per tree and compare the
files.  ``bench/report_digests.json`` holds the digests of the current report
format (``-o bench/report_digests.json`` rewrites it); a change that keeps
reports byte-identical reproduces that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import harness  # first: pins BLAS to one thread before numpy loads

import numpy as np

DEMOS = ("odd3", "rank-deficient", "scaled", "standard")
FIELD_DIMS = (4, 7, 8, 16)
FIELD_POINTS = 12
FIXED_EPSILON = "0.04"  # forbidden band: pair values in (0.1, 0.141)
NEAR_DOUBLE_CONDS = np.geomspace(1.0, 1e6, 16)
NEAR_DOUBLE_SEPS = np.geomspace(1e-9, 1e-3, 16)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str], tmp: str, keep: str | None = None) -> list:
    """[exit code, sha256 of the report] of one in-process CLI run; the hashed bytes go to ``keep`` if given."""
    from semicalib import cli

    out = os.path.join(tmp, "report.json")
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["-o", out])
    data = b""
    if os.path.exists(out):
        with open(out, "rb") as handle:
            data = handle.read()
    if keep is not None:
        os.makedirs(os.path.dirname(keep), exist_ok=True)
        with open(keep, "wb") as handle:
            handle.write(data)
    return [code, _sha256(data)]


def near_double_digest() -> list:
    """[failures, sha256] over construct_point's outputs on the near-double grid."""
    from semicalib import construct_point

    near_double_form = harness.sibling("tests", "helpers").near_double_form

    rng = np.random.default_rng(2024)
    digest = hashlib.sha256()
    failures = 0
    for cond in NEAR_DOUBLE_CONDS:
        for sep in NEAR_DOUBLE_SEPS:
            g, omega = near_double_form(rng, float(cond), float(sep))
            try:
                pc = construct_point(g, omega)
            except Exception as exc:  # a failure is part of the digest, not fatal
                failures += 1
                digest.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            for arr in (pc.j.matrix, pc.g_j.entries, pc.omega_total.entries):
                digest.update(np.ascontiguousarray(arr).tobytes())
            for key in sorted(pc.residuals):
                digest.update(f"{key}={float(pc.residuals[key]).hex()};".encode())
    return [failures, digest.hexdigest()]


def digests(reports: str | None = None) -> dict:
    """The digest of every run; with ``reports``, each CLI run's report is kept there as ``<name>.json``."""
    from semicalib import demo_calfield

    planted_field_text = harness.sibling("tests", "helpers").planted_field_text

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        def run(name: str, argv: list[str]) -> None:
            out[name] = run_cli(argv, tmp, reports and os.path.join(reports, f"{name}.json"))

        for name in DEMOS:
            path = os.path.join(tmp, f"{name}.calfield")
            with open(path, "w") as handle:
                handle.write(demo_calfield(name))
            run(f"demo/{name}/build", ["build", path])
            run(f"demo/{name}/verify-p2", ["verify", path, "--power", "2"])
            run(f"demo/{name}/build-no-hints", ["build", path, "--no-hints"])
            if name == "scaled":
                run("demo/scaled/comass", ["comass", path])
            if name == "standard":
                plane = ["plane-test", path, "--point", "2", "--vectors"]
                run("demo/standard/plane-test", plane + "1 0 1 0 0 1 0 1".split())
                frame = "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1".split()
                run("demo/standard/plane-test-p2", plane + frame + ["--power", "2"])
        for n in FIELD_DIMS:
            path = os.path.join(tmp, f"n{n}.calfield")
            with open(path, "w") as handle:
                handle.write(planted_field_text(n, seed=n, points=FIELD_POINTS))
            run(f"field/n{n}/auto", ["build", path])
            run(f"field/n{n}/eps", ["build", path, "--epsilon", FIXED_EPSILON])
            if n == 8:
                run("field/n8/verify-p2-p3", ["verify", path, "--power", "2", "--power", "3"])
                run("field/n8/auto-no-hints", ["build", path, "--no-hints"])
                run("field/n8/comass-p2", ["comass", path, "--power", "2", "--samples", "500"])
            if n == 7:
                run("field/n7/comass", ["comass", path, "--samples", "2000"])
    if reports:
        with open(os.path.join(reports, "exit_codes.txt"), "w") as handle:
            handle.writelines(f"{name} {code}\n" for name, (code, _) in sorted(out.items()))
    out["construct_point/near-double"] = near_double_digest()
    return out


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, label=False, output=None,
                              output_help="write the digests here instead of stdout",
                              options={"--reports": {"metavar": "DIR", "help": "keep each CLI run's report here"}})
    text = json.dumps(digests(args.reports), indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
