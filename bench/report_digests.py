"""Digests of semicalib's reports and constructions over a fixed, seeded input set.

    python bench/report_digests.py [--src DIR] [-o FILE]

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
sha256 of the report file (of nothing when the run wrote none).  ``--src``
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


def run_cli(argv: list[str], tmp: str) -> list:
    """[exit code, sha256 of the report] of one in-process CLI run."""
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


def digests() -> dict:
    from semicalib import demo_calfield

    planted_field_text = harness.sibling("tests", "helpers").planted_field_text

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in DEMOS:
            path = os.path.join(tmp, f"{name}.calfield")
            with open(path, "w") as handle:
                handle.write(demo_calfield(name))
            out[f"demo/{name}/build"] = run_cli(["build", path], tmp)
            out[f"demo/{name}/verify-p2"] = run_cli(["verify", path, "--power", "2"], tmp)
            out[f"demo/{name}/build-no-hints"] = run_cli(["build", path, "--no-hints"], tmp)
            if name == "scaled":
                out["demo/scaled/comass"] = run_cli(["comass", path], tmp)
            if name == "standard":
                plane = ["plane-test", path, "--point", "2", "--vectors"]
                out["demo/standard/plane-test"] = run_cli(plane + "1 0 1 0 0 1 0 1".split(), tmp)
                out["demo/standard/plane-test-p2"] = run_cli(
                    plane + "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1".split() + ["--power", "2"], tmp
                )
        for n in FIELD_DIMS:
            path = os.path.join(tmp, f"n{n}.calfield")
            with open(path, "w") as handle:
                handle.write(planted_field_text(n, seed=n, points=FIELD_POINTS))
            out[f"field/n{n}/auto"] = run_cli(["build", path], tmp)
            out[f"field/n{n}/eps"] = run_cli(["build", path, "--epsilon", FIXED_EPSILON], tmp)
            if n == 8:
                out["field/n8/verify-p2-p3"] = run_cli(
                    ["verify", path, "--power", "2", "--power", "3"], tmp
                )
                out["field/n8/auto-no-hints"] = run_cli(["build", path, "--no-hints"], tmp)
                out["field/n8/comass-p2"] = run_cli(
                    ["comass", path, "--power", "2", "--samples", "500"], tmp
                )
            if n == 7:
                out["field/n7/comass"] = run_cli(["comass", path, "--samples", "2000"], tmp)
    out["construct_point/near-double"] = near_double_digest()
    return out


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, label=False, output=None,
                              output_help="write the digests here instead of stdout")
    text = json.dumps(digests(), indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
