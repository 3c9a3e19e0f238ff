"""Value-level comparison of two report sets written by ``report_digests.py --reports``.

    python bench/report_compare.py A B [--rtol R]

A and B are ``--reports`` directories, from two trees or two BLAS kernels.
Their runs (``<name>.json``, and the exit codes in ``exit_codes.txt`` when
both sets have one) are matched by name and their values key by key:

- a numeric array (a list of numbers, or of such lists: ``J``, ``gJ``,
  ``Omega``, ``eigenvalues``) is one leaf, and a number outside one is a leaf
  on its own; a leaf's deviation is max |a - b| / max(1, max |a|, max |b|),
  its difference on its own scale, and it exceeds when above R;
- ints and floats compare as numbers, since ``%.17g`` writes 0.0 as ``0``;
- everything else must be equal: exit codes, booleans (``pass``,
  ``gap_ok``), strings, nulls, the discrete fields in ``DISCRETE`` (``m``,
  ``index``, ...), list lengths and key sets.

Each key is a run and a path whose list indices are written ``[]``; the
output gives its worst deviation and where it sits, then every non-numeric
difference.  The exit code is 1 when any leaf exceeds R or any non-numeric
value differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_RTOL = 1e-12
EXIT_CODES = "exit_codes.txt"  # "<name> <exit code>" lines
DISCRETE = frozenset({"format_version", "index", "m", "point", "power", "restarts", "samples", "seed"})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _flat_numbers(x) -> list | None:
    """The numbers of a (nested) list of numbers in order, or None when it holds anything else."""
    if _is_number(x):
        return [x]
    if not isinstance(x, list):
        return None
    out = []
    for item in x:
        numbers = _flat_numbers(item)
        if numbers is None:
            return None
        out += numbers
    return out


def _shape(x):
    return [len(x), *(_shape(x[0]) if x and isinstance(x[0], list) else [])] if isinstance(x, list) else []


def _walk(a, b, key: str, where: str, name: str | None, leaves: dict, differences: list) -> None:
    """Add each numeric leaf's (deviation, where) to ``leaves[key]`` and each other difference to ``differences``."""
    numbers_a, numbers_b = _flat_numbers(a), _flat_numbers(b)
    if numbers_a is not None and numbers_b is not None and name not in DISCRETE:
        if _shape(a) != _shape(b) or len(numbers_a) != len(numbers_b):
            differences.append(f"{where}: shape {_shape(a)} != {_shape(b)}")
            return
        scale = max([1.0] + [abs(x) for x in numbers_a + numbers_b])
        deviation = max((abs(x - y) / scale for x, y in zip(numbers_a, numbers_b)), default=0.0)
        worst = leaves.get(key)
        if worst is None or deviation > worst[0]:
            leaves[key] = (deviation, where)
    elif isinstance(a, dict) and isinstance(b, dict):
        dot = "" if where.endswith(":") else "."
        for k in sorted(a.keys() | b.keys()):
            if k not in a or k not in b:
                differences.append(f"{where}{dot}{k}: only in {'A' if k in a else 'B'}")
            else:
                _walk(a[k], b[k], f"{key}{dot}{k}", f"{where}{dot}{k}", k, leaves, differences)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{key}[]", f"{where}[{i}]", name, leaves, differences)
    elif type(a) is not type(b) and not (_is_number(a) and _is_number(b)) or a != b:
        differences.append(f"{where}: {json.dumps(a)[:60]} != {json.dumps(b)[:60]}")


def _runs(tree: str) -> dict:
    """{name: parsed report, or None for an empty one} of every ``<name>.json`` under ``tree``."""
    out = {}
    for base, _, files in os.walk(tree):
        for file in files:
            if file.endswith(".json"):
                path = os.path.join(base, file)
                with open(path) as handle:
                    text = handle.read()
                out[os.path.relpath(path, tree)[: -len(".json")].replace(os.sep, "/")] = json.loads(text) if text else None
    return out


def _exit_codes(tree: str) -> dict | None:
    """{name: exit code} of ``tree``'s ``exit_codes.txt``, or None without one."""
    path = os.path.join(tree, EXIT_CODES)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return dict(line.split() for line in handle if line.strip())


def compare(tree_a: str, tree_b: str) -> tuple[dict, list]:
    """({key: (worst deviation, where)}, [non-numeric difference]) of two ``--reports`` directories."""
    leaves, differences = {}, []
    codes_a, codes_b = _exit_codes(tree_a), _exit_codes(tree_b)
    if codes_a is None or codes_b is None:  # a set kept before the exit codes were: its reports alone
        codes_a = codes_b = {}
    for name in sorted(codes_a.keys() | codes_b.keys()):
        if codes_a.get(name) != codes_b.get(name):
            differences.append(f"{name}: exit code {codes_a.get(name)} != {codes_b.get(name)}")
    runs_a, runs_b = _runs(tree_a), _runs(tree_b)
    for name in sorted(runs_a.keys() | runs_b.keys()):
        if name not in runs_a or name not in runs_b:
            differences.append(f"{name}: only in {'A' if name in runs_a else 'B'}")
        else:
            _walk(runs_a[name], runs_b[name], name + ":", name + ":", None, leaves, differences)
    return leaves, differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="a report_digests.py --reports directory")
    parser.add_argument("b", help="the directory to compare it with")
    parser.add_argument("--rtol", type=float, default=DEFAULT_RTOL,
                        help=f"largest deviation on a leaf's own scale (default {DEFAULT_RTOL:g})")
    args = parser.parse_args(argv)
    leaves, differences = compare(args.a, args.b)
    excess = 0
    for key, (deviation, where) in leaves.items():
        over = deviation > args.rtol
        excess += over
        print(f"{'EXCEEDS' if over else 'ok':8} {deviation:.3g}  {key}  (worst at {where})")
    for difference in differences:
        print(f"DIFFERS  {difference}")
    print(f"{len(leaves)} keys, {excess} above rtol {args.rtol:g}, {len(differences)} non-numeric differences")
    return 1 if excess or differences else 0


if __name__ == "__main__":
    sys.exit(main())
