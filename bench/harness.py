"""What the bench scripts share: BLAS pinning, the measured tree, the host reference, row percentiles and the BENCH record.

Importing this module pins BLAS to one thread, as in the benchmark, so a
script imports it before numpy.  ``parse_args`` puts the tree named by
``--src`` first on ``sys.path``, so one copy of a script times two commits on
the same machine.  ``host_reference`` times the host reference kernel of
``perfbench/workloads.py`` (``HostReference``, imported, never changed) around
each measured call: the mean of the medians of three kernel runs before the
call and three after it.

``record`` appends one run to a BENCH JSON file under ``--label`` and
refreshes that label's medians and, beside them, its first and third
quartiles (``q1``, ``q3``), the spread a later run is compared against.  Under
``scaled`` the same three statistics are given for each time divided by its
kernel time, a measure that follows the code and not the host's drift.  A run
is refused when the file's recorded machine or setup differs from the current
one, so every label in one file is comparable.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(doc: str, argv, label: bool, output: str | None, output_help: str | None = None,
               options: dict | None = None):
    """``--label`` (when ``label``), ``--src``, ``-o`` and ``options`` ({flag: add_argument keywords}).

    Puts ``--src`` first on ``sys.path``.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    if label:
        parser.add_argument("--label", required=True, help="name of the measured tree, e.g. parent or change")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree holding the semicalib package (default: this checkout)")
    parser.add_argument("-o", "--output", default=output, help=output_help)
    for flag, keywords in (options or {}).items():
        parser.add_argument(flag, **keywords)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    return args


def sibling(directory: str, name: str):
    """Module ``name`` of this checkout's ``perfbench/`` or ``tests/``; ``sys.path`` is left as it was."""
    path = os.path.join(ROOT, directory)
    sys.path.insert(0, path)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(path)


def host_reference():
    """``around(fn)``: (fn's result, its seconds, the host reference kernel's seconds around it).

    ``perfbench/workloads.py`` imports semicalib, so call this once the
    measured tree is first on ``sys.path``.
    """
    workloads = sibling("perfbench", "workloads")
    host = workloads.HostReference()

    def around(fn):
        result, elapsed, slowdown = host.around(fn)
        return result, elapsed, slowdown * workloads.REF_NOMINAL_S

    return around


def percentile(rows: list, q: float):
    """The ``q``-th percentile of every leaf over ``rows``, numbers or (nested) dicts with the same keys."""
    if isinstance(rows[0], dict):
        return {key: percentile([row[key] for row in rows], q) for key in rows[0]}
    return float(np.percentile(rows, q))


def summarize(runs: list[dict], scaled) -> dict:
    """``median``, ``q1`` and ``q3`` of every leaf over ``runs``, and under ``scaled`` the same of ``scaled(run)``."""
    def stats(rows: list[dict]) -> dict:
        return {name: percentile(rows, q) for name, q in (("median", 50), ("q1", 25), ("q3", 75))}

    return {**stats(runs), "scaled": stats([scaled(run) for run in runs])}


def record(path: str, label: str, setup: dict, measure, scaled) -> None:
    """Append the run ``measure()`` returns to the BENCH file ``path`` under ``label`` and print its summary.

    The file is checked before ``measure`` runs: one recorded with another
    ``setup`` or on another machine is refused and left as it is.
    """
    machine = {
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "blas_threads": 1,
    }
    data = {"setup": setup, "machine": machine}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
        for key, current in (("setup", setup), ("machine", machine)):
            if data.get(key) != current:
                raise SystemExit(f"{path} records another {key}: {data.get(key)} != {current}; "
                                 "write to a new file")

    entry = data.setdefault("results", {}).setdefault(label, {"runs": []})
    entry["runs"].append(measure())
    entry.update(summarize(entry["runs"], scaled))
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps({label: {key: value for key, value in entry.items() if key != "runs"}},
                     indent=2, sort_keys=True))
