"""Stage timings of ``semicalib build``, merged into a BENCH JSON file.

    python bench/build_stages.py --label change [--src DIR] [-o BENCH_build.json]

Times the four stages of a build separately: ``parse_calfield`` on the
CALFIELD text, ``process_field`` on the parsed grid, ``build_report`` on the
construction and ``jsonio.dumps`` on the report.  The inputs are seeded
``smooth_field`` fields from ``perfbench/inputs.py`` (imported, never
changed) at n = 4, 8 and 16 with N = 100 and N = 1000 points and no gap
violations, each drawn from its own generator seeded with ``SEED``.  Around
every stage the host reference kernel of ``perfbench/workloads.py``
(``HostReference``, imported, never changed) is timed too: the mean of the
medians of three kernel runs before the stage and three after it.  Each stage
and its kernel time keep the median of ``REPEATS`` passes.  ``--src`` chooses
the source tree to import, so one copy of this script times two commits on
the same machine; each invocation appends one run under ``--label`` and
refreshes that label's medians and, beside them, its first and third
quartiles (``q1``, ``q3``), the spread a later run is compared against.
Under ``scaled`` the same three statistics are given for each stage divided
by its kernel time, a measure that follows the code and not the host's
drift.  A run is refused when the file's recorded machine or setup differs
from the current one, so every label in one file is comparable.  BLAS runs
on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

DIMS = (4, 8, 16)
SIZES = (100, 1000)
SEED = 1
REPEATS = 3
STAGES = ("parse_calfield", "process_field", "build_report", "dumps")
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def field_texts() -> dict:
    """{"n<n>_N<N>": CALFIELD text} of the seeded smooth fields."""
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return {
        f"n{n}_N{size}": inputs.smooth_field(np.random.default_rng(SEED), f"n{n}", n, size, 0).text
        for n in DIMS
        for size in SIZES
    }


def host_reference():
    """``around(fn)``: (fn's result, its seconds, the host reference kernel's seconds around it).

    ``perfbench/workloads.py`` imports semicalib, so call this once the
    measured tree is first on ``sys.path``.
    """
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    host = workloads.HostReference()

    def around(fn):
        result, elapsed, slowdown = host.around(fn)
        return result, elapsed, slowdown * workloads.REF_NOMINAL_S

    return around


def time_stages(text: str, around) -> dict:
    """Seconds of each build stage on one field and of the kernel around it, the medians of REPEATS passes."""
    from semicalib.field import build_report, parse_calfield, process_field
    from semicalib.jsonio import dumps

    steps = {"parse_calfield": lambda _: parse_calfield(text), "process_field": process_field,
             "build_report": build_report, "dumps": dumps}
    rows = []
    for _ in range(REPEATS):
        row, value = {}, None
        for stage, step in steps.items():
            value, row[f"{stage}_s"], row[f"{stage}_ref_s"] = around(lambda: step(value))
        rows.append(row)
    med = {key: float(np.median([r[key] for r in rows])) for key in rows[0]}
    med["total_s"] = sum(med[f"{stage}_s"] for stage in STAGES)
    med["report_bytes"] = len(value)
    return med


def summarize(runs: list[dict]) -> dict:
    """The label's ``median``, ``q1`` and ``q3`` of every stage of every field over its runs.

    ``scaled`` holds the same for each stage divided by the kernel time
    around it, and their sum as ``total``.
    """
    def percentiles(rows: list[dict]) -> dict:
        return {
            name: {
                field: {key: float(np.percentile([r[field][key] for r in rows], q)) for key in rows[0][field]}
                for field in rows[0]
            }
            for name, q in (("median", 50), ("q1", 25), ("q3", 75))
        }

    scaled = []
    for run in runs:
        scaled.append({})
        for field, row in run.items():
            stages = {stage: row[f"{stage}_s"] / row[f"{stage}_ref_s"] for stage in STAGES}
            scaled[-1][field] = {**stages, "total": sum(stages.values())}
    return {**percentiles(runs), "scaled": percentiles(scaled)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured tree, e.g. parent or change")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="source tree holding the semicalib package (default: this checkout)")
    parser.add_argument("-o", "--output", default="BENCH_build.json")
    args = parser.parse_args(argv)

    setup = {
        "script": "bench/build_stages.py",
        "dims": list(DIMS), "sizes": list(SIZES), "seed": SEED, "repeats": REPEATS,
        "fields": "perfbench/inputs.py smooth_field, default pair values, no gap points, "
                  "one numpy default_rng(seed) per field",
        "stages": "parse_calfield, process_field (default FieldConfig), build_report, jsonio.dumps; "
                  "each the median over repeats, in process",
        "host_reference": "perfbench/workloads.py HostReference.around each stage: the mean of the medians "
                          "of 3 kernel runs before and 3 after; scaled = stage seconds / kernel seconds",
    }
    machine = {
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "blas_threads": 1,
    }
    data = {"setup": setup, "machine": machine}
    if os.path.exists(args.output):
        with open(args.output) as handle:
            data = json.load(handle)
        for key, current in (("setup", setup), ("machine", machine)):
            if data.get(key) != current:
                raise SystemExit(f"{args.output} records another {key}: {data.get(key)} != {current}; "
                                 "write to a new file")

    texts = field_texts()
    sys.path.insert(0, os.path.abspath(args.src))
    around = host_reference()
    time_stages(texts[f"n{DIMS[0]}_N{SIZES[0]}"], around)  # warm-up: imports, LAPACK initialisation
    run = {name: time_stages(text, around) for name, text in texts.items()}
    entry = data.setdefault("results", {}).setdefault(args.label, {"runs": []})
    entry["runs"].append(run)
    entry.update(summarize(entry["runs"]))
    with open(args.output, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps({args.label: {key: value for key, value in entry.items() if key != "runs"}},
                     indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
