"""Stage timings of ``semicalib build``, merged into a BENCH JSON file.

    python bench/build_stages.py --label change [--src DIR] [-o BENCH_build.json]

Times the four stages of a build separately: ``parse_calfield`` on the
CALFIELD text, ``process_field`` on the parsed grid, ``build_report`` on the
construction and ``jsonio.dumps`` on the report.  The inputs are seeded
``smooth_field`` fields from ``perfbench/inputs.py`` (imported, never
changed) at n = 4, 8 and 16 with N = 100 and N = 1000 points and no gap
violations, each drawn from its own generator seeded with ``SEED``.  Each
stage keeps the median of ``REPEATS`` passes.  ``--src`` chooses the source
tree to import, so one copy of this script times two commits on the same
machine; each invocation appends one run under ``--label`` and refreshes that
label's medians and, beside them, its first and third quartiles (``q1``,
``q3``), the spread a later run is compared against.  A run is refused when
the file's recorded machine or setup differs from the current one, so every
label in one file is comparable.  BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

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


def time_stages(text: str) -> dict:
    """Seconds of each build stage on one field, the median of REPEATS passes."""
    from semicalib.field import build_report, parse_calfield, process_field
    from semicalib.jsonio import dumps

    rows = []
    for _ in range(REPEATS):
        row = {}
        start = time.perf_counter()
        grid = parse_calfield(text)
        row["parse_calfield"] = time.perf_counter() - start
        start = time.perf_counter()
        cf = process_field(grid)
        row["process_field"] = time.perf_counter() - start
        start = time.perf_counter()
        report = build_report(cf)
        row["build_report"] = time.perf_counter() - start
        start = time.perf_counter()
        out = dumps(report)
        row["dumps"] = time.perf_counter() - start
        rows.append(row)
    med = {f"{stage}_s": float(np.median([r[stage] for r in rows])) for stage in STAGES}
    med["total_s"] = sum(med.values())
    med["report_bytes"] = len(out)
    return med


def summarize(runs: list[dict]) -> dict:
    """The label's ``median``, ``q1`` and ``q3`` of every stage of every field over its runs."""
    def percentile(q: float) -> dict:
        return {
            field: {key: float(np.percentile([r[field][key] for r in runs], q)) for key in runs[0][field]}
            for field in runs[0]
        }

    return {"median": percentile(50), "q1": percentile(25), "q3": percentile(75)}


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
    time_stages(texts[f"n{DIMS[0]}_N{SIZES[0]}"])  # warm-up: imports, LAPACK initialisation
    run = {name: time_stages(text) for name, text in texts.items()}
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
