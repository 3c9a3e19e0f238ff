"""Stage timings of ``semicalib build``, merged into a BENCH JSON file.

    python bench/build_stages.py --label change [--src DIR] [-o BENCH_build.json]

Times the four stages of a build separately: ``parse_calfield`` on the
CALFIELD text, ``process_field`` on the parsed grid, ``build_report`` on the
construction and ``jsonio.dumps`` on the report.  The inputs are seeded
``smooth_field`` fields from ``perfbench/inputs.py`` (imported, never
changed) at n = 4, 8 and 16 with N = 100 and N = 1000 points and no gap
violations, each drawn from its own generator seeded with ``SEED``.  Each
stage and the host reference kernel around it (``bench/harness.py``) keep the
median of ``REPEATS`` passes; ``scaled`` divides each stage by its kernel
time and adds the quotients up as ``total``.
"""

from __future__ import annotations

import harness  # first: pins BLAS to one thread before numpy loads

import numpy as np

DIMS = (4, 8, 16)
SIZES = (100, 1000)
SEED = 1
REPEATS = 3
STAGES = ("parse_calfield", "process_field", "build_report", "dumps")
SETUP = {
    "script": "bench/build_stages.py",
    "dims": list(DIMS), "sizes": list(SIZES), "seed": SEED, "repeats": REPEATS,
    "fields": "perfbench/inputs.py smooth_field, default pair values, no gap points, "
              "one numpy default_rng(seed) per field",
    "stages": "parse_calfield, process_field (default FieldConfig), build_report, jsonio.dumps; "
              "each the median over repeats, in process",
    "host_reference": "perfbench/workloads.py HostReference.around each stage: the mean of the medians "
                      "of 3 kernel runs before and 3 after; scaled = stage seconds / kernel seconds",
}


def field_texts() -> dict:
    """{"n<n>_N<N>": CALFIELD text} of the seeded smooth fields."""
    inputs = harness.sibling("perfbench", "inputs")
    return {
        f"n{n}_N{size}": inputs.smooth_field(np.random.default_rng(SEED), f"n{n}", n, size, 0).text
        for n in DIMS
        for size in SIZES
    }


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
    med = harness.percentile(rows, 50)
    med["total_s"] = sum(med[f"{stage}_s"] for stage in STAGES)
    med["report_bytes"] = len(value)
    return med


def scaled(run: dict) -> dict:
    """Each field's stages divided by the kernel time around them, and their sum as ``total``."""
    out = {}
    for field, row in run.items():
        stages = {stage: row[f"{stage}_s"] / row[f"{stage}_ref_s"] for stage in STAGES}
        out[field] = {**stages, "total": sum(stages.values())}
    return out


def measure() -> dict:
    texts = field_texts()
    around = harness.host_reference()
    time_stages(texts[f"n{DIMS[0]}_N{SIZES[0]}"], around)  # warm-up: imports, LAPACK initialisation
    return {name: time_stages(text, around) for name, text in texts.items()}


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, label=True, output="BENCH_build.json")
    harness.record(args.output, args.label, SETUP, measure, scaled)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
