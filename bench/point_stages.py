"""Time of one ``construct_point`` call on perfbench's adversarial grid, merged into a BENCH JSON file.

    python bench/point_stages.py --label change [--src DIR] [-o BENCH_construct_point.json]

The inputs are the points the adversarial-points workload draws at perfbench
seed 1: ``inputs.adversarial_grid`` from ``default_rng([SEED, 3])`` over the
workload's conds, separations and repeats, 4096 n = 8 points with cond(G) up
to 1e6, near-double pair values and no kernel.  ``perfbench/`` is imported,
never changed.  Each pass calls ``construct_point(g, omega)`` once per point,
in chunks of the workload's ``ADVERSARIAL_CHUNK`` calls, each chunk timed with
the host reference kernel around it (``bench/harness.py``).  A run keeps the
median call time over ``PASSES`` passes as ``call_s``, the median kernel time
over the chunks as ``ref_s``, and the calls that raised as ``raised``;
``scaled`` divides the call time by the kernel time.
"""

from __future__ import annotations

import time

import harness  # first: pins BLAS to one thread before numpy loads

import numpy as np

SEED = 1
PASSES = 3
SETUP = {
    "script": "bench/point_stages.py",
    "seed": SEED, "passes": PASSES,
    "points": "perfbench/inputs.py adversarial_grid from default_rng([seed, 3]) over perfbench/workloads.py "
              "ADVERSARIAL_CONDS, ADVERSARIAL_SEPS and ADVERSARIAL_REPEATS: adversarial-points' grid at seed 1",
    "calls": "construct_point(g, omega) with the default epsilon policy, in process, chunks of "
             "perfbench/workloads.py ADVERSARIAL_CHUNK calls; call_s is the median call over passes",
    "host_reference": "perfbench/workloads.py HostReference.around each chunk: the mean of the medians "
                      "of 3 kernel runs before and 3 after; ref_s is the median over chunks; "
                      "scaled = call_s / ref_s",
}


def grid_args() -> list:
    """(MetricTensor, TwoForm) of every adversarial point at seed ``SEED``, in the workload's order."""
    from semicalib import MetricTensor, TwoForm

    inputs = harness.sibling("perfbench", "inputs")
    workloads = harness.sibling("perfbench", "workloads")
    grid = inputs.adversarial_grid(np.random.default_rng([SEED, 3]), workloads.ADVERSARIAL_CONDS,
                                   workloads.ADVERSARIAL_SEPS, workloads.ADVERSARIAL_REPEATS)
    return [(MetricTensor(p.g), TwoForm(p.w)) for _, _, p in grid]


def time_calls(args: list, around, passes: int, chunk: int) -> dict:
    """``call_s``, ``ref_s`` and ``raised`` of ``passes`` passes of construct_point over ``args``."""
    from semicalib import construct_point

    durations, refs, raised = [], [], 0

    def calls(part):
        nonlocal raised
        for g, omega in part:
            start = time.perf_counter()
            try:
                construct_point(g, omega)
            except Exception:  # counted; the workload counts a raise as a failed point
                raised += 1
            durations.append(time.perf_counter() - start)

    for _ in range(passes):
        for lo in range(0, len(args), chunk):
            refs.append(around(lambda: calls(args[lo : lo + chunk]))[2])
    return {"call_s": float(np.median(durations)), "ref_s": float(np.median(refs)), "raised": raised // passes}


def scaled(run: dict) -> dict:
    """The median call time divided by the median kernel time."""
    return {"call": run["call_s"] / run["ref_s"]}


def measure() -> dict:
    args = grid_args()
    around = harness.host_reference()
    chunk = harness.sibling("perfbench", "workloads").ADVERSARIAL_CHUNK
    time_calls(args[:chunk], around, 1, chunk)  # warm-up: imports, LAPACK initialisation
    return time_calls(args, around, PASSES, chunk)


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, label=True, output="BENCH_construct_point.json")
    harness.record(args.output, args.label, SETUP, measure, scaled)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
