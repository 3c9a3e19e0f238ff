"""Peak memory of ``semicalib build`` and ``verify`` on large fields, and perfbench runs, merged into a BENCH JSON file.

    python bench/report_memory.py --label change [--src DIR] [-o BENCH_report_memory.json]

First one ``perfbench/run.py`` run per workload in the checkout that holds
``--src`` gives its end-to-end metrics; running the script for two trees in
turn alternates their perfbench runs.  They run before this process makes
the fields: perfbench reads ``ru_maxrss``, which carries the peak of the
process that launched it (see ``CHILD``).  Then each
CLI run is a fresh child interpreter: it imports ``semicalib.cli`` from
``--src``, reads its peak RSS, runs the command on a field file with ``-o``
to a temporary file and reads its peak RSS again.  The difference, in MB, is
how far the run raised the process's peak above the import's.  The fields
are seeded ``smooth_field`` fields of ``perfbench/inputs.py`` (imported,
never changed) at n = 8 with N = 1000 and 16 000 points and no gap
violations.  ``verify`` runs at its default sampling.  BLAS is pinned to one
thread (``bench/harness.py``).  Memory is not scaled by the host reference:
``scaled`` is empty.
"""

from __future__ import annotations

import harness  # first: pins BLAS to one thread before numpy loads

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

DIM = 8
SIZES = (1000, 16_000)
SEED = 1
COMMANDS = ("build", "verify")
PERFBENCH_WORKLOADS = ("build-field", "verify-power", "adversarial-points")
PERFBENCH_ARGS = ("--seed", "1", "--seconds", "30", "--trace", "0")
PERFBENCH_METRICS = ("throughput_pts_s", "call_ms_p50", "peak_rss_mb", "ok_frac", "setup_s")
SETUP = {
    "script": "bench/report_memory.py",
    "dim": DIM, "sizes": list(SIZES), "seed": SEED, "commands": list(COMMANDS),
    "fields": "perfbench/inputs.py smooth_field, default pair values, no gap points, "
              "one numpy default_rng(seed) per field",
    "cli": "a fresh interpreter per run: VmHWM after the run minus VmHWM after importing semicalib.cli, "
           "in MB; -o to a file, default flags",
    "perfbench": "python3 perfbench/run.py --workload W " + " ".join(PERFBENCH_ARGS) + " in the checkout "
                 "holding --src for W in " + ", ".join(PERFBENCH_WORKLOADS) + ", first, before the fields are made",
}
# The child's program: argv[1] is the source tree, the rest the CLI's arguments.  It reads the
# peak RSS of its own image, VmHWM, which exec starts afresh: ru_maxrss would also carry the
# peak of the launching process, whose memory a vfork'd child shares until its exec.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from semicalib import cli

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kb()
code = cli.main(sys.argv[2:])
print(code, (peak_kb() - before) / 1024)
"""


def field_text(size: int) -> str:
    """CALFIELD text of the seeded n = 8 smooth field of ``size`` points."""
    inputs = harness.sibling("perfbench", "inputs")
    return inputs.smooth_field(np.random.default_rng(SEED), f"n{DIM}", DIM, size, 0).text


def cli_growth(src: str, argv: list[str]) -> dict:
    """``semicalib`` ``argv`` in a fresh interpreter on ``src``: its exit code and its peak RSS growth in MB."""
    out = subprocess.run([sys.executable, "-c", CHILD, os.path.abspath(src), *argv],
                         capture_output=True, text=True, check=True).stdout.split()
    return {"exit": int(out[0]), "growth_mb": float(out[1])}


def perfbench_metrics(root: str, workload: str) -> dict:
    """``PERFBENCH_METRICS`` of one perfbench ``workload`` run in the checkout ``root``, read off its last output line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, *PERFBENCH_ARGS], cwd=root,
                          capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench {workload} run in {root} failed its checks")
    return {name: result["metrics"][name]["value"] for name in PERFBENCH_METRICS}


def measure(src: str) -> dict:
    root = os.path.dirname(os.path.abspath(src))
    run = {f"perfbench_{w.replace('-', '_')}": perfbench_metrics(root, w) for w in PERFBENCH_WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        for size in SIZES:
            path = os.path.join(tmp, f"n{DIM}_N{size}.calfield")
            with open(path, "w") as handle:
                handle.write(field_text(size))
            for command in COMMANDS:
                run[f"{command}_N{size}"] = cli_growth(src, [command, path, "-o", os.path.join(tmp, "report.json")])
    return run


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, label=True, output="BENCH_report_memory.json")
    harness.record(args.output, args.label, SETUP, lambda: measure(args.src), lambda run: {})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
