"""semicalib benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload build-field --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics.  Times
in the end-to-end metrics are scaled to a nominal host speed, measured by a
fixed reference kernel around every timed call or chunk of calls (see
``workloads.HostReference``); the unscaled figures are printed as well.
Human readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 only when every correctness check passed.
The library is imported from ``src/`` of the current directory, never from
an installed copy, and the run fails without it.  Traced runs write their
spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOAD_NAMES = ("build-field", "verify-power", "adversarial-points")
SETUP_LAUNCHES = 11
SETUP_IMPORT = "import semicalib, semicalib.cli"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host_threads() -> tuple[int, int]:
    """(usable cores, BLAS threads): one core and one BLAS thread for the one caller.

    The matrices are at most 16x16 (and 25000x8 batches in the sampled
    comass), too small to gain from a second thread, which only exposes the
    run to load on the other core.  The process, and the interpreters it
    launches, stay on one core, the one the host reference samples measure.
    Must run before numpy is imported.
    """
    cores = os.sched_getaffinity(0)
    nproc = len(cores)
    os.sched_setaffinity(0, {min(cores)})
    blas = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return nproc, blas


class SetupProbe:
    """Wall time of a fresh interpreter importing the library and its CLI.

    Launches are spread evenly through the run, between passes and within
    its ``seconds``, and each is scaled by the host slowdown measured around
    it.  One launch first writes the bytecode caches and is not counted.
    """

    def __init__(self, root: str, src: str, host):
        self.root = root
        self.host = host
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + old if old else src
        self.times: list[float] = []
        self._launch()

    def _launch(self) -> None:
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=self.env, cwd=self.root,
                       check=True, stdout=subprocess.DEVNULL)

    def _timed_launch(self) -> float:
        _, elapsed, slow = self.host.around(self._launch)
        self.times.append(elapsed / slow)
        return elapsed

    def between(self, elapsed: float, seconds: float) -> None:
        while len(self.times) < SETUP_LAUNCHES and elapsed >= len(self.times) * seconds / SETUP_LAUNCHES:
            elapsed += self._timed_launch()

    def median(self) -> float:
        while len(self.times) < SETUP_LAUNCHES:
            self._timed_launch()
        return statistics.median(self.times)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "semicalib", "__init__.py")):
        print(f"error: no semicalib source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc, blas = _host_threads()
    sys.path.insert(0, src)

    import semicalib
    import workloads

    if not os.path.abspath(semicalib.__file__).startswith(src + os.sep):
        print(f"error: semicalib imported from {semicalib.__file__}, not {src}", file=sys.stderr)
        return 2

    host = {"nproc": nproc, "blas_threads": blas}
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        run = workloads.prepare(args.workload, args.seed, args.seconds, workdir)
        probe = None if args.trace else SetupProbe(root, src, run.host)
        tracer = workloads.execute(run, bool(args.trace), probe and probe.between)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"one closed-loop caller")
    print(f"host: nproc {nproc}, BLAS threads {blas}")
    for line in workloads.notes(run):
        print(line)
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = workloads.end_to_end(run, probe.median(), peak_rss_mb)
    else:
        metrics = workloads.per_layer(run, tracer, host)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        host["ref_kernel_s"] = run.host.samples
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "host": host})
        print(f"spans written to {os.path.relpath(path, root)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    for message in run.fatal[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not run.fatal
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
