"""Stage timings of the sampled comass oracle, merged into a BENCH JSON file.

    python bench/comass_stages.py --label change [--src DIR] [-o BENCH_comass.json]

Times ``comass_bruteforce`` at n = 8 for p = 1, 2 and 3 with the
``semicalib comass`` default of 20 000 samples and FieldConfig's default
restarts, split into frame sampling (``_orthonormal_frames``), sample ranking
(``_abs_values``) and ascent (the Stiefel polish ``_polish``; the rest,
mostly the chunk merge and the final re-orthonormalization, one stacked
Gram-Schmidt pass over every restart, or one pass per restart in trees
before format 8, is ``other``).  Stages are timed by wrapping the oracle's
private stage functions, so the numbers are only as stable as those names;
``tests/test_bench_targets.py`` checks that they resolve.  Two end-to-end ``semicalib verify`` timings
at verify's default sampling follow: ``--power 2 --power 3`` on a one-point
n = 8 field, the median of VERIFY_CALLS calls of a few ms each, and one
call without ``--power`` on a seeded N = 1000, n = 8 smooth field from
``perfbench/inputs.py`` (imported, never changed).  Around every oracle
call and every ``verify`` call the host reference kernel of
``perfbench/workloads.py`` (``HostReference``, imported, never changed) is
timed too: the mean of the medians of three kernel runs before the call and
three after it; each row keeps the median kernel time of its calls as
``ref_s`` (``<row>_ref_s`` for the ``verify`` rows).  ``--src`` chooses the
source tree to import, so one copy of this script times two commits on the
same machine; each invocation appends one run under ``--label`` and refreshes
that label's medians and, beside them, its first and third quartiles (``q1``,
``q3``), the spread a later run is compared against.  Under ``scaled`` the
same three statistics are given for each time divided by its kernel time, a
measure that follows the code and not the host's drift.  A run is refused
when the file's recorded machine or setup differs from the current one, so
every label in one file is comparable.  BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

N = 8
PAIR_VALUES = (1.0, 0.7, 0.4)  # the last pair of R^8 is kernel
POWERS = (1, 2, 3)
SEEDS = (0, 1, 2)
REPEATS = 3  # oracle passes per run; each stage keeps the median
ORACLE_SAMPLES = 20_000  # semicalib comass's default
VERIFY_CALLS = 21  # one-point verify calls per run; one call alone varies by half its time
FIELD_POINTS = 1000
FIELD_SEED = 1
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def planted_point(seed: int = 8):
    """(G, W) at n = 8: random SPD metric, pair values PAIR_VALUES on a g-orthonormal frame."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    G = (q * rng.uniform(0.5, 2.0, N)) @ q.T
    G = (G + G.T) / 2
    z, _ = np.linalg.qr(rng.standard_normal((N, N)))
    frame = np.linalg.solve(np.linalg.cholesky(G).T, z)  # columns are g-orthonormal
    W = np.zeros((N, N))
    for i, mu in enumerate(PAIR_VALUES):
        a, b = G @ frame[:, 2 * i], G @ frame[:, 2 * i + 1]
        W += mu * (np.outer(a, b) - np.outer(b, a))
    return G, W


def smooth_field_text() -> str:
    """CALFIELD text of the seeded FIELD_POINTS-point smooth field at n = N, without gap violations."""
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    rng = np.random.default_rng(FIELD_SEED)
    return inputs.smooth_field(rng, "verify-field", N, FIELD_POINTS, 0).text


def field_text(G, W) -> str:
    """One-point CALFIELD: G's upper triangle with the diagonal, W's without."""
    def upper(m, offset):
        return " ".join(repr(float(m[i, j])) for i in range(N) for j in range(i + offset, N))

    return "\n".join([
        "CALFIELD 1", f"DIM {N}", "POINTS 1", "P 0", "X " + " ".join(["0"] * N),
        "G " + upper(G, 0), "W " + upper(W, 1),
    ]) + "\n"


class StageTimer:
    """Wraps the oracle's stage functions; ranking inside the ascent counts as ascent."""

    def __init__(self, module):
        self.module = module
        self.names = {"_orthonormal_frames": "sampling", "_abs_values": "ranking", "_polish": "ascent"}
        self.seconds = dict.fromkeys(self.names.values(), 0.0)
        self.in_ascent = False
        self.saved = {}

    def _wrap(self, name, stage):
        fn = getattr(self.module, name)

        def timed(*args, **kwargs):
            if stage == "ranking" and self.in_ascent:
                return fn(*args, **kwargs)
            self.in_ascent = stage == "ascent"
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - start
                if stage == "ascent":
                    self.in_ascent = False

        return timed

    def __enter__(self):
        for name, stage in self.names.items():
            self.saved[name] = getattr(self.module, name)
            setattr(self.module, name, self._wrap(name, stage))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)


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


def time_oracle(G, W, around) -> dict:
    import semicalib.comass as comass
    from semicalib import FieldConfig, MetricTensor, PowerForm, TwoForm, comass_bruteforce

    config = FieldConfig()
    g, w = MetricTensor(G), TwoForm(W)
    out = {}
    for p in POWERS:
        rows = []
        for seed in SEEDS:
            with StageTimer(comass) as timer:
                _, call, ref = around(lambda: comass_bruteforce(g, PowerForm(w, p), samples=ORACLE_SAMPLES,
                                                                restarts=config.restarts, seed=seed))
            row = {f"{stage}_s": t for stage, t in timer.seconds.items()}
            row["other_s"] = call - sum(row.values())
            row["call_s"] = call
            row["ref_s"] = ref
            rows.append(row)
        out[f"p{p}"] = _median_rows(rows)
    return out


def _median_rows(rows: list[dict]) -> dict:
    return {key: float(np.median([r[key] for r in rows])) for key in rows[0]}


def time_verify(text: str, around, extra=()) -> tuple[float, float]:
    """(seconds of one in-process ``semicalib verify`` on the CALFIELD ``text``, kernel seconds around it)."""
    from semicalib import cli

    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "field.calfield"), os.path.join(tmp, "verify.json")
        with open(src, "w") as handle:
            handle.write(text)
        code, elapsed, ref = around(lambda: cli.main(["verify", src, "-o", dst, *extra]))
    if code != 0:
        raise SystemExit(f"verify exited {code}")
    return elapsed, ref


VERIFY_ROWS = ("verify_power_2_3", "verify_field_n1000")


def summarize(runs: list[dict]) -> dict:
    """The label's ``median``, ``q1`` and ``q3`` over its runs: each power's stages, then VERIFY_ROWS.

    ``scaled`` holds the same for each time divided by the kernel time around it.
    """
    def percentiles(rows: list[dict]) -> dict:
        def percentile(q: float) -> dict:
            stages = {p: {key: float(np.percentile([r["comass"][p][key] for r in rows], q)) for key in stage}
                      for p, stage in rows[0]["comass"].items()}
            return {**stages, **{key: float(np.percentile([r[key] for r in rows], q))
                                 for key in rows[0] if key != "comass"}}

        return {"median": percentile(50), "q1": percentile(25), "q3": percentile(75)}

    scaled = [
        {
            "comass": {p: {key[:-2]: t / row["ref_s"] for key, t in row.items() if key != "ref_s"}
                       for p, row in run["comass"].items()},
            **{key: run[f"{key}_s"] / run[f"{key}_ref_s"] for key in VERIFY_ROWS},
        }
        for run in runs
    ]
    return {**percentiles(runs), "scaled": percentiles(scaled)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured tree, e.g. parent or change")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="source tree holding the semicalib package (default: this checkout)")
    parser.add_argument("-o", "--output", default="BENCH_comass.json")
    args = parser.parse_args(argv)

    setup = {
        "script": "bench/comass_stages.py",
        "n": N, "pair_values": list(PAIR_VALUES), "powers": list(POWERS), "seeds": list(SEEDS),
        "repeats": REPEATS,
        "oracle_samples": ORACLE_SAMPLES,
        "oracle": "comass_bruteforce with oracle_samples and FieldConfig's default restarts; "
                  "stage times are medians over seeds, then over repeats",
        "verify": f"semicalib verify --power 2 --power 3, one point, in process, "
                  f"median of {VERIFY_CALLS} calls",
        "verify_field": f"semicalib verify, perfbench/inputs.py smooth_field with seed {FIELD_SEED}, "
                        f"N={FIELD_POINTS}, n={N}, no gap points, in process",
        "host_reference": "perfbench/workloads.py HostReference.around each oracle and verify call: the mean "
                          "of the medians of 3 kernel runs before and 3 after; scaled = seconds / kernel seconds",
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

    sys.path.insert(0, os.path.abspath(args.src))
    around = host_reference()
    G, W = planted_point()
    point = field_text(G, W)
    powers = ["--power", "2", "--power", "3"]
    time_verify(point, around, powers)  # warm-up: imports, LAPACK initialisation
    passes = [time_oracle(G, W, around) for _ in range(REPEATS)]
    calls = np.array([time_verify(point, around, powers) for _ in range(VERIFY_CALLS)])
    field_s, field_ref_s = time_verify(smooth_field_text(), around)
    run = {
        "comass": {p: _median_rows([x[p] for x in passes]) for p in passes[0]},
        "verify_power_2_3_s": float(np.median(calls[:, 0])),
        "verify_power_2_3_ref_s": float(np.median(calls[:, 1])),
        "verify_field_n1000_s": field_s,
        "verify_field_n1000_ref_s": field_ref_s,
    }
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
