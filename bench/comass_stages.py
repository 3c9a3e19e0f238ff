"""Stage timings of the sampled comass oracle, merged into a BENCH JSON file.

    python bench/comass_stages.py --label change [--src DIR] [-o BENCH_comass.json]

Times ``comass_bruteforce`` at n = 8 for p = 1, 2 and 3 with the
``semicalib comass`` default of 20 000 samples and FieldConfig's default
restarts, split into frame sampling (``_orthonormal_frames``), sample ranking
(``_abs_values``, or ``_frame_values`` of older trees) and ascent (the Stiefel
polish ``_polish``, or the random ascent ``_ascend`` of older trees; the rest,
mostly the chunk merge and the final re-orthonormalization, one stacked
Gram-Schmidt pass over every restart, or one pass per restart in trees
before format 8, is ``other``).  Stages are timed by wrapping the oracle's
private stage functions, so the numbers are only as stable as those names;
``tests/test_bench_targets.py`` checks that they resolve.  Two end-to-end ``semicalib verify`` runs
at verify's default sampling follow: ``--power 2 --power 3`` on a one-point
n = 8 field, and no ``--power`` on a seeded N = 1000, n = 8 smooth field from
``perfbench/inputs.py`` (imported, never changed).  ``--src`` chooses the
source tree to import, so one copy of this script times two commits on the
same machine; each invocation appends one run under ``--label`` and refreshes
that label's medians.  A run is refused when the file's recorded machine or
setup differs from the current one, so every label in one file is
comparable.  BLAS runs on one thread, as in the benchmark.
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
        ranking = "_abs_values" if hasattr(module, "_abs_values") else "_frame_values"
        ascent = "_polish" if hasattr(module, "_polish") else "_ascend"
        self.names = {"_orthonormal_frames": "sampling", ranking: "ranking", ascent: "ascent"}
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


def time_oracle(G, W) -> dict:
    import semicalib.comass as comass
    from semicalib import FieldConfig, MetricTensor, PowerForm, TwoForm, comass_bruteforce

    config = FieldConfig()
    g, w = MetricTensor(G), TwoForm(W)
    out = {}
    for p in POWERS:
        rows = []
        for seed in SEEDS:
            with StageTimer(comass) as timer:
                start = time.perf_counter()
                comass_bruteforce(g, PowerForm(w, p), samples=ORACLE_SAMPLES,
                                  restarts=config.restarts, seed=seed)
                call = time.perf_counter() - start
            row = {f"{stage}_s": t for stage, t in timer.seconds.items()}
            row["other_s"] = call - sum(row.values())
            row["call_s"] = call
            rows.append(row)
        out[f"p{p}"] = _median_rows(rows)
    return out


def _median_rows(rows: list[dict]) -> dict:
    return {key: float(np.median([r[key] for r in rows])) for key in rows[0]}


def time_verify(text: str, extra=()) -> float:
    """Seconds of one in-process ``semicalib verify`` on the CALFIELD ``text``."""
    from semicalib import cli

    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "field.calfield"), os.path.join(tmp, "verify.json")
        with open(src, "w") as handle:
            handle.write(text)
        start = time.perf_counter()
        code = cli.main(["verify", src, "-o", dst, *extra])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"verify exited {code}")
    return elapsed


VERIFY_ROWS = ("verify_power_2_3_s", "verify_field_n1000_s")


def summarize(runs: list[dict]) -> dict:
    med = {p: _median_rows([r["comass"][p] for r in runs]) for p in runs[0]["comass"]}
    for key in VERIFY_ROWS:
        med[key] = float(np.median([r[key] for r in runs]))
    return med


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
        "verify": "semicalib verify --power 2 --power 3, one point, in process",
        "verify_field": f"semicalib verify, perfbench/inputs.py smooth_field with seed {FIELD_SEED}, "
                        f"N={FIELD_POINTS}, n={N}, no gap points, in process",
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
    G, W = planted_point()
    point = field_text(G, W)
    powers = ["--power", "2", "--power", "3"]
    time_verify(point, powers)  # warm-up: imports, LAPACK initialisation
    passes = [time_oracle(G, W) for _ in range(REPEATS)]
    run = {
        "comass": {p: _median_rows([x[p] for x in passes]) for p in passes[0]},
        "verify_power_2_3_s": time_verify(point, powers),
        "verify_field_n1000_s": time_verify(smooth_field_text()),
    }
    entry = data.setdefault("results", {}).setdefault(args.label, {"runs": []})
    entry["runs"].append(run)
    entry["median"] = summarize(entry["runs"])
    with open(args.output, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps({args.label: entry["median"]}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
