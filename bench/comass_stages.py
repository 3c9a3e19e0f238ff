"""Stage timings of the sampled comass oracle, merged into a BENCH JSON file.

    python bench/comass_stages.py --label change [--src DIR] [-o BENCH_comass.json]

Times ``comass_bruteforce`` at n = 8 for p = 1, 2 and 3 with FieldConfig's
default samples and restarts, split into frame sampling, sample ranking and
ascent (the Stiefel polish ``_polish``, or the random ascent ``_ascend`` of
older trees; the rest, mostly the final Gram-Schmidt pass, is ``other``), and
``semicalib verify --power 2 --power 3`` on a one-point n = 8 field.  Stages
are timed by wrapping the oracle's private stage functions, so the numbers
are only as stable as those names.  ``--src`` chooses the source tree to
import, so one copy of this script times two commits on the same machine;
each invocation appends one run under ``--label`` and refreshes that label's
medians.  A run is refused when the file's recorded machine or setup differs
from the current one, so every label in one file is comparable.  BLAS runs
on one thread, as in the benchmark.
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
                comass_bruteforce(g, PowerForm(w, p), samples=config.samples,
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


def time_verify(G, W) -> float:
    from semicalib import cli

    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "point.calfield"), os.path.join(tmp, "verify.json")
        with open(src, "w") as handle:
            handle.write(field_text(G, W))
        start = time.perf_counter()
        code = cli.main(["verify", src, "-o", dst, "--power", "2", "--power", "3"])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"verify exited {code}")
    return elapsed


def summarize(runs: list[dict]) -> dict:
    med = {p: _median_rows([r["comass"][p] for r in runs]) for p in runs[0]["comass"]}
    med["verify_power_2_3_s"] = float(np.median([r["verify_power_2_3_s"] for r in runs]))
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
        "oracle": "comass_bruteforce with FieldConfig defaults; stage times are medians over seeds, then over repeats",
        "verify": "semicalib verify --power 2 --power 3, one point, in process",
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
    time_verify(G, W)  # warm-up: imports, LAPACK initialisation
    passes = [time_oracle(G, W) for _ in range(REPEATS)]
    run = {
        "comass": {p: _median_rows([x[p] for x in passes]) for p in passes[0]},
        "verify_power_2_3_s": time_verify(G, W),
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
