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
``perfbench/inputs.py`` (imported, never changed).  Every oracle call and
every ``verify`` call is timed with the host reference kernel around it
(``bench/harness.py``); each ``p<p>`` row keeps the median kernel time of its
calls as ``ref_s``, each ``verify`` row as ``<row>_ref_s``.
"""

from __future__ import annotations

import os
import tempfile
import time

import harness  # first: pins BLAS to one thread before numpy loads

import numpy as np

N = 8
PAIR_VALUES = (1.0, 0.7, 0.4)  # the last pair of R^8 is kernel
POWERS = (1, 2, 3)
SEEDS = (0, 1, 2)
REPEATS = 3  # oracle passes per run; each stage keeps the median
ORACLE_SAMPLES = 20_000  # semicalib comass's default
VERIFY_CALLS = 21  # one-point verify calls per run; one call alone varies by half its time
FIELD_POINTS = 1000
FIELD_SEED = 1
VERIFY_ROWS = ("verify_power_2_3", "verify_field_n1000")
SETUP = {
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
    inputs = harness.sibling("perfbench", "inputs")
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
    """Wraps the oracle's stage functions and adds up the seconds spent in each."""

    def __init__(self, module):
        self.module = module
        self.names = {"_orthonormal_frames": "sampling", "_abs_values": "ranking", "_polish": "ascent"}
        self.seconds = dict.fromkeys(self.names.values(), 0.0)
        self.saved = {}

    def _wrap(self, name, stage):
        fn = getattr(self.module, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - start

        return timed

    def __enter__(self):
        for name, stage in self.names.items():
            self.saved[name] = getattr(self.module, name)
            setattr(self.module, name, self._wrap(name, stage))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)


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


def scaled(run: dict) -> dict:
    """Each power's times and each VERIFY_ROWS time divided by the kernel time around it."""
    return {
        **{f"p{p}": {key[:-2]: t / run[f"p{p}"]["ref_s"] for key, t in run[f"p{p}"].items() if key != "ref_s"}
           for p in POWERS},
        **{key: run[f"{key}_s"] / run[f"{key}_ref_s"] for key in VERIFY_ROWS},
    }


def measure() -> dict:
    around = harness.host_reference()
    G, W = planted_point()
    point = field_text(G, W)
    powers = ["--power", "2", "--power", "3"]
    time_verify(point, around, powers)  # warm-up: imports, LAPACK initialisation
    passes = [time_oracle(G, W, around) for _ in range(REPEATS)]
    calls = np.array([time_verify(point, around, powers) for _ in range(VERIFY_CALLS)])
    field_s, field_ref_s = time_verify(smooth_field_text(), around)
    return {
        **{p: _median_rows([x[p] for x in passes]) for p in passes[0]},
        "verify_power_2_3_s": float(np.median(calls[:, 0])),
        "verify_power_2_3_ref_s": float(np.median(calls[:, 1])),
        "verify_field_n1000_s": field_s,
        "verify_field_n1000_ref_s": field_ref_s,
    }


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, argv, label=True, output="BENCH_comass.json")
    harness.record(args.output, args.label, SETUP, measure, scaled)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
