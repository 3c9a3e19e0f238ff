"""Stage timings of the sampled comass oracle, merged into a BENCH JSON file.

    python bench/comass_stages.py --label change [--src DIR] [-o BENCH_comass.json]

The input is a point from perfbench's verify-power generator: the first of
the one-point n = 8 fields that the verify-power workload draws at perfbench
seed 1, ``inputs.smooth_field`` with ``VERIFY_PAIR_VALUES``.  The oracle rows
time ``comass_bruteforce`` on its raw ``(g, omega)`` for p = 1, 2 and 3 at the
``semicalib comass`` command's sampling: 20 000 samples, FieldConfig's
default restarts and the library's default polish.  That is not the sampled
run ``verify`` makes (p = 1 only, on the constructed ``(g_J, Omega)``, with
FieldConfig's 256 samples and verify's own polish constants), so the split
is the ``comass`` command's, not verify-power's.  Each row is split into the
``STAGES``: the draws and their ranking values (``_ranked_draws``), the
Gram-Schmidt of the kept frames and of the final re-orthonormalization
(``_gram_schmidt_stack``) and ascent (the Stiefel polish ``_polish``), each
the self time perfbench's ``tracing.Tracer`` records while it patches the
names in ``semicalib.comass``.  A tree without one of the names (one before
``_ranked_draws``) gets no row for its stage.  The rest, mostly the chunk
merge, is ``other``.  The numbers are only as stable as the stage names;
``tests/test_bench_targets.py`` checks that they resolve.  Two
end-to-end ``semicalib verify`` timings at verify's default sampling follow:
``--power 2 --power 3`` on the same point, which is one of verify-power's
calls, the median of VERIFY_CALLS calls of a few ms each, and one call
without ``--power`` on a seeded N = 1000, n = 8 smooth field.
``perfbench/`` is imported, never changed.  Every oracle call and every
``verify`` call is timed with the host reference kernel around it
(``bench/harness.py``); each ``p<p>`` row keeps the median kernel time of
its calls as ``ref_s``, each ``verify`` row as ``<row>_ref_s``.
"""

from __future__ import annotations

import os
import tempfile

import harness  # first: pins BLAS to one thread before numpy loads

import numpy as np

N = 8
PAIR_VALUES = (1.0, 0.7, 0.4, 0.0)  # perfbench's VERIFY_PAIR_VALUES; the last pair of R^8 is kernel
POINT_SEED = (1, 2)  # VerifyPower(seed) draws its fields from default_rng([seed, 2]); perfbench seed 1
STAGES = {"_ranked_draws": "ranking", "_gram_schmidt_stack": "orthonormalization", "_polish": "ascent"}
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
    "point": f"perfbench/inputs.py smooth_field with seed {list(POINT_SEED)}, one point, n={N}, "
             "pair values perfbench/workloads.py VERIFY_PAIR_VALUES: verify-power's first field at seed 1",
    "oracle": "comass_bruteforce on the point's raw (g, omega), the comass command's sampling: oracle_samples, "
              "FieldConfig's default restarts, default polish; stage times are medians over seeds, then over repeats",
    "stages": "perfbench/tracing.py Tracer self times of _ranked_draws (ranking: the draws and their values), "
              "_gram_schmidt_stack (orthonormalization: the kept frames and the final pass) and _polish (ascent), "
              "patched in semicalib.comass for each oracle call where the tree has the name",
    "verify": f"semicalib verify --power 2 --power 3, the oracle's point, in process, "
              f"median of {VERIFY_CALLS} calls",
    "verify_field": f"semicalib verify, perfbench/inputs.py smooth_field with seed {FIELD_SEED}, "
                    f"N={FIELD_POINTS}, n={N}, no gap points, in process",
    "host_reference": "perfbench/workloads.py HostReference.around each oracle and verify call: the mean "
                      "of the medians of 3 kernel runs before and 3 after; scaled = seconds / kernel seconds",
}


def smooth_field(seed, points: int, values=None):
    """perfbench's smooth field from ``default_rng(seed)`` at n = N without gap points, with pair ``values`` or its default ones."""
    inputs = harness.sibling("perfbench", "inputs")
    return inputs.smooth_field(np.random.default_rng(seed), f"n{N}-N{points}", N, points, 0, values)


def time_oracle(G, W, around) -> dict:
    """{"p<p>": median over SEEDS of each stage's seconds, ``other_s``, ``call_s`` and ``ref_s``}."""
    import semicalib.comass as comass
    from semicalib import FieldConfig, MetricTensor, PowerForm, TwoForm, comass_bruteforce

    tracing = harness.sibling("perfbench", "tracing")
    config = FieldConfig()
    g, w = MetricTensor(G), TwoForm(W)
    stages = {name: stage for name, stage in STAGES.items() if hasattr(comass, name)}
    out = {}
    for p in POWERS:
        rows = []
        for seed in SEEDS:
            tracer = tracing.Tracer()
            for name, stage in stages.items():
                tracer.patch("semicalib.comass", name, stage)
            try:
                _, call, ref = around(lambda: comass_bruteforce(g, PowerForm(w, p), samples=ORACLE_SAMPLES,
                                                                restarts=config.restarts, seed=seed))
            finally:
                tracer.restore()
            self_s = tracer.self_times()[0]
            row = {f"{stage}_s": self_s[stage] for stage in stages.values()}
            row["other_s"] = call - sum(row.values())
            row["call_s"] = call
            row["ref_s"] = ref
            rows.append(row)
        out[f"p{p}"] = harness.percentile(rows, 50)
    return out


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
    point = smooth_field(POINT_SEED, 1, PAIR_VALUES)
    powers = ["--power", "2", "--power", "3"]
    time_verify(point.text, around, powers)  # warm-up: imports, LAPACK initialisation
    passes = [time_oracle(point.points[0].g, point.points[0].w, around) for _ in range(REPEATS)]
    calls = np.array([time_verify(point.text, around, powers) for _ in range(VERIFY_CALLS)])
    field_s, field_ref_s = time_verify(smooth_field(FIELD_SEED, FIELD_POINTS).text, around)
    return {
        **harness.percentile(passes, 50),
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
