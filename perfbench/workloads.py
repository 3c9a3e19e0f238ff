"""The three workloads, their timed loop and their metrics.

Every workload is a closed loop with one caller: the next unit call starts
when the previous one has returned.  A pass runs every unit call of the
workload once; the same seed gives the same inputs and so the same passes.

- ``build-field``: ``semicalib build`` in process on smooth fields at n = 4,
  8 and 16 and on one odd-n field (lifted to n + 1).  Parse, spectral,
  construction and JSON output do all the work; comass does none.
- ``verify-power``: ``semicalib verify --power 2 --power 3`` on six
  one-point n = 8 fields at the CLI's default sampling.  The sampled comass
  (Pfaffians and ascent) does nearly all the work; construction almost none.
  One point per call keeps calls near 2 s, short enough for the host
  reference samples around each call to track the host's drift; six points
  average out how the ascent's iteration count varies from point to point.
- ``adversarial-points``: ``construct_point`` on ill-conditioned metrics with
  near-double pair values.  Stresses the cluster pairing in the spectral
  layer; the library's known failures here are counted, not fatal.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np
import scipy.linalg

import check
import inputs
from tracing import Tracer

from semicalib import MetricTensor, TwoForm, cli, construct_point
from semicalib import field as field_mod

BUILD_FIELDS = ((4, 100, 3), (8, 100, 3), (16, 100, 3), (7, 100, 0))  # (n, points, gap violations)
VERIFY_FIELDS = 6
VERIFY_POINTS = 1
# Well separated, with a 2-dim kernel.  Near-double values such as the
# build fields' (1, 0.85, 0.8) make the omega^2 ascent run 7000 to 20000
# iterations (its cap), so the cost would depend on the seed, not the code.
VERIFY_PAIR_VALUES = (1.0, 0.7, 0.4, 0.0)
POWERS = (2, 3)
ADVERSARIAL_CONDS = np.geomspace(1.0, 1e6, 16)
ADVERSARIAL_SEPS = np.geomspace(1e-9, 1e-3, 16)
ADVERSARIAL_REPEATS = 16  # random metrics and forms per (cond, d) cell: 4096 points
ADVERSARIAL_CHUNK = 256   # calls between two host reference measurements

TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
REF_NOMINAL_S = 0.004   # HostReference kernel time on a quiet 2-core host


def _power_span(g, form, *args, **kwargs) -> str:
    return f"comass.comass_bruteforce.p{getattr(form, 'p', 1)}"


def _count_excluded(counts, args, kwargs, cf) -> None:
    counts["field.points_excluded"] += sum(not o.gap_ok for o in cf.outcomes)


def _count_bytes(counts, args, kwargs, text) -> None:
    counts["jsonio.bytes"] += len(text)


def _count_samples(counts, args, kwargs, estimate) -> None:
    counts["comass.samples_drawn"] += estimate.samples


def _count_residuals(counts, args, kwargs, pc) -> None:
    thresholds = field_mod.RESIDUAL_THRESHOLDS
    if any(abs(pc.residuals[key]) > limit for key, limit in thresholds.items()):
        counts["construction.residual_over_threshold"] += 1


# (module whose namespace holds the name, attribute, span name, counter hook)
TRACE_TARGETS = (
    ("semicalib.cli", "parse_calfield", "field.parse_calfield", None),
    ("semicalib.cli", "process_field", "field.process_field", _count_excluded),
    ("semicalib.cli", "verify_field", "field.verify_field", None),
    ("semicalib.cli", "build_report", "field.build_report", None),
    ("semicalib.cli", "dumps", "jsonio.dumps", _count_bytes),
    ("semicalib.field", "construct_point", "construction.construct_point", _count_residuals),
    ("semicalib.field", "lift_odd", "construction.lift_odd", None),
    ("semicalib.field", "associated_endomorphism", "spectral.associated_endomorphism", None),
    ("semicalib.field", "paired_spectrum", "spectral.paired_spectrum", None),
    ("semicalib.field", "comass_exact", "comass.comass_exact", None),
    ("semicalib.field", "comass_bruteforce", _power_span, _count_samples),
    ("semicalib.construction", "associated_endomorphism", "spectral.associated_endomorphism", None),
    ("semicalib.construction", "paired_spectrum", "spectral.paired_spectrum", None),
    ("semicalib.construction", "split_spaces", "spectral.split_spaces", None),
    ("semicalib.construction", "align_frame", "construction.align_frame", None),
    ("semicalib.construction", "gram_schmidt", "forms.gram_schmidt", None),
    ("semicalib.construction", "almost_complex_structure", "construction.almost_complex_structure", None),
    ("semicalib.construction", "compatible_metric", "construction.compatible_metric", None),
    ("semicalib.construction", "assemble_calibration", "construction.assemble_calibration", None),
    ("semicalib.comass", "associated_endomorphism", "spectral.associated_endomorphism", None),
    ("semicalib.comass", "paired_spectrum", "spectral.paired_spectrum", None),
    ("semicalib.comass", "gram_schmidt", "forms.gram_schmidt", None),
)

SELF_TIME_SPANS = (
    "cli.main",
    "field.parse_calfield",
    "field.process_field",
    "field.build_report",
    "field.verify_field",
    "jsonio.dumps",
    "construction.construct_point",
    "construction.align_frame",
    "construction.lift_odd",
    "construction.almost_complex_structure",
    "construction.compatible_metric",
    "construction.assemble_calibration",
    "spectral.paired_spectrum",
    "spectral.split_spaces",
    "spectral.associated_endomorphism",
    "comass.comass_bruteforce.p1",
    "comass.comass_bruteforce.p2",
    "comass.comass_bruteforce.p3",
    "comass.comass_exact",
    "forms.gram_schmidt",
)
CALL_COUNT_SPANS = ("construction.construct_point", "spectral.paired_spectrum", "forms.gram_schmidt")
COUNTERS = (
    "construction.residual_over_threshold",
    "comass.samples_drawn",
    "field.points_excluded",
    "jsonio.bytes",
)
BRUTEFORCE = ("comass.comass_bruteforce.p1", "comass.comass_bruteforce.p2", "comass.comass_bruteforce.p3")


class PassResult:
    """Durations of a pass's unit calls, the host slowdown measured around
    each, each call's group (its field size) and what the checks found."""

    def __init__(self):
        self.durations: list[float] = []
        self.slowdowns: list[float] = []
        self.groups: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.fatal: list[str] = []


class CliWorkload:
    """Unit call: one in-process ``semicalib`` CLI run on one field file.

    Each call is bracketed by host reference samples.
    """

    root_span = "cli.main"
    root = staticmethod(cli.main)

    def __init__(self, workdir: str, fields, extra_args=()):
        self.fields = fields
        self.extra_args = list(extra_args)
        self.ledger = check.Ledger()
        self.failing: dict[str, int] = {}  # failing points per field, from its first pass
        self.paths = {}
        for f in fields:
            src = os.path.join(workdir, f"{f.name}.calfield")
            with open(src, "w") as handle:
                handle.write(f.text)
            self.paths[f.name] = (src, os.path.join(workdir, f"{f.name}.json"))
        self.points_per_pass = sum(len(f.points) for f in fields)
        self.gaps: list[float] = []

    def run_pass(self, entry, host) -> PassResult:
        res = PassResult()
        for f in self.fields:
            src, out = self.paths[f.name]
            if os.path.exists(out):
                os.remove(out)
            args = [self.command, src, "-o", out, *self.extra_args]
            code, elapsed, slow = host.around(lambda: entry(args))
            res.durations.append(elapsed)
            res.slowdowns.append(slow)
            res.groups.append(f.dim)
            data = b""
            if os.path.exists(out):
                with open(out, "rb") as handle:
                    data = handle.read()
            res.attempted += len(f.points)
            fatal = check.check_exit(f.name, code) + self.ledger.record(f.name, data)
            if not fatal and f.name not in self.failing:
                report = json.loads(data)
                bad = check.check_report(report, f, f.dim + f.dim % 2)
                self.failing[f.name] = len(bad)
                fatal += [f"{f.name} point {i}: {m}" for i, msgs in bad.items() for m in msgs]
                fatal += self.check_extra(report, f)
            res.failed += len(f.points) if fatal else self.failing.get(f.name, 0)
            res.fatal += fatal
        return res

    def check_extra(self, report: dict, f) -> list[str]:
        return []


class BuildField(CliWorkload):
    command = "build"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        fields = [
            inputs.smooth_field(rng, f"build-n{n}", n, npoints, gaps)
            for n, npoints, gaps in BUILD_FIELDS
        ]
        super().__init__(workdir, fields)


class VerifyPower(CliWorkload):
    command = "verify"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        fields = [
            inputs.smooth_field(rng, f"verify-n8-{i}", 8, VERIFY_POINTS, 0, VERIFY_PAIR_VALUES)
            for i in range(VERIFY_FIELDS)
        ]
        super().__init__(workdir, fields, [arg for p in POWERS for arg in ("--power", str(p))])

    def check_extra(self, report: dict, f) -> list[str]:
        bad = [] if report["summary"]["pass"] else [f"{f.name}: verify summary does not pass"]
        sampled_bad, gap = check.check_sampled(check.sampled_values(report, f, POWERS))
        self.gaps.append(gap)
        return bad + sampled_bad


class AdversarialPoints:
    """Unit call: one ``construct_point(g, omega)`` at n = 8.

    Calls take about a millisecond, so host reference samples bracket chunks
    of ``ADVERSARIAL_CHUNK`` calls instead of each call.
    """

    root_span = "construction.construct_point"
    root = staticmethod(construct_point)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        grid = inputs.adversarial_grid(rng, ADVERSARIAL_CONDS, ADVERSARIAL_SEPS, ADVERSARIAL_REPEATS)
        self.points = [p for _, _, p in grid]
        self.args = [(MetricTensor(p.g), TwoForm(p.w)) for p in self.points]
        self.points_per_pass = len(self.points)
        self.ledger = check.Ledger()
        self.failing: set[int] | None = None
        self.gaps: list[float] = []

    def _calls(self, entry, indices, durations: list[float]) -> list:
        outcomes = []
        for i in indices:
            start = time.perf_counter()
            try:
                outcome = entry(*self.args[i])
            except Exception as exc:  # a raise on valid input is a counted failure
                outcome = exc
            durations.append(time.perf_counter() - start)
            outcomes.append(outcome)
        return outcomes

    def run_pass(self, entry, host) -> PassResult:
        res = PassResult()
        first = self.failing is None
        if first:
            self.failing = set()
        for lo in range(0, len(self.points), ADVERSARIAL_CHUNK):
            indices = range(lo, min(lo + ADVERSARIAL_CHUNK, len(self.points)))
            outcomes, _, slow = host.around(lambda: self._calls(entry, indices, res.durations))
            res.slowdowns += [slow] * len(outcomes)
            res.groups += [8] * len(outcomes)
            for i, outcome in zip(indices, outcomes):
                if isinstance(outcome, Exception):
                    data = f"{type(outcome).__name__}: {outcome}".encode()
                else:
                    data = b"".join(
                        m.tobytes() for m in (outcome.j.matrix, outcome.g_j.entries, outcome.omega_total.entries)
                    )
                res.fatal += self.ledger.record(f"point {i}", data)
                point = self.points[i]
                if first and (
                    isinstance(outcome, Exception)
                    or check.check_triple(
                        outcome.j.matrix,
                        outcome.g_j.entries,
                        outcome.omega_total.entries,
                        (point.frame[:, 0], point.frame[:, 1]),
                    )
                ):
                    self.failing.add(i)
        res.attempted = len(self.points)
        res.failed = len(self.failing)
        return res


WORKLOADS = {
    "build-field": BuildField,
    "verify-power": VerifyPower,
    "adversarial-points": AdversarialPoints,
}


def install_tracing(tracer: Tracer) -> None:
    for module, attribute, name, hook in TRACE_TARGETS:
        tracer.patch(module, attribute, name, hook)


class HostReference:
    """A fixed kernel, independent of semicalib, timed around every measurement.

    The shared host runs the same code up to 1.7x slower for tens of seconds
    at a time, with CPU time equal to wall time.  The kernel mixes what the
    library does (interpreted arithmetic, eigh and solve on small matrices,
    and a pass over a 20000x8 array like the sampled comass makes), so its
    time tracks the host's speed.  ``around`` times a function together with
    the host's slowdown against ``REF_NOMINAL_S`` while it ran.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.mats = []
        for _ in range(32):
            x = rng.standard_normal((8, 8))
            self.mats.append(x @ x.T + 8 * np.eye(8))
        self.rhs = rng.standard_normal(8)
        self.block = rng.standard_normal((20_000, 8))
        self.samples: list[float] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        for m in self.mats:
            scipy.linalg.eigh(m)
            np.linalg.solve(m, self.rhs)
        for m in self.mats[:4]:
            np.einsum("cn,cn->c", self.block @ m, self.block)
        return time.perf_counter() - start

    def sample(self) -> float:
        self.samples.append(self._kernel())
        return self.samples[-1]

    def _median_of(self, count: int) -> float:
        return statistics.median(self.sample() for _ in range(count))

    def around(self, fn):
        """(fn's result, its wall time, the host slowdown during it).

        The slowdown averages the median of three kernel samples taken just
        before and three just after ``fn``; one sample alone varies by 25%.
        One more kernel run right after ``fn`` is not counted: it refills the
        caches ``fn`` evicted, so a change that makes ``fn`` pollute them more
        shows in ``fn``'s time, not in the slowdown.
        """
        before = self._median_of(3)
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        self._kernel()
        return result, elapsed, (before + self._median_of(3)) / (2 * REF_NOMINAL_S)


def tail(durations: list[float]):
    """(percentile, value) of the highest percentile with ten calls beyond it, or None."""
    for q in TAIL_PERCENTILES:
        if round(len(durations) * (100 - q) / 100, 6) >= 10:
            return q, float(np.percentile(durations, q))
    return None


class Run:
    """Timed passes of one workload, with the checks applied to every pass.

    For each kind of pass it keeps the pass times and every unit call's time
    with the host slowdown measured around it and the call's group.
    ``attempted`` and ``failed`` count distinct input points, not calls: every
    pass runs the same points, so the counts depend on the seed alone, not on
    how many passes fit in the run.
    """

    def __init__(self, workload, seconds: float):
        self.wl = workload
        self.seconds = seconds
        self.host = HostReference()
        self.pass_times = {"plain": [], "traced": []}
        self.scaled_pass_times = {"plain": [], "traced": []}
        self.calls = {"plain": [], "traced": []}   # (duration, slowdown, group)
        self.attempted = 0
        self.failed = 0
        self.fatal: list[str] = []

    def one_pass(self, entry, kind: str | None) -> float:
        res = self.wl.run_pass(entry, self.host)
        if kind is not None:
            self.pass_times[kind].append(sum(res.durations))
            self.scaled_pass_times[kind].append(sum(d / s for d, s in zip(res.durations, res.slowdowns)))
            self.calls[kind] += list(zip(res.durations, res.slowdowns, res.groups))
            self.attempted = res.attempted
            self.failed = max(self.failed, res.failed)
        self.fatal += res.fatal
        return sum(res.durations)

    def loop(self, kinds, warm_up: bool, make_entry, between=None) -> None:
        """Alternate pass kinds until the next pass would overrun ``seconds``.

        Every kind runs at least once and there are at least two timed passes,
        so every output is compared with a second pass's bytes.  A warm-up
        pass is checked but not timed.  ``between(elapsed, seconds)`` runs
        after every timed pass.
        """
        if warm_up:
            self.one_pass(make_entry(kinds[0]), None)
        start = time.perf_counter()
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            last = self.one_pass(make_entry(kind), kind)
            i += 1
            if between is not None:
                between(time.perf_counter() - start, self.seconds)
            elapsed = time.perf_counter() - start
            if i >= max(len(kinds), 2) and elapsed + last > self.seconds:
                break

    def throughput(self, kind: str = "plain", scaled: bool = True) -> float:
        """Median over passes of points per second (at nominal host speed if scaled)."""
        times = self.scaled_pass_times if scaled else self.pass_times
        return _median([self.wl.points_per_pass / t for t in times[kind]])

    def call_times(self, kind: str = "plain", scaled: bool = True, group=None) -> list[float]:
        return [d / slow if scaled else d for d, slow, g in self.calls[kind] if group in (None, g)]

    def call_p50(self, scaled: bool = True) -> float:
        """Geometric mean over field sizes of each size's median plain call time.

        Every size weighs the same, whatever its share of the calls, so a
        change in the calls of any one size moves it.
        """
        groups = sorted({g for _, _, g in self.calls["plain"]})
        if not groups:
            return 0.0
        logs = [math.log(_median(self.call_times(scaled=scaled, group=g))) for g in groups]
        return math.exp(sum(logs) / len(logs))


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics; times are scaled to the nominal host speed."""
    return {
        "setup_s": (setup_s, "s"),
        "throughput_pts_s": (run.throughput(), "1/s"),
        "call_ms_p50": (1e3 * run.call_p50(), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - run.failed / max(run.attempted, 1), "frac"),
    }


def notes(run: Run) -> list[str]:
    """Human-readable lines that the JSON result leaves out."""
    calls = run.call_times()
    out = [
        f"calls timed: {len(calls)} in {len(run.pass_times['plain'])} plain passes, "
        f"points per pass: {run.wl.points_per_pass}",
        f"host slowdown: median {_median([s for _, s, _ in run.calls['plain']]):.4g} "
        f"(reference kernel {_median(run.host.samples):.6g} s, nominal {REF_NOMINAL_S} s)",
        f"unscaled: throughput {run.throughput(scaled=False):.6g} 1/s, "
        f"call p50 {1e3 * run.call_p50(scaled=False):.6g} ms",
        "call p50 by field size: " + ", ".join(
            f"n={g} {1e3 * _median(run.call_times(group=g)):.6g} ms"
            for g in sorted({g for _, _, g in run.calls["plain"]})),
    ]
    t = tail(calls)
    if t is None:
        out.append(f"call_ms_tail: omitted, {len(calls)} calls are too few")
    else:
        out.append(f"call_ms_tail: {1e3 * t[1]:.6g} ms (p{t[0]:g} of {len(calls)} calls)")
    out.append(f"fail_frac: {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} points)")
    if run.wl.gaps:
        out.append(f"sampled_gap_max: {max(run.wl.gaps):.6g} (relative shortfall below the exact comass)")
    return out


def per_layer(run: Run, tracer: Tracer, host: dict) -> dict:
    traced = run.pass_times["traced"]
    npass = max(len(traced), 1)
    self_s, calls = tracer.self_times()
    pass_s = _median(traced)
    metrics = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / npass, "s")
    for name in CALL_COUNT_SPANS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / npass, "count")
    metrics["comass.comass_bruteforce.calls"] = (sum(calls.get(n, 0) for n in BRUTEFORCE) / npass, "count")
    for name in COUNTERS:
        metrics[name] = (tracer.counts.get(name, 0) / npass, "B" if name == "jsonio.bytes" else "count")
    metrics["construction.pairing_errors"] = (
        tracer.counts.get("construction.construct_point.raised.PairingError", 0) / npass, "count")
    mean_pass = sum(traced) / npass
    metrics["jsonio.dumps.share"] = (self_s.get("jsonio.dumps", 0.0) / npass / mean_pass, "frac")
    metrics["comass.comass_bruteforce.share"] = (
        sum(self_s.get(n, 0.0) for n in BRUTEFORCE) / npass / mean_pass, "frac")
    metrics["comass.sampled_gap_max"] = (max(run.wl.gaps, default=0.0), "1")
    metrics["trace.pass_s"] = (pass_s, "s")
    metrics["trace.overhead_frac"] = (run.throughput("plain") / run.throughput("traced") - 1, "frac")
    metrics["host.ref_kernel_s"] = (_median(run.host.samples), "s")
    metrics["host.nproc"] = (host["nproc"], "count")
    metrics["host.blas_threads"] = (host["blas_threads"], "count")
    return metrics


def prepare(name: str, seed: int, seconds: float, workdir: str) -> Run:
    """Generate a workload's inputs (files go to ``workdir``)."""
    return Run(WORKLOADS[name](seed, workdir), seconds)


def execute(run: Run, traced: bool, between=None):
    """Run the passes; returns the tracer of a traced run, else None.

    ``between`` is passed to :meth:`Run.loop` in a plain (untraced) run.
    """
    wl = run.wl
    warm_up = not isinstance(wl, VerifyPower)  # one verify pass costs nearly half a run
    if not traced:
        run.loop(["plain"], warm_up, lambda kind: wl.root, between)
        return None
    tracer = Tracer()
    traced_root = tracer.wrap(wl.root, wl.root_span,
                              _count_residuals if wl.root_span == "construction.construct_point" else None)

    def make_entry(kind):
        if kind == "traced":
            install_tracing(tracer)
            return traced_root
        tracer.restore()
        return wl.root

    try:
        run.loop(["plain", "traced"], warm_up, make_entry)
    finally:
        tracer.restore()
    return tracer
