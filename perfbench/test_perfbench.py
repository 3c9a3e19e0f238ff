"""Self-tests of the benchmark: generators, checker and tracer.

Run from the root of the checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from semicalib import MetricTensor, TwoForm, construct_point  # noqa: E402


def _built(seed: int, tmp_path):
    wl = workloads.BuildField(seed, str(tmp_path))
    return [f.text for f in wl.fields]


def test_generators_are_deterministic_per_seed(tmp_path):
    assert _built(5, tmp_path) == _built(5, tmp_path)
    assert _built(5, tmp_path) != _built(6, tmp_path)
    a = workloads.AdversarialPoints(5, str(tmp_path)).points
    b = workloads.AdversarialPoints(5, str(tmp_path)).points
    assert all(np.array_equal(p.g, q.g) and np.array_equal(p.w, q.w) for p, q in zip(a, b))


def test_planted_form_has_the_planted_spectrum():
    rng = np.random.default_rng(0)
    f = inputs.smooth_field(rng, "t", 8, 5, 1)
    for p in f.points:
        assert np.abs(p.frame.T @ p.g @ p.frame - np.eye(8)).max() < 1e-12
        a = np.linalg.solve(p.g, p.w.T)
        got = np.sort(np.linalg.eigvals(-a @ a).real)[::-1]
        assert np.abs(got - check.expected_eigenvalues(p.mu, 8)).max() < 1e-10
    assert sum(p.gap_violating for p in f.points) == 1
    assert not f.points[0].gap_violating


def _construction():
    rng = np.random.default_rng(1)
    p = inputs.smooth_field(rng, "t", 8, 1, 0).points[0]
    pc = construct_point(MetricTensor(p.g), TwoForm(p.w))
    return p, pc.j.matrix.copy(), pc.g_j.entries.copy(), pc.omega_total.entries.copy()


def test_checker_accepts_the_library_output():
    p, j, g_j, om = _construction()
    assert check.check_triple(j, g_j, om, (p.frame[:, 0], p.frame[:, 1])) == []


def test_checker_rejects_perturbed_j():
    p, j, g_j, om = _construction()
    j[0, 1] += 1e-6
    assert check.check_triple(j, g_j, om, (p.frame[:, 0], p.frame[:, 1]))


def test_checker_rejects_a_plane_that_is_not_calibrated():
    p, j, g_j, om = _construction()
    assert check.check_triple(j, g_j, om, (p.frame[:, 0], p.frame[:, 2]))


def test_checker_rejects_sampled_value_above_exact():
    bad, _ = check.check_sampled([("x", 0.5 * (1 + 1e-6), 0.5)])
    assert bad
    bad, gap = check.check_sampled([("x", 0.5 * (1 - 1e-12), 0.5)])
    assert bad == [] and 0 < gap < 1e-11


def test_checker_rejects_loose_sampled_value():
    bad, _ = check.check_sampled([("x", 0.5 * (1 - 1e-3), 0.5)])
    assert bad


def test_ledger_rejects_bytes_that_differ_between_passes():
    ledger = check.Ledger()
    assert ledger.record("f", b"report") == []
    assert ledger.record("f", b"report") == []
    assert ledger.record("f", b"report ") != []


def test_build_pass_is_checked(tmp_path):
    wl = workloads.BuildField(3, str(tmp_path))
    wl.fields = wl.fields[:1]
    res = wl.run_pass(workloads.cli.main, workloads.HostReference())
    assert res.fatal == [] and res.failed == 0 and res.attempted == len(wl.fields[0].points)


def test_self_times_subtract_children():
    tracer = Tracer()
    tracer.spans = [(0, "a", 0.0, 10.0, None, 1), (1, "b", 1.0, 4.0, 0, 1), (2, "b", 5.0, 6.0, 0, 1)]
    self_s, calls = tracer.self_times()
    assert self_s == {"a": 6.0, "b": 4.0} and calls == {"a": 1, "b": 2}


def _namespaces():
    names = {m for m, _, _, _ in workloads.TRACE_TARGETS}
    return {m: dict(vars(importlib.import_module(m))) for m in names}


def test_traced_run_leaves_semicalib_unchanged(tmp_path):
    before = _namespaces()
    run = workloads.prepare("adversarial-points", 0, 0.1, str(tmp_path))
    tracer = workloads.execute(run, True)
    after = _namespaces()
    for module, attrs in before.items():
        assert after[module].keys() == attrs.keys()
        for name, obj in attrs.items():
            assert after[module][name] is obj, f"{module}.{name} not restored"
    self_s, calls = tracer.self_times()
    assert calls["construction.construct_point"] == run.wl.points_per_pass * len(run.pass_times["traced"])
    assert set(calls) <= {name for _, _, name, _ in workloads.TRACE_TARGETS if isinstance(name, str)}
    assert not run.fatal


def test_trace_spans_share_a_call_id_per_unit_call(tmp_path):
    tracer = workloads.execute(workloads.prepare("adversarial-points", 0, 0.1, str(tmp_path)), True)
    roots = {s[0]: s[5] for s in tracer.spans if s[4] is None}
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, name, start, end, parent, call in tracer.spans:
        top = span_id
        while by_id[top][4] is not None:
            top = by_id[top][4]
        assert roots[top] == call
        if parent is not None:
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]


@pytest.mark.parametrize("n,expected", [(19, None), (100, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_needs_ten_calls_beyond(n, expected):
    got = workloads.tail([float(i) for i in range(n)])
    assert (got[0] if got else None) == expected


def test_call_p50_weighs_every_field_size_alike():
    run = workloads.Run(None, 1.0)
    run.calls["plain"] = [(0.1, 1.0, 4)] * 9 + [(0.8, 2.0, 16)]
    assert run.call_p50() == pytest.approx(0.2)
    assert run.call_p50(scaled=False) == pytest.approx(np.sqrt(0.08))
