"""The names and fields that perfbench's tracer and checks, and the bench scripts, read from the library.

``perfbench/run.py --trace`` patches every ``TRACE_TARGETS`` name in the
module that calls it, the adversarial workload reads ``J``, ``g_J``,
``Omega`` and the residuals off ``construct_point``'s result,
``bench/comass_stages.py`` traces the sampled oracle's stage functions,
``bench/build_stages.py`` chains the four build stages and
``bench/point_stages.py`` times ``construct_point`` on the adversarial grid.  A renamed function
or field breaks the benchmark only when it runs; these tests catch it in the
tier-1 suite.  A library import kept for the tracer alone is one of its
targets; any other unused relative import fails here.  ``perfbench/workloads.py`` is imported, never changed.  The
BENCH record of ``bench/harness.py`` is checked on stored and tmp files,
without timing anything.
"""

import ast
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import semicalib
from semicalib import GapViolation, construct_point, lift_odd
from semicalib.field import RESIDUAL_THRESHOLDS, build_report, parse_calfield, process_field
from semicalib.jsonio import dumps
from helpers import BENCH, load_bench_script, planted_field_text, planted_form, random_pd_metric

PERFBENCH = BENCH.parent / "perfbench"
_SIBLINGS = ("check", "inputs", "tracing", "workloads")


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py; its sibling imports leave sys.path and sys.modules as they were."""
    saved = {name: sys.modules.pop(name) for name in _SIBLINGS if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in _SIBLINGS:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_trace_targets_resolve(workloads):
    assert workloads.TRACE_TARGETS
    for module, attribute, _, _ in workloads.TRACE_TARGETS:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute} is missing or not callable"


def test_relative_imports_used_or_traced(workloads):
    """Every ``from .x import name`` of a library module is used there or is a perfbench trace target."""
    traced = {(module, attribute) for module, attribute, _, _ in workloads.TRACE_TARGETS}
    unused = []
    for path in sorted(Path(semicalib.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"semicalib.{path.stem}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = (alias.asname or alias.name for alias in node.names)
                unused += [f"{module}.{name}" for name in names if name not in used and (module, name) not in traced]
    assert not unused, f"unused imports: {unused}"


@pytest.fixture(scope="module")
def comass_stages():
    return load_bench_script("comass_stages")


def test_comass_stage_names_resolve(comass_stages):
    """``bench/comass_stages.py`` times the oracle by tracing these stage functions by name."""
    import semicalib.comass as comass

    assert set(comass_stages.STAGES) == {"_ranked_draws", "_gram_schmidt_stack", "_polish"}
    for name in comass_stages.STAGES:
        assert callable(getattr(comass, name, None)), f"semicalib.comass.{name} is missing"


def test_comass_stages_time_the_verify_power_point(comass_stages, workloads, tmp_path):
    """The script's point is the first field the verify-power workload draws at seed 1."""
    assert comass_stages.PAIR_VALUES == workloads.VERIFY_PAIR_VALUES
    point = comass_stages.smooth_field(comass_stages.POINT_SEED, 1, comass_stages.PAIR_VALUES)
    assert point.text == workloads.VerifyPower(1, str(tmp_path)).fields[0].text


def test_comass_stages_time_oracle(comass_stages, monkeypatch):
    """``time_oracle`` splits each power's calls into the traced stages and restores them; no bound is timed."""
    import semicalib.comass as comass

    before = {name: getattr(comass, name) for name in comass_stages.STAGES}
    monkeypatch.setattr(comass_stages, "ORACLE_SAMPLES", 300)
    point = comass_stages.smooth_field(comass_stages.POINT_SEED, 1, comass_stages.PAIR_VALUES).points[0]
    out = comass_stages.time_oracle(point.g, point.w, lambda fn: (fn(), 1.0, 2.0))
    assert set(out) == {f"p{p}" for p in comass_stages.POWERS}
    for row in out.values():
        assert set(row) == {"ranking_s", "orthonormalization_s", "ascent_s", "other_s", "call_s", "ref_s"}
        assert row["ranking_s"] > 0 and row["call_s"] == 1.0 and row["ref_s"] == 2.0
    assert {name: getattr(comass, name) for name in comass_stages.STAGES} == before


@pytest.fixture(scope="module")
def build_stages():
    return load_bench_script("build_stages")


def test_build_stages_resolve(build_stages):
    """``time_stages`` chains parse_calfield, process_field, build_report and dumps; no time is taken."""
    text = planted_field_text(4, seed=4, points=3)
    row = build_stages.time_stages(text, lambda fn: (fn(), 1.0, 2.0))
    assert set(row) == {f"{stage}{suffix}" for stage in build_stages.STAGES for suffix in ("_s", "_ref_s")} | {
        "total_s", "report_bytes"}
    assert row["report_bytes"] > 0
    assert build_stages.scaled({"f": row})["f"] == {**dict.fromkeys(build_stages.STAGES, 0.5), "total": 2.0}


def test_stored_bench_summary_is_reproduced(build_stages):
    """The shared statistics re-summarize ``BENCH_report_writer.json``'s stored runs exactly."""
    data = json.loads((BENCH.parent / "BENCH_report_writer.json").read_text())
    assert data["setup"] == build_stages.SETUP
    assert sum(len(entry["runs"]) for entry in data["results"].values()) == 10
    for entry in data["results"].values():
        summary = build_stages.harness.summarize(entry["runs"], build_stages.scaled)
        assert summary == {key: entry[key] for key in ("median", "q1", "q3", "scaled")}


@pytest.fixture(scope="module")
def point_stages():
    return load_bench_script("point_stages")


def test_point_stages_time_the_adversarial_grid(point_stages, workloads, tmp_path):
    """The script's points are the adversarial-points workload's at seed 1; ``time_calls`` counts every call."""
    args = point_stages.grid_args()
    expected = workloads.AdversarialPoints(point_stages.SEED, str(tmp_path)).args
    assert len(args) == len(expected) == 4096
    for (g, w), (g0, w0) in zip(args[::97], expected[::97]):
        assert g.entries.tobytes() == g0.entries.tobytes() and w.entries.tobytes() == w0.entries.tobytes()
    chunks = []

    def around(fn):
        chunks.append(fn())
        return None, 1.0, 2.0

    row = point_stages.time_calls(args[:5], around, passes=2, chunk=2)
    assert len(chunks) == 6
    assert row["call_s"] > 0 and row["ref_s"] == 2.0 and row["raised"] == 0
    assert point_stages.scaled(row) == {"call": row["call_s"] / 2.0}


def _one_run(value: float) -> dict:
    return {"f": {"a_s": value, "a_ref_s": 2 * value}}


def _scaled(run: dict) -> dict:
    return {"a": run["f"]["a_s"] / run["f"]["a_ref_s"]}


def test_record_appends_one_run(build_stages, tmp_path, capsys):
    path = str(tmp_path / "BENCH.json")
    setup = {"script": "test"}
    build_stages.harness.record(path, "parent", setup, lambda: _one_run(1.0), _scaled)
    build_stages.harness.record(path, "change", setup, lambda: _one_run(2.0), _scaled)
    capsys.readouterr()
    build_stages.harness.record(path, "change", setup, lambda: _one_run(4.0), _scaled)
    data = json.loads(Path(path).read_text())
    assert data["setup"] == setup and data["machine"]["blas_threads"] == 1
    assert data["results"]["parent"]["runs"] == [_one_run(1.0)]
    change = data["results"]["change"]
    assert change["runs"] == [_one_run(2.0), _one_run(4.0)]
    assert change["median"] == {"f": {"a_s": 3.0, "a_ref_s": 6.0}}
    assert change["q1"] == {"f": {"a_s": 2.5, "a_ref_s": 5.0}}
    assert change["q3"] == {"f": {"a_s": 3.5, "a_ref_s": 7.0}}
    assert change["scaled"] == {name: {"a": 0.5} for name in ("median", "q1", "q3")}
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"change": {key: value for key, value in change.items() if key != "runs"}}


@pytest.mark.parametrize("key", ["setup", "machine"])
def test_record_refuses_another_setup_or_machine(build_stages, tmp_path, capsys, key):
    path = tmp_path / "BENCH.json"
    build_stages.harness.record(str(path), "parent", {"script": "test"}, lambda: _one_run(1.0), _scaled)
    data = json.loads(path.read_text())
    data[key]["script" if key == "setup" else "nproc"] = "elsewhere"
    path.write_text(json.dumps(data))
    before = path.read_bytes()

    def measure():
        raise AssertionError("a refused file is checked before anything is timed")

    with pytest.raises(SystemExit, match=f"records another {key}"):
        build_stages.harness.record(str(path), "change", {"script": "test"}, measure, _scaled)
    assert path.read_bytes() == before


def test_construction_has_what_perfbench_reads(workloads):
    rng = np.random.default_rng(0)
    g = random_pd_metric(rng, 8)
    omega, _ = planted_form(rng, g, blocks=2)
    pc = construct_point(g, omega)
    for matrix in (pc.j.matrix, pc.g_j.entries, pc.omega_total.entries):
        assert isinstance(matrix, np.ndarray) and matrix.shape == (8, 8)
    assert set(RESIDUAL_THRESHOLDS) <= set(pc.residuals)
    counts = Counter()
    workloads._count_residuals(counts, (g, omega), {}, pc)
    assert counts["construction.residual_over_threshold"] == 0


@pytest.mark.parametrize("n", [7, 8])
def test_tracer_hooks_read_a_field(workloads, n):
    """The traced run counts gap-excluded points off process_field's result and bytes off dumps'."""
    grid = parse_calfield(planted_field_text(n, seed=n, points=12))
    cf = process_field(grid)
    excluded = 0
    for point in grid.points:
        g, omega = (point.g, point.omega) if n % 2 == 0 else lift_odd(point.g, point.omega)
        try:
            construct_point(g, omega, cf.epsilon)
        except GapViolation:
            excluded += 1
    assert excluded > 0
    counts = Counter()
    workloads._count_excluded(counts, (grid,), {}, cf)
    assert counts["field.points_excluded"] == excluded
    text = dumps(build_report(cf))
    workloads._count_bytes(counts, (), {}, text)
    assert counts["jsonio.bytes"] == len(text)
