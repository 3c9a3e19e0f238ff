"""The names and fields that perfbench's tracer and checks, and the bench scripts, read from the library.

``perfbench/run.py --trace`` patches every ``TRACE_TARGETS`` name in the
module that calls it, the adversarial workload reads ``J``, ``g_J``,
``Omega`` and the residuals off ``construct_point``'s result, and
``bench/comass_stages.py`` wraps the sampled oracle's stage functions.  A
renamed function or field breaks the benchmark only when it runs; these
tests catch it in the tier-1 suite.  ``perfbench/workloads.py`` is imported,
never changed.
"""

import importlib
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semicalib import construct_point
from semicalib.field import RESIDUAL_THRESHOLDS
from helpers import planted_form, random_pd_metric

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH = Path(__file__).resolve().parent.parent / "bench"
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


def test_comass_stage_names_resolve():
    """``bench/comass_stages.py`` times the oracle by wrapping these stage functions by name."""
    spec = importlib.util.spec_from_file_location("comass_stages", BENCH / "comass_stages.py")
    stages = importlib.util.module_from_spec(spec)
    saved = dict(os.environ)
    try:
        spec.loader.exec_module(stages)
    finally:  # the script pins BLAS threads for its own runs
        os.environ.clear()
        os.environ.update(saved)
    import semicalib.comass as comass

    names = stages.StageTimer(comass).names
    assert set(names) == {"_orthonormal_frames", "_abs_values", "_polish"}
    for name in names:
        assert callable(getattr(comass, name, None)), f"semicalib.comass.{name} is missing"


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
