"""The names and fields that perfbench's tracer and checks read from the library.

``perfbench/run.py --trace`` patches every ``TRACE_TARGETS`` name in the
module that calls it, and the adversarial workload reads ``J``, ``g_J``,
``Omega`` and the residuals off ``construct_point``'s result.  A renamed
function or field breaks the benchmark only when it runs; these tests catch
it in the tier-1 suite.  ``perfbench/workloads.py`` is imported, never changed.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semicalib import construct_point
from semicalib.field import RESIDUAL_THRESHOLDS
from helpers import planted_form, random_pd_metric

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
