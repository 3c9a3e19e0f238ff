"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 2-4 share one random-instance suite (200 instances per
dimension in {4, 6, 8}, half of them with a planted calibrated plane).
"""

import json

import numpy as np
import pytest

from semicalib import (
    Frame,
    MetricTensor,
    PowerForm,
    TwoForm,
    calibrated_eigenspace,
    comass_bruteforce,
    comass_exact,
    construct_point,
    eval_power,
    eval_two_form,
    plane_area,
)
from semicalib import test_calibrated as check_calibrated
from semicalib.cli import main as cli_main
from helpers import planted_form, ramp_field_text, random_pd_metric, random_two_form, unit_comass_form
from oracles import wedge_power_value

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def random_suite():
    """200 unit-comass instances per n in {4, 6, 8}; odd trials plant a block."""
    instances = []
    for n in (4, 6, 8):
        for trial in range(200):
            rng = np.random.default_rng([n, trial])
            g = random_pd_metric(rng, n)
            if trial % 2:
                omega, planted = planted_form(rng, g, blocks=1)
            else:
                omega, planted = unit_comass_form(g, random_two_form(rng, n)), None
            pc = construct_point(g, omega)
            instances.append((g, omega, planted, pc))
    return instances


def test_criterion_01_compatible_triple_fixed_point():
    g = MetricTensor.identity(4)
    w = TwoForm.standard_symplectic(4)
    pc = construct_point(g, w)
    expected_j = np.zeros((4, 4))
    expected_j[:2, :2] = J2
    expected_j[2:, 2:] = J2
    ok = (
        np.abs(pc.j.matrix - expected_j).max() <= 1e-12
        and np.abs(pc.g_j.entries - np.eye(4)).max() <= 1e-12
        and np.abs(pc.omega_total.entries - w.entries).max() <= 1e-12
        and max(abs(v) for v in pc.residuals.values()) <= 1e-12
    )
    report(1, "compatible-triple fixed point", ok)


def test_criterion_02_random_field_invariants(random_suite):
    failures = 0
    for g, omega, _, pc in random_suite:
        n = g.dim
        jm, wt = pc.j.matrix, pc.omega_total.entries
        checks = [
            np.abs(jm @ jm + np.eye(n)).max() <= 1e-9,
            np.linalg.eigvalsh(pc.g_j.entries)[0] > 0,
            np.abs(pc.g_j.entries - wt @ jm).max() <= 1e-9,
            pc.residuals["pairing"] <= 1e-9,
            pc.residuals["metric_domination_min_eig"] >= -1e-9 * np.abs(g.entries).max(),
        ]
        failures += 0 if all(checks) else 1
    report(2, f"random invariant suite, {len(random_suite)} instances", failures == 0)


def test_criterion_03_eigenvalue_bound(random_suite):
    ok = True
    for _, _, _, pc in random_suite:
        evs = pc.spectrum.values
        ok &= evs.min() >= -1e-12 and evs.max() <= 1 + 1e-9
    report(3, "eigenvalue bound [0, 1]", bool(ok))


def test_criterion_04_preservation(random_suite):
    ok = True
    tested = 0
    for g, omega, planted, pc in random_suite:
        frame = calibrated_eigenspace(pc)
        if planted is not None:
            assert len(frame) >= 2
        if len(frame) == 0:
            continue
        planes = []
        if planted is not None:
            planes.append((planted[0], planted[1]))
        for i in range(len(frame) // 2):
            planes.append((frame[2 * i], frame[2 * i + 1]))
        for v, w in planes:
            ratio = eval_two_form(pc.omega_total, v, w) / plane_area(pc.g_j, v, w)
            ok &= abs(ratio - 1.0) <= 1e-9
            tested += 1
    report(4, f"preservation of calibrated planes ({tested} planes)", bool(ok))


def test_criterion_05_comass_oracle_agreement():
    ok = True
    for trial in range(50):
        rng = np.random.default_rng([5, trial])
        n = int(rng.integers(3, 9))
        g = random_pd_metric(rng, n)
        omega = random_two_form(rng, n)
        exact = comass_exact(g, omega).value
        sampled = comass_bruteforce(g, omega, samples=100_000, restarts=20, seed=trial)
        ok &= exact * 0.99 <= sampled.value <= exact * (1 + 1e-9)
    report(5, "sampled comass within [0.99, 1+1e-9] of exact, 50 instances", bool(ok))


def test_criterion_06_wirtinger_unit_comass():
    ok = True
    for trial in range(50):
        rng = np.random.default_rng([6, trial])
        n = [4, 6, 8][trial % 3]
        g = random_pd_metric(rng, n)
        omega = unit_comass_form(g, random_two_form(rng, n))
        pc = construct_point(g, omega)
        est = comass_bruteforce(pc.g_j, pc.omega_total, samples=100_000, restarts=20, seed=trial)
        ok &= est.value <= 1 + 1e-9
        v = pc.spectrum.basis[0]
        jv = pc.j.matrix @ v
        verdict = check_calibrated(pc.g_j, pc.omega_total, Frame(np.array([v, jv])), tol=1e-9)
        ok &= abs(verdict.ratio - 1.0) <= 1e-9
    report(6, "calibration unit comass + J-holomorphic plane attains 1", bool(ok))


def test_criterion_07_pfaffian_oracle():
    ok = True
    count = 0
    for trial in range(500):
        rng = np.random.default_rng([7, trial])
        p = [1, 2, 3][trial % 3]
        n = int(rng.integers(2 * p, 9))
        omega = random_two_form(rng, n)
        vectors = rng.standard_normal((2 * p, n))
        got = eval_power(PowerForm(omega, p), Frame(vectors))
        expected = wedge_power_value(omega.entries, vectors, p)
        ok &= abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
        count += 1
    report(7, f"Pfaffian versus wedge-expansion oracle, {count} cases", bool(ok))


def test_criterion_08_power_form_claims():
    ok = True
    for trial in range(50):
        rng = np.random.default_rng([8, trial])
        n = [4, 6, 8][trial % 3]
        g = random_pd_metric(rng, n)
        planted_blocks = 2 if trial % 2 else 1
        omega, planted = planted_form(rng, g, blocks=planted_blocks)
        power = PowerForm(omega, 2)
        est = comass_bruteforce(g, power, samples=100_000, restarts=20, seed=trial)
        ok &= est.value <= 1 + 1e-9
        if planted_blocks == 2:
            # 4-dimensional eigenvalue-1 eigenspace: the power comass is attained
            ok &= est.value >= 0.99
            pc = construct_point(g, omega)
            frame = Frame(planted.vectors)
            in_verdict = check_calibrated(g, power, frame, tol=1e-9)
            ok &= in_verdict.calibrated
            out_verdict = check_calibrated(
                pc.g_j, PowerForm(pc.omega_total, 2), frame, tol=1e-9
            )
            ok &= abs(out_verdict.ratio - 1.0) <= 1e-9
    report(8, "power-form comass bound + calibrated 2p-plane inclusion", bool(ok))


def test_criterion_09_gap_handling(tmp_path):
    svals = np.linspace(0.6, 0.1, 5)
    path = tmp_path / "ramp.calfield"
    path.write_text(ramp_field_text(svals))
    out = tmp_path / "ramp.json"
    code = cli_main(["build", str(path), "-o", str(out)])
    data = json.loads(out.read_text())
    flagged = {p["index"] for p in data["points"] if not p["gap_ok"]}
    eps = data["epsilon"]
    expected = {k for k, s in enumerate(svals) if eps / 4 < s * s < eps / 2}
    ok = code == 0 and abs(eps - 0.36) <= 1e-12 and flagged == expected == {2}
    report(9, "gap violations flagged exactly on the forbidden band", ok)


def test_criterion_10_determinism(tmp_path):
    ok = True
    for name in ("standard", "scaled", "rank-deficient", "odd3"):
        demo = tmp_path / f"{name}.calfield"
        cli_main(["demo", "--name", name, "-o", str(demo)])
        results = []
        for run in range(2):
            b = tmp_path / f"{name}-b{run}.json"
            v = tmp_path / f"{name}-v{run}.json"
            ok &= cli_main(["build", str(demo), "-o", str(b)]) == 0
            ok &= (
                cli_main(
                    ["verify", str(demo), "--seed", "0", "--samples", "5000",
                     "--restarts", "5", "-o", str(v)]
                )
                == 0
            )
            results.append((b.read_bytes(), v.read_bytes()))
        ok &= results[0] == results[1]
    report(10, "build + verify byte-identical across runs", bool(ok))
