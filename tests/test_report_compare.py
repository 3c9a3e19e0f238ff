"""``bench/report_compare.py`` compares report sets value by value, and reports agree across BLAS kernels.

The synthetic trees pin the tool's rules: a numeric leaf is judged on its
array's scale, ``0`` and ``0.0`` are the same number, and booleans, ``m`` and
exit codes must be equal.  The cross-kernel test runs ``report_digests.py
--reports`` in a subprocess on OpenBLAS's generic Prescott kernels (numpy's
OpenBLAS is built with DYNAMIC_ARCH, so ``OPENBLAS_CORETYPE`` picks them) and
in process on the default ones: every value must agree to 1e-12, so no
output, the complement frame included, is a choice the BLAS kernel makes.
With a BLAS that ignores the variable both runs use the same kernel.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import BENCH, load_bench_script


@pytest.fixture(scope="module")
def tool():
    return load_bench_script("report_compare")


def point(j=0.5, passed=True, m=1):
    return {"J": [[0.0, -2.0], [2.0, j]], "m": m, "residuals": {"j_squared": 1e-16},
            "checks": {"j_squared": {"pass": passed, "value": 1e-16}}}


def write_tree(root, codes="field/a 0\n", **points):
    """A --reports directory holding ``field/a.json`` with ``points`` (keyword: point index)."""
    (root / "field").mkdir(parents=True)
    report = {"format_version": 13, "epsilon": 0.04, "points": list(points.values())}
    (root / "field" / "a.json").write_text(json.dumps(report))
    (root / "exit_codes.txt").write_text(codes)
    return str(root)


def run(tool, a, b, *flags, capsys):
    code = tool.main([a, b, *flags])
    return code, capsys.readouterr().out


def test_identical_trees_agree(tool, tmp_path, capsys):
    a, b = (write_tree(tmp_path / x, p0=point(), p1=point(j=-0.25)) for x in "ab")
    code, out = run(tool, a, b, capsys=capsys)
    assert code == 0 and "0 above rtol" in out and "0 non-numeric" in out
    leaves, differences = tool.compare(a, b)
    assert differences == [] and {d for d, _ in leaves.values()} == {0.0}


def test_deviation_is_judged_on_the_arrays_scale(tool, tmp_path, capsys):
    # J's largest entry is 2, so a 2e-10 change reads 1e-10.
    a = write_tree(tmp_path / "a", p0=point(), p1=point())
    b = write_tree(tmp_path / "b", p0=point(), p1=point(j=0.5 + 2e-10))
    leaves, _ = tool.compare(a, b)
    deviation, where = leaves["field/a:points[].J"]
    assert deviation == pytest.approx(1e-10, rel=1e-5) and where == "field/a:points[1].J"
    code, out = run(tool, a, b, "--rtol", "1e-12", capsys=capsys)
    assert code == 1 and "EXCEEDS" in out and "points[1].J" in out
    assert run(tool, a, b, "--rtol", "1e-9", capsys=capsys)[0] == 0


def test_int_and_float_compare_as_numbers(tool, tmp_path, capsys):
    a = write_tree(tmp_path / "a", p0=point(j=0))
    b = write_tree(tmp_path / "b", p0=point(j=0.0))
    assert (tmp_path / "a" / "field" / "a.json").read_text() != (tmp_path / "b" / "field" / "a.json").read_text()
    assert run(tool, a, b, capsys=capsys)[0] == 0


@pytest.mark.parametrize(("change", "expected"), [
    ({"p0": point(passed=False)}, "field/a:points[0].checks.j_squared.pass: true != false"),
    ({"p0": point(m=2)}, "field/a:points[0].m: 1 != 2"),
    ({"codes": "field/a 4\n", "p0": point()}, "field/a: exit code 0 != 4"),
])
def test_non_numeric_differences_fail(tool, tmp_path, capsys, change, expected):
    a = write_tree(tmp_path / "a", p0=point())
    b = write_tree(tmp_path / "b", **change)
    code, out = run(tool, a, b, "--rtol", "1", capsys=capsys)
    assert code == 1 and f"DIFFERS  {expected}" in out


def test_reports_agree_across_blas_kernels(tmp_path, monkeypatch):
    generic, native = tmp_path / "generic", tmp_path / "native"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    command = [sys.executable, str(BENCH / "report_digests.py"), "--reports", str(generic), "-o", os.devnull]
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        monkeypatch.setattr(sys, "path", list(sys.path))  # --src goes first on sys.path
        assert load_bench_script("report_digests").main(["--reports", str(native), "-o", os.devnull]) == 0
    finally:
        _, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    leaves, differences = load_bench_script("report_compare").compare(str(native), str(generic))
    assert differences == []
    worst = max(leaves.items(), key=lambda item: item[1][0])
    assert worst[1][0] <= 1e-12, worst
