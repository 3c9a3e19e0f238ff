"""CLI exit-code contract and output determinism."""

import json

import numpy as np
import pytest

import semicalib.field
from semicalib.cli import main
from semicalib.errors import ConstructionError
from helpers import constant_field_text, ramp_field_text

FAST = ["--samples", "2000", "--restarts", "3"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDemoAndBuild:
    def test_demo_then_build_then_verify(self, tmp_path, capsys):
        demo = str(tmp_path / "standard.calfield")
        assert main(["demo", "--name", "standard", "-o", demo]) == 0
        out = str(tmp_path / "build.json")
        assert main(["build", demo, "-o", out]) == 0
        report = json.loads(open(out).read())
        assert report["summary"]["pass"] is True
        assert main(["verify", demo, *FAST, "-o", str(tmp_path / "v.json")]) == 0

    @pytest.mark.parametrize("name", ["standard", "scaled", "rank-deficient", "odd3"])
    def test_all_demos_verify(self, name, tmp_path):
        demo = str(tmp_path / f"{name}.calfield")
        assert main(["demo", "--name", name, "-o", demo]) == 0
        assert main(["verify", demo, *FAST, "-o", str(tmp_path / "v.json")]) == 0

    def test_build_to_stdout(self, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "scaled", "-o", demo])
        assert main(["build", demo]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format_version"] == 3
        assert data["points"][0]["m"] == 2

    def test_demo_residuals_tiny(self, tmp_path):
        demo = str(tmp_path / "standard.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        out = str(tmp_path / "b.json")
        main(["build", demo, "-o", out])
        report = json.loads(open(out).read())
        assert max(report["summary"]["max_residuals"].values()) <= 1e-12


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.calfield", "CALFIELD 9\n")
        assert main(["build", bad]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["build", "/nonexistent/nowhere.calfield"]) == 2

    def test_non_pd_metric_is_2(self, tmp_path, capsys):
        bad = write(
            tmp_path,
            "npd.calfield",
            constant_field_text(4, "-1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 1", 1),
        )
        assert main(["build", bad]) == 2
        assert "positive definite" in capsys.readouterr().err

    def test_verification_failure_is_1(self, tmp_path, capsys):
        # comass 2 input: semi-calibration bound fails
        bad = write(
            tmp_path,
            "comass2.calfield",
            constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "2 0 0 0 0 0", 1),
        )
        assert main(["verify", bad, *FAST, "-o", str(tmp_path / "v.json")]) == 1

    def test_base_gap_violation_is_3(self, tmp_path, capsys):
        # eigenvalues {1, 0.36}; epsilon 1 puts 0.36 inside (0.25, 0.5)
        field = write(
            tmp_path,
            "gap.calfield",
            constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 0.6", 1),
        )
        assert main(["build", field, "--epsilon", "1"]) == 3
        assert "gap violation" in capsys.readouterr().err

    def test_epsilon_inference_failure_is_3(self, tmp_path, capsys):
        zero = write(
            tmp_path,
            "zero.calfield",
            constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "0 0 0 0 0 0", 1),
        )
        assert main(["build", zero]) == 3
        assert "cannot infer epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_construction_breakdown_is_4(self, command, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ConstructionError("compatible metric is not positive definite")

        monkeypatch.setattr(semicalib.field, "construct_point", broken)
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        assert main([command, demo]) == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_non_base_gap_violation_still_builds(self, tmp_path):
        field = write(tmp_path, "ramp.calfield", ramp_field_text([0.6, 0.475, 0.35, 0.225, 0.1]))
        out = str(tmp_path / "ramp.json")
        assert main(["build", field, "-o", out]) == 0
        report = json.loads(open(out).read())
        flags = [p["index"] for p in report["points"] if not p["gap_ok"]]
        assert flags == [2]

    def test_bad_epsilon_flag_rejected(self, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        with pytest.raises(SystemExit) as err:
            main(["build", demo, "--epsilon", "-1"])
        assert err.value.code == 2

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["build", "x", "--frobnicate"])
        assert err.value.code == 2

    def test_tolerance_override_accepted(self, tmp_path):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "scaled", "-o", demo])
        assert main(["build", demo, "--tol", "zero=1e-6", "-o", str(tmp_path / "b.json")]) == 0

    def test_bad_tolerance_override_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["build", "x", "--tol", "bogus=1"])
        assert err.value.code == 2

    def test_removed_cluster_tolerance_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["build", "x", "--tol", "cluster=1e-6"])
        assert err.value.code == 2


class TestComassCommand:
    def test_scaled_demo_exact_one(self, tmp_path):
        demo = str(tmp_path / "scaled.calfield")
        main(["demo", "--name", "scaled", "-o", demo])
        out = str(tmp_path / "c.json")
        assert main(["comass", demo, *FAST, "-o", out]) == 0
        table = json.loads(open(out).read())
        for row in table["points"]:
            assert row["exact"] == pytest.approx(1.0, abs=1e-12)
            assert row["sampled"] == pytest.approx(1.0, abs=1e-3)

    def test_power_table_has_no_exact(self, tmp_path):
        demo = str(tmp_path / "scaled.calfield")
        main(["demo", "--name", "scaled", "-o", demo])
        out = str(tmp_path / "c2.json")
        assert main(["comass", demo, "--power", "2", *FAST, "-o", out]) == 0
        table = json.loads(open(out).read())
        for row in table["points"]:
            assert row["exact"] is None
            assert row["sampled"] == pytest.approx(0.5, abs=1e-6)

    def test_excessive_power_rejected(self, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        assert main(["comass", demo, "--power", "3"]) == 2


class TestPlaneTest:
    def test_calibrated_plane(self, tmp_path):
        demo = str(tmp_path / "scaled.calfield")
        main(["demo", "--name", "scaled", "-o", demo])
        out = str(tmp_path / "p.json")
        args = ["plane-test", demo, "--point", "0", "--vectors"]
        vectors = ["1", "0", "0", "0", "0", "1", "0", "0"]
        assert main(args + vectors + ["-o", out]) == 0
        verdict = json.loads(open(out).read())
        assert verdict["calibrated"] is True
        assert verdict["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_small_block_plane_not_calibrated(self, tmp_path):
        demo = str(tmp_path / "scaled.calfield")
        main(["demo", "--name", "scaled", "-o", demo])
        out = str(tmp_path / "p2.json")
        vectors = ["0", "0", "1", "0", "0", "0", "0", "1"]
        assert main(["plane-test", demo, "--vectors", *vectors, "-o", out]) == 0
        verdict = json.loads(open(out).read())
        assert verdict["ratio"] == pytest.approx(0.5, abs=1e-12)
        assert verdict["calibrated"] is False

    def test_wrong_vector_count(self, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        assert main(["plane-test", demo, "--vectors", "1", "0"]) == 2

    def test_degenerate_frame(self, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        vectors = ["1", "0", "0", "0", "2", "0", "0", "0"]
        assert main(["plane-test", demo, "--vectors", *vectors]) == 2
        assert "degenerate" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("name", ["standard", "scaled", "rank-deficient", "odd3"])
    def test_build_and_verify_byte_identical(self, name, tmp_path):
        demo = str(tmp_path / f"{name}.calfield")
        main(["demo", "--name", name, "-o", demo])
        outs = []
        for run in range(2):
            b = tmp_path / f"b{run}.json"
            v = tmp_path / f"v{run}.json"
            assert main(["build", demo, "--seed", "0", "-o", str(b)]) == 0
            assert main(["verify", demo, "--seed", "0", *FAST, "-o", str(v)]) == 0
            outs.append((b.read_bytes(), v.read_bytes()))
        assert outs[0] == outs[1]
