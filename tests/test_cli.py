"""CLI exit-code contract and output determinism."""

import json

import numpy as np
import pytest

import semicalib.construction
from semicalib import cli
from semicalib.cli import main
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
        assert data["format_version"] == 8
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
        # A g_J that is not positive definite makes the batched assembly's
        # own check raise ConstructionError.
        metric = semicalib.construction.compatible_metric
        monkeypatch.setattr(semicalib.construction, "compatible_metric",
                            lambda *args: -metric(*args))
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        assert main([command, demo]) == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_endomorphism_is_4(self, tmp_path, capsys):
        # Point 1 has G = 1e-300 I and W entries of 1e300: parse accepts it,
        # and A = G^-1 W^T overflows.
        lines = constant_field_text(4, "1 0 0 0 1 0 0 1 0 1", "1 0 0 0 0 1", 2).splitlines()
        lines[9] = "G 1e-300 0 0 0 1e-300 0 0 1e-300 0 1e-300"
        lines[10] = "W 1e300 0 0 0 0 1e300"
        field = write(tmp_path, "overflow.calfield", "\n".join(lines) + "\n")
        assert main(["build", field]) == 4
        err = capsys.readouterr().err
        assert err == "error: construction failed: endomorphism contains non-finite entries\n"

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
        for value in ("-1", "nan", "inf"):
            with pytest.raises(SystemExit) as err:
                main(["build", demo, "--epsilon", value])
            assert err.value.code == 2
            assert "error: argument --epsilon: epsilon must be finite" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        with pytest.raises(SystemExit) as err:
            main(["verify", demo, "--seed", "-1", *FAST])
        assert err.value.code == 2
        assert "error: --seed must be >= 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("override", ["zero=nan", "pd=inf", "zero=-inf"])
    def test_non_finite_tolerance_override_rejected(self, override, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        with pytest.raises(SystemExit) as err:
            main(["build", demo, "--tol", override])
        assert err.value.code == 2
        assert "tolerances must be finite and positive" in capsys.readouterr().err

    def test_removed_cluster_tolerance_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["build", "x", "--tol", "cluster=1e-6"])
        assert err.value.code == 2

    def test_removed_rank_tolerance_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["build", "x", "--tol", "rank=0.99"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["verify", "comass"])
    @pytest.mark.parametrize("flag", [["--samples", "0"], ["--restarts", "-1"]])
    def test_bad_sampling_flags_rejected(self, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, "x", *flag])
        assert err.value.code == 2

    def test_verify_without_restarts_is_a_usage_error(self, tmp_path, capsys):
        # unpolished, verify's sampled run cannot attain comass 1; comass still takes 0
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        with pytest.raises(SystemExit) as err:
            main(["verify", demo, "--restarts", "0"])
        assert err.value.code == 2
        assert "--restarts" in capsys.readouterr().err
        assert main(["comass", demo, "--restarts", "0", "-o", str(tmp_path / "c.json")]) == 0
        table = json.loads(open(tmp_path / "c.json").read())
        assert [row["restarts"] for row in table["points"]] == [1] * 3

    @pytest.mark.parametrize("power", ["0", "3"])
    def test_invalid_verify_power_is_2(self, power, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        assert main(["verify", demo, "--power", power, *FAST]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_verify_power_uses_lifted_dimension(self, tmp_path):
        # odd3 is lifted to n = 4, where the top power 2 is valid
        demo = str(tmp_path / "odd3.calfield")
        main(["demo", "--name", "odd3", "-o", demo])
        assert main(["verify", demo, "--power", "2", *FAST, "-o", str(tmp_path / "v.json")]) == 0


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

    def test_power_table_has_exact(self, tmp_path):
        demo = str(tmp_path / "scaled.calfield")
        main(["demo", "--name", "scaled", "-o", demo])
        out = str(tmp_path / "c2.json")
        assert main(["comass", demo, "--power", "2", *FAST, "-o", out]) == 0
        table = json.loads(open(out).read())
        for row in table["points"]:
            assert row["exact"] == 0.5
            assert row["sampled"] == pytest.approx(0.5, abs=1e-6)

    def test_default_samples(self, tmp_path):
        # comass keeps its own default, independent of verify's smaller run
        demo = str(tmp_path / "standard.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        out = str(tmp_path / "c.json")
        assert main(["comass", demo, "-o", out]) == 0
        table = json.loads(open(out).read())
        assert [row["samples"] for row in table["points"]] == [20000] * 3

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

    def test_point_index_out_of_range(self, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        vectors = ["1", "0", "0", "0", "0", "1", "0", "0"]
        assert main(["plane-test", demo, "--point", "3", "--vectors", *vectors]) == 2
        assert capsys.readouterr().err == "error: point index 3 out of range\n"

    @pytest.mark.parametrize("power", ["0", "3"])
    def test_invalid_power_is_2(self, power, tmp_path, capsys):
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        vectors = ["1", "0", "0", "0", "0", "1", "0", "0"]
        assert main(["plane-test", demo, "--power", power, "--vectors", *vectors]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_out_of_range_tolerance_rejected(self, tol, tmp_path, capsys):
        # -1 would report the calibrated standard plane as not calibrated
        demo = str(tmp_path / "d.calfield")
        main(["demo", "--name", "standard", "-o", demo])
        vectors = ["1", "0", "0", "0", "0", "1", "0", "0"]
        with pytest.raises(SystemExit) as err:
            main(["plane-test", demo, "--tol", tol, "--vectors", *vectors])
        assert err.value.code == 2
        assert "finite and non-negative" in capsys.readouterr().err

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


class TestSharedParser:
    def test_list_flags_do_not_leak_between_calls(self, monkeypatch):
        # every main call parses with the one cached parser
        seen = []
        monkeypatch.setitem(cli._DISPATCH, "verify", lambda args: seen.append(args) or 0)
        assert main(["verify", "x", "--power", "2", "--tol", "zero=1e-9"]) == 0
        assert main(["verify", "x"]) == 0
        assert seen[0].power == [2] and seen[0].tol == [("zero", 1e-9)]
        assert seen[1].power == [] and seen[1].tol == []
