"""The CLI streams its JSON reports: the same bytes as ``dumps``, memory bounded by the columns, no partial file.

``build`` and ``verify`` hand their report to ``jsonio.stream`` with point
entries built when read, and the CLI writes the pieces in chunks, so neither
the report's text nor a list of its entries exists at once.  A run that fails
while writing removes the ``-o`` file it opened, and only that.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from semicalib import cli, jsonio
from semicalib.field import FieldConfig, build_report, demo_calfield, parse_calfield, process_field, verify_field
from semicalib.jsonio import LazySequence, dumps
from helpers import planted_field_text

# Points of the n = 8 field the memory test streams: enough for the report to
# dwarf the fixed costs, few enough to run in about a second under tracemalloc.
MEMORY_POINTS = 500
# Its pair values ramp down to 0.05; with this epsilon the band (eps/4, eps/2)
# of their squares lies below 0.05^2, so every point is built and verified.
MEMORY_EPSILON = ["--epsilon", "0.004"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def big_field(tmp_path_factory):
    """(path, text, columns' bytes) of a planted n = 8 field of MEMORY_POINTS points."""
    text = planted_field_text(8, seed=3, points=MEMORY_POINTS)
    path = tmp_path_factory.mktemp("stream") / "big.calfield"
    path.write_text(text)
    cf = process_field(parse_calfield(text), FieldConfig(epsilon=float(MEMORY_EPSILON[1])))
    assert cf.built.all()
    arrays = [v for k, v in vars(cf).items() if isinstance(v, np.ndarray) and not k.startswith("grid_")]
    return str(path), text, sum(a.nbytes for a in [*arrays, *cf.residuals.values()])


@pytest.mark.parametrize("argv", [["build"], ["verify", "--samples", "1", "--restarts", "1"]], ids=["build", "verify"])
def test_peak_memory_bounded_by_the_columns(big_field, tmp_path, argv):
    # two copies of the report text, the pieces and their join, would not fit beside the input and the
    # columns, nor would verify's checks as one dict per point (the construction's own columns count,
    # not the grid's stacks it keeps)
    path, text, columns = big_field
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli.main([argv[0], path, "-o", str(out), *argv[1:], *MEMORY_EPSILON])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = len(text) + columns
    assert 2 * out.stat().st_size > budget
    assert peak <= 2 * budget, f"peak {peak} B is {peak / budget:.2f}x input text + column bytes {budget} B"


@pytest.fixture
def streamed(monkeypatch):
    """The objects the CLI hands to ``jsonio.stream``, in order, with a chunk of 100 characters."""
    seen = []
    monkeypatch.setattr(cli, "_CHUNK", 100)
    monkeypatch.setattr(cli, "stream", lambda obj, put: seen.append(obj) or jsonio.stream(obj, put))
    return seen


COMMANDS = {
    "build": ["build"],
    "verify-p2": ["verify", "--power", "2"],
    "comass": ["comass", "--samples", "50"],
    "plane-test": ["plane-test", "--point", "1", "--vectors", "1", "0", "0", "0", "0", "1", "0", "0"],
}


@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
@pytest.mark.parametrize("name", COMMANDS)
def test_output_is_dumps_of_the_report(tmp_path, capsys, streamed, name, to_stdout):
    demo = write(tmp_path, "scaled.calfield", demo_calfield("scaled"))
    out = tmp_path / "report.json"
    argv = [COMMANDS[name][0], demo, *COMMANDS[name][1:]] + ([] if to_stdout else ["-o", str(out)])
    assert cli.main(argv) == 0
    written = capsys.readouterr().out if to_stdout else out.read_text()
    (report,) = streamed
    assert len(written) > 100 or name == "plane-test"  # more than one chunk
    assert written == dumps(report)
    if name in ("build", "verify-p2"):  # and the report is the library's
        grid = parse_calfield(demo_calfield("scaled"))
        config = FieldConfig(powers=(2,))
        library = build_report(process_field(grid)) if name == "build" else verify_field(
            process_field(grid, config), grid, config).data
        assert written == dumps(library)


def test_dev_stdout_output(tmp_path, capfd):
    demo = write(tmp_path, "standard.calfield", demo_calfield("standard"))
    assert cli.main(["build", demo, "-o", "/dev/stdout"]) == 0
    assert capfd.readouterr().out == dumps(build_report(process_field(parse_calfield(demo_calfield("standard")))))


def with_bad_last_point(monkeypatch):
    """Make the CLI's construction carry a NaN in the last point's J, which ``dumps`` refuses."""
    process = cli.process_field

    def bad(grid, config):
        cf = process(grid, config)
        j = cf.J.copy()
        j[-1, 0, 0] = np.nan
        return dataclasses.replace(cf, J=j)

    monkeypatch.setattr(cli, "process_field", bad)


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_failed_stream_leaves_no_file(tmp_path, monkeypatch, exists):
    # chunks go out before the last point fails; -o names the file the run writes, so one that was
    # there is truncated when the run opens it and removed with the rest
    path, writes = write(tmp_path, "in.calfield", planted_field_text(8, seed=3, points=12)), []
    out = tmp_path / "report.json"
    if exists:
        out.write_text("an earlier report\n")
    monkeypatch.setattr(cli, "_CHUNK", 1000)
    monkeypatch.setattr(cli, "stream", lambda obj, put: jsonio.stream(obj, lambda p: writes.append(p) or put(p)))
    with_bad_last_point(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        cli.main(["build", path, "-o", str(out)])
    assert sum(map(len, writes)) > 3000
    assert not out.exists()


def test_write_error_exits_2_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    path, out, count = write(tmp_path, "in.calfield", demo_calfield("standard")), tmp_path / "report.json", []

    def failing(obj, put):
        def put_or_fail(piece):
            count.append(piece)
            if len(count) == 5:
                raise OSError("No space left on device")
            put(piece)
        jsonio.stream(obj, put_or_fail)

    monkeypatch.setattr(cli, "_CHUNK", 1)
    monkeypatch.setattr(cli, "stream", failing)
    assert cli.main(["build", path, "-o", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def refuse_writes(monkeypatch):
    """Make the CLI's ``open`` refuse every write, as the OS does for a read-only file."""
    def refusing(path, mode="r", *args, **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", path)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refusing, raising=False)


@pytest.mark.parametrize("command", ["build", "demo"])
def test_refused_open_keeps_the_file(tmp_path, monkeypatch, capsys, command):
    # a file the run could not open is not the run's to remove
    path, out = write(tmp_path, "in.calfield", demo_calfield("standard")), tmp_path / "report.json"
    out.write_text("an earlier report\n")
    refuse_writes(monkeypatch)
    argv = ["build", path] if command == "build" else ["demo", "--name", "standard"]
    assert cli.main([*argv, "-o", str(out)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert out.read_text() == "an earlier report\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes read-only files")
def test_read_only_output_is_kept(tmp_path):
    path, out = write(tmp_path, "in.calfield", demo_calfield("standard")), tmp_path / "report.json"
    out.write_text("an earlier report\n")
    out.chmod(0o444)
    assert cli.main(["build", path, "-o", str(out)]) == 2
    assert out.read_text() == "an earlier report\n"


def test_failed_stream_to_dev_stdout_keeps_it(tmp_path, monkeypatch, capfd):
    path = write(tmp_path, "in.calfield", demo_calfield("standard"))
    with_bad_last_point(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        cli.main(["build", path, "-o", "/dev/stdout"])
    assert os.path.islink("/dev/stdout")


class TestLazyPoints:
    """A report's ``points`` are a read-only sequence whose entries are built when read."""

    @pytest.fixture(scope="class")
    def reports(self):
        grid = parse_calfield(planted_field_text(4, seed=4, points=6))
        config = FieldConfig(samples=50, restarts=1)
        cf = process_field(grid, config)
        return build_report(cf), verify_field(cf, grid, config).data, cf

    def test_sequence(self, reports):
        for report in reports[:2]:
            points = report["points"]
            assert isinstance(points, LazySequence) and len(points) == 6
            assert [p["index"] for p in points] == list(range(6))
            assert points[-1]["index"] == 5 and points[-6]["index"] == 0
            assert [a["index"] for a, _ in zip(points, range(2))] == [0, 1]
            with pytest.raises(IndexError):
                points[6]
            with pytest.raises(TypeError):
                points[0] = {}

    def test_entries_are_built_from_the_columns(self, reports):
        build, verify, cf = reports
        assert not cf.built.all()
        for i, (b, v) in enumerate(zip(build["points"], verify["points"])):
            assert b is not build["points"][i]  # built anew at each read
            assert dumps({key: v[key] for key in b}) == dumps(b)
            assert b["gap_ok"] == bool(cf.built[i]) and (v["checks"] != {}) == b["gap_ok"]
            if b["gap_ok"]:
                assert np.shares_memory(b["J"], cf.J) and b["residuals"] == {k: float(c[i]) for k, c in cf.residuals.items()}
