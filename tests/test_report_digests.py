"""Reports stay byte-identical: ``bench/report_digests.py`` reproduces its committed digests.

The script runs 28 seeded ``build``, ``verify``, ``comass``, ``plane-test``
and ``construct_point`` runs in process and hashes their output; ``bench/report_digests.json`` holds the
digests of the current report format.  They are digests of this toolchain
(numpy and its LAPACK and BLAS): a change that keeps reports byte-identical
reproduces them, and the file is re-recorded with ``-o`` only when
``format_version`` is bumped.
"""

import hashlib
import json
import sys

from semicalib.field import FORMAT_VERSION
from helpers import BENCH, load_bench_script


def test_digests_match_the_committed_file():
    script = load_bench_script("report_digests")
    committed = json.loads((BENCH / "report_digests.json").read_text())
    assert FORMAT_VERSION == 13, "a new format_version needs re-recorded digests"
    assert script.digests() == committed


def test_reports_are_kept_next_to_their_digests(tmp_path, monkeypatch):
    """``--reports DIR`` writes each CLI run's report to ``DIR/<name>.json``, the bytes its digest hashes."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # --src goes first on sys.path
    script = load_bench_script("report_digests")
    reports, output = tmp_path / "reports", tmp_path / "digests.json"
    assert script.main(["--reports", str(reports), "-o", str(output)]) == 0
    recorded = json.loads(output.read_text())
    kept = {str(path.relative_to(reports).with_suffix("")): path for path in reports.rglob("*.json")}
    assert set(kept) == set(recorded) - {"construct_point/near-double"}
    for name, path in kept.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded[name][1]
    assert kept["demo/standard/build"].read_bytes().startswith(b"{")
