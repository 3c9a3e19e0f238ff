"""Reports stay byte-identical: ``bench/report_digests.py`` reproduces its committed digests.

The script runs 28 seeded ``build``, ``verify``, ``comass``, ``plane-test``
and ``construct_point`` runs in process and hashes their output; ``bench/report_digests.json`` holds the
digests of the current report format.  They are digests of this toolchain
(numpy and its LAPACK and BLAS): a change that keeps reports byte-identical
reproduces them, and the file is re-recorded with ``-o`` only when
``format_version`` is bumped.
"""

import importlib.util
import json
import os
from pathlib import Path

from semicalib.field import FORMAT_VERSION

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_digests_match_the_committed_file():
    spec = importlib.util.spec_from_file_location("report_digests", BENCH / "report_digests.py")
    script = importlib.util.module_from_spec(spec)
    saved = dict(os.environ)
    try:
        spec.loader.exec_module(script)
    finally:  # the script pins BLAS threads for its own runs
        os.environ.clear()
        os.environ.update(saved)
    committed = json.loads((BENCH / "report_digests.json").read_text())
    assert FORMAT_VERSION == 12, "a new format_version needs re-recorded digests"
    assert script.digests() == committed
