"""Reports stay byte-identical: ``bench/report_digests.py`` reproduces its committed digests.

The script runs 28 seeded ``build``, ``verify``, ``comass``, ``plane-test``
and ``construct_point`` runs in process and hashes their output; ``bench/report_digests.json`` holds the
digests of the current report format.  They are digests of this toolchain
(numpy and its LAPACK and BLAS): a change that keeps reports byte-identical
reproduces them, and the file is re-recorded with ``-o`` only when
``format_version`` is bumped.
"""

import json

from semicalib.field import FORMAT_VERSION
from helpers import BENCH, load_bench_script


def test_digests_match_the_committed_file():
    script = load_bench_script("report_digests")
    committed = json.loads((BENCH / "report_digests.json").read_text())
    assert FORMAT_VERSION == 12, "a new format_version needs re-recorded digests"
    assert script.digests() == committed
