"""README's library code runs as written, so a renamed name cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block of README's section ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    exec(compile(python_block("Library quick start"), str(README), "exec"), {})
