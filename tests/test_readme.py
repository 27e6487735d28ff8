"""The README's Python examples run as written, so an API change cannot
leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    """The code of the README's ```python blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks
    for number, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {number}", "exec"), {"__name__": "readme"})
