"""README's library example must run as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
