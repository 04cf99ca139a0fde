"""The README's library sketch runs against the package as it is, so an
API change that the README does not follow fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block, str(README), "exec"), {})
