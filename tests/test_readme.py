"""The README's library sketch runs against the package as it is, so an
API change that the README does not follow fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block, str(README), "exec"), {})


def test_readme_command_line_parses():
    # each synopsis line, optional parts included, with its placeholders filled in
    from permfiber.cli import build_parser

    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"## Command line\n\n```\n(.*?)```", text, re.S)
    values = {"DIR": "out", "N": "3", "R": "2"}
    lines = block.splitlines()
    assert [line.split()[1] for line in lines] == ["perm", "simplex", "fiber", "suite"]
    for line in lines:
        argv = [values.get(word, word) for word in re.sub(r"[][]", " ", line).split()[1:]]
        args = build_parser().parse_args(argv)
        assert args.command == argv[0], line
