"""The benchmark tracer wraps package functions by name: every entry of
``perfbench/tracer.py``'s ``TARGETS`` must name a function that exists,
or ``perfbench/run.py --trace 1`` breaks."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> dict:
    """``TARGETS`` read from the tracer's source, which is not run."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    for span, (module_name, attribute) in targets.items():
        obj = importlib.import_module(module_name)
        for part in attribute.split("."):  # "Class.method" names a method
            assert hasattr(obj, part), (span, module_name, attribute)
            obj = getattr(obj, part)
        assert callable(obj), span
