"""The benchmark tracer wraps package functions by name: every entry of
``perfbench/tracer.py``'s ``TARGETS`` must name a function that exists,
and the matrix attributes it records must read, or
``perfbench/run.py --trace 1`` breaks."""

import ast
import importlib
import importlib.util
from pathlib import Path

from permfiber.linalg import SparseMatrix, multiply, rank

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


def test_tracer_reads_matrix_shapes():
    """``_matrix_attrs`` reads rows, cols and nnz of the matrices that
    rank and multiply take and return."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    a = SparseMatrix.from_entries(2, 3, {(0, 0): 1, (1, 0): 1, (1, 2): -2})
    b = SparseMatrix.from_entries(3, 4, {(0, 1): 1, (2, 3): 1})
    assert tracer._matrix_attrs("linalg.rank", (a,), rank(a)) == {
        "rows": 2, "cols": 3, "nnz": 3, "rank": 2}
    assert tracer._matrix_attrs("linalg.multiply", (a, b), multiply(a, b)) == {
        "rows": 2, "inner": 3, "cols": 4, "nnz": 5, "nnz_out": 3}
