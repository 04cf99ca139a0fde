"""The benchmark tracer wraps package functions by name: every entry of
``perfbench/tracer.py``'s ``TARGETS`` must name a function that exists,
and the matrix attributes and results its post hooks read must read,
or ``perfbench/run.py --trace 1`` breaks."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from permfiber.complexes import verify_d_squared
from permfiber.fiber import build_fiber, fiber_element
from permfiber.linalg import SparseMatrix, multiply, rank
from permfiber.topartitions import enumerate_topartitions

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


def _load_tracer():
    """The tracer module, run from its file without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = previous
    return tracer


def test_tracer_reads_matrix_shapes():
    """``_matrix_attrs`` reads rows, cols and nnz of the matrices that
    rank and multiply take and return."""
    tracer = _load_tracer()
    a = SparseMatrix.from_entries(2, 3, {(0, 0): 1, (1, 0): 1, (1, 2): -2})
    b = SparseMatrix.from_entries(3, 4, {(0, 1): 1, (2, 3): 1})
    assert tracer._matrix_attrs("linalg.rank", (a,), rank(a)) == {
        "rows": 2, "cols": 3, "nnz": 3, "rank": 2}
    assert tracer._matrix_attrs("linalg.multiply", (a, b), multiply(a, b)) == {
        "rows": 2, "inner": 3, "cols": 4, "nnz": 5, "nnz_out": 3}


def test_tracer_post_hooks_read_real_results(corpus_graphs):
    """Each post hook runs on what its span's function really returns:
    a result of another shape fails here, not in a traced benchmark."""
    module = _load_tracer()
    tracer = module.Tracer()
    hooked = {span for span in module.SPAN_NAMES if tracer._post_hook(span)}
    g = corpus_graphs["path3"]
    fib = build_fiber(g)
    alphas = enumerate_topartitions(g.n)
    m = fib.complex.d(-1)
    calls = [
        ("linalg.rank", (m,), rank(m)),
        ("linalg.multiply", (fib.complex.d(-2), m), multiply(fib.complex.d(-2), m)),
        ("topartitions.enumerate", (g.n,), alphas),
        ("fiber.build_fiber", (g,), fib),
        ("complexes.d_squared", (fib.complex,), verify_d_squared(fib.complex)),
        ("complexes.d_squared", (fib.complex,), verify_d_squared(fib.complex)),
    ] + [("fiber.fiber_element", (g, alpha), fiber_element(g, alpha)) for alpha in alphas]
    assert {span for span, _, _ in calls} == hooked
    for idx, (span, args, result) in enumerate(calls):
        tracer._post_hook(span)(idx, args, result)
    assert tracer.attrs[0] == {"rows": 5, "cols": 1, "nnz": 5, "rank": 1}
    assert tracer.attrs[1]["inner"] == 5
    assert tracer.attrs[2] == {"cells": 13}
    assert tracer.attrs[3] == {"trees": 11}
    assert tracer.counts["complexes.d_squared.complexes"] == 1
    assert tracer.counts["fiber.fiber_element.nondegenerate"] == len(fib.images) == 12
