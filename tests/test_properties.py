"""Property tests over random connected multigraphs with loops and
parallel edges: the fiber's dimensions match two independent oracles,
flow-chart trees and nested sets of connected edge sets, and the full check battery of the command line passes."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from permfiber.cli import CHECK_TOKENS, Collector, _run_checks  # noqa: E402
from permfiber.fiber import MultiGraph, build_fiber  # noqa: E402

from oracles import fiber_tree_sets, nested_set_counts  # noqa: E402

MAX_EDGES = 5


@st.composite
def connected_multigraphs(draw):
    """Each edge starts at a vertex already drawn and ends at a new
    vertex, an old one (a parallel edge when repeated) or itself (a
    loop), so the graph stays connected; edge ids are then shuffled."""
    n = draw(st.integers(1, MAX_EDGES))
    edges, vertices = [], 1
    for _ in range(n):
        u = draw(st.integers(0, vertices - 1))
        v = draw(st.integers(0, vertices))
        vertices = max(vertices, v + 1)
        edges.append((u, v))
    return draw(st.permutations(edges))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(connected_multigraphs())
def test_random_multigraph_fibers(perms, edges):
    g = MultiGraph.from_edges(edges)
    fib = build_fiber(g)
    oracle = fiber_tree_sets(g.edges)
    dims = {-r: fib.complex.dim(r) for r in fib.complex.degrees()}
    assert dims == {k: len(trees) for k, trees in oracle.items()}, edges
    assert dims == nested_set_counts(g.edges), edges
    col = Collector()
    _run_checks(col, "g", fib, CHECK_TOKENS, pages=2, perm=perms[g.n])
    assert not col.failed, (edges, col.lines)
    assert sorted(row.split(",")[1] for row in col.checks_rows) == sorted(CHECK_TOKENS)
