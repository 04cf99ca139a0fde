"""Property tests over random connected multigraphs with loops and
parallel edges: the fiber's dimensions match two independent oracles,
flow-chart trees and nested sets of connected edge sets, its cluster
table holds the edge components an oracle finds, its differential is
the covering relation of its nested sets, a renamed copy of the
graph builds the same fiber, a coreduction agrees with its homology,
and the full check battery of the command line passes."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from permfiber.cli import CHECK_TOKENS, Collector, _maps, _run_checks  # noqa: E402
from permfiber.fiber import MultiGraph, build_fiber  # noqa: E402

from test_complexes import check_homology_by_coreduction  # noqa: E402
from test_fiber import (  # noqa: E402
    assert_built_from_representatives,
    assert_clusters_match_oracle,
    assert_equal_fibers,
    assert_fiber_is_its_face_lattice,
)

from oracles import fiber_tree_sets, nested_set_counts, nondegenerate_count  # noqa: E402

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
    assert len(fib.images) == nondegenerate_count(g.edges), edges
    assert_built_from_representatives(fib, edges)
    assert_fiber_is_its_face_lattice(fib, edges)
    check_homology_by_coreduction(fib.complex, edges)
    assert_clusters_match_oracle(g, edges)
    # renaming the vertices and reversing edges keeps the line graph, so the fiber
    rng = random.Random(repr(edges))
    vertices = sorted(g.vertices())
    rename = dict(zip(vertices, rng.sample(range(100), len(vertices))))
    moved = MultiGraph.from_edges((rename[v], rename[u]) if rng.random() < 0.5
                                  else (rename[u], rename[v]) for u, v in edges)
    assert moved.line_graph() == g.line_graph(), edges
    assert_equal_fibers(build_fiber(moved), fib, edges)
    col = Collector()
    _run_checks(col, "g", fib, CHECK_TOKENS, pages=2, maps=_maps(perms[g.n]))
    assert not col.failed, (edges, col.lines)
    assert sorted(row.split(",")[1] for row in col.checks_rows) == sorted(CHECK_TOKENS)
