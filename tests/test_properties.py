"""Property tests over random connected multigraphs with loops and
parallel edges: the fiber's dimensions match two independent oracles,
flow-chart trees and nested sets of connected edge sets, its cluster
table holds the edge components an oracle finds, its differential is
the covering relation of its nested sets, a renamed copy of the
graph builds the same fiber, a coreduction agrees with its homology,
and the full check battery of the command line passes.  Random
one-entry maps between corpus complexes are checked as the dense
products and the rank oracle check them."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from permfiber.cli import CHECK_TOKENS, Collector, _maps, _run_checks  # noqa: E402
from permfiber.complexes import (  # noqa: E402
    ChainMap,
    is_surjective,
    unreached,
    verify_chain_map,
    verify_factorization,
)
from permfiber.fiber import (  # noqa: E402
    MultiGraph,
    build_fiber,
    fiber_to_simplex,
    perm_to_fiber,
)
from permfiber.polytopes import perm_to_simplex  # noqa: E402

from test_complexes import (  # noqa: E402
    assert_build_returns_it,
    check_homology_by_coreduction,
)
from test_polytopes import assert_blowdown_is_the_oracles  # noqa: E402
from test_fiber import (  # noqa: E402
    DenseProducts,
    assert_built_from_representatives,
    assert_clusters_match_oracle,
    assert_equal_fibers,
    assert_fiber_is_its_face_lattice,
)

from oracles import (  # noqa: E402
    dense_rank,
    fiber_tree_sets,
    nested_set_counts,
    nondegenerate_count,
)

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
    assert_build_returns_it(fib.complex, edges)
    assert_clusters_match_oracle(g, edges)
    # renaming the vertices and reversing edges keeps the line graph, so the fiber
    rng = random.Random(repr(edges))
    vertices = sorted(g.vertices())
    rename = dict(zip(vertices, rng.sample(range(100), len(vertices))))
    moved = MultiGraph.from_edges((rename[v], rename[u]) if rng.random() < 0.5
                                  else (rename[u], rename[v]) for u, v in edges)
    assert moved.line_graph() == g.line_graph(), edges
    assert_equal_fibers(build_fiber(moved), fib, edges)
    maps = _maps(perms[g.n])
    assert_blowdown_is_the_oracles(fiber_to_simplex(fib, maps.simplex), fib.cells,
                                   maps.simplex, fib.images, edges)
    col = Collector()
    _run_checks(col, "g", fib, CHECK_TOKENS, pages=2, maps=maps)
    assert not col.failed, (edges, col.lines)
    assert sorted(row.split(",")[1] for row in col.checks_rows) == sorted(CHECK_TOKENS)


VALUES = (1, -1, 2, -2, Fraction(1, 2))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_one_entry_maps_match_dense_products(perms, simplexes, corpus_fibers, data):
    """One of perm->fiber, fiber->simplex and the blow-down of a corpus
    fiber of up to 4 edges, with up to four cells sent to a random row
    with a value of +-1, +-2 or 1/2, or to zero: its row-table commuting
    and factorization reports are those of the whole dense products, and
    it is surjective exactly when the rank oracle gives every target
    degree full rank, else ``unreached`` names a cell outside the image
    in the first degree that falls short."""
    name = data.draw(st.sampled_from(sorted(k for k, fib in corpus_fibers.items()
                                            if fib.n <= 4)))
    fib = corpus_fibers[name]
    n = fib.n
    triangle = [perm_to_simplex(perms[n], simplexes[n]),
                fiber_to_simplex(fib, simplexes[n]), perm_to_fiber(fib, perms[n])]
    slot = data.draw(st.integers(0, 2))
    f = triangle[slot]
    table = {r: list(f.table.get(r, (None,) * f.source.dim(r))) for r in f.source.degrees()}
    for _ in range(data.draw(st.integers(0, 4))):
        r = data.draw(st.sampled_from(sorted(table)))
        j = data.draw(st.integers(0, len(table[r]) - 1))
        rows = f.target.dim(r + f.shift)
        table[r][j] = data.draw(st.none() | st.tuples(st.integers(0, rows - 1),
                                                      st.sampled_from(VALUES))
                                if rows else st.none())
    triangle[slot] = broken = ChainMap.build(f.source, f.target, f.shift, table, f.note)
    dense = DenseProducts()
    assert verify_chain_map(broken) == dense.chain_map(broken), (name, slot)
    assert verify_factorization(*triangle) == dense.factorization(*triangle), (name, slot)
    degrees = sorted(set(f.source.degrees()) | {r - f.shift for r in f.target.degrees()})
    full = [dense_rank(broken.matrix(r).dense()) == f.target.dim(r + f.shift)
            for r in degrees]
    assert is_surjective(broken) is all(full), (name, slot)
    missed = unreached(broken)
    if not all(full):
        r = degrees[full.index(False)]
        m = broken.matrix(r).dense()
        i = f.target.labels(r + f.shift).index(missed.label)
        assert missed.degree == r + f.shift, (name, slot)
        assert dense_rank([row + [int(k == i)] for k, row in enumerate(m)]) \
            > dense_rank(m), (name, slot)
