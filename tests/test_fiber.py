import pickle
import random
from itertools import combinations
from math import comb

import pytest

from permfiber.complexes import (
    ChainComplex,
    ChainMap,
    ChainMapReport,
    homology_dims,
    is_surjective,
    mapping_cone,
    page_dims,
    quasi_isomorphism_report,
    verify_chain_map,
    verify_d_squared,
    verify_factorization,
)
from permfiber.fiber import (
    FiberComplex,
    FiberTooLarge,
    MultiGraph,
    _cluster_table,
    build_fiber,
    canonical_representative,
    fiber_element,
    fiber_to_simplex,
    koszul_check,
    parse_graph,
    perm_to_fiber,
    push_forward_well_defined,
)
from permfiber.linalg import SparseMatrix
from permfiber.polytopes import build_perm, build_simplex, perm_to_simplex
from permfiber.topartitions import (
    TOPartition,
    enumerate_topartitions,
    parse_topartition,
)

from oracles import (
    contracted_tree_key,
    dense_multiply,
    edge_components,
    fiber_tree_sets,
    fubini,
    ids,
    nested_set_counts,
    nested_set_of,
    nested_sets,
    nondegenerate_count,
    perm_differential,
    tree_key,
)


def subtree_edge_sets(tree):
    """The edge ids below each vertex of ``tree``, its own block included."""

    kids = tree.child_lists()

    def below(i):
        return frozenset(ids(tree.blocks[i])).union(*map(below, kids[i]))

    return frozenset(below(i) for i in range(len(tree.blocks)))


# ---------------------------------------------------------------- graphs


def test_parse_graph_comments_and_ids():
    g = parse_graph("# a triangle\n0 1\n\n1 2 # second edge\n2 0\n")
    assert g.edges == ((0, 1), (1, 2), (2, 0))
    assert g.n == 3


def test_parse_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_graph("0 1\n2 3\n")  # disconnected
    with pytest.raises(ValueError):
        parse_graph("")  # no edges
    with pytest.raises(ValueError):
        parse_graph("0 1 2\n")
    with pytest.raises(ValueError):
        parse_graph("a b\n")


def test_vertex_ids_must_be_ints():
    """A float or a bool is not read as the int it rounds or compares to."""
    for edges in ([(0, 1.7), (1, 2)], [(0, 1), (1, True)], [(0, "1")]):
        with pytest.raises(ValueError, match="vertex ids must be nonnegative integers"):
            MultiGraph.from_edges(edges)
    assert MultiGraph.from_edges([[0, 1], (1, 2)]).edges == ((0, 1), (1, 2))


def test_loop_only_graph_is_connected():
    g = parse_graph("0 0\n0 0\n")
    assert g.n == 2


# ---------------------------------------------------------- fiber_element


def test_single_block_always_one_vertex(corpus_graphs):
    from permfiber.topartitions import TOPartition
    for g in corpus_graphs.values():
        alpha = TOPartition.of(g.n, range(1, g.n + 1))
        t = fiber_element(g, alpha.blocks)
        assert not t.degenerate and len(t.blocks) == 1


def test_star_fibers_have_no_degenerate_elements(corpus_graphs):
    for name in ("star2", "star3", "star4"):
        g = corpus_graphs[name]
        for alpha in enumerate_topartitions(g.n):
            assert not fiber_element(g, alpha).degenerate


def test_path3_disjoint_block_applied_first_is_degenerate(corpus_graphs):
    g = corpus_graphs["path3"]
    t = fiber_element(g, parse_topartition("13>2").blocks)
    assert t.degenerate
    assert tuple(map(ids, t.blocks)) == ((1,), (2,), (3,))  # block {1,3} fell apart
    # the same block applied last labels the root instead
    t2 = fiber_element(g, parse_topartition("2>13").blocks)
    assert not t2.degenerate
    assert ids(t2.root_block) == (1, 3) and t2.width == 2


def _random_multigraphs(seed, count, max_edges):
    """Connected multigraphs on few vertices, so loops and parallel
    edges are common."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        vertices = rng.randint(1, 4)
        edges = [(rng.randrange(vertices), rng.randrange(vertices))
                 for _ in range(rng.randint(1, max_edges))]
        try:
            graphs.append(MultiGraph.from_edges(edges))
        except ValueError:
            continue
    return graphs


def test_fiber_element_matches_flow_chart_oracle(corpus_graphs):
    graphs = [g for g in corpus_graphs.values() if g.n <= 5]
    graphs += _random_multigraphs(seed=2108, count=40, max_edges=5)
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(len(set(g.edges)) < g.n for g in graphs)
    for g in graphs:
        for alpha in enumerate_topartitions(g.n):
            t = fiber_element(g, alpha)
            want = contracted_tree_key(g.edges, [ids(b) for b in alpha])
            assert t.degenerate == (want is None), (g.edges, alpha)
            if want is not None:
                assert tree_key(t) == want, (g.edges, alpha)


def test_fiber_element_refinement_independent(corpus_graphs):
    """t_alpha does not depend on the order in which a block's edges are
    contracted: the flow-chart oracle, fed shuffled orders, agrees."""
    rng = random.Random(8)
    for name, g in sorted(corpus_graphs.items()):
        parts = enumerate_topartitions(g.n)
        for _ in range(10):
            alpha = rng.choice(parts)
            blocks = [ids(b) for b in alpha]
            order = []
            for block in blocks:
                shuffled = list(block)
                rng.shuffle(shuffled)
                order.extend(shuffled)
            t = fiber_element(g, alpha)
            want = contracted_tree_key(g.edges, blocks, order)
            assert t.degenerate == (want is None), (name, order)
            if want is not None:
                assert tree_key(t) == want, (name, order)


def test_nondegenerate_sign_tracks_block_order(corpus_graphs):
    g = corpus_graphs["path3"]
    a = fiber_element(g, parse_topartition("1>3>2").blocks)
    b = fiber_element(g, parse_topartition("3>1>2").blocks)
    assert tree_key(a) == tree_key(b)
    assert a.sign == -b.sign


# ------------------------------------------------------------ build_fiber


def test_pentagon_dimensions(corpus_fibers):
    fib = corpus_fibers["path3"]
    assert {r: fib.complex.dim(r) for r in fib.complex.degrees()} == {-1: 1, -2: 5, -3: 5}


def test_fiber_dims_match_independent_oracle(corpus_graphs, corpus_fibers):
    for name in ("path2", "path3", "path4", "star3", "star4", "cycle3",
                 "cycle4", "theta", "twoloop"):
        oracle = fiber_tree_sets(corpus_graphs[name].edges)
        fib = corpus_fibers[name]
        got = {-r: fib.complex.dim(r) for r in fib.complex.degrees()}
        assert got == {k: len(v) for k, v in oracle.items()}, name
        # the actual trees agree, not just their counts
        ours = {}
        for lab, tree in fib.trees.items():
            ours.setdefault(len(tree.blocks), set()).add(tree_key(tree))
        assert ours == oracle, name


def test_fiber_dims_match_nested_set_counts(corpus_graphs, corpus_fibers):
    assert len(corpus_fibers) == 14
    for name, fib in sorted(corpus_fibers.items()):
        got = {-r: fib.complex.dim(r) for r in fib.complex.degrees()}
        assert got == nested_set_counts(corpus_graphs[name].edges), name
        assert len(fib.images) == nondegenerate_count(corpus_graphs[name].edges), name


def test_fiber_trees_biject_onto_nested_sets(corpus_graphs, corpus_fibers):
    """A tree is the family of its subtree edge sets, a nested set of
    the size of its block count, and every nested set arises once."""
    assert len(corpus_fibers) == 14
    for name, fib in sorted(corpus_fibers.items()):
        families = {subtree_edge_sets(tree) for tree in fib.trees.values()}
        assert len(families) == len(fib.trees), name
        assert families == set(nested_sets(corpus_graphs[name].edges)), name


def assert_fiber_is_its_face_lattice(fib, context):
    """A fiber's degree -k basis is the nested sets of size k of its line
    graph's graph associahedron, read off the labels alone, and the
    column of N holds +-1 at exactly the nested sets with one more
    member that contain N."""
    families = assert_fiber_columns_cover(fib.complex, context)
    assert set(families) == set(nested_sets(fib.graph.edges)), context


def assert_fiber_columns_cover(c, context) -> list:
    """The half of ``assert_fiber_is_its_face_lattice`` linear in the
    cells and entries of the fiber complex c, without the nested-set
    oracle: the degree -k labels read as distinct families of k edge
    sets, and the column of N holds +-1 at exactly the families N + {S}
    of the degree below, found by dropping each member of each of them.
    Returns every family.  Equal members are held once."""
    members: dict = {}
    families = {r: [frozenset(members.setdefault(s, s) for s in nested_set_of(label))
                    for label in c.labels(r)] for r in c.degrees()}
    assert all(len(family) == -r for r in families for family in families[r]), context
    covers = {family: set() for r in families for family in families[r]}
    assert len(covers) == sum(map(len, families.values())), context
    for r in families:
        for i, family in enumerate(families[r]):
            for member in family:
                covered = covers.get(family - {member})
                if covered is not None:
                    covered.add(i)
    for r in c.degrees():
        for j, column in enumerate(c.d(r).columns):
            assert set(column.values()) <= {1, -1}, (context, r, j)
            assert set(column) == covers[families[r][j]], (context, c.labels(r)[j])
    return list(covers)


@pytest.mark.slow
@pytest.mark.parametrize("name, edges", [
    ("path8", [(v, v + 1) for v in range(8)]),
    ("path9", [(v, v + 1) for v in range(9)]),
    ("cycle9", [(v, (v + 1) % 9) for v in range(9)])])
def test_north_star_fibers_are_their_face_lattices(name, edges):
    """The covering half of the face-lattice check at north-star size:
    the 8- and 9-edge paths and the 9-edge cycle, 20,793, 103,049 and
    265,729 cells."""
    c = build_fiber(MultiGraph.from_edges(edges)).complex
    assert len(assert_fiber_columns_cover(c, name)) == {
        "path8": 20_793, "path9": 103_049, "cycle9": 265_729}[name]


@pytest.mark.slow
def test_p8_is_its_face_lattice():
    assert_perm_is_its_face_lattice(build_perm(8))


def assert_perm_is_its_face_lattice(perm):
    """A column of P_n, read off the labels alone, holds +-1 at exactly
    the TO partitions that split one block in two, sum(2**|B| - 2) of
    them."""
    n, c = perm.n, perm.complex
    blocks: dict = {}   # block text -> its ids, held once
    cells = {r: [tuple(blocks.get(text) or blocks.setdefault(text, frozenset(map(int, text)))
                       for text in label.split(">"))
                 for label in c.labels(r)] for r in c.degrees()}
    for r in c.degrees():
        row_of = {alpha: i for i, alpha in enumerate(cells.get(r - 1, []))}
        for j, column in enumerate(c.d(r).columns):
            alpha = cells[r][j]
            want = {row_of[alpha[:i] + (part, block - part) + alpha[i + 1:]]
                    for i, block in enumerate(alpha)
                    for k in range(1, len(block))
                    for part in map(frozenset, combinations(sorted(block), k))}
            assert len(want) == sum(2 ** len(block) - 2 for block in alpha)
            assert set(column.values()) <= {1, -1}, (n, r, j)
            assert set(column) == want, (n, c.labels(r)[j])


def test_differentials_are_the_face_lattice(corpus_fibers, perms, perm7):
    """Each differential is the covering relation of its face lattice:
    every corpus fiber's, and P1-P7's."""
    for name, fib in sorted(corpus_fibers.items()):
        assert_fiber_is_its_face_lattice(fib, name)
    for perm in [*perms.values(), perm7]:
        assert_perm_is_its_face_lattice(perm)


def assert_clusters_match_oracle(g, context):
    """``g.line_graph()`` marks the edge pairs that share a vertex, and
    each entry of the cluster table for an edge of ``done`` is that
    edge's component among the edges of ``done``, by the oracle."""
    edges = range(1, g.n + 1)
    assert g.line_graph() == tuple(
        sum(1 << f - 1 for f in edges if len(edge_components(g.edges, {e, f})) == 1)
        for e in edges), context
    table = _cluster_table(g.line_graph())
    assert len(table) == 1 << g.n, context
    for done, row in enumerate(table):
        for part in edge_components(g.edges, ids(done)):
            mask = sum(1 << e - 1 for e in part)
            assert all(row[e - 1] == mask for e in part), (context, done, sorted(part))


def assert_equal_fibers(fib, other, context):
    """Equal complexes, and equal images and cells in the same order."""
    assert fib.complex == other.complex, context
    assert list(fib.images.items()) == list(other.images.items()), context
    assert list(fib.cells.items()) == list(other.cells.items()), context


def test_cluster_table_rows_are_edge_components(corpus_graphs):
    assert len(corpus_graphs) == 14
    for name, g in sorted(corpus_graphs.items()):
        assert_clusters_match_oracle(g, name)


def test_equal_line_graphs_build_equal_fibers(corpus_graphs, corpus_fibers):
    """A fiber is read off the line graph alone: the triangle, the
    3-star and the theta graph have one line graph, as have the 2-path
    and the 2-star, and each group builds one fiber."""
    for first, *rest in (("cycle3", "star3", "theta"), ("path2", "star2")):
        for name in rest:
            assert corpus_graphs[name].line_graph() == corpus_graphs[first].line_graph()
            assert_equal_fibers(corpus_fibers[name], corpus_fibers[first], name)
    assert len({g.line_graph() for g in corpus_graphs.values()}) == 11


def test_equal_line_graphs_share_one_cluster_table(corpus_graphs):
    """The cluster table is keyed by the line graph, not by the graph:
    the triangle, the 3-star and the theta graph get one table object,
    the 2-path and the 2-star another, and the 3-path its own."""
    def table(name):
        return _cluster_table(corpus_graphs[name].line_graph())

    assert table("cycle3") is table("star3") is table("theta")
    assert table("path2") is table("star2")
    assert table("path3") is not table("cycle3")


def test_multigraph_is_a_record_of_its_edges():
    """A graph is its edges and nothing derived: it compares, hashes,
    pickles and reprs by them, equals the tuple ``(edges,)``, and
    ``from_edges`` refuses what it refused."""
    g = MultiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
    same = MultiGraph(((0, 1), (1, 2), (2, 0)))
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != MultiGraph(((0, 1), (1, 2), (0, 2)))
    assert repr(g) == "MultiGraph(edges=((0, 1), (1, 2), (2, 0)))"
    assert pickle.loads(pickle.dumps(g)) == g
    assert g == (g.edges,) and g._replace(edges=((0, 0),)).n == 1
    assert not hasattr(g, "__dict__")
    assert (g.n, g.vertices(), g.is_connected()) == (3, {0, 1, 2}, True)
    for edges, message in (([], "graph needs at least one edge"),
                           ([(0, -1)], "vertex ids must be nonnegative integers"),
                           ([(0, True)], "vertex ids must be nonnegative integers"),
                           ([(0, 1.0)], "vertex ids must be nonnegative integers"),
                           ([(0, 1), (2, 3)], "graph is not connected")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultiGraph.from_edges(edges)


def test_fiber_d_squared_and_width_filtration(corpus_fibers):
    for name, fib in sorted(corpus_fibers.items()):
        assert verify_d_squared(fib.complex).passed, name
        for r in fib.complex.degrees():
            for lab, level in zip(fib.complex.labels(r), fib.complex.levels[r]):
                assert level == fib.trees[lab].width


def test_degenerate_pushforward_vanishes(corpus_graphs, corpus_fibers):
    from permfiber.fiber import pushforward
    for name in ("path3", "path4", "cycle4", "twoloop"):
        g = corpus_graphs[name]
        images = corpus_fibers[name].images
        for alpha in enumerate_topartitions(g.n):
            if fiber_element(g, alpha).degenerate:
                assert pushforward(alpha, images) == {}, (name, alpha)


def test_pushforward_is_the_label_differential_sent_through_images(corpus_fibers):
    """For every corpus fiber and every alpha in its ``images``,
    ``pushforward`` is alpha's column of P_n's differential, built from
    labels alone (``oracles.perm_differential``), sent through
    ``images``.  The columns come from an independent construction, so
    a fault that scales every pushed-forward entry alike fails here."""
    from permfiber.fiber import pushforward
    columns = {}   # n -> block masks of alpha -> [(block masks of beta, value)]
    for name, fib in sorted(corpus_fibers.items()):
        if fib.n not in columns:
            basis, d = perm_differential(fib.n)
            masks = {label: tuple(sum(1 << int(x) - 1 for x in part)
                                  for part in label.split(">"))
                     for labels in basis.values() for label in labels}
            columns[fib.n] = by_alpha = {}
            for r, entries in d.items():
                for (i, j), v in entries.items():
                    by_alpha.setdefault(masks[basis[r][j]], []).append(
                        (masks[basis[r - 1][i]], v))
        checked = 0
        for alpha in fib.images:
            want: dict = {}
            for beta, v in columns[fib.n].get(alpha, ()):
                hit = fib.images.get(beta)
                if hit is not None:
                    want[hit[0]] = want.get(hit[0], 0) + v * hit[1]
            assert pushforward(alpha, fib.images) == {
                row: v for row, v in want.items() if v}, (name, alpha)
            checked += 1
        assert checked == len(fib.images) > 0, name


def _image_label(fib, blocks) -> str:
    """The label of the tree that ``fib.images`` sends ``blocks`` to."""
    return fib.complex.labels(-len(blocks))[fib.images[blocks][0]]


def test_images_record_every_nondegenerate_fiber_element(corpus_fibers):
    for name, fib in sorted(corpus_fibers.items()):
        want = {}
        for alpha in enumerate_topartitions(fib.n):
            t = fiber_element(fib.graph, alpha)
            if not t.degenerate:
                r = -len(alpha)
                want[alpha] = (fib.complex.labels(r).index(t.canonical().label()), t.sign)
        assert fib.images == want, name
        assert {_image_label(fib, b) for b in fib.images} == set(fib.trees), name


def test_build_fiber_enumerates_no_topartitions(monkeypatch, corpus_graphs,
                                                corpus_fibers):
    """The builder walks block prefixes, never all Fubini(n) TO partitions."""
    import permfiber.fiber as fiber
    import permfiber.topartitions as topartitions

    def refuse(n):
        raise AssertionError(f"enumerated the TO partitions of 1..{n}")

    monkeypatch.setattr(topartitions, "enumerate_topartitions", refuse)
    monkeypatch.setattr(fiber, "enumerate_topartitions", refuse, raising=False)
    for name in ("path4", "cycle4"):
        fib, want = build_fiber(corpus_graphs[name]), corpus_fibers[name]
        assert fib.images == want.images, name
        assert fib.trees == want.trees, name
        assert fib.complex == want.complex, name
        assert fib.cells == want.cells, name


def test_fiber_build_makes_no_tree(monkeypatch, capsys, corpus_dir, corpus_graphs):
    """A suite run and the fiber builds make no FiberTree: only labels are
    rendered.  ``trees`` is built from the canonical representatives on
    first read."""
    import permfiber.fiber as fiber
    from permfiber.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("built a FiberTree")

    monkeypatch.setattr(fiber, "_canonical_tree", refuse, raising=False)
    monkeypatch.setattr(fiber.FiberTree, "__init__", refuse)
    assert main(["suite", "--corpus", str(corpus_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result: PASS"
    fibers = {name: build_fiber(g) for name, g in corpus_graphs.items()}
    monkeypatch.undo()
    for name, fib in fibers.items():
        g = corpus_graphs[name]
        want = [fiber_element(g, rep).canonical()
                for reps in fib.cells.values() for rep in reps]
        assert fib.trees == {t.label(): t for t in want}, name
        assert len(fib.trees) == len(want), name
        assert fib.trees is fib.trees, name


def test_quotients_and_maps_build_without_differential_terms(
        monkeypatch, corpus_graphs, corpus_fibers, perms):
    """P_n, a fiber and its three maps find every row from block masks
    (``topartitions.splits`` and the images), never from the TOPartition
    terms of ``differential_terms``."""
    import sys
    import permfiber.topartitions as topartitions

    def refuse(alpha):
        raise AssertionError(f"differential_terms({alpha.label()})")

    real = topartitions.differential_terms
    bound = [module for name, module in sorted(sys.modules.items())
             if (name == "permfiber" or name.startswith("permfiber."))
             and getattr(module, "differential_terms", None) is real]
    assert topartitions in bound
    for module in bound:
        monkeypatch.setattr(module, "differential_terms", refuse)
    perm, simplex = build_perm(4), build_simplex(4)
    fib = build_fiber(corpus_graphs["cycle4"])
    assert perm.complex == perms[4].complex
    assert fib.complex == corpus_fibers["cycle4"].complex
    for f in (perm_to_simplex(perm, simplex), perm_to_fiber(fib, perm),
              fiber_to_simplex(fib, simplex)):
        assert verify_chain_map(f).passed
    assert push_forward_well_defined(fib).passed


def test_map_builders_refuse_another_n(corpus_fibers, perms, simplexes):
    """A map between complexes of different n is refused, naming both
    sizes, rather than built as a zero map or into the wrong simplex."""
    fib, path2 = corpus_fibers["path3"], corpus_fibers["path2"].graph
    for build, message in (
            (lambda: perm_to_fiber(fib, perms[4]),
             "perm_to_fiber needs P_3 for a fiber of 3 edges, got P_4"),
            (lambda: fiber_to_simplex(fib, simplexes[4]), "fiber_to_simplex needs the "
             "simplex on 3 vertices for a fiber of 3 edges, got 4 vertices"),
            (lambda: fiber_to_simplex(fib, simplexes[2]), "fiber_to_simplex needs the "
             "simplex on 3 vertices for a fiber of 3 edges, got 2 vertices"),
            (lambda: perm_to_simplex(perms[3], simplexes[4]), "perm_to_simplex needs the "
             "simplex on 3 vertices for P_3, got 4 vertices"),
            (lambda: fiber_element(fib.graph, TOPartition.of(2, [1], [2]).blocks),
             "blocks (1, 2) do not partition the 3 edges"),
            # overlapping and empty blocks, on the 2-edge path
            (lambda: fiber_element(path2, (1, 1, 1)),
             "blocks (1, 1, 1) do not partition the 2 edges"),
            (lambda: fiber_element(path2, (3, 0)),
             "blocks (3, 0) do not partition the 2 edges")):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_passing_chain_map_check_forms_no_whole_product(
        capsys, monkeypatch, corpus_dir, corpus_fibers, perms, simplexes):
    """A passing ``verify_chain_map`` compares d.f with f.d one column at
    a time, and the factorization check compares the blow-down with
    fiber->simplex after perm->fiber the same way, so ``multiply`` may
    raise in every ``permfiber`` namespace that binds it: on P4's
    blow-down, on path3's two maps and in a passing suite run."""
    from permfiber.cli import main
    import sys
    import permfiber.linalg as linalg

    def refuse(a, b):
        raise AssertionError(f"multiply({a.rows}x{a.cols}, {b.rows}x{b.cols})")

    bound = [module for name, module in sorted(sys.modules.items())
             if (name == "permfiber" or name.startswith("permfiber."))
             and getattr(module, "multiply", None) is linalg.multiply]
    assert linalg in bound
    for module in bound:
        monkeypatch.setattr(module, "multiply", refuse)
    fib = corpus_fibers["path3"]
    for f in (perm_to_simplex(perms[4], simplexes[4]), perm_to_fiber(fib, perms[3]),
              fiber_to_simplex(fib, simplexes[3])):
        assert verify_chain_map(f).passed, f.note
    assert main(["suite", "--corpus", str(corpus_dir)]) == 0
    assert capsys.readouterr().out.count("factorization=true") == 14


def test_build_fiber_leaves_no_garbage_cycles(corpus_graphs):
    """Nothing build_fiber makes waits for the cyclic collector: state
    held in a reference cycle outlives the build, so the fibers of a
    suite run pile up in memory between collections."""
    import gc
    gc.collect()
    gc.disable()
    try:
        for name in ("path4", "cycle4", "twoloop"):
            build_fiber(corpus_graphs[name])
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def assert_built_from_representatives(fib, name):
    """The cells of each degree are the canonical representatives of its
    trees in basis order, and each basis label is the recursive rendering
    ``FiberTree.label`` of its tree."""
    assert len(fib.trees) == sum(map(fib.complex.dim, fib.complex.degrees())), name
    for r in fib.complex.degrees():
        labels = fib.complex.labels(r)
        assert fib.cells[r] == tuple(canonical_representative(fib.trees[lab])
                                     for lab in labels), (name, r)
        assert [fib.trees[lab].label() for lab in labels] == list(labels), (name, r)


def test_first_alpha_of_each_tree_is_its_canonical_representative(
        monkeypatch, corpus_graphs, corpus_fibers, perms, simplexes):
    """The walk reaches each tree first at its least linear extension by
    least edges, its canonical representative, and builds the tree and
    its label from that alpha alone: neither the build nor the maps call
    the per-tree helpers, which stay as the oracles checked against."""
    import permfiber.fiber as fiber

    def refuse(*args):
        raise AssertionError("per-tree helper called")

    for name in ("_tree", "canonical_representative"):
        monkeypatch.setattr(fiber, name, refuse)
    for name in ("label", "canonical"):
        monkeypatch.setattr(fiber.FiberTree, name, refuse)
    fib = build_fiber(corpus_graphs["cycle4"])
    perm_to_fiber(fib, perms[4])
    fiber_to_simplex(fib, simplexes[4])
    push_forward_well_defined(fib)
    koszul_check(fib)
    monkeypatch.undo()
    assert fib.cells == corpus_fibers["cycle4"].cells
    assert len(corpus_fibers) == 14
    for name, fib in sorted(corpus_fibers.items()):
        assert_built_from_representatives(fib, name)


def test_cells_are_block_tuples(perms, corpus_fibers):
    """P_n's and every fiber's cells are tuples of block masks, and a
    fiber's cells are the very tuples that key its ``images``, each at
    its own row with some sign."""
    for n in range(1, 7):
        for alphas in perms[n].cells.values():
            assert all(type(alpha) is tuple and all(type(b) is int for b in alpha)
                       for alpha in alphas), n
    for name, fib in sorted(corpus_fibers.items()):
        keys = set(map(id, fib.images))
        for r, alphas in fib.cells.items():
            for j, alpha in enumerate(alphas):
                assert type(alpha) is tuple and all(type(b) is int for b in alpha), name
                assert fib.images[alpha][0] == j and id(alpha) in keys, (name, r, j)


def test_fiber_cap_enforced(monkeypatch):
    import permfiber.fiber as fiber

    def refuse(g):
        raise AssertionError("built the cluster table of a graph above the cap")

    monkeypatch.setattr(fiber, "_cluster_table", refuse)
    g = MultiGraph.from_edges((v, v + 1) for v in range(10))
    with pytest.raises(ValueError, match="graph has 10 edges, above the cap 9"):
        build_fiber(g)


def test_fiber_budget_refuses_exactly_the_graphs_past_it(monkeypatch, corpus_graphs):
    """With both budgets set low, build_fiber refuses exactly the corpus
    graphs whose tree count (the nested sets) or nondegenerate order
    count exceeds them, naming the bound; at a graph's own counts it
    builds, and one below either count it is refused."""
    import permfiber.fiber as fiber
    counts = {name: (sum(nested_set_counts(g.edges).values()), nondegenerate_count(g.edges))
              for name, g in corpus_graphs.items()}

    def refusal(g, trees, orders):
        monkeypatch.setattr(fiber, "TREE_BUDGET", trees)
        monkeypatch.setattr(fiber, "ORDER_BUDGET", orders)
        try:
            fib = build_fiber(g)
        except FiberTooLarge as exc:
            return str(exc)
        assert sum(map(len, fib.cells.values())) <= trees and len(fib.images) <= orders
        return None

    for low in ((60, 10**9), (10**9, 60), (60, 100)):
        refused = {name for name, g in corpus_graphs.items() if refusal(g, *low)}
        assert refused == {name for name, (trees, orders) in counts.items()
                           if trees > low[0] or orders > low[1]}, low
        assert "cycle4" in refused and "path4" not in refused, low
    for name, (trees, orders) in sorted(counts.items()):
        g = corpus_graphs[name]
        assert refusal(g, trees, orders) is None, name
        assert refusal(g, trees - 1, orders) == (
            f"fiber has more than the budget of {trees - 1} trees"), name
        assert refusal(g, trees, orders - 1) == (
            f"fiber has more than the budget of {orders - 1} nondegenerate orders"), name


def test_fiber_budget_admits_every_graph_of_8_edges():
    """A fiber's trees are at most its nondegenerate orders, which are TO
    partitions of its edges, so a graph with n edges has at most
    Fubini(n) of each.  Both budgets are at least Fubini(8), the 8-edge
    star's P8, so no graph with 8 edges or fewer reaches them."""
    import permfiber.fiber as fiber
    assert fiber.TREE_BUDGET == fubini(8) == 545_835
    assert fiber.ORDER_BUDGET >= fiber.TREE_BUDGET


@pytest.mark.slow
def test_the_9_edge_cycle_builds_within_the_budget():
    """The 9-edge cycle builds with no flag: 265,729 trees reached by
    2,345,851 nondegenerate orders, under the order budget."""
    fib = build_fiber(MultiGraph.from_edges((v, (v + 1) % 9) for v in range(9)))
    assert sum(map(len, fib.cells.values())) == 265_729
    assert len(fib.images) == 2_345_851
    assert verify_d_squared(fib.complex).passed


def test_canonical_representative_round_trip(corpus_fibers):
    for name, fib in sorted(corpus_fibers.items()):
        for lab, tree in fib.trees.items():
            alpha = canonical_representative(tree)
            again = fiber_element(fib.graph, alpha)
            assert not again.degenerate
            assert tree_key(again) == tree_key(tree)
            # blocks listed children before parents: root comes last
            assert alpha[-1] == tree.root_block


# -------------------------------------------------------------- the maps


def test_perm_to_fiber_path3(perms, corpus_fibers):
    fib = corpus_fibers["path3"]
    f = perm_to_fiber(fib, perm=perms[3])
    assert f.shift == -3
    report = verify_chain_map(f)
    assert report.passed
    assert is_surjective(f)
    # degenerate partition maps to zero
    col = perms[3].complex.labels(1).index("13>2")
    m = f.matrix(1)
    assert all(m.get(i, col) == 0 for i in range(m.rows))
    cone = mapping_cone(f)
    assert all(v == 0 for v in homology_dims(cone).values())


def test_perm_to_fiber_star_bijective(perms, corpus_fibers):
    for n, name in ((2, "star2"), (3, "star3"), (4, "star4")):
        fib = corpus_fibers[name]
        f = perm_to_fiber(fib, perm=perms[n])
        assert verify_chain_map(f).passed
        for r in perms[n].complex.degrees():
            m = f.matrix(r)
            assert m.rows == m.cols
            assert m.nnz == m.rows
            assert len({i for (i, _), _ in m.items()}) == m.rows
            assert all(m.columns)


def test_perm_to_fiber_preserves_width(perms, corpus_fibers):
    for name in ("path4", "cycle4", "twoloop"):
        fib = corpus_fibers[name]
        n = fib.n
        f = perm_to_fiber(fib, perm=perms[n])
        for r, m in f.matrices.items():
            src = perms[n].complex.levels[r]
            tgt = fib.complex.levels[r - n]
            for (i, j), _ in m.items():
                assert tgt[i] == src[j]


def test_fiber_to_simplex_rules(corpus_fibers, simplexes):
    fib = corpus_fibers["path3"]
    g = fiber_to_simplex(fib, simplex=simplexes[3])
    assert g.shift == 3
    assert verify_chain_map(g).passed
    assert is_surjective(g)
    top_label = "({123})"
    col = fib.complex.labels(-1).index(top_label)
    m = g.matrix(-1)
    assert abs(m.get(0, col)) == 1  # the full set row at simplex degree 2
    # a tree with a non-singleton non-root block dies
    lab = "({1} ({23}))"
    col = fib.complex.labels(-2).index(lab)
    m2 = g.matrix(-2)
    assert all(m2.get(i, col) == 0 for i in range(m2.rows))


def test_factorization_through_fiber(perms, simplexes, corpus_fibers):
    for name in ("path3", "star3", "theta", "cycle3"):
        fib = corpus_fibers[name]
        n = fib.n
        f = perm_to_fiber(fib, perm=perms[n])
        g = fiber_to_simplex(fib, simplex=simplexes[n])
        p2s = perm_to_simplex(perms[n], simplexes[n])
        for r in perms[n].complex.degrees():
            composite = dense_multiply(g.matrix(r + f.shift).dense(), f.matrix(r).dense())
            assert composite == p2s.matrix(r).dense(), (name, r)
        assert verify_factorization(p2s, g, f).passed, name


def test_factorization_names_the_first_cell_that_differs(perms, simplexes,
                                                         corpus_fibers):
    """With one entry of fiber->simplex negated or dropped, the column-
    by-column check fails exactly where the whole dense product g after f
    differs from the blow-down, and names the same degree and cell."""
    dense = DenseProducts()
    for name in ("path3", "theta", "star3"):
        fib = corpus_fibers[name]
        n = fib.n
        f = perm_to_fiber(fib, perm=perms[n])
        g = fiber_to_simplex(fib, simplex=simplexes[n])
        h = perm_to_simplex(perms[n], simplexes[n])
        for r, m in g.matrices.items():
            for key, value in m.items():
                for new in (-value, 0):
                    entries = dict(m.items())
                    entries[key] = new
                    broken = ChainMap.build(g.source, g.target, g.shift, {
                        **g.matrices,
                        r: SparseMatrix.from_entries(m.rows, m.cols, entries)})
                    assert verify_factorization(h, broken, f) \
                        == dense.factorization(h, broken, f), (name, r, key, new)


def test_factorization_refuses_maps_that_do_not_form_a_triangle(perms, simplexes,
                                                                corpus_fibers):
    fib = corpus_fibers["path3"]
    f = perm_to_fiber(fib, perm=perms[3])
    g = fiber_to_simplex(fib, simplex=simplexes[3])
    h = perm_to_simplex(perms[3], simplexes[3])
    for triangle in ((h, f, g), (g, g, f), (f, g, f),
                     (perm_to_simplex(perms[2], simplexes[2]), g, f)):
        with pytest.raises(ValueError, match="do not form a triangle"):
            verify_factorization(*triangle)


class DenseProducts:
    """The reports of the chain-map and factorization checks, read off
    whole triple-loop products.  A product is kept under the identity of
    its two factors, which it holds, so a map with one matrix replaced
    forms only the products that matrix enters."""

    def __init__(self):
        self.kept = {}

    def product(self, a: SparseMatrix, b: SparseMatrix) -> list:
        key = (id(a), id(b))
        if key not in self.kept:
            dense = (dense_multiply(a.dense(), b.dense()) if a.nnz and b.nnz
                     else [[0] * b.cols for _ in range(a.rows)])
            self.kept[key] = (a, b, dense)
        return self.kept[key][2]

    @staticmethod
    def first_column(left: list, right: list, cols: int):
        return next((j for j in range(cols)
                     if any(row_l[j] != row_r[j] for row_l, row_r in zip(left, right))),
                    None)

    def chain_map(self, f: ChainMap) -> ChainMapReport:
        for r in f.source.degrees():
            j = self.first_column(self.product(f.target.d(r + f.shift), f.matrix(r)),
                                  self.product(f.matrix(r - 1), f.source.d(r)),
                                  f.source.dim(r))
            if j is not None:
                return ChainMapReport(False, r, f.source.labels(r)[j])
        return ChainMapReport(True)

    def factorization(self, h: ChainMap, g: ChainMap, f: ChainMap) -> ChainMapReport:
        for r in f.source.degrees():
            j = self.first_column(self.product(g.matrix(r + f.shift), f.matrix(r)),
                                  h.matrix(r).dense(), f.source.dim(r))
            if j is not None:
                return ChainMapReport(False, r, f.source.labels(r)[j])
        return ChainMapReport(True)


def extreme_flips(f: ChainMap):
    """f with the least, then the greatest (row, col) entry of one of its
    matrices negated, for each matrix in degree order."""
    for r, m in sorted(f.matrices.items()):
        keys = sorted(dict(m.items()))
        for key in sorted({keys[0], keys[-1]}):
            entries = dict(m.items())
            entries[key] = -entries[key]
            yield ChainMap.build(f.source, f.target, f.shift, {
                **f.matrices, r: SparseMatrix.from_entries(m.rows, m.cols, entries)})


def refuses_a_two_entry_column(f: ChainMap) -> int:
    """Assert that ``ChainMap.build`` refuses f with a second entry, 1 in
    the next row round, added to the first one-entry column of its
    lowest degree with more than one row, and names that degree; the
    degree."""
    r, m = next((r, m) for r, m in sorted(f.matrices.items()) if m.rows > 1)
    j, column = next((j, column) for j, column in enumerate(m.columns) if column)
    [i] = column
    entries = {**dict(m.items()), ((i + 1) % m.rows, j): 1}
    with pytest.raises(ValueError, match=rf"^map matrix at degree {r} has a column "
                                         "with two or more entries$"):
        ChainMap.build(f.source, f.target, f.shift, {
            **f.matrices, r: SparseMatrix.from_entries(m.rows, m.cols, entries)})
    return r


def test_map_checks_match_dense_products_under_extreme_flips(perms, simplexes,
                                                             corpus_fibers):
    """With the least or the greatest entry of one map matrix negated,
    ``verify_chain_map`` and ``verify_factorization`` return the reports
    of the whole dense products, witness included: on the blow-downs of
    P3-P5, and on perm->fiber, fiber->simplex and the factorization of
    the blow-down through them for every corpus fiber of 3 to 5 edges.
    A map with one two-entry column added is refused where it is built,
    with its degree named."""
    dense = DenseProducts()
    blowdowns = {n: perm_to_simplex(perms[n], simplexes[n]) for n in (3, 4, 5)}
    reports = []
    for h in blowdowns.values():
        assert verify_chain_map(h) == dense.chain_map(h) == ChainMapReport(True)
        for broken in extreme_flips(h):
            reports.append(verify_chain_map(broken))
            assert reports[-1] == dense.chain_map(broken), broken.note
    fibers = [fib for fib in corpus_fibers.values() if 3 <= fib.n <= 5]
    for fib in fibers:
        n = fib.n
        h = blowdowns[n]
        f = perm_to_fiber(fib, perm=perms[n])
        g = fiber_to_simplex(fib, simplex=simplexes[n])
        assert verify_factorization(h, g, f) == dense.factorization(h, g, f) \
            == ChainMapReport(True)
        triangles = [(h, g, broken, broken) for broken in extreme_flips(f)]
        triangles += [(h, broken, f, broken) for broken in extreme_flips(g)]
        triangles += [(broken, g, f, None) for broken in extreme_flips(h)]
        for h_, g_, f_, broken in triangles:
            if broken is not None:
                reports.append(verify_chain_map(broken))
                assert reports[-1] == dense.chain_map(broken), (fib.graph.edges, broken.note)
            reports.append(verify_factorization(h_, g_, f_))
            assert reports[-1] == dense.factorization(h_, g_, f_), fib.graph.edges
    assert len(fibers) == 11 and len(reports) == 396
    assert {report.passed for report in reports} == {True, False}
    refused = [refuses_a_two_entry_column(h) for h in blowdowns.values()]
    for fib in fibers:
        refused += [refuses_a_two_entry_column(f) for f in (
            blowdowns[fib.n], fiber_to_simplex(fib, simplex=simplexes[fib.n]),
            perm_to_fiber(fib, perm=perms[fib.n]))]
    assert len(refused) == 3 + 3 * len(fibers)


def test_passing_checks_form_no_product_column(capsys, monkeypatch, corpus_dir):
    """The chain-map and factorization checks of a passing suite run read
    row tables, and its d^2 checks compare products through
    ``linalg.product_vanishes``, none forming a product column, so
    ``_times`` may raise in every ``permfiber`` namespace that binds it."""
    from permfiber.cli import main
    import sys
    import permfiber.linalg as linalg

    def refuse(a, column):
        raise AssertionError(f"_times({a.rows}x{a.cols}, {column})")

    bound = [module for name, module in sorted(sys.modules.items())
             if (name == "permfiber" or name.startswith("permfiber."))
             and getattr(module, "_times", None) is linalg._times]
    assert linalg in bound
    for module in bound:
        monkeypatch.setattr(module, "_times", refuse)
    assert main(["suite", "--corpus", str(corpus_dir)]) == 0
    assert capsys.readouterr().out.count("factorization=true") == 14


# ------------------------------------------------ well-definedness, pages


def test_push_forward_well_defined_star_vacuous(corpus_fibers):
    fib = corpus_fibers["star3"]
    # one representative per tree: images is a bijection onto the trees
    labels = [_image_label(fib, b) for b in fib.images]
    assert sorted(labels) == sorted(fib.trees)
    report = push_forward_well_defined(fib)
    assert report.passed and report.checked == 13 and report.label is None


def test_push_forward_well_defined_theta_and_paths(corpus_fibers):
    for name in ("theta", "path3", "path4"):
        fib = corpus_fibers[name]
        report = push_forward_well_defined(fib)
        assert report.passed, (name, report.label, report.detail)
        assert report.checked == len(fib.images), name


def test_class_test_matches_the_cone_on_every_fiber(perms, simplexes, corpus_fibers):
    """The class test agrees with the cone on both maps of every corpus
    fiber.  The row tables that the three map builders hand the
    ``ChainMap`` constructor unvalidated are the ones ``ChainMap.build``
    reads off their matrices."""
    for name, fib in sorted(corpus_fibers.items()):
        for f in (perm_to_fiber(fib, perms[fib.n]),
                  fiber_to_simplex(fib, simplexes[fib.n])):
            cone_acyclic = all(v == 0 for v in homology_dims(mapping_cone(f)).values())
            assert quasi_isomorphism_report(f).passed is cone_acyclic is True, name
        for f in (perm_to_fiber(fib, perms[fib.n]), fiber_to_simplex(fib, simplexes[fib.n]),
                  perm_to_simplex(perms[fib.n], simplexes[fib.n])):
            assert ChainMap.build(f.source, f.target, f.shift, f.matrices, f.note) == f, name


def test_perm_to_fiber_commutes_exactly_when_well_defined(perms, corpus_fibers):
    """Column alpha of the commuting check of perm->fiber is the
    comparison push_forward_well_defined makes for alpha, so the two
    verdicts agree: on every corpus fiber, on path3 with any one entry
    of d flipped, and on path3 with the sign of any one alpha flipped."""
    cases = sorted(corpus_fibers.items())
    fib = corpus_fibers["path3"]
    c = fib.complex
    for r, d in sorted(c.differentials.items()):
        for key in sorted(dict(d.items())):
            entries = dict(d.items())
            entries[key] = -entries[key]
            diffs = {**c.differentials,
                     r: SparseMatrix.from_entries(d.rows, d.cols, entries)}
            cases.append((f"path3 d_{r}{key}", FiberComplex(
                fib.graph, ChainComplex.build(c.basis, diffs, c.levels), fib.images,
                fib.cells)))
    for blocks, (row, sign) in fib.images.items():
        cases.append((f"path3 {TOPartition(3, blocks).label()}", FiberComplex(
            fib.graph, fib.complex, {**fib.images, blocks: (row, -sign)}, fib.cells)))
    for name, case in cases:
        commutes = verify_chain_map(perm_to_fiber(case, perms[case.n])).passed
        assert commutes is push_forward_well_defined(case).passed, name
        assert commutes is (name in corpus_fibers), name


def test_push_forward_reports_the_tree_of_a_flipped_entry(corpus_fibers):
    fib = corpus_fibers["path3"]
    c = fib.complex
    d = c.d(-2)
    entries = dict(d.items())
    key = min(entries)
    entries[key] = -entries[key]
    diffs = dict(c.differentials)
    diffs[-2] = SparseMatrix.from_entries(d.rows, d.cols, entries)
    flipped = FiberComplex(fib.graph, ChainComplex.build(c.basis, diffs, c.levels),
                           fib.images, fib.cells)
    report = push_forward_well_defined(flipped)
    assert not report.passed
    assert report.label == c.labels(-2)[key[1]]
    assert report.detail.startswith("pushforward of ")
    # every representative met before the first failure agrees
    assert all(_image_label(fib, b) != report.label
               for b in list(fib.images)[:report.checked])


def test_koszul_check_path3(corpus_fibers):
    report = koszul_check(corpus_fibers["path3"])
    assert report.passed
    assert report.homology == {-1: 0, -2: 0, -3: 1}
    assert report.pages[1].dims == {(1, -4): 3, (2, -4): 3, (3, -4): 1}
    assert report.pages[2].dims == {(1, -4): 1}


def test_koszul_check_star4_pages_match_perm(perms, corpus_fibers):
    fib = corpus_fibers["star4"]
    assert koszul_check(fib).passed
    for r in (0, 1, 2):
        fiber_page = page_dims(fib.complex, r)
        perm_page = page_dims(perms[4].complex, r)
        # same tables after shifting the total degree by n
        shifted = {(p, q - 4): d for (p, q), d in perm_page.dims.items()}
        assert fiber_page.dims == shifted


def test_koszul_check_accepts_perm_complexes(perms):
    for n in range(1, 6):
        report = koszul_check(perms[n])
        assert report.passed, n
        assert report.homology == {r: int(r == 0) for r in range(n)}
        assert sorted(report.pages) == [1, 2]
        assert report.pages[1].dims == {(p, -1): comb(n, p) for p in range(1, n + 1)}
        assert report.pages[2].dims == {(1, -1): 1}


def test_koszul_single_edge_trivial(corpus_fibers):
    report = koszul_check(corpus_fibers["path1"])
    assert report.passed
    assert report.homology == {-1: 1}


def test_koszul_check_names_the_first_failing_part(perms):
    """d^2 first, then homology, then the least (p, q) at which E^1 or
    E^2 differs from its expected shape; a passing report names none."""
    c = perms[3].complex
    assert koszul_check(perms[3]).failure == ()
    flat = ChainComplex(c.basis, c.differentials, {r: (1,) * c.dim(r) for r in c.degrees()})
    report = koszul_check(perms[3]._replace(complex=flat))
    assert (report.d_squared_ok, report.homology_ok, report.e1_ok) == (True, True, False)
    assert report.failure == (1, (1, -1), 1, 3)
    cut = ChainComplex(c.basis, {2: c.d(2)}, c.levels)
    assert koszul_check(perms[3]._replace(complex=cut)).failure == ("homology", 0)
    top = dict(c.d(2).columns[0])
    top[0] = -top[0]
    broken = ChainComplex(c.basis, {**c.differentials,
                                    2: SparseMatrix(c.d(2).rows, (top,))}, c.levels)
    report = koszul_check(perms[3]._replace(complex=broken))
    assert not report.d_squared_ok and report.failure == ("d2",)
