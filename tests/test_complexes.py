import json
import re
from collections import Counter
from fractions import Fraction

import pytest

from permfiber.complexes import (
    ChainComplex,
    ChainMap,
    ChainMapReport,
    D2Report,
    complex_from_json,
    complex_json_pieces,
    complex_to_json,
    homology_dims,
    is_quasi_isomorphism,
    is_surjective,
    mapping_cone,
    page_dims,
    point_degree,
    quasi_isomorphism_report,
    unpaired_cells,
    verify_chain_map,
    verify_d_squared,
    verify_factorization,
)
from permfiber.fiber import MultiGraph, build_fiber
from permfiber.linalg import SparseMatrix
from permfiber.polytopes import build_perm, build_simplex

from oracles import (coreduction_critical_cells, dense_multiply, dense_rank,
                     page_dims_dense)


def identity_map(c: ChainComplex) -> ChainMap:
    return ChainMap.build(
        c, c, 0, {r: SparseMatrix.identity(c.dim(r)) for r in c.degrees()})


def stable_page_index(c: ChainComplex) -> int:
    """A page index from which the tables no longer change."""
    levels = [p for ps in c.levels.values() for p in ps]
    return max(levels) - min(levels) + 2


def point_complex(label="pt", degree=0):
    return ChainComplex.build({degree: (label,)}, {})


def interval_complex():
    # one 1-cell with two endpoint 0-cells, d(e) = b - a
    return ChainComplex.build(
        {0: ("a", "b"), 1: ("e",)},
        {1: SparseMatrix.from_entries(2, 1, {(0, 0): -1, (1, 0): 1})})


def flip_one_entry(c: ChainComplex, degree: int, key) -> ChainComplex:
    entries = dict(c.d(degree).items())
    entries[key] = -entries[key]
    diffs = dict(c.differentials)
    diffs[degree] = SparseMatrix.from_entries(
        c.dim(degree - 1), c.dim(degree), entries)
    return ChainComplex.build(c.basis, diffs, c.levels)


def test_single_element_zero_differential_passes():
    c = point_complex()
    assert verify_d_squared(c).passed
    assert homology_dims(c) == {0: 1}


def test_homology_with_empty_differentials_equals_basis_sizes():
    c = ChainComplex.build({0: ("x", "y"), 2: ("z",)}, {})
    assert homology_dims(c) == {0: 2, 2: 1}


def test_d_squared_on_perm4_and_a_sign_flip(perms):
    c = perms[4].complex
    assert verify_d_squared(c).passed
    key = next(iter(dict(c.d(2).items())))
    broken = flip_one_entry(c, 2, key)
    report = verify_d_squared(broken)
    assert not report.passed
    assert report.degree in (2, 3)
    assert report.entry is not None


def dense_d2_report(c: ChainComplex) -> D2Report:
    """The least entry of the lowest nonzero d_r d_{r+1}, by dense products."""
    for r in c.degrees():
        product = dense_multiply(c.d(r).dense(), c.d(r + 1).dense())
        nonzero = [(i, j) for i, row in enumerate(product)
                   for j, value in enumerate(row) if value]
        if nonzero:
            i, j = min(nonzero)
            return D2Report(False, r + 1,
                            (c.labels(r - 1)[i], c.labels(r + 1)[j], product[i][j]))
    return D2Report(True)


def test_d_squared_matches_dense_products_under_every_flip(perms, corpus_fibers):
    """The check applies d_r only to the pivot columns of d_{r+1}; with
    any one entry of any differential flipped, its verdict and witness
    are those of the whole dense products."""
    for c in (perms[4].complex, corpus_fibers["path3"].complex,
              corpus_fibers["theta"].complex):
        assert verify_d_squared(c) == dense_d2_report(c) == D2Report(True)
        for r, d in sorted(c.differentials.items()):
            for key in sorted(dict(d.items())):
                broken = flip_one_entry(c, r, key)
                assert verify_d_squared(broken) == dense_d2_report(broken), (r, key)


def test_d_squared_witness_forms_no_whole_product(monkeypatch, perms, corpus_fibers):
    """A failing d^2 check forms the lowest failing product one column at
    a time, so ``multiply`` may raise in every ``permfiber`` namespace
    that binds it, and still names the least (row, col) entry of that
    product: on two failing columns it is not in the first one."""
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
    two_columns = ChainComplex.build(
        {0: tuple(f"v{k}" for k in range(6)), 1: ("a", "b"), 2: ("s", "t")},
        {1: SparseMatrix(6, ({5: 1}, {2: 1})), 2: SparseMatrix(2, ({0: 1}, {1: 1}))})
    assert verify_d_squared(two_columns) == D2Report(False, 2, ("v2", "t", 1))
    for c in (perms[3].complex, perms[4].complex, corpus_fibers["cycle4"].complex):
        for r, d in sorted(c.differentials.items()):
            keys = sorted(dict(d.items()))
            for key in (keys[0], keys[-1]):
                broken = flip_one_entry(c, r, key)
                report = verify_d_squared(broken)
                assert not report.passed and report == dense_d2_report(broken), (r, key)


def test_homology_rejects_non_complex(perms):
    c = perms[3].complex
    key = next(iter(dict(c.d(1).items())))
    broken = flip_one_entry(c, 1, key)
    with pytest.raises(ValueError):
        homology_dims(broken)
    # pages too: the reduction clears columns only when d^2 = 0
    with pytest.raises(ValueError, match="not a chain complex"):
        page_dims(broken, 1)


def test_d_squared_verdict_is_cached(perms, monkeypatch):
    import permfiber.complexes as complexes
    c = ChainComplex.build(perms[3].complex.basis, perms[3].complex.differentials)
    products = []
    real = complexes.product_vanishes

    def counting(a, b, cols):
        products.append((a.rows, b.cols))
        return real(a, b, cols)

    monkeypatch.setattr(complexes, "product_vanishes", counting)
    first = verify_d_squared(c)
    computed = len(products)
    assert computed > 0
    homology_dims(c)
    assert verify_d_squared(c) is first
    assert len(products) == computed


def test_build_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ChainComplex.build({0: ("a",), 1: ("e",)},
                           {1: SparseMatrix.from_entries(3, 1, {(0, 0): 1})})
    # a row table has one entry per source cell, and is refused as its matrix
    c = ChainComplex.build({0: ("a", "b")}, {})
    for table in ([(0, 1)], [(0, 1), None, None]):
        with pytest.raises(ValueError, match=f"map matrix at degree 0 is "
                                             f"2x{len(table)}, expected 2x2"):
            ChainMap.build(c, c, 0, {0: table})


def test_build_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        ChainComplex.build({0: ("a",), 1: ("a",)}, {})


def test_build_refuses_a_label_that_is_not_a_string():
    """A label that is not a str used to build, and a mapping cone on the
    complex then raised a bare TypeError; the refusal names its degree."""
    for label in (1, None, b"a", ("a",)):
        with pytest.raises(ValueError) as refused:
            ChainComplex.build({0: ("a",), -2: ("b", label)}, {})
        assert str(refused.value) == f"basis label {label!r} at degree -2 is not a string"
    assert ChainComplex.build({0: ("1",)}, {}).labels(0) == ("1",)


def test_builders_refuse_a_degree_key_that_is_not_an_int():
    """A float or bool degree key used to be truncated onto an int degree:
    {1.5: a, True: b} built the basis {1: (b,)} and lost a, and a
    differential keyed 1.9 landed at degree 1.  Basis, differential,
    level and map-matrix keys are refused by name; a bool is not an int."""
    one = SparseMatrix.from_entries(1, 1, {(0, 0): 1})
    c = ChainComplex.build({0: ("a",), 1: ("b",)}, {1: one}, {0: (0,), 1: (0,)})
    refused = [
        (1.5, lambda: ChainComplex.build({1.5: ("a",), True: ("b",)}, {})),
        (True, lambda: ChainComplex.build({True: ("b",)}, {})),
        (0.5, lambda: ChainComplex.build({0: ("a",), 0.5: ()}, {})),
        ("1", lambda: ChainComplex.build({"1": ("a",)}, {})),
        (1.9, lambda: ChainComplex.build(c.basis, {1.9: one})),
        (False, lambda: ChainComplex.build(c.basis, c.differentials, {False: (0,), 1: (0,)})),
        (True, lambda: ChainMap.build(c, c, 0, {True: one})),
        (1.0, lambda: ChainMap.build(c, c, -1, {1.0: one})),
    ]
    for key, build in refused:
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == f"degree key {key!r} is not an int"
    assert ChainMap.build(c, c, -1, {1: one}).matrix(1) == one
    assert c.differentials == {1: one}


def assert_build_returns_it(c: ChainComplex, context) -> None:
    """``ChainComplex.build`` on c's parts returns c itself: the builder
    that made c handed the constructor what ``build`` would, a tuple of
    labels per nonempty degree, no zero matrix, and natural-number
    levels that d never raises."""
    assert ChainComplex.build(c.basis, c.differentials, c.levels) == c, context


def test_builders_hand_the_constructor_what_build_returns(perms, perm7, simplexes,
                                                           corpus_fibers):
    """P1-P7, the simplices on 1-8 vertices (every one the command line
    admits) and every corpus fiber; the Hypothesis graphs are checked in
    ``test_random_multigraph_fibers``, and P8 and the 9-edge fibers by a
    slow test."""
    for n, perm in [*perms.items(), (7, perm7)]:
        assert_build_returns_it(perm.complex, f"P{n}")
    for n in range(1, 9):
        simplex = simplexes.get(n) or build_simplex(n)
        assert_build_returns_it(simplex.complex, f"simplex {n}")
    for name, fib in sorted(corpus_fibers.items()):
        assert_build_returns_it(fib.complex, name)


@pytest.mark.slow
@pytest.mark.parametrize("name, edges", [
    ("P8", None),
    ("path8", [(v, v + 1) for v in range(8)]),
    ("path9", [(v, v + 1) for v in range(9)]),
    ("cycle9", [(v, (v + 1) % 9) for v in range(9)])])
def test_north_star_complexes_are_what_build_returns(name, edges):
    built = build_perm(8) if edges is None else build_fiber(MultiGraph.from_edges(edges))
    assert_build_returns_it(built.complex, name)


def test_chain_map_refuses_a_shift_that_is_not_an_int():
    """A shift of 0.5 read only empty target degrees, so the map passed
    ``verify_chain_map`` with nothing checked; a shift of True was kept
    as a bool.  Both are refused by name."""
    one = SparseMatrix.from_entries(1, 1, {(0, 0): 1})
    c = ChainComplex.build({0: ("a",), 1: ("b",)}, {1: one})
    for shift, matrices in ((0.5, {}), (True, {0: one})):
        with pytest.raises(ValueError) as error:
            ChainMap.build(c, c, shift, matrices)
        assert str(error.value) == f"shift {shift!r} is not an int"
    assert ChainMap.build(c, c, 0, {0: one}).shift == 0


def test_mapping_cone_of_identity_is_acyclic(perms):
    cone = mapping_cone(identity_map(perms[3].complex))
    assert all(v == 0 for v in homology_dims(cone).values())


def test_mapping_cone_of_zero_map_adds_homology():
    f = ChainMap.build(point_complex("p"), point_complex("q"), 0, {})
    cone = mapping_cone(f)
    h = homology_dims(cone)
    assert h == {0: 1, 1: 1}


def test_mapping_cone_rejects_non_chain_map():
    c = interval_complex()
    # a degree-0 endomorphism that swaps endpoints but fixes the edge
    f = ChainMap.build(c, c, 0, {
        0: SparseMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1}),
        1: SparseMatrix.identity(1)})
    assert not verify_chain_map(f).passed
    with pytest.raises(ValueError):
        mapping_cone(f)


def test_verify_chain_map_identity_and_flip(perms):
    ident = identity_map(perms[3].complex)
    assert verify_chain_map(ident).passed
    entries = dict(ident.matrix(1).items())
    key = next(iter(entries))
    entries[key] = -entries[key]
    matrices = dict(ident.matrices)
    matrices[1] = SparseMatrix.from_entries(
        ident.target.dim(1), ident.source.dim(1), entries)
    broken = ChainMap.build(ident.source, ident.target, 0, matrices)
    report = verify_chain_map(broken)
    assert not report.passed
    assert report.label is not None


def dense_chain_map_report(f: ChainMap) -> ChainMapReport:
    """The lowest degree, and in it the least source column, where
    d f != f d, by dense products."""
    def entry(product, i, j):
        return product[i][j] if product[i] else 0  # an empty inner dimension
    for r in f.source.degrees():
        lhs = dense_multiply(f.target.d(r + f.shift).dense(), f.matrix(r).dense())
        rhs = dense_multiply(f.matrix(r - 1).dense(), f.source.d(r).dense())
        for j in range(f.source.dim(r)):
            if any(entry(lhs, i, j) != entry(rhs, i, j)
                   for i in range(f.target.dim(r + f.shift - 1))):
                return ChainMapReport(False, r, f.source.labels(r)[j])
    return ChainMapReport(True)


def test_chain_map_witness_matches_dense_products(perms, simplexes, corpus_fibers):
    """With any one entry of a map flipped, the report names the lowest
    degree, and in it the least column, where the dense products of
    d f and f d differ."""
    from permfiber.fiber import fiber_to_simplex, perm_to_fiber
    fib = corpus_fibers["path3"]
    flips = 0
    for f in (identity_map(perms[4].complex), perm_to_fiber(fib, perms[3]),
              fiber_to_simplex(fib, simplexes[3])):
        assert verify_chain_map(f) == dense_chain_map_report(f) == ChainMapReport(True)
        for r, m in sorted(f.matrices.items()):
            for key, value in sorted(m.items()):
                entries = {**dict(m.items()), key: -value}
                broken = ChainMap.build(f.source, f.target, f.shift, {
                    **f.matrices, r: SparseMatrix.from_entries(m.rows, m.cols, entries)})
                report = verify_chain_map(broken)
                assert not report.passed, (f.note, r, key)
                assert report == dense_chain_map_report(broken), (f.note, r, key)
                flips += 1
    assert flips > 90


def test_factorization_refuses_shifts_that_do_not_add(perms, simplexes, corpus_fibers):
    """h = g after f needs h's shift to be f's plus g's: maps with the
    right sources and targets but one shift off are refused."""
    from permfiber.fiber import fiber_to_simplex, perm_to_fiber
    from permfiber.polytopes import perm_to_simplex
    fib = corpus_fibers["path3"]
    f = perm_to_fiber(fib, perms[3])
    g = fiber_to_simplex(fib, simplexes[3])
    h = perm_to_simplex(perms[3], simplexes[3])
    assert verify_factorization(h, g, f).passed
    for triangle in ((ChainMap.build(h.source, h.target, h.shift + 1, {}), g, f),
                     (h, ChainMap.build(g.source, g.target, g.shift - 1, {}), f),
                     (h, g, ChainMap.build(f.source, f.target, f.shift + 1, {}))):
        with pytest.raises(ValueError, match="^h, g and f do not form a triangle$"):
            verify_factorization(*triangle)


def test_point_degree(perms, simplexes):
    """The degree of the one class of a point, else None; a complex whose
    d^2 fails has no homology to read."""
    for n in range(1, 5):
        assert point_degree(perms[n].complex) == 0
        assert point_degree(simplexes[n].complex) == 0
    assert point_degree(interval_complex()) == 0
    two = ChainComplex.build({0: ("a", "b")}, {})
    circle = ChainComplex.build({0: ("a",), 1: ("e",)}, {})
    doubled = ChainComplex.build({0: ("a",), 1: ("e",)},
                                 {1: SparseMatrix.from_entries(1, 1, {(0, 0): 2})})
    assert point_degree(two) is None
    assert point_degree(circle) is None
    assert point_degree(doubled) is None   # acyclic over Q: no class at all
    assert point_degree(ChainComplex.build({3: ("x",)}, {})) == 3
    broken = flip_one_entry(perms[3].complex, 1, (0, 0))
    with pytest.raises(ValueError, match="not a chain complex"):
        point_degree(broken)


def check_homology_by_coreduction(c: ChainComplex, name) -> list:
    """The critical cells of ``oracles.coreduction_critical_cells`` on c.
    One critical cell is an independent proof that H(c) is one class in
    its degree, which ``point_degree`` must name.  More than one names
    the cells the coreduction could not pair; then the dense ranks
    decide, and the check fails only if they disagree with
    ``homology_dims``."""
    critical = coreduction_critical_cells(c)
    if len(critical) == 1:
        assert point_degree(c) == critical[0][0], (name, critical)
    else:
        dense = {r: c.dim(r) - dense_rank(c.d(r).dense()) - dense_rank(c.d(r + 1).dense())
                 for r in c.degrees()}
        assert homology_dims(c) == dense, (name, critical)
    return critical


def path_fiber(n: int):
    return build_fiber(MultiGraph.from_edges((v, v + 1) for v in range(n)))


def test_coreduction_leaves_one_bottom_cell(perms, perm7, corpus_fibers):
    """On P1-P7, every corpus fiber and the 8-edge path's fiber, d^2 = 0
    and a coreduction pairs every cell but one of the bottom degree,
    each pair through a +-1 coefficient: the homology is one class, over
    Z, by a method that shares nothing with the rank engine."""
    complexes = [(f"P{n}", perms[n].complex) for n in perms]
    complexes += [("P7", perm7.complex)]
    complexes += [(name, fib.complex) for name, fib in corpus_fibers.items()]
    complexes += [("path8", path_fiber(8).complex)]
    assert len(complexes) == 7 + 15
    for name, c in complexes:
        assert verify_d_squared(c).passed, name
        critical = check_homology_by_coreduction(c, name)
        assert len(critical) == 1 and critical[0][0] == c.degrees()[0], (name, critical)


@pytest.mark.slow
def test_coreduction_leaves_one_bottom_cell_on_p8():
    c = build_perm(8).complex
    assert verify_d_squared(c).passed
    critical = check_homology_by_coreduction(c, "P8")
    assert len(critical) == 1 and critical[0][0] == c.degrees()[0], critical


@pytest.mark.slow
def test_coreduction_leaves_one_bottom_cell_on_the_9_edge_path():
    c = path_fiber(9).complex
    assert verify_d_squared(c).passed
    critical = check_homology_by_coreduction(c, "path9")
    assert len(critical) == 1 and critical[0][0] == c.degrees()[0], critical


def test_coreduction_names_the_cells_it_cannot_pair():
    """Where more than one cell stays critical, the oracle names them and
    the dense ranks decide: two points, a circle, and a cell whose one
    face has coefficient 2, which is acyclic over Q but not paired."""
    two = ChainComplex.build({0: ("a", "b")}, {})
    circle = ChainComplex.build(
        {0: ("a", "b"), 1: ("e", "f")},
        {1: SparseMatrix.from_entries(2, 2, {(0, 0): -1, (1, 0): 1,
                                             (0, 1): -1, (1, 1): 1})})
    doubled = ChainComplex.build({0: ("a",), 1: ("e",)},
                                 {1: SparseMatrix.from_entries(1, 1, {(0, 0): 2})})
    assert check_homology_by_coreduction(two, "two") == [(0, "a"), (0, "b")]
    assert check_homology_by_coreduction(circle, "circle") == [(0, "a"), (1, "f")]
    assert check_homology_by_coreduction(doubled, "doubled") == [(0, "a"), (1, "e")]
    assert check_homology_by_coreduction(interval_complex(), "interval") == [(0, "a")]
    flipped = flip_one_entry(interval_complex(), 1, (0, 0))   # d(e) = a + b
    assert check_homology_by_coreduction(flipped, "flipped") == [(0, "a")]


def test_quasi_isomorphism_criterion(perms):
    assert is_quasi_isomorphism(identity_map(perms[2].complex))
    f = ChainMap.build(point_complex("p"), point_complex("q"), 0, {})
    assert not is_quasi_isomorphism(f)


def cone_is_acyclic(f: ChainMap) -> bool:
    return all(v == 0 for v in homology_dims(mapping_cone(f)).values())


def test_class_test_matches_the_cone(perms, simplexes):
    from permfiber.complexes import unpaired_cells
    from permfiber.polytopes import perm_to_simplex
    for n in range(1, 7):
        f = perm_to_simplex(perms[n], simplexes[n])
        assert quasi_isomorphism_report(f).passed is cone_is_acyclic(f) is True, n
    for n in range(1, 5):
        zero = ChainMap.build(perms[n].complex, simplexes[n].complex, 0, {})
        report = quasi_isomorphism_report(zero)
        assert report.passed is cone_is_acyclic(zero) is False, n
        assert (report.degree, report.label) == (0, unpaired_cells(perms[n].complex, 0)[0])
    # into a complex where the vertex a bounds the edge e: x -> b carries
    # the class, x -> a, a boundary, loses it
    pointed = ChainComplex.build({0: ("a", "b"), 1: ("e",)},
                                 {1: SparseMatrix.from_entries(2, 1, {(0, 0): 1})})
    for row, carries in ((1, True), (0, False)):
        f = ChainMap.build(point_complex("x"), pointed, 0, {0: ((row, 1),)})
        assert verify_chain_map(f).passed
        report = quasi_isomorphism_report(f)
        assert report.passed is cone_is_acyclic(f) is carries
        assert report.label == (None if carries else "x")
    # x -> a + b is not a row table
    with pytest.raises(ValueError, match="map matrix at degree 0 has a column with two"):
        ChainMap.build(point_complex("x"), pointed, 0,
                       {0: SparseMatrix.from_entries(2, 1, {(0, 0): 1, (1, 0): 1})})
    # a class in the wrong degree goes to zero
    shifted = ChainMap.build(point_complex("x", 1), interval_complex(), 0, {})
    assert quasi_isomorphism_report(shifted) == ChainMapReport(False, 1, "x")
    assert not cone_is_acyclic(shifted)


def test_class_test_needs_a_chain_map_and_leaves_non_points_to_the_cone(monkeypatch):
    import permfiber.complexes as complexes
    c = interval_complex()
    swap = ChainMap.build(c, c, 0, {
        0: SparseMatrix.from_entries(2, 2, {(0, 1): 1, (1, 0): 1}),
        1: SparseMatrix.identity(1)})
    with pytest.raises(ValueError, match="non-chain-map"):
        quasi_isomorphism_report(swap)
    cones = []
    real = complexes.mapping_cone
    monkeypatch.setattr(complexes, "mapping_cone", lambda f: cones.append(f) or real(f))
    two = ChainComplex.build({0: ("x", "y")}, {})
    assert quasi_isomorphism_report(identity_map(two)) == ChainMapReport(True)
    assert quasi_isomorphism_report(ChainMap.build(two, two, 0, {})) == ChainMapReport(False)
    assert len(cones) == 2
    assert quasi_isomorphism_report(identity_map(c)) == ChainMapReport(True)
    assert len(cones) == 2


def test_filtration_must_not_increase_levels():
    c = interval_complex()
    ChainComplex.build(c.basis, c.differentials, {0: (1, 1), 1: (1,)})
    with pytest.raises(ValueError, match="raises filtration level at degree 1: "
                       r"'e' \(level 1\) -> 'a' \(level 2\)"):
        ChainComplex.build(c.basis, c.differentials, {0: (2, 1), 1: (1,)})
    with pytest.raises(ValueError, match="no filtration level for basis element 'e'"):
        ChainComplex.build(c.basis, c.differentials, {0: (1, 1)})  # missing level
    with pytest.raises(ValueError, match="3 filtration levels for 2 basis elements"):
        ChainComplex.build(c.basis, c.differentials, {0: (1, 1, 1), 1: (1,)})


def test_filtration_levels_are_natural_numbers():
    """A level is an int of at least 0, and a bool is not one; the refusal
    names the level, the cell and its degree.  Level 0 is allowed."""
    c = interval_complex()
    ChainComplex.build(c.basis, c.differentials, {0: (0, 0), 1: (0,)})
    for bad in (-1, 0.5, True, Fraction(1), None, "1"):
        with pytest.raises(ValueError, match=re.escape(
                f"filtration level {bad!r} of 'b' at degree 0 is not a natural number")):
            ChainComplex.build(c.basis, c.differentials, {0: (1, bad), 1: (1,)})


def test_json_refuses_a_negative_level(perms):
    doc = complex_to_json(perms[2].complex)
    doc["levels"]["12"] = -1
    with pytest.raises(ValueError, match=re.escape(
            "malformed complex document: ValueError: filtration level -1 of "
            "'12' at degree 1 is not a natural number")):
        complex_from_json(doc)


def test_page_zero_counts_levels(perms):
    c = perms[4].complex
    t0 = page_dims(c, 0)
    for p in range(1, 5):
        for r in c.degrees():
            assert t0.dim(p, r - p) == c.levels[r].count(p)


def test_pages_invalid_index_rejected(perms):
    with pytest.raises(ValueError):
        page_dims(perms[2].complex, -1)


def test_pages_match_dense_oracle(perms, corpus_fibers):
    complexes = [perms[n].complex for n in range(1, 5)]
    complexes += [fib.complex for fib in corpus_fibers.values() if fib.n <= 4]
    assert len(complexes) > 10
    for c in complexes:
        dense = {n: c.d(n).dense() for n in c.differentials}
        levels = {lab: p for n in c.degrees()
                  for lab, p in zip(c.labels(n), c.levels[n])}
        for r in range(stable_page_index(c) + 1):
            want = page_dims_dense(levels, c.basis, dense, r)
            assert page_dims(c, r).dims == want, r


def test_pages_and_homology_survive_rational_scaling(perms, corpus_fibers):
    for c in (perms[4].complex, corpus_fibers["cycle4"].complex):
        scaled = ChainComplex.build(c.basis, {
            n: SparseMatrix.from_entries(m.rows, m.cols, {
                key: Fraction(2, 3) * v for key, v in m.items()})
            for n, m in c.differentials.items()}, c.levels)
        assert all(type(v) is Fraction
                   for m in scaled.differentials.values() for _, v in m.items())
        assert homology_dims(scaled) == homology_dims(c)
        for r in range(stable_page_index(c) + 1):
            assert page_dims(scaled, r) == page_dims(c, r), r


def test_page_dims_pointwise_nonincreasing(perms, corpus_fibers):
    for c in (perms[3].complex, perms[4].complex,
              corpus_fibers["path3"].complex, corpus_fibers["theta"].complex):
        previous = page_dims(c, 0)
        for r in range(1, stable_page_index(c) + 1):
            current = page_dims(c, r)
            keys = set(previous.dims) | set(current.dims)
            for key in keys:
                assert current.dim(*key) <= previous.dim(*key)
            previous = current


def test_stable_page_matches_homology(perms, corpus_fibers):
    for complex_ in (perms[3].complex, perms[4].complex,
                     corpus_fibers["path4"].complex, corpus_fibers["cycle4"].complex):
        table = page_dims(complex_, stable_page_index(complex_))
        by_total = Counter()
        for (p, q), d in table.dims.items():
            by_total[p + q] += d
        h = homology_dims(complex_)
        assert dict(by_total) == {r: d for r, d in h.items() if d}


def test_page_table_csv_rows(perms):
    t2 = page_dims(perms[4].complex, 2)
    assert t2.csv_rows() == ["2,1,-1,1"]


def test_json_round_trip(perms, corpus_fibers):
    c = perms[3].complex
    doc = complex_to_json(c)
    text = json.dumps(doc)
    loaded = complex_from_json(json.loads(text))
    assert loaded == c
    assert loaded.levels == c.levels
    assert doc["differentials"]["1"][0][2].count("/") == 1  # num/den form
    # an int entry and a Fraction entry both write as num/den
    mixed = ChainComplex.build({0: ("a", "b"), 1: ("c",)}, {
        1: SparseMatrix.from_entries(2, 1, {(0, 0): 2, (1, 0): Fraction(1, 2)})})
    doc = complex_to_json(mixed)
    assert [v for _, _, v in doc["differentials"]["1"]] == ["2/1", "1/2"]
    loaded = complex_from_json(json.loads(json.dumps(doc)))
    assert loaded == mixed
    assert loaded.d(1).columns == ({0: 2, 1: Fraction(1, 2)},)
    assert type(loaded.d(1).get(0, 0)) is int
    for name, fib in sorted(corpus_fibers.items()):
        text = json.dumps(complex_to_json(fib.complex))
        assert complex_from_json(json.loads(text)) == fib.complex, name


def test_json_without_levels(simplexes):
    doc = complex_to_json(simplexes[3].complex)
    assert "levels" not in doc
    loaded = complex_from_json(doc)
    assert loaded == simplexes[3].complex
    assert loaded.levels is None


def test_json_refuses_a_cell_without_level(perms):
    doc = complex_to_json(perms[2].complex)
    del doc["levels"]["1>2"]
    with pytest.raises(ValueError, match="no filtration level for basis element '1>2'"):
        complex_from_json(doc)


def test_cone_of_fraction_valued_map_keeps_exactness():
    c = interval_complex()
    f = ChainMap.build(c, c, 0, {
        0: SparseMatrix.from_entries(2, 2, {(0, 0): Fraction(1, 2),
                                            (1, 1): Fraction(1, 2)}),
        1: SparseMatrix.from_entries(1, 1, {(0, 0): Fraction(1, 2)})})
    assert verify_chain_map(f).passed
    assert is_quasi_isomorphism(f)


def test_replace_starts_an_empty_cache(perms):
    c = ChainComplex.build(perms[3].complex.basis, perms[3].complex.differentials,
                           perms[3].complex.levels)
    assert verify_d_squared(c).passed
    assert homology_dims(c) == {0: 1, 1: 0, 2: 0}
    page_dims(c, 1)
    entries = dict(c.d(1).items())
    key = min(entries)
    entries[key] = -entries[key]
    broken = ChainComplex(c.basis, {
        **c.differentials, 1: SparseMatrix.from_entries(c.dim(0), c.dim(1), entries)},
        c.levels)
    assert not broken._cache
    assert not verify_d_squared(broken).passed
    with pytest.raises(ValueError, match="not a chain complex"):
        homology_dims(broken)
    with pytest.raises(ValueError, match="not a chain complex"):
        page_dims(broken, 1)


def test_pages_need_levels(simplexes):
    with pytest.raises(ValueError, match="no filtration levels"):
        page_dims(simplexes[3].complex, 1)


def test_chain_map_report_is_cached_for_the_cone(perms, monkeypatch):
    import permfiber.complexes as complexes
    products = []
    vanishes, tables = complexes.product_vanishes, complexes._first_noncommuting
    # the chain-map check compares its products in one row-table kernel
    # call per degree
    monkeypatch.setattr(complexes, "_first_noncommuting", lambda *args:
                        products.append(args) or tables(*args))
    monkeypatch.setattr(complexes, "product_vanishes", lambda a, b, cols:
                        products.append((a, b)) or vanishes(a, b, cols))
    f = identity_map(perms[3].complex)
    report = verify_chain_map(f)
    assert report.passed and products
    assert verify_d_squared(f.source).passed
    del products[:]
    assert verify_chain_map(f) is report and not products
    cone = mapping_cone(f)
    # the cone proves its own d^2, on its own differentials
    assert verify_d_squared(cone).passed and products
    own = list(map(id, cone.differentials.values()))
    assert all(id(a) in own and id(b) in own for a, b in products)


def test_rows_outside_a_matrix_are_refused_where_it_joins(perms):
    """A matrix built from its columns is checked once, where it joins a
    complex or a map: a row at or past ``rows``, or a negative row, which
    a list would index silently, is refused with the degree named, for
    filtered and unfiltered complexes alike."""
    basis = {0: ("a", "b"), 1: ("e",)}
    edge = SparseMatrix(2, ({0: -1, 1: 1},))
    for levels in (None, {0: (1, 1), 1: (1,)}):
        c = ChainComplex.build(basis, {1: edge}, levels)
        for row in (2, 7, -1):
            bad = SparseMatrix(2, ({0: -1, row: 1},))
            with pytest.raises(ValueError, match=f"differential at degree 1 has an "
                                                 f"entry in row {row}, outside its 2 rows"):
                ChainComplex.build(basis, {1: bad}, levels)
            for matrix in (SparseMatrix(2, ({row: 1}, {})), [(row, 1), None]):
                with pytest.raises(ValueError, match=f"map matrix at degree 0 has an entry "
                                                     f"in row {row}, outside its 2 rows"):
                    ChainMap.build(c, c, 0, {0: matrix})
    p3 = perms[3].complex
    for row in (p3.dim(0), -1):
        columns = list(p3.d(1).columns)
        columns[0] = {**columns[0], row: 1}
        with pytest.raises(ValueError, match=f"differential at degree 1 has an "
                                             f"entry in row {row}"):
            ChainComplex.build(p3.basis, {**p3.differentials, 1: SparseMatrix(
                p3.dim(0), tuple(columns))}, p3.levels)


def test_a_matrix_without_rows_joins_only_when_it_stores_nothing():
    """The row-range scan runs over the whole matrix; with no rows and no
    entries there is nothing to refuse, and any entry is out of range."""
    assert ChainComplex.build({1: ("e",)}, {1: SparseMatrix(0, ({},))}).degrees() == [1]
    with pytest.raises(ValueError, match="differential at degree 1 has an entry in "
                                         "row 0, outside its 0 rows"):
        ChainComplex.build({1: ("e",)}, {1: SparseMatrix(0, ({0: 1},))})


def test_explicit_zeros_and_inexact_values_are_refused_where_they_join():
    """An explicit zero in a hand-built column used to be paired as a
    pivot, so the zero map on one edge read homology {0: 1, 1: 0} where
    {0: 2, 1: 1} is right, and a float raised AttributeError deep in the
    reduction.  Both are refused where the matrix joins a complex or a
    map, with the degree named; int and Fraction values are kept."""
    basis = {0: ("a", "b"), 1: ("e",)}
    zero = "differential at degree 1 stores an explicit zero"
    for column, message in (
            ({0: 0, 1: 0}, zero),
            ({0: 1, 1: Fraction(0)}, zero),
            ({0: 0.5, 1: -0.5}, "differential at degree 1 stores a value of type "
                                "float, not int or Fraction"),
            ({0: True, 1: -1}, "differential at degree 1 stores a value of type "
                               "bool, not int or Fraction")):
        with pytest.raises(ValueError, match=message):
            ChainComplex.build(basis, {1: SparseMatrix(2, (column,))})
    c = ChainComplex.build(basis, {1: SparseMatrix(2, ({0: Fraction(1, 2), 1: -1},))})
    assert homology_dims(c) == {0: 1, 1: 0}
    assert homology_dims(ChainComplex.build(basis, {})) == {0: 2, 1: 1}
    for column, message in (({0: 0}, "map matrix at degree 0 stores an explicit zero"),
                            ({1: 1.0}, "map matrix at degree 0 stores a value of type "
                                       "float, not int or Fraction")):
        with pytest.raises(ValueError, match=message):
            ChainMap.build(c, c, 0, {0: SparseMatrix(2, (column, {}))})
        with pytest.raises(ValueError, match=message):   # the same, as a row table
            ChainMap.build(c, c, 0, {0: [next(iter(column.items())), None]})
    # a valid table is the map its matrix builds, and renders as that matrix
    half = SparseMatrix(2, ({1: Fraction(1, 2)}, {}))
    assert ChainMap.build(c, c, 0, {0: [(1, Fraction(1, 2)), None]}) \
        == ChainMap.build(c, c, 0, {0: half})
    assert ChainMap.build(c, c, 0, {0: [(1, Fraction(1, 2)), None]}).matrix(0) == half


def test_json_refuses_a_label_that_is_not_a_string():
    """An int or null label used to load, and a mapping cone on the
    complex then raised a bare TypeError; it is refused on loading."""
    for label in (1, None, ["a"]):
        with pytest.raises(ValueError, match="^malformed complex document: TypeError: "
                                             + re.escape(repr(label))):
            complex_from_json({"degrees": {"0": [label]}})
    assert complex_from_json({"degrees": {"0": ["1"]}}).labels(0) == ("1",)


def test_unpaired_bottom_cells_complete_the_boundaries_to_a_basis(
        perms, corpus_fibers):
    """The class test takes its generator among the bottom-degree cells
    that no pivot pair of the one cached reduction holds, which for a
    filtered complex takes its cells in (level, index) order.  Its claim:
    with the columns of d_{b+1} these cells span C_b, and they are
    dim H_b of them.  Every complex here has the homology of a point,
    so dim C_b - rank d_{b+1} = 1: one cell, which completes the columns
    to a basis exactly when the rows of d_{b+1} off it have full rank."""
    complexes = [(f"P{n}", perm.complex) for n, perm in perms.items()]
    complexes += [(name, fib.complex) for name, fib in corpus_fibers.items()]
    assert len(complexes) == 6 + 14
    for name, c in complexes:
        bottom = c.degrees()[0]
        labels = c.labels(bottom)
        unpaired = [labels.index(lab) for lab in unpaired_cells(c, bottom)]
        assert len(unpaired) == 1, name
        rows = c.d(bottom + 1).dense()
        off = [row for i, row in enumerate(rows) if i not in unpaired]
        want = c.dim(bottom) - len(unpaired)
        assert dense_rank(off) == want, name


def test_mapping_cone_refuses_a_non_complex(perms):
    c = perms[3].complex
    broken = flip_one_entry(c, 1, next(iter(dict(c.d(1).items()))))
    f = identity_map(broken)
    assert verify_chain_map(f).passed
    with pytest.raises(ValueError):
        mapping_cone(f)


def test_cone_differential_squares_to_zero_when_multiplied(perms, simplexes):
    from permfiber.polytopes import perm_to_simplex
    for n in range(1, 6):
        cone = mapping_cone(perm_to_simplex(perms[n], simplexes[n]))
        fresh = ChainComplex.build(cone.basis, cone.differentials)
        assert "d2" not in fresh._cache
        assert verify_d_squared(fresh).passed, n


def test_cones_of_the_checked_maps_are_what_build_returns(perms, simplexes, corpus_fibers):
    """The cone of each map the maps check builds, on P1-P5's blow-downs
    and every corpus fiber's perm->fiber and fiber->simplex: the parts
    ``mapping_cone`` hands the constructor are what ``build`` returns."""
    from permfiber.fiber import fiber_to_simplex, perm_to_fiber
    from permfiber.polytopes import perm_to_simplex
    for n in range(1, 6):
        assert_build_returns_it(mapping_cone(perm_to_simplex(perms[n], simplexes[n])), n)
    for name, fib in sorted(corpus_fibers.items()):
        for f in (perm_to_fiber(fib, perms[fib.n]), fiber_to_simplex(fib, simplexes[fib.n])):
            assert_build_returns_it(mapping_cone(f), (name, f.note))


def test_json_refuses_a_zero_denominator(perms):
    doc = complex_to_json(perms[2].complex)
    i, j, _ = doc["differentials"]["1"][0]
    doc["differentials"]["1"][0] = [i, j, "1/0"]
    with pytest.raises(ValueError, match="malformed complex document"):
        complex_from_json(doc)


def test_json_refuses_a_document_without_degrees(perms):
    doc = complex_to_json(perms[2].complex)
    del doc["degrees"]
    with pytest.raises(ValueError, match="malformed complex document: KeyError"):
        complex_from_json(doc)


def test_json_refuses_what_it_would_bend(perms):
    """A row or column that is not an int, a bool included, an entry
    value that is neither a string nor an int (a float or a bool), a
    level that is not an int, a label list that is not a list and a
    degree that is not an integer are refused, not rounded, counted or
    split.  An int entry value is read as written."""
    def refused(*path, value):
        doc = json.loads(json.dumps(complex_to_json(perms[2].complex)))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ValueError, match="^malformed complex document: "):
            complex_from_json(doc)

    for k in (0, 1):
        for value in (0.7, True, 0.0, "0"):
            refused("differentials", "1", 0, k, value=value)
    for value in (0.5, True, None, [1, 2]):
        refused("differentials", "1", 0, 2, value=value)
    for value in (1.9, True, "1"):
        refused("levels", "12", value=value)
    refused("degrees", "0", value="ab")
    refused("degrees", "0", value=("1>2", "2>1"))
    refused("degrees", value={"1.5": []})
    refused("differentials", "1.5", value=[])
    doc = json.loads(json.dumps(complex_to_json(perms[2].complex)))
    i, j, _ = doc["differentials"]["1"][0]
    doc["differentials"]["1"][0][2] = -3
    assert complex_from_json(doc).differentials[1].get(i, j) == -3


def _dumped(c: ChainComplex) -> str:
    return json.dumps(complex_to_json(c), indent=1, sort_keys=True) + "\n"


def _scaled(c: ChainComplex, factor) -> ChainComplex:
    return ChainComplex.build(c.basis, {
        r: SparseMatrix(m.rows, tuple({i: v * factor for i, v in column.items()}
                                      for column in m.columns))
        for r, m in c.differentials.items()}, c.levels)


def test_streamed_json_is_the_dumped_document(perms, perm7, simplexes, corpus_fibers):
    """``complex_json_pieces`` writes the bytes of ``json.dumps`` with
    ``indent=1`` and ``sort_keys``: keys in string order ("10" before
    "9", "-1" before "-2"), labels escaped as the encoder escapes them,
    Fraction entries, and no levels where a complex has none."""
    c3 = perms[3].complex
    escaped = ChainComplex.build(
        {0: ('a"b', "c\\d"), 1: ("é\tf",)},
        {1: SparseMatrix.from_entries(2, 1, {(0, 0): -1, (1, 0): 1})}, {0: (1, 1), 1: (2,)})
    high = ChainComplex.build(
        {9: ("a", "b", "c"), 10: ("e", "f", "g"), 11: ("h",)},
        {10: SparseMatrix.from_entries(3, 3, {(0, 0): 1, (1, 0): -1, (1, 2): 2, (2, 1): 1}),
         11: SparseMatrix.from_entries(3, 1, {(0, 0): 1, (2, 0): 3})},
        {9: (0, 1, 2), 10: (3, 2, 4), 11: (5,)})
    complexes = [(f"P{n}", perm.complex) for n, perm in perms.items()]
    complexes += [("P7", perm7.complex)]
    complexes += [(f"simplex{n}", s.complex) for n, s in simplexes.items()]
    complexes += [(name, fib.complex) for name, fib in corpus_fibers.items()]
    complexes += [
        ("P3 flipped", flip_one_entry(c3, 1, next(iter(dict(c3.d(1).items()))))),
        ("P4 times 2/3", _scaled(perms[4].complex, Fraction(2, 3))),
        ("degrees 9-11", high),
        ("escaped labels", escaped),
        ("no differentials", ChainComplex.build({0: ("pt",), 3: ("x", "y")}, {})),
        ("no differentials, levels", ChainComplex.build({0: ("pt",)}, {}, {0: (0,)})),
        ("empty", ChainComplex.build({}, {})),
    ]
    assert len(complexes) == 7 + 7 + 14 + 7
    for name, c in complexes:
        pieces = list(complex_json_pieces(c))
        assert all(type(piece) is str for piece in pieces), name
        assert "".join(pieces) == _dumped(c), name
    assert _dumped(high).index('"10": [') < _dumped(high).index('"9": [')
    assert _dumped(escaped).count('"\\u00e9\\tf"') == 2
    scaled = complexes[-6][1]
    assert complex_from_json(json.loads("".join(complex_json_pieces(scaled)))) == scaled
