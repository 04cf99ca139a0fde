"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value here is either pinned from an exactly stated small
case, or computed by the independent oracles in oracles.py.
"""

import random
from math import comb

from permfiber.complexes import (
    ChainComplex,
    ChainMap,
    compose,
    homology_dims,
    is_surjective,
    mapping_cone,
    page_dims,
    verify_chain_map,
    verify_d_squared,
)
from permfiber.fiber import (
    fiber_element,
    fiber_to_simplex,
    koszul_check,
    perm_to_fiber,
    push_forward_well_defined,
)
from permfiber.linalg import SparseMatrix
from permfiber.polytopes import perm_to_simplex
from permfiber.topartitions import (
    differential_terms,
    enumerate_topartitions,
    parse_topartition,
)

from oracles import fiber_tree_sets, noncrossing_diagonal_counts


def report(number, text):
    print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_worked_differential():
    alpha = parse_topartition("13|24")
    got = {(t.partition.pretty(), t.sign) for t in differential_terms(alpha)}
    assert got == {
        ("{1}>{3}>{2,4}", 1),
        ("{3}>{1}>{2,4}", 1),
        ("{1,3}>{2}>{4}", -1),
        ("{1,3}>{4}>{2}", -1),
    }
    report(1, "d({1,3}>{2,4}) has exactly the four signed subdivision terms")


def test_criterion_02_d_squared(perms, corpus_fibers):
    for n in range(1, 7):
        assert verify_d_squared(perms[n].complex).passed, n
    for name, fib in sorted(corpus_fibers.items()):
        assert verify_d_squared(fib.complex).passed, name
    report(2, "d^2 = 0 for P_1..P_6 and all corpus fibers")


def test_criterion_03_point_homology(perms):
    for n in range(1, 7):
        h = homology_dims(perms[n].complex)
        assert {r: d for r, d in h.items() if d} == {0: 1}, (n, h)
    report(3, "H(P_n) is one class in degree 0 for n = 1..6")


def test_criterion_04_page_zero_table_n4(perms):
    table = page_dims(perms[4].complex, 0)
    assert table.dims == {
        (4, -1): 1,
        (3, -1): 4,
        (2, 0): 6, (2, -1): 12,
        (1, 1): 4, (1, 0): 24, (1, -1): 24,
    }
    report(4, "E0 of P_4 splits as 1 / 4 / 6+12 / 4+24+24 across widths 4..1")


def test_criterion_05_pages_one_and_two(perms):
    for n in range(2, 7):
        e1 = page_dims(perms[n].complex, 1)
        assert e1.dims == {(p, -1): comb(n, p) for p in range(1, n + 1)}, n
        e2 = page_dims(perms[n].complex, 2)
        assert e2.dims == {(1, -1): 1}, n
    report(5, "E1 is the binomial row at q=-1 and E2 a single class, n = 2..6")


def test_criterion_06_blow_down(perms, simplexes):
    for n in range(1, 7):
        f = perm_to_simplex(perms[n], simplexes[n])
        assert verify_chain_map(f).passed, n
        assert is_surjective(f), n
        cone = mapping_cone(f)
        assert all(v == 0 for v in homology_dims(cone).values()), n
    report(6, "perm->simplex is a surjective chain map with acyclic cone, n = 1..6")


def test_criterion_07_fiber_koszulity(corpus_fibers):
    for name, fib in sorted(corpus_fibers.items()):
        result = koszul_check(fib)
        assert result.d_squared_ok, name
        assert result.homology_ok, (name, result.homology)
        assert result.e1_ok, (name, result.pages[1].dims)
        assert result.e2_ok, (name, result.pages[2].dims)
    report(7, f"fiber homology one class in degree -n and E1/E2 patterns "
              f"hold for all {len(corpus_fibers)} corpus graphs")


def test_criterion_08_associahedra(corpus_graphs, corpus_fibers):
    # oracle dims: brute-force enumeration + canonicalisation
    for name, n in (("path3", 3), ("path4", 4)):
        oracle = {k: len(v) for k, v in fiber_tree_sets(corpus_graphs[name].edges).items()}
        fib = corpus_fibers[name]
        got = {-r: fib.complex.dim(r) for r in fib.complex.degrees()}
        assert got == oracle, (name, got, oracle)
        # cross-check: non-crossing diagonal sets of an (n+2)-gon
        faces = noncrossing_diagonal_counts(n + 2)
        assert got == {j + 1: c for j, c in faces.items()}, name
    assert {-r: corpus_fibers["path3"].complex.dim(r)
            for r in corpus_fibers["path3"].complex.degrees()} == {1: 1, 2: 5, 3: 5}
    assert {-r: corpus_fibers["path4"].complex.dim(r)
            for r in corpus_fibers["path4"].complex.degrees()} == {1: 1, 2: 9, 3: 21, 4: 14}
    report(8, "path fibers are the pentagon (1,5,5) and the 3d associahedron "
              "(1,9,21,14), by oracle enumeration and polygon cross-check")


def test_criterion_09_maximal_fiber(perms, corpus_fibers):
    for n, name in ((2, "star2"), (3, "star3"), (4, "star4"), (5, "star5")):
        fib = corpus_fibers[name]
        perm = perms[n]
        assert ({r - n: perm.complex.dim(r) for r in perm.complex.degrees()}
                == {r: fib.complex.dim(r) for r in fib.complex.degrees()}), name
        f = perm_to_fiber(fib, perm=perm)
        assert verify_chain_map(f).passed, name
        for r in perm.complex.degrees():
            m = f.matrix(r)
            assert m.rows == m.cols and len(m.entries) == m.rows, (name, r)
            assert len({i for i, _ in m.entries}) == m.rows, (name, r)
            assert len({j for _, j in m.entries}) == m.cols, (name, r)
    report(9, "star fibers match P_n degreewise with a bijective map, n <= 5")


def test_criterion_10_factorization(perms, simplexes, corpus_fibers):
    for name, fib in sorted(corpus_fibers.items()):
        n = fib.n
        p2f = perm_to_fiber(fib, perm=perms[n])
        f2s = fiber_to_simplex(fib, simplex=simplexes[n])
        assert verify_chain_map(p2f).passed, name
        assert verify_chain_map(f2s).passed, name
        assert is_surjective(p2f) and is_surjective(f2s), name
        cone1 = mapping_cone(p2f)
        cone2 = mapping_cone(f2s)
        assert all(v == 0 for v in homology_dims(cone1).values()), name
        assert all(v == 0 for v in homology_dims(cone2).values()), name
        composite = compose(f2s, p2f)
        direct = perm_to_simplex(perms[n], simplexes[n])
        for r in perms[n].complex.degrees():
            assert composite.matrix(r) == direct.matrix(r), (name, r)
    report(10, "fiber->simplex after perm->fiber equals perm->simplex on "
               "every corpus graph, and all four cones are acyclic")


def test_criterion_11_well_definedness(corpus_graphs, corpus_fibers):
    total = 0
    for name, fib in sorted(corpus_fibers.items()):
        result = push_forward_well_defined(fib)
        assert result.passed, (name, result.label, result.detail)
        total += result.checked
    rng = random.Random(20250810)
    names = sorted(corpus_graphs)
    parts_cache = {}
    for _ in range(1000):
        name = rng.choice(names)
        g = corpus_graphs[name]
        parts = parts_cache.setdefault(name, enumerate_topartitions(g.n))
        alpha = rng.choice(parts)
        order = []
        for block in alpha.blocks:
            chunk = list(block)
            rng.shuffle(chunk)
            order.extend(chunk)
        base = fiber_element(g, alpha)
        shuffled = fiber_element(g, alpha, refinement=order)
        assert shuffled.degenerate == base.degenerate, (name, alpha.pretty())
        if not base.degenerate:
            assert shuffled.blocks == base.blocks
            assert shuffled.parent == base.parent
            assert shuffled.sign == base.sign
    report(11, f"push-forward well defined over {total} representatives; "
               f"1000 random refinements agree")


def _flip_matrix_entry(m, key):
    entries = dict(m.entries)
    entries[key] = -entries[key]
    return SparseMatrix.from_entries(m.rows, m.cols, entries)


def test_criterion_12_mutation_sensitivity(perms, corpus_fibers):
    c = perms[4].complex
    flips = 0
    for r in c.degrees():
        base = c.d(r)
        if base.is_zero():
            continue
        for key in sorted(base.entries):
            diffs = dict(c.differentials)
            diffs[r] = _flip_matrix_entry(base, key)
            mutated = ChainComplex.build(c.basis, diffs)
            assert not verify_d_squared(mutated).passed, (r, key)
            flips += 1
    fib = corpus_fibers["path3"]
    f = perm_to_fiber(fib, perm=perms[3])
    map_flips = 0
    for r in sorted(f.matrices):
        base = f.matrix(r)
        for key in sorted(base.entries):
            matrices = dict(f.matrices)
            matrices[r] = _flip_matrix_entry(base, key)
            mutated = ChainMap.build(f.source, f.target, f.shift, matrices)
            assert not verify_chain_map(mutated).passed, (r, key)
            map_flips += 1
    report(12, f"every one of {flips} differential sign flips in P_4 breaks "
               f"d^2=0; every one of {map_flips} entry flips in perm->fiber "
               f"(path3) breaks the chain map")
