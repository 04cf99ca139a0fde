import dataclasses
import json
from collections import Counter
from fractions import Fraction

import pytest

from permfiber.complexes import (
    ChainComplex,
    ChainMap,
    complex_from_json,
    complex_to_json,
    compose,
    homology_dims,
    identity_map,
    is_quasi_isomorphism,
    is_surjective,
    mapping_cone,
    page_dims,
    stable_page_index,
    verify_chain_map,
    verify_d_squared,
)
from permfiber.linalg import SparseMatrix, multiply

from oracles import page_dims_dense


def point_complex(label="pt", degree=0):
    return ChainComplex.build({degree: (label,)}, {})


def interval_complex():
    # one 1-cell with two endpoint 0-cells, d(e) = b - a
    return ChainComplex.build(
        {0: ("a", "b"), 1: ("e",)},
        {1: SparseMatrix.from_entries(2, 1, {(0, 0): -1, (1, 0): 1})})


def flip_one_entry(c: ChainComplex, degree: int, key) -> ChainComplex:
    entries = dict(c.d(degree).entries)
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
    key = next(iter(c.d(2).entries))
    broken = flip_one_entry(c, 2, key)
    report = verify_d_squared(broken)
    assert not report.passed
    assert report.degree in (2, 3)
    assert report.entry is not None


def test_homology_rejects_non_complex(perms):
    c = perms[3].complex
    key = next(iter(c.d(1).entries))
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
    real = complexes.multiply

    def counting(a, b):
        products.append((a.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(complexes, "multiply", counting)
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


def test_build_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        ChainComplex.build({0: ("a",), 1: ("a",)}, {})


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
    entries = dict(ident.matrix(1).entries)
    key = next(iter(entries))
    entries[key] = -entries[key]
    matrices = dict(ident.matrices)
    matrices[1] = SparseMatrix.from_entries(
        ident.target.dim(1), ident.source.dim(1), entries)
    broken = ChainMap.build(ident.source, ident.target, 0, matrices)
    report = verify_chain_map(broken)
    assert not report.passed
    assert report.label is not None


def test_compose_shifts_add(perms, simplexes, corpus_fibers):
    from permfiber.fiber import fiber_to_simplex, perm_to_fiber
    fib = corpus_fibers["path3"]
    f = perm_to_fiber(fib, perms[3])
    g = fiber_to_simplex(fib, simplexes[3])
    assert compose(g, f).shift == 0


def test_quasi_isomorphism_criterion(perms):
    assert is_quasi_isomorphism(identity_map(perms[2].complex))
    f = ChainMap.build(point_complex("p"), point_complex("q"), 0, {})
    assert not is_quasi_isomorphism(f)


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
                key: Fraction(2, 3) * v for key, v in m.entries.items()})
            for n, m in c.differentials.items()}, c.levels)
        assert all(type(v) is Fraction
                   for m in scaled.differentials.values() for v in m.entries.values())
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


def test_json_round_trip(perms):
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
    assert loaded.d(1).entries == {(0, 0): 2, (1, 0): Fraction(1, 2)}
    assert type(loaded.d(1).entries[(0, 0)]) is int


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
    entries = dict(c.d(1).entries)
    key = min(entries)
    entries[key] = -entries[key]
    broken = dataclasses.replace(c, differentials={
        **c.differentials, 1: SparseMatrix.from_entries(c.dim(0), c.dim(1), entries)})
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

    def counting(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(complexes, "multiply", counting)
    f = identity_map(perms[3].complex)
    report = verify_chain_map(f)
    assert report.passed and products
    assert verify_d_squared(f.source).passed
    del products[:]
    assert verify_chain_map(f) is report and not products
    cone = mapping_cone(f)
    # d^2 = 0 on the cone follows from the three cached reports
    assert verify_d_squared(cone).passed and not products


def test_mapping_cone_refuses_a_non_complex(perms):
    c = perms[3].complex
    broken = flip_one_entry(c, 1, next(iter(c.d(1).entries)))
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
