import dataclasses
import json
from collections import Counter
from fractions import Fraction

import pytest

from permfiber.complexes import (
    ChainComplex,
    ChainMap,
    FilteredComplex,
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
    return ChainComplex.build(c.basis, diffs)


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
        page_dims(FilteredComplex.build(broken, perms[3].filtered.levels), 1)


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
    FilteredComplex.build(c, {"a": 1, "b": 1, "e": 1})
    with pytest.raises(ValueError):
        FilteredComplex.build(c, {"a": 2, "b": 1, "e": 1})
    with pytest.raises(ValueError):
        FilteredComplex.build(c, {"a": 1, "b": 1})  # missing level


def test_page_zero_counts_levels(perms):
    fc = perms[4].filtered
    t0 = page_dims(fc, 0)
    for p in range(fc.min_level(), fc.max_level() + 1):
        for r in fc.complex.degrees():
            got = t0.dim(p, r - p)
            want = sum(1 for lab in fc.complex.labels(r) if fc.levels[lab] == p)
            assert got == want


def test_pages_invalid_index_rejected(perms):
    with pytest.raises(ValueError):
        page_dims(perms[2].filtered, -1)


def test_pages_match_dense_oracle(perms, corpus_fibers):
    filtered = [perms[n].filtered for n in range(1, 5)]
    filtered += [fib.filtered for fib in corpus_fibers.values() if fib.n <= 4]
    assert len(filtered) > 10
    for fc in filtered:
        c = fc.complex
        dense = {n: c.d(n).dense() for n in c.differentials}
        for r in range(stable_page_index(fc) + 1):
            want = page_dims_dense(fc.levels, c.basis, dense, r)
            assert page_dims(fc, r).dims == want, r


def test_pages_and_homology_survive_rational_scaling(perms, corpus_fibers):
    for fc in (perms[4].filtered, corpus_fibers["cycle4"].filtered):
        c = fc.complex
        scaled = ChainComplex.build(c.basis, {
            n: SparseMatrix.from_entries(m.rows, m.cols, {
                key: Fraction(2, 3) * v for key, v in m.entries.items()})
            for n, m in c.differentials.items()})
        assert all(type(v) is Fraction
                   for m in scaled.differentials.values() for v in m.entries.values())
        scaled_fc = FilteredComplex.build(scaled, fc.levels)
        assert homology_dims(scaled) == homology_dims(c)
        for r in range(stable_page_index(fc) + 1):
            assert page_dims(scaled_fc, r) == page_dims(fc, r), r


def test_page_dims_pointwise_nonincreasing(perms, corpus_fibers):
    for fc in (perms[3].filtered, perms[4].filtered,
               corpus_fibers["path3"].filtered, corpus_fibers["theta"].filtered):
        previous = page_dims(fc, 0)
        for r in range(1, stable_page_index(fc) + 1):
            current = page_dims(fc, r)
            keys = set(previous.dims) | set(current.dims)
            for key in keys:
                assert current.dim(*key) <= previous.dim(*key)
            previous = current


def test_stable_page_matches_homology(perms, corpus_fibers):
    for fc, complex_ in (
        (perms[3].filtered, perms[3].complex),
        (perms[4].filtered, perms[4].complex),
        (corpus_fibers["path4"].filtered, corpus_fibers["path4"].complex),
        (corpus_fibers["cycle4"].filtered, corpus_fibers["cycle4"].complex),
    ):
        table = page_dims(fc, stable_page_index(fc))
        by_total = Counter()
        for (p, q), d in table.dims.items():
            by_total[p + q] += d
        h = homology_dims(complex_)
        assert dict(by_total) == {r: d for r, d in h.items() if d}


def test_page_table_csv_rows(perms):
    t2 = page_dims(perms[4].filtered, 2)
    assert t2.csv_rows() == ["2,1,-1,1"]


def test_json_round_trip(perms):
    fc = perms[3].filtered
    doc = complex_to_json(fc.complex, fc.levels)
    text = json.dumps(doc)
    loaded, levels = complex_from_json(json.loads(text))
    assert loaded == fc.complex
    assert levels == fc.levels
    assert doc["differentials"]["1"][0][2].count("/") == 1  # num/den form
    # an int entry and a Fraction entry both write as num/den
    mixed = ChainComplex.build({0: ("a", "b"), 1: ("c",)}, {
        1: SparseMatrix.from_entries(2, 1, {(0, 0): 2, (1, 0): Fraction(1, 2)})})
    doc = complex_to_json(mixed)
    assert [v for _, _, v in doc["differentials"]["1"]] == ["2/1", "1/2"]
    loaded, _ = complex_from_json(json.loads(json.dumps(doc)))
    assert loaded == mixed
    assert loaded.d(1).entries == {(0, 0): 2, (1, 0): Fraction(1, 2)}
    assert type(loaded.d(1).entries[(0, 0)]) is int


def test_json_without_levels(perms):
    doc = complex_to_json(perms[2].complex)
    loaded, levels = complex_from_json(doc)
    assert loaded == perms[2].complex
    assert levels is None


def test_cone_of_fraction_valued_map_keeps_exactness():
    c = interval_complex()
    f = ChainMap.build(c, c, 0, {
        0: SparseMatrix.from_entries(2, 2, {(0, 0): Fraction(1, 2),
                                            (1, 1): Fraction(1, 2)}),
        1: SparseMatrix.from_entries(1, 1, {(0, 0): Fraction(1, 2)})})
    assert verify_chain_map(f).passed
    assert is_quasi_isomorphism(f)


class _CountingLevels(dict):
    """A levels dict that counts full scans through ``values()``."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()


def test_level_range_is_computed_once(perms):
    fc = perms[4].filtered
    counted = dataclasses.replace(fc, levels=_CountingLevels(fc.levels))
    for r in range(4):
        assert page_dims(counted, r) == page_dims(fc, r)
    assert stable_page_index(counted) == stable_page_index(fc)
    assert counted.levels.scans == 2  # one min and one max, ever


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
