"""Finite free chain complexes over Q: d^2 checks, homology dimensions,
filtration spectral-sequence pages, chain maps and mapping cones.

Complexes are graded homologically with a sparse differential matrix
per degree.  Basis labels are opaque strings, unique across the whole
complex, so one engine serves permutohedra, simplices and fibers.
Spectral pages are computed as dimensions only, through ranks of the
differential restricted to filtration subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .linalg import SparseMatrix, multiply, rank


@dataclass(frozen=True, eq=True)
class ChainComplex:
    basis: dict           # degree -> tuple of labels
    differentials: dict   # degree r -> SparseMatrix of d_r : C_r -> C_{r-1}
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def build(basis: Mapping, differentials: Mapping) -> ChainComplex:
        basis_t = {int(r): tuple(labels) for r, labels in basis.items() if labels}
        all_labels = [lab for labs in basis_t.values() for lab in labs]
        if len(set(all_labels)) != len(all_labels):
            raise ValueError("basis labels must be unique across the complex")
        diffs = {}
        for r, m in differentials.items():
            r = int(r)
            want_rows = len(basis_t.get(r - 1, ()))
            want_cols = len(basis_t.get(r, ()))
            if (m.rows, m.cols) != (want_rows, want_cols):
                raise ValueError(
                    f"differential at degree {r} is {m.rows}x{m.cols}, "
                    f"expected {want_rows}x{want_cols}")
            if m.entries:
                diffs[r] = m
        return ChainComplex(basis_t, diffs)

    def degrees(self) -> list:
        return sorted(self.basis)

    def dim(self, r: int) -> int:
        return len(self.basis.get(r, ()))

    def labels(self, r: int) -> tuple:
        return self.basis.get(r, ())

    def d(self, r: int) -> SparseMatrix:
        m = self.differentials.get(r)
        if m is None:
            return SparseMatrix.zero(self.dim(r - 1), self.dim(r))
        return m

    def rank_d(self, r: int) -> int:
        key = ("rank_d", r)
        if key not in self._cache:
            self._cache[key] = rank(self.d(r))
        return self._cache[key]


@dataclass(frozen=True)
class D2Report:
    passed: bool
    degree: int | None = None
    entry: tuple | None = None  # (target label, source label, value)


def verify_d_squared(c: ChainComplex) -> D2Report:
    """Pass iff d_r . d_{r+1} vanishes in every degree.  The report is
    cached on the complex, like the ranks of its differentials."""
    if "d2" in c._cache:
        return c._cache["d2"]
    report = D2Report(True)
    for r in c.degrees():
        if c.dim(r + 1) == 0 or c.dim(r - 1) == 0:
            continue
        product = multiply(c.d(r), c.d(r + 1))
        if not product.is_zero():
            (i, j), value = min(product.entries.items())
            report = D2Report(False, r + 1,
                              (c.labels(r - 1)[i], c.labels(r + 1)[j], value))
            break
    c._cache["d2"] = report
    return report


def homology_dims(c: ChainComplex) -> dict:
    """dim H_r = dim C_r - rank d_r - rank d_{r+1}, for every degree."""
    report = verify_d_squared(c)
    if not report.passed:
        raise ValueError(f"not a chain complex: d^2 != 0 at degree {report.degree}")
    return {r: c.dim(r) - c.rank_d(r) - c.rank_d(r + 1) for r in c.degrees()}


@dataclass(frozen=True, eq=True)
class FilteredComplex:
    complex: ChainComplex
    levels: dict          # basis label -> filtration level (nat)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def build(complex: ChainComplex, levels: Mapping) -> FilteredComplex:
        levels = dict(levels)
        for r in complex.degrees():
            for lab in complex.labels(r):
                if lab not in levels:
                    raise ValueError(f"no filtration level for basis element {lab!r}")
        for r, m in complex.differentials.items():
            src = complex.labels(r)
            tgt = complex.labels(r - 1)
            for (i, j) in m.entries:
                if levels[tgt[i]] > levels[src[j]]:
                    raise ValueError(
                        f"differential raises filtration level at degree {r}: "
                        f"{src[j]!r} (level {levels[src[j]]}) -> "
                        f"{tgt[i]!r} (level {levels[tgt[i]]})")
        return FilteredComplex(complex, levels)

    @cached_property
    def _level_range(self) -> tuple:
        return min(self.levels.values()), max(self.levels.values())

    def min_level(self) -> int:
        return self._level_range[0]

    def max_level(self) -> int:
        return self._level_range[1]

    def level_counts(self, r: int) -> dict:
        out: dict = {}
        for lab in self.complex.labels(r):
            p = self.levels[lab]
            out[p] = out.get(p, 0) + 1
        return out


@dataclass(frozen=True)
class PageTable:
    r: int
    dims: dict  # (p, q) -> positive dimension

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def csv_rows(self) -> list:
        return [f"{self.r},{p},{q},{d}" for (p, q), d in sorted(self.dims.items())]


def _sub_kernel_dim(fc: FilteredComplex, n: int, a: int, b: int) -> int:
    """dim(F_a C_n  intersect  d^{-1} F_b C_{n-1}).

    Computed as the kernel dimension of the differential block with
    columns of level <= a and rows of level > b; the filtration is
    spanned by basis elements, so these blocks are plain submatrices.
    """
    c = fc.complex
    lo, hi = fc.min_level(), fc.max_level()
    a = min(a, hi)
    if a < lo or c.dim(n) == 0:
        return 0
    key = (n, a, max(b, lo - 1))
    cached = fc._cache.get(key)
    if cached is not None:
        return cached
    src = c.labels(n)
    cols = [j for j, lab in enumerate(src) if fc.levels[lab] <= a]
    tgt = c.labels(n - 1)
    rows = [i for i, lab in enumerate(tgt) if fc.levels[lab] > b]
    if not rows or c.dim(n - 1) == 0:
        value = len(cols)
    else:
        value = len(cols) - rank(c.d(n).restrict(rows, cols))
    fc._cache[key] = value
    return value


def page_dims(fc: FilteredComplex, r: int) -> PageTable:
    """Exact dimensions of the page-r term of the filtration spectral
    sequence, bigraded by (p, q) = (level, total degree - level).

    With Z(n, a, b) = dim(F_a C_n intersect d^{-1} F_b C_{n-1}):

      dim E^r_{p,q} = Z(n,p,p-r) - Z(n,p-1,p-r)
                      - [Z(n+1,p+r-1,p) - Z(n+1,p+r-1,p-1)],  n = p+q.

    The first difference counts r-almost-cycles modulo those from one
    filtration step down; the bracket counts boundaries arriving from
    F_{p+r-1} that land in F_p but not F_{p-1}.
    """
    if r < 0:
        raise ValueError("page index must be a natural number")
    table = {}
    for n in fc.complex.degrees():
        for p in range(fc.min_level(), fc.max_level() + 1):
            z_top = _sub_kernel_dim(fc, n, p, p - r)
            z_below = _sub_kernel_dim(fc, n, p - 1, p - r)
            b_top = _sub_kernel_dim(fc, n + 1, p + r - 1, p)
            b_below = _sub_kernel_dim(fc, n + 1, p + r - 1, p - 1)
            d = (z_top - z_below) - (b_top - b_below)
            if d < 0:
                raise AssertionError(f"negative page dimension at r={r}, (p,q)=({p},{n-p})")
            if d:
                table[(p, n - p)] = d
    return PageTable(r, table)


def stable_page_index(fc: FilteredComplex) -> int:
    """A page index from which the tables no longer change."""
    return fc.max_level() - fc.min_level() + 2


@dataclass(frozen=True, eq=True)
class ChainMap:
    """Degree-shifted map f_r : source_r -> target_{r+shift} given by
    per-degree sparse matrices; missing degrees are zero."""

    source: ChainComplex
    target: ChainComplex
    shift: int
    matrices: dict
    note: str = field(default="", compare=False)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def build(source, target, shift, matrices, note="") -> ChainMap:
        clean = {}
        for r, m in matrices.items():
            r = int(r)
            want = (target.dim(r + shift), source.dim(r))
            if (m.rows, m.cols) != want:
                raise ValueError(
                    f"map matrix at degree {r} is {m.rows}x{m.cols}, expected {want}")
            if m.entries:
                clean[r] = m
        return ChainMap(source, target, shift, clean, note)

    def matrix(self, r: int) -> SparseMatrix:
        m = self.matrices.get(r)
        if m is None:
            return SparseMatrix.zero(self.target.dim(r + self.shift), self.source.dim(r))
        return m


@dataclass(frozen=True)
class ChainMapReport:
    passed: bool
    degree: int | None = None
    label: str | None = None  # source basis element where commuting fails


def verify_chain_map(f: ChainMap) -> ChainMapReport:
    """Pass iff d_target . f = f . d_source in every degree.  The report
    is cached on the map, like the d^2 report on a complex."""
    if "commutes" in f._cache:
        return f._cache["commutes"]
    report = ChainMapReport(True)
    degrees = sorted(set(f.source.degrees()) | {r + 1 for r in f.source.degrees()})
    for r in degrees:
        if f.source.dim(r) == 0:
            continue
        lhs = multiply(f.target.d(r + f.shift), f.matrix(r))
        rhs = multiply(f.matrix(r - 1), f.source.d(r))
        if lhs != rhs:
            bad_cols = {j for (_, j) in lhs.entries} | {j for (_, j) in rhs.entries}
            j = min(j for j in bad_cols
                    if any(lhs.get(i, j) != rhs.get(i, j) for i in range(lhs.rows)))
            report = ChainMapReport(False, r, f.source.labels(r)[j])
            break
    f._cache["commutes"] = report
    return report


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f; shifts add."""
    if g.source is not f.target and g.source != f.target:
        raise ValueError("maps are not composable")
    matrices = {}
    for r in f.source.degrees():
        m = multiply(g.matrix(r + f.shift), f.matrix(r))
        if m.entries:
            matrices[r] = m
    return ChainMap.build(f.source, g.target, f.shift + g.shift, matrices)


def identity_map(c: ChainComplex) -> ChainMap:
    return ChainMap.build(
        c, c, 0, {r: SparseMatrix.identity(c.dim(r)) for r in c.degrees()})


def is_surjective(f: ChainMap) -> bool:
    """Matrix rank equals target dimension in every degree."""
    for r in sorted(set(f.source.degrees()) | {r - f.shift for r in f.target.degrees()}):
        want = f.target.dim(r + f.shift)
        if want and rank(f.matrix(r)) != want:
            return False
    return True


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f, with the source placed one degree up (after undoing the
    shift) and its differential negated.  Acyclicity of the cone is the
    working definition of f being a quasi-isomorphism."""
    report = verify_chain_map(f)
    if not report.passed:
        raise ValueError(f"mapping cone of a non-chain-map (fails at degree {report.degree})")
    s = f.shift
    src, tgt = f.source, f.target
    degrees = sorted({r + 1 + s for r in src.degrees()} | set(tgt.degrees()))
    basis = {}
    for r in degrees:
        labels = tuple("c::" + lab for lab in src.labels(r - 1 - s))
        labels += tuple("t::" + lab for lab in tgt.labels(r))
        if labels:
            basis[r] = labels
    diffs = {}
    for r in degrees:
        src_deg = r - 1 - s           # source degree shown in cone degree r
        n_src = src.dim(src_deg)
        n_tgt = tgt.dim(r)
        rows_src = src.dim(src_deg - 1)
        rows_tgt = tgt.dim(r - 1)
        entries = {}
        for (i, j), v in src.d(src_deg).entries.items():
            entries[(i, j)] = -v
        for (i, j), v in f.matrix(src_deg).entries.items():
            entries[(rows_src + i, j)] = v
        for (i, j), v in tgt.d(r).entries.items():
            entries[(rows_src + i, n_src + j)] = v
        m = SparseMatrix.from_entries(rows_src + rows_tgt, n_src + n_tgt, entries)
        if m.entries:
            diffs[r] = m
    cone = ChainComplex.build(basis, diffs)
    check = verify_d_squared(cone)
    if not check.passed:
        raise AssertionError(f"cone differential fails d^2=0 at degree {check.degree}")
    return cone


def is_quasi_isomorphism(f: ChainMap) -> bool:
    return all(v == 0 for v in homology_dims(mapping_cone(f)).values())


def complex_to_json(c: ChainComplex, levels: Mapping | None = None) -> dict:
    doc = {
        "degrees": {str(r): list(c.labels(r)) for r in c.degrees()},
        "differentials": {
            str(r): [[i, j, f"{v.numerator}/{v.denominator}"]
                     for (i, j), v in sorted(m.entries.items())]
            for r, m in sorted(c.differentials.items())
        },
    }
    if levels is not None:
        doc["levels"] = {lab: int(p) for lab, p in sorted(levels.items())}
    return doc


def complex_from_json(doc: Mapping):
    """Inverse of complex_to_json; returns (complex, levels-or-None)."""
    basis = {int(r): tuple(labels) for r, labels in doc["degrees"].items()}
    diffs = {}
    for r, triples in doc.get("differentials", {}).items():
        r = int(r)
        entries = {(int(i), int(j)): Fraction(value) for i, j, value in triples}
        diffs[r] = SparseMatrix.from_entries(
            len(basis.get(r - 1, ())), len(basis.get(r, ())), entries)
    complex = ChainComplex.build(basis, diffs)
    levels = doc.get("levels")
    if levels is not None:
        levels = {lab: int(p) for lab, p in levels.items()}
    return complex, levels
