"""Finite free chain complexes over Q: d^2 checks, homology dimensions,
filtration spectral-sequence pages, chain maps and mapping cones.

Complexes are graded homologically with a sparse differential matrix
per degree.  Basis labels are opaque strings, unique across the whole
complex, so one engine serves permutohedra, simplices and fibers.  A
filtered complex is a complex with one level per cell, held by index.
Homology and every spectral page come from one reduction of the whole
complex (``linalg.pivots``, top degree down, with clearing), cached on
the complex: in index order for homology and cones, and in (level,
index) order for the pages, whose dimensions are read off the
persistence pairs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .linalg import SparseMatrix, multiply, pivots, rank


@dataclass(frozen=True, eq=True)
class ChainComplex:
    basis: dict           # degree -> tuple of labels
    differentials: dict   # degree r -> SparseMatrix of d_r : C_r -> C_{r-1}
    levels: dict | None = None  # degree -> filtration levels in basis order
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @staticmethod
    def build(basis: Mapping, differentials: Mapping,
              levels: Mapping | None = None) -> ChainComplex:
        """Validated complex; ``levels``, when given, filters it: one
        natural number per cell, and d never raises a level."""
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
        if levels is not None:
            levels = {int(r): tuple(ps) for r, ps in levels.items() if ps}
            for r in sorted(set(basis_t) | set(levels)):
                labels, ps = basis_t.get(r, ()), levels.get(r, ())
                if len(ps) < len(labels):
                    raise ValueError(
                        f"no filtration level for basis element {labels[len(ps)]!r}")
                if len(ps) > len(labels):
                    raise ValueError(f"{len(ps)} filtration levels for "
                                     f"{len(labels)} basis elements at degree {r}")
            for r, m in diffs.items():
                src, tgt = basis_t[r], basis_t[r - 1]
                for i, j in m.entries:
                    if levels[r - 1][i] > levels[r][j]:
                        raise ValueError(
                            f"differential raises filtration level at degree {r}: "
                            f"{src[j]!r} (level {levels[r][j]}) -> "
                            f"{tgt[i]!r} (level {levels[r - 1][i]})")
        return ChainComplex(basis_t, diffs, levels)

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


def _require_complex(c: ChainComplex) -> None:
    report = verify_d_squared(c)
    if not report.passed:
        raise ValueError(f"not a chain complex: d^2 != 0 at degree {report.degree}")


def _reduce(c: ChainComplex, order=lambda n: None) -> dict:
    """degree n -> the (row, col) pivot pairs of d_n, from one reduction
    of the whole complex.  It runs from the top degree down, and a
    column of d_n that is a pivot row of d_{n+1} is a boundary, hence a
    cycle since d^2 = 0, so it is cleared instead of reduced.
    ``order(n)`` lists the degree-n cells in the order the reduction
    takes them, None for index order."""
    pairs: dict = {}
    for n in sorted(c.differentials, reverse=True):
        boundaries = {row for row, _ in pairs.get(n + 1, ())}
        pairs[n] = pivots(c.differentials[n], order(n - 1), order(n), boundaries)
    return pairs


def homology_dims(c: ChainComplex) -> dict:
    """dim H_r = dim C_r - rank d_r - rank d_{r+1}, for every degree:
    the degree-r cells that no pivot pair of the reduction holds."""
    _require_complex(c)
    if "pairs" not in c._cache:
        c._cache["pairs"] = _reduce(c)
    pairs = c._cache["pairs"]
    return {r: c.dim(r) - len(pairs.get(r, ())) - len(pairs.get(r + 1, ()))
            for r in c.degrees()}


def _levels(c: ChainComplex) -> dict:
    if c.levels is None:
        raise ValueError("complex has no filtration levels")
    return c.levels


def _spans(c: ChainComplex) -> dict:
    """(p, q) -> Counter of spans over the cells of level p and degree
    p + q: e - b for a cell in a persistence pair (b, e) of the
    (level, index)-ordered reduction, None for an unpaired cell.
    Cached on the complex."""
    if "spans" not in c._cache:
        levels = _levels(c)
        order = {n: sorted(range(c.dim(n)), key=ps.__getitem__)
                 for n, ps in levels.items()}
        pairs = _reduce(c, order.get)
        spans = {n: [None] * c.dim(n) for n in c.degrees()}
        for n, ps in pairs.items():
            for i, j in ps:
                spans[n][j] = spans[n - 1][i] = levels[n][j] - levels[n - 1][i]
        out: dict = {}
        for n in c.degrees():
            for p, span in zip(levels[n], spans[n]):
                out.setdefault((p, n - p), Counter())[span] += 1
        c._cache["spans"] = out
    return c._cache["spans"]


@dataclass(frozen=True)
class PageTable:
    r: int
    dims: dict  # (p, q) -> positive dimension

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def csv_rows(self) -> list:
        return [f"{self.r},{p},{q},{d}" for (p, q), d in sorted(self.dims.items())]


def page_dims(c: ChainComplex, r: int) -> PageTable:
    """Exact dimensions of the page-r term of the filtration spectral
    sequence, bigraded by (p, q) = (level, total degree - level).

    dim E^r_{p,q} counts the cells of level p and degree p + q that no
    persistence pair holds, plus those in a pair (b, e) with e - b >= r:
    a pair cancels on the page after its span, so E^0 counts every cell
    and E^1 keeps the pairs that cross levels.
    """
    if r < 0:
        raise ValueError("page index must be a natural number")
    _require_complex(c)
    table = {}
    for key, spans in sorted(_spans(c).items()):
        d = sum(k for span, k in spans.items() if span is None or span >= r)
        if d:
            table[key] = d
    return PageTable(r, table)


def stable_page_index(c: ChainComplex) -> int:
    """A page index from which the tables no longer change."""
    levels = [p for ps in _levels(c).values() for p in ps]
    return max(levels) - min(levels) + 2


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
    working definition of f being a quasi-isomorphism.

    The cone's D^2 is [[d^2, 0], [d f - f d, d^2]], so the cached d^2
    reports of source and target and the chain-map report of f prove
    D^2 = 0; the cone starts with that passing d^2 report."""
    report = verify_chain_map(f)
    if not report.passed:
        raise ValueError(f"mapping cone of a non-chain-map (fails at degree {report.degree})")
    _require_complex(f.source)
    _require_complex(f.target)
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
    cone._cache["d2"] = D2Report(True)
    return cone


def is_quasi_isomorphism(f: ChainMap) -> bool:
    return all(v == 0 for v in homology_dims(mapping_cone(f)).values())


def complex_to_json(c: ChainComplex) -> dict:
    doc = {
        "degrees": {str(r): list(c.labels(r)) for r in c.degrees()},
        "differentials": {
            str(r): [[i, j, f"{v.numerator}/{v.denominator}"]
                     for (i, j), v in sorted(m.entries.items())]
            for r, m in sorted(c.differentials.items())
        },
    }
    if c.levels is not None:
        doc["levels"] = dict(sorted(
            (lab, p) for r in c.degrees() for lab, p in zip(c.labels(r), c.levels[r])))
    return doc


def complex_from_json(doc: Mapping) -> ChainComplex:
    """Inverse of complex_to_json; a malformed document raises ValueError."""
    try:
        basis = {int(r): tuple(labels) for r, labels in doc["degrees"].items()}
        diffs = {}
        for r, triples in doc.get("differentials", {}).items():
            r = int(r)
            entries = {(int(i), int(j)): Fraction(value) for i, j, value in triples}
            diffs[r] = SparseMatrix.from_entries(
                len(basis.get(r - 1, ())), len(basis.get(r, ())), entries)
        levels = doc.get("levels")
        if levels is not None:
            for labels in basis.values():
                for lab in labels:
                    if lab not in levels:
                        raise ValueError(
                            f"no filtration level for basis element {lab!r}")
            levels = {r: tuple(int(levels[lab]) for lab in labels)
                      for r, labels in basis.items()}
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed complex document: "
                         f"{type(exc).__name__}: {exc}") from exc
    return ChainComplex.build(basis, diffs, levels)
