"""Finite free chain complexes over Q: d^2 checks, homology dimensions,
filtration spectral-sequence pages, chain maps, mapping cones and the
one-class quasi-isomorphism test.

Complexes are graded homologically with a sparse differential matrix
per degree.  Basis labels are opaque strings, unique across the whole
complex, so one engine serves permutohedra, simplices and fibers.  A
filtered complex is a complex with one level per cell, held by index.
d^2, homology, the class test and every spectral page are read off one
reduction of the whole complex (``linalg.pivots``, top degree down,
with clearing), cached on the complex; it proves d^2 = 0 as it goes,
a mapping cone's included.  It takes a filtered complex's cells in
(level, index) order, so its pivot pairs are the persistence pairs, and
an unfiltered one's in index order.  No verdict multiplies whole matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Mapping

from .linalg import (SparseMatrix, _times, first_mismatch, multiply, pivots,
                     product_vanishes, rank)


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
            _check_matrix(m, len(basis_t.get(r - 1, ())), len(basis_t.get(r, ())),
                          f"differential at degree {r}")
            if not m.is_zero():
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
                for label, p in zip(labels, ps):
                    if type(p) is not int or p < 0:  # a bool is not an int
                        raise ValueError(f"filtration level {p!r} of {label!r} at "
                                         f"degree {r} is not a natural number")
            for r, m in diffs.items():
                below = levels[r - 1]
                for j, (column, p) in enumerate(zip(m.columns, levels[r])):
                    for i in column:
                        if below[i] > p:
                            raise ValueError(
                                f"differential raises filtration level at degree {r}: "
                                f"{basis_t[r][j]!r} (level {p}) -> "
                                f"{basis_t[r - 1][i]!r} (level {below[i]})")
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


_EXACT = frozenset((int, Fraction))


def _check_matrix(m: SparseMatrix, rows: int, cols: int, what: str) -> None:
    """Refuse m unless it is rows x cols with every entry in its rows, a
    negative row included, which a list would index silently, and every
    stored value a nonzero int or Fraction: an explicit zero would be
    paired as a pivot, and a float is not exact.  A matrix is checked
    here, once, where it joins a complex or a map.  The keys of its
    nonempty columns are read once, into the set of rows it uses."""
    if (m.rows, m.cols) != (rows, cols):
        raise ValueError(f"{what} is {m.rows}x{m.cols}, expected {rows}x{cols}")
    nonempty = list(filter(None, m.columns))
    used = set().union(*nonempty)
    if used and (min(used) < 0 or max(used) >= m.rows):
        row = min(used) if min(used) < 0 else max(used)
        raise ValueError(f"{what} has an entry in row {row}, outside its {m.rows} rows")
    if 0 in chain.from_iterable(map(dict.values, nonempty)):
        raise ValueError(f"{what} stores an explicit zero")
    kinds = set(map(type, chain.from_iterable(map(dict.values, nonempty))))
    if not _EXACT.issuperset(kinds):
        names = ", ".join(sorted(kind.__name__ for kind in kinds - _EXACT))
        raise ValueError(f"{what} stores a value of type {names}, not int or Fraction")


@dataclass(frozen=True)
class D2Report:
    passed: bool
    degree: int | None = None
    entry: tuple | None = None  # (target label, source label, value)


def verify_d_squared(c: ChainComplex) -> D2Report:
    """Pass iff d_r . d_{r+1} vanishes in every degree.

    The check is the one reduction that homology, the class test and
    the pages read (``_reduce``), and a passing check caches its pivot
    pairs.  A failing report names the least (row, col) entry of the
    lowest failing product.  The report is cached on the complex."""
    if "d2" not in c._cache:
        pairs = _reduce(c)
        if pairs is None:
            c._cache["d2"] = _d2_witness(c)
        else:
            c._cache["pairs"] = pairs
            c._cache["d2"] = D2Report(True)
    return c._cache["d2"]


def _d2_witness(c: ChainComplex) -> D2Report:
    """The least (row, col) entry of the lowest nonzero d_r . d_{r+1}; its
    columns are formed one at a time, and only the least one is kept."""
    for r in c.degrees():
        d = c.d(r)
        product = (_times(d, column) for column in c.d(r + 1).columns)
        least = min(((min(col), j, col) for j, col in enumerate(product) if col),
                    default=None)
        if least is not None:
            i, j, col = least
            return D2Report(False, r + 1, (c.labels(r - 1)[i], c.labels(r + 1)[j], col[i]))
    return D2Report(True)


def _reduce(c: ChainComplex) -> dict | None:
    """degree n -> the (row, col) pivot pairs of d_n, from one reduction
    of the whole complex, or None when d^2 != 0.  It runs from the top
    degree down.  The cells of a filtered complex are taken in (level,
    index) order, so the pairs are its persistence pairs; an unfiltered
    complex's in index order.

    Before d_n is reduced, it is applied to the pivot columns of
    d_{n+1}, which span the image of d_{n+1}: every other column of
    d_{n+1} reduced to zero, or was cleared as a boundary, hence a
    cycle by the step before.  So d_n d_{n+1} = 0 exactly when d_n
    kills those columns, and then a column of d_n that is a pivot row
    of d_{n+1} is a cycle, so it is cleared instead of reduced."""
    order = {n: sorted(range(len(ps)), key=ps.__getitem__)
             for n, ps in (c.levels or {}).items()}
    pairs: dict = {}
    for n in sorted(c.differentials, reverse=True):
        above = pairs.get(n + 1, ())
        if above and not product_vanishes(
                c.differentials[n], c.differentials[n + 1], [j for _, j in above]):
            return None
        boundaries = {row for row, _ in above}
        pairs[n] = pivots(c.differentials[n], order.get(n - 1), order.get(n), boundaries)
    return pairs


def _pairs(c: ChainComplex) -> dict:
    """The pivot pairs of ``_reduce``, cached by ``verify_d_squared``: the
    one gate to them, which refuses a complex whose d^2 fails."""
    report = verify_d_squared(c)
    if not report.passed:
        raise ValueError(f"not a chain complex: d^2 != 0 at degree {report.degree}")
    return c._cache["pairs"]


def homology_dims(c: ChainComplex) -> dict:
    """dim H_r = dim C_r - rank d_r - rank d_{r+1}, for every degree:
    the degree-r cells that no pivot pair of the reduction holds."""
    pairs = _pairs(c)
    return {r: c.dim(r) - len(pairs.get(r, ())) - len(pairs.get(r + 1, ()))
            for r in c.degrees()}


def _unpaired(c: ChainComplex, r: int) -> list:
    """Indices of the degree-r cells that no pivot pair of the cached
    reduction holds, in basis order."""
    pairs = _pairs(c)
    held = {j for _, j in pairs.get(r, ())} | {i for i, _ in pairs.get(r + 1, ())}
    return [k for k in range(c.dim(r)) if k not in held]


def unpaired_cells(c: ChainComplex, r: int) -> tuple:
    """Labels of the degree-r cells that no pivot pair of the cached
    reduction holds, in basis order: dim H_r of them, one for each class
    of a homology basis, read off the pairs without a second reduction."""
    labels = c.labels(r)
    return tuple(labels[k] for k in _unpaired(c, r))


def _spans(c: ChainComplex) -> dict:
    """(p, q) -> Counter of spans over the cells of level p and degree
    p + q: e - b for a cell in a persistence pair (b, e) of the cached
    reduction, None for an unpaired cell.  Cached on the complex."""
    if "spans" not in c._cache:
        pairs = _pairs(c)
        levels = c.levels
        if levels is None:
            raise ValueError("complex has no filtration levels")
        spans = {n: [None] * c.dim(n) for n in c.degrees()}
        for n, ps in pairs.items():
            for i, j in ps:
                spans[n][j] = spans[n - 1][i] = levels[n][j] - levels[n - 1][i]
        out: dict = {}
        for n in c.degrees():
            for p, span in zip(levels[n], spans[n]):
                counts = out.get((p, n - p))
                if counts is None:
                    counts = out[p, n - p] = Counter()
                counts[span] += 1
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
    table = {}
    for key, spans in sorted(_spans(c).items()):
        d = sum(k for span, k in spans.items() if span is None or span >= r)
        if d:
            table[key] = d
    return PageTable(r, table)


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
            _check_matrix(m, target.dim(r + shift), source.dim(r),
                          f"map matrix at degree {r}")
            if not m.is_zero():
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
    label: str | None = None  # source basis element that witnesses a failure


def verify_chain_map(f: ChainMap) -> ChainMapReport:
    """Pass iff d_target . f = f . d_source in every degree, decided by
    one ``linalg.first_mismatch`` per degree, which forms neither side.
    A failing report names the lowest failing degree and, in it, the
    first source cell whose columns differ.  The report is cached on
    the map, like the d^2 report on a complex."""
    if "commutes" in f._cache:
        return f._cache["commutes"]
    report = ChainMapReport(True)
    for r in f.source.degrees():
        j = first_mismatch(f.target.d(r + f.shift), f.matrix(r).columns,
                           f.matrix(r - 1), f.source.d(r).columns)
        if j is not None:
            report = ChainMapReport(False, r, f.source.labels(r)[j])
            break
    f._cache["commutes"] = report
    return report


def verify_factorization(h: ChainMap, g: ChainMap, f: ChainMap) -> ChainMapReport:
    """Pass iff h: A -> C equals g: B -> C after f: A -> B, decided by
    one ``linalg.first_mismatch`` per degree, as in ``verify_chain_map``,
    so g after f is never formed.  A failing report names the lowest
    failing degree and the first cell of A in it that differs."""
    if (g.source != f.target or h.source != f.source or h.target != g.target
            or h.shift != f.shift + g.shift):
        raise ValueError("h, g and f do not form a triangle")
    for r in f.source.degrees():
        j = first_mismatch(g.matrix(r + f.shift), f.matrix(r).columns,
                           None, h.matrix(r).columns)
        if j is not None:
            return ChainMapReport(False, r, f.source.labels(r)[j])
    return ChainMapReport(True)


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f; shifts add."""
    if g.source is not f.target and g.source != f.target:
        raise ValueError("maps are not composable")
    matrices = {}
    for r in f.source.degrees():
        m = multiply(g.matrix(r + f.shift), f.matrix(r))
        if not m.is_zero():
            matrices[r] = m
    return ChainMap.build(f.source, g.target, f.shift + g.shift, matrices)


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
    working definition of f being a quasi-isomorphism, and the oracle
    that ``quasi_isomorphism_report`` is checked against.

    f must commute, and ``_pairs`` refuses a source or target whose d^2
    fails.  The cone proves its own D^2 = 0, like any complex, in the
    one reduction its homology reads."""
    report = verify_chain_map(f)
    if not report.passed:
        raise ValueError(f"mapping cone of a non-chain-map (fails at degree {report.degree})")
    s = f.shift
    src, tgt = f.source, f.target
    _pairs(src)
    _pairs(tgt)
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
        top = src.dim(src_deg - 1)    # rows of the source part; the target's follow
        columns = [{i: -v for i, v in col.items()} for col in src.d(src_deg).columns]
        for col, image in zip(columns, f.matrix(src_deg).columns):
            col.update({top + i: v for i, v in image.items()})
        columns += [{top + i: v for i, v in col.items()} for col in tgt.d(r).columns]
        m = SparseMatrix(top + tgt.dim(r - 1), tuple(columns))
        if not m.is_zero():
            diffs[r] = m
    return ChainComplex.build(basis, diffs)


def is_quasi_isomorphism(f: ChainMap) -> bool:
    """Whether the mapping cone of f is acyclic."""
    return all(v == 0 for v in homology_dims(mapping_cone(f)).values())


def point_degree(c: ChainComplex) -> int | None:
    """The degree of the one class when H(c) is a point, else None."""
    h = homology_dims(c)
    classes = [r for r, d in h.items() if d]
    if len(classes) == 1 and h[classes[0]] == 1:
        return classes[0]
    return None


def quasi_isomorphism_report(f: ChainMap) -> ChainMapReport:
    """Whether the chain map f: A -> B is a quasi-isomorphism, from one
    homology class when H(A) and H(B) are points.

    The cone C(f) sits in a short exact sequence 0 -> B -> C(f) -> A -> 0,
    with A raised one degree past f's shift s, and the connecting map of
    its long exact sequence is f_*: H_r(A) -> H_{r+s}(B).  So C(f) is
    acyclic exactly when f_* is an isomorphism.  When H(A) is one class
    in degree a and H(B) one class in degree b, that holds exactly when
    a + s = b and f_* sends a generator of H_a(A) to a nonzero class.

    A generator: when d_a vanishes, as in the bottom degree, every chain
    of degree a is a cycle, and the cells that no pivot pair of the
    cached reduction holds give a basis of H_a (the pivot rows of
    d_{a+1} index an echelon basis of its image, in whatever order the
    reduction took the cells).  So the first such cell v is a
    generator.  Its image f(v) is a cycle, since f commutes,
    and its class is nonzero exactly when f(v) is not a boundary: when
    appending f(v) to the pivot columns of d_{b+1}, a basis of the
    boundaries, raises their rank.  That one reduction uses
    ``linalg.pivots`` over the integers; the ranks and unpaired cells
    come from the reductions cached on A and B.

    A failing report names a and v.  When a side is not a point, or A's
    class sits where d_a does not vanish, the cone decides
    (``is_quasi_isomorphism``) and a failing report names no class.
    """
    report = verify_chain_map(f)
    if not report.passed:
        raise ValueError(f"class test of a non-chain-map (fails at degree {report.degree})")
    a, b = point_degree(f.source), point_degree(f.target)
    if a is None or b is None or a in f.source.differentials:
        return ChainMapReport(is_quasi_isomorphism(f))
    v = _unpaired(f.source, a)[0]
    lost = ChainMapReport(False, a, f.source.labels(a)[v])
    image = f.matrix(a).columns[v]
    if a + f.shift != b or not image:
        return lost
    d = f.target.d(b + 1)
    basis = [j for _, j in _pairs(f.target).get(b + 1, ())]
    extended = SparseMatrix(d.rows, d.columns + (image,))
    if len(pivots(extended, cols=basis + [d.cols])) > len(basis):
        return ChainMapReport(True)
    return lost


def complex_to_json(c: ChainComplex) -> dict:
    doc = {
        "degrees": {str(r): list(c.labels(r)) for r in c.degrees()},
        "differentials": {
            str(r): sorted([[i, j, f"{v.numerator}/{v.denominator}"]
                            for j, column in enumerate(m.columns)
                            for i, v in column.items()])
            for r, m in sorted(c.differentials.items())
        },
    }
    if c.levels is not None:
        doc["levels"] = dict(sorted(
            (lab, p) for r in c.degrees() for lab, p in zip(c.labels(r), c.levels[r])))
    return doc


def _exactly(kind: type, value):
    """value, refused unless its type is kind itself (a bool is not an
    int): a document holds indices, levels and label lists as written."""
    if type(value) is not kind:
        raise TypeError(f"{value!r} is not of type {kind.__name__}")
    return value


def _entry(value) -> Fraction:
    """A document's entry value, written as an "n/d" string or an int (a
    bool is not one); a float or anything else is refused, not rounded."""
    if type(value) is not str and type(value) is not int:
        raise TypeError(f"entry value {value!r} is neither a string nor an int")
    return Fraction(value)


def complex_from_json(doc: Mapping) -> ChainComplex:
    """Inverse of complex_to_json; a malformed document raises ValueError.
    Rows, columns and levels must be ints, label lists lists and entry
    values strings or ints."""
    try:
        basis = {int(r): tuple(_exactly(list, labels))
                 for r, labels in doc["degrees"].items()}
        diffs = {}
        for r, triples in doc.get("differentials", {}).items():
            r = int(r)
            entries = {(_exactly(int, i), _exactly(int, j)): _entry(value)
                       for i, j, value in triples}
            diffs[r] = SparseMatrix.from_entries(
                len(basis.get(r - 1, ())), len(basis.get(r, ())), entries)
        levels = doc.get("levels")
        if levels is not None:
            for labels in basis.values():
                for lab in labels:
                    if lab not in levels:
                        raise ValueError(
                            f"no filtration level for basis element {lab!r}")
            levels = {r: tuple(_exactly(int, levels[lab]) for lab in labels)
                      for r, labels in basis.items()}
        return ChainComplex.build(basis, diffs, levels)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed complex document: "
                         f"{type(exc).__name__}: {exc}") from exc
