"""Exact sparse linear algebra over the rationals.

Ranks, kernel dimensions and products of sparse matrices with exact
rational entries: a plain int for an integral entry, a Fraction
otherwise.  Everything is exact: rank runs one sparse, fraction-free
elimination over the integers after clearing denominators row by row
(a rank-preserving rescaling), so no tolerance ever enters a rank
decision.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Mapping

Rational = Fraction


def _exact(value):
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


@dataclass(frozen=True, eq=True)
class SparseMatrix:
    """Immutable rows x cols matrix storing only its nonzero entries.

    ``entries`` maps (row, col) to a nonzero exact rational: an ``int``
    when the entry is integral and a ``Fraction`` only otherwise, so the
    integer differentials this package builds stay in machine-int
    arithmetic.  Entries compare by value (``1 == Fraction(1)``), and
    both kinds carry ``numerator`` and ``denominator``.  Instances are
    treated as immutable values; all operations return fresh matrices.
    """

    rows: int
    cols: int
    entries: dict

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Mapping) -> SparseMatrix:
        clean = {}
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
            value = _exact(value)
            if value != 0:
                clean[(i, j)] = value
        return SparseMatrix(rows, cols, clean)

    @staticmethod
    def zero(rows: int, cols: int) -> SparseMatrix:
        return SparseMatrix(rows, cols, {})

    @staticmethod
    def identity(n: int) -> SparseMatrix:
        return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def get(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def restrict(self, row_keep, col_keep) -> SparseMatrix:
        """Submatrix on the given row/column index sets, reindexed densely."""
        row_pos = {r: i for i, r in enumerate(sorted(set(row_keep)))}
        col_pos = {c: j for j, c in enumerate(sorted(set(col_keep)))}
        sub = {}
        for (i, j), value in self.entries.items():
            if i in row_pos and j in col_pos:
                sub[(row_pos[i], col_pos[j])] = value
        return SparseMatrix(len(row_pos), len(col_pos), sub)

    def dense(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), value in self.entries.items():
            out[i][j] = value
        return out


def multiply(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Exact product a @ b; raises on a dimension mismatch."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_rows = defaultdict(list)
    for (k, j), value in b.entries.items():
        b_rows[k].append((j, value))
    acc: dict = {}
    for (i, k), va in a.entries.items():
        for j, vb in b_rows.get(k, ()):
            key = (i, j)
            prev = acc.get(key)
            acc[key] = va * vb if prev is None else prev + va * vb
    return SparseMatrix(a.rows, b.cols, {k: _exact(v) for k, v in acc.items() if v != 0})


def kernel_dim(m: SparseMatrix) -> int:
    return m.cols - rank(m)


def _integer_rows(m: SparseMatrix) -> dict:
    """Rows as integer dicts after clearing denominators and dividing by
    the row gcd.  Row rescaling by nonzero constants preserves rank."""
    rows: dict = defaultdict(dict)
    for (i, j), value in m.entries.items():
        rows[i][j] = value
    out = {}
    for i, row in rows.items():
        if any(type(v) is not int for v in row.values()):
            denom = lcm(*(v.denominator for v in row.values()))
            row = {j: int(v * denom) for j, v in row.items()}
        g = gcd(*row.values())
        if g > 1:
            row = {j: v // g for j, v in row.items()}
        out[i] = row
    return out


def rank(m: SparseMatrix) -> int:
    """Rank of m over the rationals, exactly and deterministically.

    Sparse integer elimination.  Pivots are chosen Markowitz-style: the
    sparsest live column (least index on a tie), then within it a unit
    entry on the sparsest row.  Updated rows are renormalised by their
    gcd to keep entry growth down.

    The sparsest column comes from a heap of (live count, column) with
    lazy invalidation: an entry is current only while its count equals
    the column's live count.  Only the columns of the pivot row can
    change in a step, and each one whose count changed gets a fresh
    entry, so every live column always has a current entry and the
    first current entry popped is the minimum over all live columns."""
    rows = _integer_rows(m)
    col_rows: dict = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            col_rows[j].add(i)
    heap = [(len(live), j) for j, live in col_rows.items()]
    heapify(heap)
    r = 0
    while heap:
        count, c = heappop(heap)
        candidates = col_rows.get(c)
        if candidates is None or len(candidates) != count:
            continue
        pr_index = min(
            candidates,
            key=lambda i: (abs(rows[i][c]) != 1, len(rows[i]), i),
        )
        pivot_row = rows.pop(pr_index)
        before = {j: len(col_rows[j]) for j in pivot_row}
        for j in pivot_row:
            live = col_rows[j]
            live.discard(pr_index)
            if not live:
                del col_rows[j]
        r += 1
        p = pivot_row[c]
        for i in list(col_rows.get(c, ())):
            row = rows[i]
            head = row[c]
            # row <- p*row - head*pivot_row, then divide by the row gcd.
            if p != 1:
                for j in row:
                    if j not in pivot_row:
                        row[j] = p * row[j]
            for j, v in pivot_row.items():
                new = p * row.get(j, 0) - head * v
                if new:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = new
                elif j in row:
                    del row[j]
                    live = col_rows[j]
                    live.discard(i)
                    if not live:
                        del col_rows[j]
            if row:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
            else:
                del rows[i]
        for j, count in before.items():
            live = col_rows.get(j)
            if live and len(live) != count:
                heappush(heap, (len(live), j))
    return r
