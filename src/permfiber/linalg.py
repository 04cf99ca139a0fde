"""Exact sparse linear algebra over the rationals.

Ranks, kernel dimensions and products of sparse matrices with Fraction
entries.  Everything is exact: rank runs one sparse, fraction-free
elimination over the integers after clearing denominators row by row
(a rank-preserving rescaling), so no tolerance ever enters a rank
decision.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

Rational = Fraction


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True, eq=True)
class SparseMatrix:
    """Immutable rows x cols matrix storing only its nonzero entries.

    ``entries`` maps (row, col) to a nonzero Fraction.  Instances are
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
            value = _as_fraction(value)
            if value != 0:
                clean[(i, j)] = value
        return SparseMatrix(rows, cols, clean)

    @staticmethod
    def zero(rows: int, cols: int) -> SparseMatrix:
        return SparseMatrix(rows, cols, {})

    @staticmethod
    def identity(n: int) -> SparseMatrix:
        one = Fraction(1)
        return SparseMatrix(n, n, {(i, i): one for i in range(n)})

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

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
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
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
    return SparseMatrix(a.rows, b.cols, {k: v for k, v in acc.items() if v != 0})


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
        denom = lcm(*(v.denominator for v in row.values()))
        ints = {j: int(v * denom) for j, v in row.items()}
        g = gcd(*(abs(v) for v in ints.values()))
        if g > 1:
            ints = {j: v // g for j, v in ints.items()}
        out[i] = ints
    return out


def rank(m: SparseMatrix) -> int:
    """Rank of m over the rationals, exactly and deterministically.

    Sparse integer elimination.  Pivots are chosen Markowitz-style: the
    sparsest live column, then within it a unit entry on the sparsest
    row.  Updated rows are renormalised by their gcd to keep entry
    growth down."""
    rows = _integer_rows(m)
    col_rows: dict = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            col_rows[j].add(i)
    r = 0
    while col_rows:
        c = min(col_rows, key=lambda j: (len(col_rows[j]), j))
        candidates = col_rows[c]
        pr_index = min(
            candidates,
            key=lambda i: (abs(rows[i][c]) != 1, len(rows[i]), i),
        )
        pivot_row = rows.pop(pr_index)
        for j in pivot_row:
            live = col_rows.get(j)
            if live is not None:
                live.discard(pr_index)
                if not live:
                    del col_rows[j]
        r += 1
        p = pivot_row[c]
        for i in list(col_rows.get(c, ())):
            row = rows[i]
            head = row[c]
            # row <- p*row - head*pivot_row, then divide by the row gcd.
            for j in list(row):
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
                    live = col_rows.get(j)
                    if live is not None:
                        live.discard(i)
                        if not live:
                            del col_rows[j]
            if row:
                g = gcd(*(abs(v) for v in row.values()))
                if g > 1:
                    for j in row:
                        row[j] //= g
            else:
                del rows[i]
    return r
