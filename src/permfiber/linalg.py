"""Exact sparse linear algebra over the rationals.

Sparse matrices held column by column, with exact rational entries (a
plain int for an integral entry, a Fraction otherwise), their products
one column at a time, one product kernel, ``product_vanishes``, which
tests listed columns of a product for zero without forming them, and
one elimination: the lowest-pivot column reduction ``pivots``, over the
integers.  Its (row, col) pivot pairs give the rank, and, taken in a
filtration order, the persistence pairs from which ``complexes`` reads
homology and every spectral page.  No tolerance, modulus or random
choice ever enters a decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple


def _exact(value):
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class SparseMatrix(NamedTuple):
    """Immutable matrix with ``rows`` rows, held column by column.

    ``columns`` holds one dict per column, mapping the row of each
    nonzero entry to an exact rational: an ``int`` when the entry is
    integral and a ``Fraction`` only otherwise, so the integer
    differentials this package builds stay in machine-int arithmetic.
    Entries compare by value (``1 == Fraction(1)``), and both kinds
    carry ``numerator`` and ``denominator``.  Builders write columns;
    ``from_entries`` takes (row, col) input from outside (JSON, tests),
    with int and Fraction values only: a float or a bool is refused,
    not rounded.
    Instances are treated as immutable values; all operations return
    fresh matrices, and a stored column is copied before anything
    changes it.
    """

    rows: int
    columns: tuple

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Mapping) -> SparseMatrix:
        columns = [{} for _ in range(cols)]
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside a {rows}x{cols} matrix")
            if type(value) not in (int, Fraction):
                raise ValueError(f"entry ({i},{j}) is {value!r}, of type "
                                 f"{type(value).__name__}, not int or Fraction")
            value = _exact(value)
            if value != 0:
                columns[j][i] = value
        return SparseMatrix(rows, tuple(columns))

    @staticmethod
    def zero(rows: int, cols: int) -> SparseMatrix:
        return SparseMatrix(rows, tuple({} for _ in range(cols)))

    @staticmethod
    def identity(n: int) -> SparseMatrix:
        return SparseMatrix(n, tuple({i: 1} for i in range(n)))

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def get(self, i: int, j: int):
        return self.columns[j].get(i, 0)

    def items(self):
        """((row, col), value) for every nonzero entry, column by column."""
        for j, column in enumerate(self.columns):
            for i, value in column.items():
                yield (i, j), value

    def dense(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), value in self.items():
            out[i][j] = value
        return out


def _times(a: SparseMatrix, column: dict) -> dict:
    """a @ column, for a column held as {row: value}, zeros dropped."""
    acc: dict = {}
    a_columns = a.columns
    for k, vb in column.items():
        for i, va in a_columns[k].items():
            acc[i] = acc.get(i, 0) + va * vb
    return {i: _exact(v) for i, v in acc.items() if v} if acc else acc


def multiply(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Exact product a @ b; raises on a dimension mismatch."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return SparseMatrix(a.rows, tuple(_times(a, column) for column in b.columns))


def product_vanishes(a: SparseMatrix, b: SparseMatrix, cols) -> bool:
    """Whether the columns ``cols`` of a @ b are all zero: the one product
    kernel, which the d^2 reduction calls.  Each listed column gets one
    accumulator, a @ (column of b), that is tested for a nonzero entry
    and dropped: no product column is formed or kept, and the arithmetic
    stays exact."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a_columns, b_columns = a.columns, b.columns
    for j in cols:
        acc: dict = {}
        get = acc.get
        for k, vb in b_columns[j].items():
            for i, va in a_columns[k].items():
                acc[i] = get(i, 0) + va * vb
        if any(acc.values()):
            return False
    return True


def _integral(column: dict) -> dict:
    """column scaled to integers and divided by the gcd of its entries:
    a nonzero rescaling, so it spans the same line."""
    if any(type(v) is not int for v in column.values()):
        denom = lcm(*(v.denominator for v in column.values()))
        column = {k: v.numerator * (denom // v.denominator) for k, v in column.items()}
    g = gcd(*column.values())
    return {k: v // g for k, v in column.items()} if g > 1 else column


def pivots(m: SparseMatrix, rows=None, cols=None, cleared=()) -> list:
    """The (row, col) pivot pairs of the lowest-pivot column reduction
    of m, exactly, over the integers.

    Columns are reduced in the order ``cols`` (default: by index), and
    the pivot of a column is its entry latest in ``rows`` (default: by
    index).  Each column in turn is reduced by the earlier columns
    until its pivot row is no earlier column's pivot row, or it is
    zero: col <- a*col - b*earlier cancels the pivot entry, and the
    result is divided by its gcd.  Columns in ``cleared`` are skipped;
    a caller clears only columns it knows reduce to zero.  A column
    whose pivot row is new is paired as it stands (Ripser's apparent
    pairs), and made primitive only when a later column reduces by it.

    The number of pairs is the rank of m.  Taken in the order of a
    filtration, the pairs are its persistence pairs (Edelsbrunner,
    Letscher and Zomorodian; clearing as in Chen and Kerber, "Persistent
    homology computation with a twist")."""
    rows = range(m.rows) if rows is None else rows
    position = [0] * m.rows
    for k, i in enumerate(rows):
        position[i] = k
    standing = {}  # pivot position -> stored column, paired as it stands
    reduced = {}   # pivot position -> reduced column holding it
    pairs = []
    for j in range(m.cols) if cols is None else cols:
        column = m.columns[j]
        if j in cleared or not column:
            continue
        low = max(map(position.__getitem__, column))
        if low not in reduced and low not in standing:
            standing[low] = column
            pairs.append((rows[low], j))
            continue
        # re-keyed to row positions, so a copy: the stored column is untouched
        col = _integral({position[i]: v for i, v in column.items()})
        while col:
            low = max(col)
            other = reduced.get(low)
            if other is None and low in standing:
                other = reduced[low] = _integral(
                    {position[i]: v for i, v in standing.pop(low).items()})
            if other is None:
                reduced[low] = col
                pairs.append((rows[low], j))
                break
            g = gcd(other[low], col[low])
            a, b = other[low] // g, col[low] // g
            if a != 1:
                for k in col:
                    col[k] *= a
            for k, v in other.items():
                new = col.get(k, 0) - b * v
                if new:
                    col[k] = new
                else:
                    del col[k]
            if col:
                g = gcd(*col.values())
                if g > 1:
                    for k in col:
                        col[k] //= g
        if len(reduced) + len(standing) == m.rows:
            break   # every row holds a pivot: the other columns reduce to zero
    return pairs


def rank(m: SparseMatrix) -> int:
    """Rank of m over the rationals: the number of its ``pivots``."""
    return len(pivots(m))
