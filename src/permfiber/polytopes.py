"""Permutohedron and simplex chain complexes, and the blow-down map
from ordered partitions onto their least blocks.

P_n takes its cells and the columns of its differential, both in label
order, from ``topartitions`` (``enumerate_topartitions``,
``perm_columns``).  The blow-down, a row table per degree, serves P_n
and, given the signs of their representatives, the fibers, which
``fiber`` builds as quotients of P_n; its support is one width per degree.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .complexes import ChainComplex, ChainMap
from .linalg import SparseMatrix
from .topartitions import (
    enumerate_topartitions,
    format_block,
    labels,
    parity,
    perm_columns,
    width,
)

PERM_CAP = 8   # the largest n build_perm admits: Fubini(8) = 545,835 cells


class PermComplex(NamedTuple):
    """Cellular chains of the permutohedron on n letters, filtered by width.

    Degree r holds the TO partitions of {1..n} with n-r blocks; the
    differential subdivides blocks in place.  ``cells`` maps each degree
    to its TO partitions in basis order, each a tuple of block masks, so
    ``cells[r][j]`` is the cell labelled ``complex.labels(r)[j]``.
    """

    n: int
    complex: ChainComplex
    cells: dict


class SimplexComplex(NamedTuple):
    """Standard simplicial chains of the (n-1)-simplex on vertices {1..n};
    degree p-1 holds the p-element subsets, with no augmentation.
    ``rows`` maps each subset, as a mask (element x at bit x-1), to its
    index within its degree."""

    n: int
    complex: ChainComplex
    rows: dict


def build_perm(n: int) -> PermComplex:
    """P_n, its cells enumerated in label order degree by degree
    (``enumerate_topartitions``) and its differential assembled from
    those of smaller permutohedra by index arithmetic (``perm_columns``);
    each degree's labels are rendered at once (``labels``).  The parts
    go to the ``ChainComplex`` constructor as they stand."""
    if not 1 <= n <= PERM_CAP:
        raise ValueError(f"n must satisfy 1 <= n <= {PERM_CAP}, got {n}")
    columns = perm_columns(n)[n]
    alphas = enumerate_topartitions(n)
    cells, basis, levels, start = {}, {}, {}, 0
    for k in range(1, n + 1):
        cells[n - k] = tuple(alphas[start:start + len(columns[k])])
        basis[n - k] = labels(n, cells[n - k])
        levels[n - k] = tuple(map(width, cells[n - k]))
        start += len(columns[k])
    del alphas
    diffs = {n - k: SparseMatrix(len(cells[n - k - 1]), tuple(columns[k]))
             for k in range(n - 1, 0, -1)}
    return PermComplex(n, ChainComplex(basis, diffs, levels), cells)


def build_simplex(n: int) -> SimplexComplex:
    if n < 1:
        raise ValueError("n must be at least 1")
    bits = [1 << x for x in range(n)]
    basis = {}
    rows = {}
    for p in range(1, n + 1):
        subsets = [sum(s) for s in combinations(bits, p)]
        basis[p - 1] = tuple(format_block(s, n) for s in subsets)
        rows.update((s, j) for j, s in enumerate(subsets))
    diffs = {}
    for p in range(2, n + 1):
        columns = []
        for s in combinations(bits, p):
            whole = sum(s)
            columns.append({rows[whole ^ bit]: -1 if i % 2 else 1
                            for i, bit in enumerate(s)})
        diffs[p - 1] = SparseMatrix(len(basis[p - 2]), tuple(columns))
    return SimplexComplex(n, ChainComplex(basis, diffs), rows)


def blowdown_coefficient(blocks: tuple) -> int:
    """Sign on the image of a supported cell making the blow-down a chain
    map: the ``parity`` of the singletons' ids in block order, times (-1)
    to the sum of (id + 1) over them.  Normalised so the top cell maps
    with +1."""
    ids = [b.bit_length() for b in blocks[:-1]]
    return parity(ids) * (-1) ** (sum(ids) + len(ids))


def blowdown_table(cells: dict, simplex: SimplexComplex, images=None) -> dict:
    """Blow-down on P_n or a quotient of it, a row table per degree with
    a supported cell (see ``ChainMap``): a representative alpha in
    ``cells`` whose other blocks are singletons goes to its least block,
    with ``blowdown_coefficient`` times the sign of alpha's class,
    ``images[alpha][1]`` (1 when ``images`` is None, for P_n itself).
    That holds exactly when alpha's least block has n + 1 - len(alpha)
    ids, one width for every cell of the degree."""
    table = {}
    for r, alphas in sorted(cells.items()):
        least = simplex.n + 1 - len(alphas[0])
        hits = [None] * len(alphas)
        for j, alpha in enumerate(alphas):
            if alpha[-1].bit_count() == least:
                sign = 1 if images is None else images[alpha][1]
                hits[j] = (simplex.rows[alpha[-1]], sign * blowdown_coefficient(alpha))
        if any(hits):
            table[r] = tuple(hits)
    return table


def perm_to_simplex(perm: PermComplex, simplex: SimplexComplex) -> ChainMap:
    """Surjective chain map from the permutohedron complex onto the
    simplex complex, read off P_n's cells by ``blowdown_table``.  The
    map is not checked here; ``verify_chain_map`` does that."""
    if simplex.n != perm.n:
        raise ValueError(f"perm_to_simplex needs the simplex on {perm.n} vertices "
                         f"for P_{perm.n}, got {simplex.n} vertices")
    # P1 has a single cell, mapped with +1: the unit sign.
    convention = "unit" if perm.n == 1 else "ordering_parity"
    return ChainMap(perm.complex, simplex.complex, 0, blowdown_table(perm.cells, simplex),
                    note=f"sign convention: {convention}")
