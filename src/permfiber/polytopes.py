"""Permutohedron and simplex chain complexes, and the blow-down map
from ordered partitions onto their least blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import ChainComplex, ChainMap
from .linalg import SparseMatrix
from .topartitions import (
    TOPartition,
    enumerate_topartitions,
    format_block,
    parity,
    splits,
    width,
)

PERM_CAP = 8   # the largest n build_perm admits: Fubini(8) = 545,835 cells


@dataclass(frozen=True)
class PermComplex:
    """Cellular chains of the permutohedron on n letters, filtered by width.

    Degree r holds the TO partitions of {1..n} with n-r blocks; the
    differential subdivides blocks in place.  ``cells`` maps each degree
    to its TO partitions in basis order, so ``cells[r][j]`` is the cell
    labelled ``complex.labels(r)[j]``.
    """

    n: int
    complex: ChainComplex
    cells: dict


@dataclass(frozen=True)
class SimplexComplex:
    """Standard simplicial chains of the (n-1)-simplex on vertices {1..n};
    degree p-1 holds the p-element subsets, with no augmentation.
    ``rows`` maps each subset, as a mask (element x at bit x-1), to its
    index within its degree."""

    n: int
    complex: ChainComplex
    rows: dict


def build_perm(n: int) -> PermComplex:
    if not 1 <= n <= PERM_CAP:
        raise ValueError(f"n must satisfy 1 <= n <= {PERM_CAP}, got {n}")
    cells: dict = {}
    for alpha in enumerate_topartitions(n):
        cells.setdefault(n - alpha.block_count(), []).append(alpha)
    basis = {}
    for r, alphas in cells.items():
        basis[r], cells[r] = zip(*sorted((alpha.label(), alpha) for alpha in alphas))
    table = {alpha.blocks: (j, 1) for alphas in cells.values()
             for j, alpha in enumerate(alphas)}
    return PermComplex(n, quotient_complex(basis, cells, table.get), cells)


def pushforward(blocks: tuple, image) -> dict:
    """Image of d(alpha) in a quotient of P_n, for alpha with block masks
    ``blocks``: row -> coefficient.

    ``image(beta)`` is the (row, sign) of the class of the TO partition
    with block masks beta, the row indexing the class within its degree,
    or None when beta is zero in the quotient.  P_n itself is the
    quotient whose image sends each cell to its own row with sign 1.
    """
    acc: dict = {}
    for beta, sign in splits(blocks):
        hit = image(beta)
        if hit is not None:
            row, s = hit
            acc[row] = acc.get(row, 0) + sign * s
    return {row: v for row, v in acc.items() if v}


def quotient_complex(basis: dict, cells: dict, image) -> ChainComplex:
    """A quotient of P_n, filtered by width.  ``basis`` and ``cells`` map
    each degree to its labels and to one TO partition representing each
    label, in basis order, and ``image`` is the quotient's image, as in
    ``pushforward``: it sends cells[r][j] to row j with some sign.  Column
    j of d_r is the pushforward of d(cells[r][j]) divided by that sign."""
    diffs = {}
    for r in sorted(cells):
        if r - 1 not in cells:
            continue
        columns = []
        for alpha in cells[r]:
            column = pushforward(alpha.blocks, image)
            sign = image(alpha.blocks)[1]
            columns.append(column if sign == 1 else
                           {i: sign * v for i, v in column.items()})
        diffs[r] = SparseMatrix(len(cells[r - 1]), tuple(columns))
    levels = {r: tuple(map(width, alphas)) for r, alphas in cells.items()}
    return ChainComplex.build(basis, diffs, levels)


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
    return SimplexComplex(n, ChainComplex.build(basis, diffs), rows)


def blowdown_support(alpha: TOPartition):
    """The least block when every other block is a singleton, else None:
    the other blocks hold the n - |least| other elements, so they are
    all singletons exactly when there are that many of them."""
    last = alpha.blocks[-1]
    return last if alpha.n - last.bit_count() == len(alpha.blocks) - 1 else None


def blowdown_coefficient(alpha: TOPartition) -> int:
    """Sign on the image of a supported cell making the blow-down a chain
    map: the parity of the singleton ordering times a sign depending on
    which elements were split off the least block.  Normalised so the
    top cell maps with coefficient +1."""
    singletons = [b.bit_length() for b in alpha.blocks[:-1]]
    outside = sum(singletons) + len(singletons)
    return parity(singletons) * (-1 if outside % 2 else 1)


def blowdown_matrices(cells: dict, image, simplex: SimplexComplex) -> dict:
    """Blow-down on a quotient of P_n, degree by degree: the class of a
    representative alpha in ``cells`` whose blocks other than the least
    are singletons goes to its least block, with ``blowdown_coefficient``
    over the sign of alpha's own class under ``image`` (see
    ``quotient_complex``; None for P_n itself, where every sign is 1);
    every other class goes to zero."""
    matrices = {}
    for r in sorted(cells):
        columns = [{} for _ in cells[r]]
        for column, alpha in zip(columns, cells[r]):
            block = blowdown_support(alpha)
            if block is None:
                continue
            p = block.bit_count()
            sign = 1 if image is None else image(alpha.blocks)[1]
            column[simplex.rows[block]] = sign * blowdown_coefficient(alpha)
        if any(columns):
            matrices[r] = SparseMatrix(simplex.complex.dim(p - 1), tuple(columns))
    return matrices


def perm_to_simplex(perm: PermComplex, simplex: SimplexComplex) -> ChainMap:
    """Surjective chain map from the permutohedron complex onto the
    simplex complex: a cell with least block of size p+1 and all other
    blocks singletons goes to its least block in degree p with
    coefficient ``blowdown_coefficient``, everything else to zero.
    The map is not checked here; ``verify_chain_map`` does that."""
    if simplex.n != perm.n:
        raise ValueError(f"perm_to_simplex needs the simplex on {perm.n} vertices "
                         f"for P_{perm.n}, got {simplex.n} vertices")
    matrices = blowdown_matrices(perm.cells, None, simplex)
    # P1 has a single cell, mapped with +1: the unit sign.
    convention = "unit" if perm.n == 1 else "ordering_parity"
    return ChainMap.build(perm.complex, simplex.complex, 0, matrices,
                          note=f"sign convention: {convention}")
