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
    differential_terms,
    enumerate_topartitions,
    format_block,
    parity,
    width,
)

DEFAULT_PERM_CAP = 7


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
    degree p-1 holds the p-element subsets, with no augmentation."""

    n: int
    complex: ChainComplex


def build_perm(n: int, cap: int = DEFAULT_PERM_CAP) -> PermComplex:
    if not 1 <= n <= cap:
        raise ValueError(f"n must satisfy 1 <= n <= {cap}, got {n}")
    cells: dict = {}
    for alpha in enumerate_topartitions(n):
        cells.setdefault(n - alpha.block_count(), []).append(alpha)
    basis = {}
    for r, alphas in cells.items():
        basis[r], cells[r] = zip(*sorted((alpha.label(), alpha) for alpha in alphas))
    return PermComplex(n, quotient_complex(basis, cells, _unit), cells)


def _unit(alpha: TOPartition) -> tuple:
    return alpha, 1


def pushforward(alpha: TOPartition, image) -> dict:
    """Image of d(alpha) in a quotient of P_n: basis key -> coefficient.

    ``image(beta)`` is the (basis key, sign) of the class of the TO
    partition beta, or None when beta is zero in the quotient; P_n itself
    is the quotient by the identity, ``alpha -> (alpha, 1)``.
    """
    acc: dict = {}
    for term in differential_terms(alpha):
        hit = image(term.partition)
        if hit is None:
            continue
        key, sign = hit
        acc[key] = acc.get(key, 0) + term.sign * sign
    return {key: v for key, v in acc.items() if v}


def quotient_complex(basis: dict, cells: dict, image) -> ChainComplex:
    """A quotient of P_n, filtered by width.  ``basis`` and ``cells`` map
    each degree to its labels and to one TO partition representing each
    label, in basis order; column j of d_r is the pushforward of
    d(cells[r][j]) divided by the sign of cells[r][j] itself."""
    diffs = {}
    for r in sorted(cells):
        if r - 1 not in cells:
            continue
        row = {image(beta)[0]: i for i, beta in enumerate(cells[r - 1])}
        entries = {}
        for j, alpha in enumerate(cells[r]):
            sign = image(alpha)[1]
            for key, value in pushforward(alpha, image).items():
                entries[(row[key], j)] = sign * value
        diffs[r] = SparseMatrix.from_entries(len(cells[r - 1]), len(cells[r]), entries)
    levels = {r: tuple(map(width, alphas)) for r, alphas in cells.items()}
    return ChainComplex.build(basis, diffs, levels)


def subset_label(subset, n: int) -> str:
    return format_block(tuple(sorted(subset)), n)


def build_simplex(n: int) -> SimplexComplex:
    if n < 1:
        raise ValueError("n must be at least 1")
    basis = {}
    index = {}
    for p in range(1, n + 1):
        subsets = sorted(combinations(range(1, n + 1), p))
        basis[p - 1] = tuple(subset_label(s, n) for s in subsets)
        index[p - 1] = {s: j for j, s in enumerate(subsets)}
    diffs = {}
    for p in range(2, n + 1):
        entries = {}
        for s, j in index[p - 1].items():
            for i, x in enumerate(s):
                face = s[:i] + s[i + 1:]
                sign = -1 if i % 2 else 1
                entries[(index[p - 2][face], j)] = sign
        diffs[p - 1] = SparseMatrix.from_entries(
            len(basis[p - 2]), len(basis[p - 1]), entries)
    return SimplexComplex(n, ChainComplex.build(basis, diffs))


def blowdown_support(alpha: TOPartition):
    """The least block when every other block is a singleton, else None."""
    if any(len(b) != 1 for b in alpha.blocks[:-1]):
        return None
    return alpha.blocks[-1]


def blowdown_coefficient(alpha: TOPartition) -> int:
    """Sign on the image of a supported cell making the blow-down a chain
    map: the parity of the singleton ordering times a sign depending on
    which elements were split off the least block.  Normalised so the
    top cell maps with coefficient +1."""
    outside = sum(y + 1 for b in alpha.blocks[:-1] for y in b)
    singletons = [b[0] for b in alpha.blocks[:-1]]
    return parity(singletons) * (-1 if outside % 2 else 1)


def blowdown_matrices(cells: dict, image, simplex: SimplexComplex) -> dict:
    """Blow-down on a quotient of P_n, degree by degree: the class of a
    representative alpha in ``cells`` whose blocks other than the least
    are singletons goes to its least block, with ``blowdown_coefficient``
    over the sign of alpha's own class (see ``quotient_complex``); every
    other class goes to zero."""
    n = simplex.n
    rows = {p: {lab: i for i, lab in enumerate(simplex.complex.labels(p - 1))}
            for p in range(1, n + 1)}
    matrices = {}
    for r in sorted(cells):
        entries = {}
        for j, alpha in enumerate(cells[r]):
            block = blowdown_support(alpha)
            if block is None:
                continue
            p = len(block)
            coefficient = image(alpha)[1] * blowdown_coefficient(alpha)
            entries[(rows[p][subset_label(block, n)], j)] = coefficient
        if entries:
            matrices[r] = SparseMatrix.from_entries(
                simplex.complex.dim(p - 1), len(cells[r]), entries)
    return matrices


def perm_to_simplex(perm: PermComplex, simplex: SimplexComplex) -> ChainMap:
    """Surjective chain map from the permutohedron complex onto the
    simplex complex: a cell with least block of size p+1 and all other
    blocks singletons goes to its least block in degree p with
    coefficient ``blowdown_coefficient``, everything else to zero.
    The map is not checked here; ``verify_chain_map`` does that."""
    matrices = blowdown_matrices(perm.cells, _unit, simplex)
    # P1 has a single cell, mapped with +1: the unit sign.
    convention = "unit" if perm.n == 1 else "ordering_parity"
    return ChainMap.build(perm.complex, simplex.complex, 0, matrices,
                          note=f"sign convention: {convention}")
