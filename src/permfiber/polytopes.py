"""Permutohedron and simplex chain complexes, and the blow-down map
from ordered partitions onto their least blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import ChainComplex, ChainMap, FilteredComplex
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
    filtered: FilteredComplex
    cells: dict

    @property
    def complex(self) -> ChainComplex:
        return self.filtered.complex


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
    levels = {}
    for r, alphas in cells.items():
        alphas.sort(key=TOPartition.label)
        cells[r] = tuple(alphas)
        basis[r] = tuple(map(TOPartition.label, alphas))
        levels.update(zip(basis[r], map(width, alphas)))
    diffs = {}
    for r, alphas in cells.items():
        if r - 1 not in cells:
            continue
        entries: dict = {}
        target_index = {a: i for i, a in enumerate(cells[r - 1])}
        for j, alpha in enumerate(alphas):
            for term in differential_terms(alpha):
                key = (target_index[term.partition], j)
                entries[key] = entries.get(key, 0) + term.sign
        diffs[r] = SparseMatrix.from_entries(len(basis[r - 1]), len(basis[r]), entries)
    complex = ChainComplex.build(basis, diffs)
    return PermComplex(n, FilteredComplex.build(complex, levels), cells)


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


def perm_to_simplex(n: int,
                    perm: PermComplex | None = None,
                    simplex: SimplexComplex | None = None) -> ChainMap:
    """Surjective chain map from the permutohedron complex onto the
    simplex complex: a cell with least block of size p+1 and all other
    blocks singletons goes to its least block in degree p with
    coefficient ``blowdown_coefficient``, everything else to zero.
    The map is not checked here; ``verify_chain_map`` does that."""
    perm = perm or build_perm(n)
    simplex = simplex or build_simplex(n)
    sidx = {}
    for p in range(1, n + 1):
        labels = simplex.complex.labels(p - 1)
        sidx[p] = {lab: i for i, lab in enumerate(labels)}
    matrices = {}
    for r in perm.complex.degrees():
        entries = {}
        for j, alpha in enumerate(perm.cells[r]):
            block = blowdown_support(alpha)
            if block is None:
                continue
            row = sidx[len(block)][subset_label(block, n)]
            entries[(row, j)] = blowdown_coefficient(alpha)
        if entries:
            matrices[r] = SparseMatrix.from_entries(
                simplex.complex.dim(r), perm.complex.dim(r), entries)
    # P1 has a single cell, mapped with +1: the unit sign.
    convention = "unit" if n == 1 else "ordering_parity"
    return ChainMap.build(perm.complex, simplex.complex, 0, matrices,
                          note=f"sign convention: {convention}")
