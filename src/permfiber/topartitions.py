"""Totally ordered set partitions and their block-subdivision differential.

A TO partition of {1..n} is a partition with a total order on its
blocks, written left to right with the least block rightmost.  These
are the cells of the permutohedron complex; the differential is the
signed sum of ways to subdivide one block in place.

A block is held as a bitmask, element x at bit x-1, and a cell the
package builds is the tuple of its block masks, least block last.
``TOPartition`` is the parsed and validated form: element ids are read
only by ``TOPartition.of`` and ``parse_topartition``, and written only
from cached tables of block texts, one per n and separator
(``format_block``, ``labels``, ``pretty``).

P_n's label order is decided here alone: ``enumerate_topartitions``
lists the cells in it, and ``perm_columns`` the columns of d in it, by
index arithmetic on smaller permutohedra.  Its tables, ``first_blocks``
and ``spread``, are read by no other module.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from typing import Iterator, NamedTuple


class TOPartition(NamedTuple):
    """An ordered partition of {1..n}; each block a bitmask, least last.

    The parsed and validated form of a cell: ``TOPartition.of`` and
    ``parse_topartition`` validate outside input, the plain constructor
    does not.  The package holds its own cells as bare ``blocks`` tuples.
    """

    n: int
    blocks: tuple

    @staticmethod
    def of(n: int, *blocks) -> TOPartition:
        """The partition of 1..n with blocks given as iterables of element
        ids, which are checked before any mask is made."""
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if n < 1:
            raise ValueError("ground set must be nonempty")
        for block in blocks:
            if not block or any(a == b for a, b in zip(block, block[1:])):
                raise ValueError(f"malformed block {block!r}")
        ids = sorted(x for block in blocks for x in block)
        if any(a == b for a, b in zip(ids, ids[1:])):
            raise ValueError("blocks are not disjoint")
        if ids != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition 1..{n}")
        return TOPartition(n, tuple(sum(1 << x - 1 for x in block) for block in blocks))

    def label(self) -> str:
        return labels(self.n, (self.blocks,))[0]

    def pretty(self) -> str:
        texts = _block_texts(self.n, ",")
        return ">".join("{" + texts[b] + "}" for b in self.blocks)


class SignedTerm(NamedTuple):
    partition: TOPartition
    sign: int


def format_block(block: int, n: int) -> str:
    """The ids of a block of 1..n, ascending: '134', or '1,3,10' when n > 9."""
    return _block_texts(n, "" if n <= 9 else ",")[block]


def labels(n: int, cells) -> tuple:
    """The basis label of each cell of P_n, given as block masks: the
    blocks' ids joined by '>', as '13>24', or '2,10>1,3' when n > 9."""
    texts = _block_texts(n, "" if n <= 9 else ",")
    return tuple(">".join(map(texts.__getitem__, blocks)) for blocks in cells)


@cache
def _block_texts(n: int, sep: str) -> tuple:
    """The text of every block of 1..n, indexed by its mask: the blocks
    holding x are those below x with x appended.  There are 2**n of
    them, one more than the cells of the simplex complex on n letters."""
    texts = [""]
    for x in range(1, n + 1):
        texts += [t + sep + str(x) if t else str(x) for t in texts]
    return tuple(texts)


def enumerate_topartitions(n: int) -> list:
    """All TO partitions of {1..n} as tuples of block masks, each exactly
    once (Fubini(n) of them): by block count ascending, and within a
    block count in label order (for n <= 9, where every id is one digit).

    Labels with k blocks then all have the same length, n ids and k-1
    '>', so they sort by first block (``first_blocks``), then by the
    rest.  The k-block cells of P(S) are therefore, for each first block
    C of S in that order, C followed by the (k-1)-block cells of
    P(S - C), which are ordered as P_|S - C| is, through the increasing
    bijection.  The cells of P_0 .. P_{n-1} are built on {1..m} and
    spread onto S - C through a table of masks per C (``spread``).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    layers = [[[()]]]   # layers[m][k]: the k-block cells of P_m, as block tuples
    for m in range(1, n + 1):
        full = (1 << m) - 1
        layer: list = [[] for _ in range(m + 1)]
        for c in first_blocks(m):
            onto = spread(full ^ c)
            for k, tails in enumerate(layers[m - c.bit_count()], 1):
                layer[k] += [(c, *map(onto.__getitem__, t)) for t in tails]
        layers.append(layer)
    return [blocks for cells in layers[n] for blocks in cells]


def perm_columns(n: int) -> list:
    """columns[m][k]: the column of d on each k-block cell of P_m, in the
    order of ``enumerate_topartitions``, for m = 0 .. n.

    A k-block cell of P_m is C>gamma, with gamma a (k-1)-block cell of
    P_m' on the m' = m - |C| ids outside C, at row start(m, k, C) + index
    of gamma, where start(m, k, C) counts the k-block cells whose first
    block precedes C (``first_blocks``): the length of the k-block layer
    when C is reached.  Splitting block i carries the sign (-1)**(i-1),
    so d(C>gamma) is the sum over the ordered splits B'>B'' of C of
    B'>B''>gamma, at row start(m, k+1, B') + start(m - |B'|, k, B'' on
    its own ids) + index of gamma, minus C>d(gamma), the column of gamma
    in P_m' shifted by start(m, k+1, C).  The layers are built with k
    descending, so the (k+1)-block layer, with its starts, is complete
    before any k-block column points into it.  The rows come in the
    order of ``block_splits``.  No two terms share a row: the split terms
    begin with distinct proper parts of C, and the others with C.
    """
    columns: list = [[[{}]]]   # P_0: the empty partition, with d = 0
    starts: list = [[{}]]      # starts[m][k][C] = start(m, k, C)
    negated: dict = {}         # (m', k) -> the negated values of each column
    row: list = []             # row[i] = i, as long as the longest layer built
    for m in range(1, n + 1):
        full = (1 << m) - 1
        # (B', the mask of B'' on the ids outside B') for each split of C
        squeeze = [{mask: j for j, mask in enumerate(spread(full ^ b))}
                   for b in range(full)]
        parts = {c: [(b, squeeze[b][b2]) for b, b2 in block_splits(c)]
                 for c in first_blocks(m)}
        layer: list = [[] for _ in range(m + 1)]
        start: list = [{} for _ in range(m + 1)]
        for k in range(m, 0, -1):
            cells, at = layer[k], start[k]
            for c in first_blocks(m):
                at[c] = len(cells)
                rest = m - c.bit_count()
                if k - 1 > rest:
                    continue
                tails = columns[rest][k - 1]
                # the rows of B'>B''>gamma run over a slice as gamma does
                bases = [start[k + 1][b] + starts[m - b.bit_count()][k][b2]
                         for b, b2 in parts[c]]
                heads = (zip(*(row[base:base + len(tails)] for base in bases)) if bases
                         else repeat((), len(tails)))
                # the row of C>delta, by the index of delta in P_m'
                above = len(columns[rest][k]) if k <= rest else 0
                first = start[k + 1][c] if above else 0
                shifted = row[first:first + above].__getitem__
                minus = negated.get((rest, k - 1))
                if minus is None:
                    minus = negated[rest, k - 1] = [tuple(-v for v in column.values())
                                                    for column in tails]
                for head, column, values in zip(heads, tails, minus):
                    new = dict.fromkeys(head, 1)
                    new.update(zip(map(shifted, column), values))
                    cells.append(new)
            row += range(len(row), len(cells))
        columns.append(layer)
        starts.append(start)
    return columns


@cache
def first_blocks(m: int) -> tuple:
    """The nonempty blocks of {1..m}, as masks, in the order of the labels
    they begin: ids compared ascending, as bit positions, and a block
    before its own proper prefix, since '>' sorts after every digit (the
    key ends in m, above every position)."""
    return tuple(sorted(range(1, 1 << m),
                        key=lambda b: (*(x for x in range(m) if b >> x & 1), m)))


def spread(rest: int) -> list:
    """The masks of rest's subsets, indexed by their masks on {1..|rest|}
    through the increasing bijection."""
    masks = [0]
    while rest:
        bit = rest & -rest
        masks += [b | bit for b in masks]
        rest ^= bit
    return masks


@cache
def block_splits(block: int) -> tuple:
    """The 2**|B| - 2 ordered splits (B', B'') of a block mask B in two,
    with B' ascending as a mask: one table per mask."""
    pairs = []
    first = -block & block
    while first != block:
        pairs.append((first, block ^ first))
        first = first - block & block
    return tuple(pairs)


def splits(blocks: tuple) -> Iterator[tuple]:
    """(block masks, sign) of each ordered split of one of ``blocks`` in two.

    Splitting the i-th block from the left (1-based) into B' > B''
    carries the sign (-1)**(i-1); the splits of a block come in the
    order of ``block_splits``.
    """
    for i, block in enumerate(blocks):
        sign = -1 if i % 2 else 1
        head, tail = blocks[:i], blocks[i + 1:]
        for pair in block_splits(block):
            yield head + pair + tail, sign


def differential_terms(alpha: TOPartition) -> list:
    """One signed term per ordered split of one block into two (``splits``)."""
    return [SignedTerm(TOPartition(alpha.n, b), s) for b, s in splits(alpha.blocks)]


def width(blocks: tuple) -> int:
    """Cardinality of the least (rightmost) block."""
    return blocks[-1].bit_count()


def parity(sequence) -> int:
    """Sign of a sequence of distinct natural numbers read as an ordering
    of its set: +1 for an even number of inversions, -1 for an odd one.
    Each element adds the number of earlier ones above it, counted in a
    bitmask of the elements seen so far."""
    seen = inversions = 0
    for x in sequence:
        inversions += (seen >> x).bit_count()
        seen |= 1 << x
    return -1 if inversions % 2 else 1


def parse_topartition(text: str, n: int | None = None) -> TOPartition:
    """Parse '13|24', '13>24' or '{1,3}>{2,4}' into a TOPartition.  A
    block without a comma is one id when n > 9, when it is in braces or
    when the text has a comma anywhere, as in '10>1,2,3,4,5,6,7,8,9';
    otherwise each of its digits is one id."""
    separated = "," in text or n is not None and n > 9
    blocks = []
    for part in text.strip().replace("|", ">").split(">"):
        ids = part.strip().strip("{}")
        if not ids:
            raise ValueError(f"empty block in {text!r}")
        braced = ids != part.strip()
        blocks.append(list(map(int, ids.split(",") if separated or braced else ids)))
    return TOPartition.of(sum(map(len, blocks)) if n is None else n, *blocks)
