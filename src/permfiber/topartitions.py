"""Totally ordered set partitions and their block-subdivision differential.

A TO partition of {1..n} is a partition with a total order on its
blocks, written left to right with the least block rightmost.  These
are the cells of the permutohedron complex; the differential is the
signed sum of ways to subdivide one block in place.

A block is held as a bitmask, element x at bit x-1.  Element ids are
read only by ``TOPartition.of`` and ``parse_topartition``, and written
only from cached tables of block texts, one per n and separator
(``format_block``, ``label``, ``pretty``).
"""

from __future__ import annotations

from functools import cache
from typing import Iterator, NamedTuple


class TOPartition(NamedTuple):
    """An ordered partition of {1..n}; each block a bitmask, least last.

    Unchecked: the package builds only valid ones.  Outside input enters
    through ``TOPartition.of`` and ``parse_topartition``, which validate.
    """

    n: int
    blocks: tuple

    @staticmethod
    def of(n: int, *blocks) -> TOPartition:
        """The partition with blocks given as iterables of element ids."""
        return _validated(n, tuple(tuple(sorted(b)) for b in blocks))

    def label(self) -> str:
        texts = _block_texts(self.n, "" if self.n <= 9 else ",")
        return ">".join(map(texts.__getitem__, self.blocks))

    def pretty(self) -> str:
        texts = _block_texts(self.n, ",")
        return ">".join("{" + texts[b] + "}" for b in self.blocks)

    def block_count(self) -> int:
        return len(self.blocks)


def _validated(n: int, blocks: tuple) -> TOPartition:
    """The partition of 1..n with the given blocks of sorted element ids."""
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


class SignedTerm(NamedTuple):
    partition: TOPartition
    sign: int


def format_block(block: int, n: int) -> str:
    """The ids of a block of 1..n, ascending: '134', or '1,3,10' when n > 9."""
    return _block_texts(n, "" if n <= 9 else ",")[block]


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
    """All TO partitions of {1..n}, each exactly once (Fubini(n) of them):
    by block count ascending, and within a block count in label order
    (for n <= 9, where every id is one digit).

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
    return [TOPartition(n, blocks) for cells in layers[n] for blocks in cells]


@cache
def first_blocks(m: int) -> tuple:
    """The nonempty blocks of {1..m}, as masks, in the order of the labels
    they begin: ids compared ascending, and a block before its own proper
    prefix, since '>' sorts after every digit."""
    return tuple(sorted(range(1, 1 << m), key=lambda b: (*_ids(b), m + 1)))


@cache
def ordered_counts(m: int) -> tuple:
    """F(m, k) = k! S(m, k), the k-block TO partitions of an m-set, for
    k = 0 .. m: F(m, k) = sum over first blocks of F(m - |C|, k - 1)."""
    if m == 0:
        return (1,)
    counts = [0] * (m + 1)
    for c in first_blocks(m):
        for k, count in enumerate(ordered_counts(m - c.bit_count()), 1):
            counts[k] += count
    return tuple(counts)


def spread(rest: int) -> list:
    """The masks of rest's subsets, indexed by their masks on {1..|rest|}
    through the increasing bijection."""
    masks = [0]
    while rest:
        bit = rest & -rest
        masks += [b | bit for b in masks]
        rest ^= bit
    return masks


def _ids(block: int) -> tuple:
    return tuple(x + 1 for x in range(block.bit_length()) if block >> x & 1)


def splits(blocks: tuple) -> Iterator[tuple]:
    """(block masks, sign) of each ordered split of one of ``blocks`` in two.

    Splitting the i-th block from the left (1-based) into B' > B''
    carries the sign (-1)**(i-1); there are 2**|B| - 2 ordered splits
    of a block B, taken with B' ascending as a mask.
    """
    for i, block in enumerate(blocks):
        sign = -1 if i % 2 else 1
        head, tail = blocks[:i], blocks[i + 1:]
        first = -block & block
        while first != block:
            yield head + (first, block ^ first) + tail, sign
            first = first - block & block


def differential_terms(alpha: TOPartition) -> list:
    """One signed term per ordered split of one block into two (``splits``)."""
    return [SignedTerm(TOPartition(alpha.n, b), s) for b, s in splits(alpha.blocks)]


def width(alpha: TOPartition) -> int:
    """Cardinality of the least (rightmost) block."""
    return alpha.blocks[-1].bit_count()


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


def shape(alpha: TOPartition) -> tuple:
    return tuple(b.bit_count() for b in alpha.blocks)


def parse_topartition(text: str, n: int | None = None) -> TOPartition:
    """Parse '13|24', '13>24' or '{1,3}>{2,4}' into a TOPartition."""
    raw = text.strip().replace("|", ">")
    parts = [p.strip().strip("{}") for p in raw.split(">")]
    blocks = []
    for part in parts:
        if not part:
            raise ValueError(f"empty block in {text!r}")
        if "," in part:
            elems = [int(x) for x in part.split(",")]
        else:
            elems = [int(ch) for ch in part]
        blocks.append(tuple(sorted(elems)))
    total = sum(len(b) for b in blocks)
    if n is None:
        n = total
    return _validated(n, tuple(blocks))
