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
        return ">".join(format_block(b, self.n) for b in self.blocks)

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
    """All TO partitions of {1..n}, each exactly once (Fubini(n) of them)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return [TOPartition(n, blocks) for blocks in _ordered_partitions(n)]


def _ordered_partitions(n: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    bit = 1 << n - 1
    for rest in _ordered_partitions(n - 1):
        for i, block in enumerate(rest):
            yield rest[:i] + (block | bit,) + rest[i + 1:]
        for i in range(len(rest) + 1):
            yield rest[:i] + (bit,) + rest[i:]


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
