"""Totally ordered set partitions and their block-subdivision differential.

A TO partition of {1..n} is a partition with a total order on its
blocks, written left to right with the least block rightmost.  These
are the cells of the permutohedron complex; the differential is the
signed sum of ways to subdivide one block in place.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple


class TOPartition(NamedTuple):
    """An ordered partition of {1..n}; blocks are sorted tuples, least last.

    Unchecked: the package builds only valid ones.  Outside input enters
    through ``TOPartition.of`` and ``parse_topartition``, which validate.
    """

    n: int
    blocks: tuple

    @staticmethod
    def of(n: int, *blocks) -> TOPartition:
        return _validated(n, tuple(tuple(sorted(b)) for b in blocks))

    def label(self) -> str:
        return ">".join(format_block(b, self.n) for b in self.blocks)

    def pretty(self) -> str:
        return ">".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)

    def block_count(self) -> int:
        return len(self.blocks)


def _validated(n: int, blocks: tuple) -> TOPartition:
    if n < 1:
        raise ValueError("ground set must be nonempty")
    seen = set()
    total = 0
    for block in blocks:
        if not block or tuple(sorted(set(block))) != tuple(block):
            raise ValueError(f"malformed block {block!r}")
        seen.update(block)
        total += len(block)
    if total != len(seen):
        raise ValueError("blocks are not disjoint")
    if seen != set(range(1, n + 1)):
        raise ValueError(f"blocks do not partition 1..{n}")
    return TOPartition(n, blocks)


class SignedTerm(NamedTuple):
    partition: TOPartition
    sign: int


def format_block(block, n: int) -> str:
    if n <= 9:
        return "".join(map(str, block))
    return ",".join(map(str, block))


def enumerate_topartitions(n: int) -> list:
    """All TO partitions of {1..n}, each exactly once (Fubini(n) of them)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return [TOPartition(n, blocks) for blocks in _ordered_partitions(n)]


def _ordered_partitions(n: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for rest in _ordered_partitions(n - 1):
        for i, block in enumerate(rest):
            yield rest[:i] + (tuple(sorted(block + (n,))),) + rest[i + 1:]
        for i in range(len(rest) + 1):
            yield rest[:i] + ((n,),) + rest[i:]


def differential_terms(alpha: TOPartition) -> list:
    """One signed term per ordered split of one block into two.

    Splitting the i-th block from the left (1-based) into B' > B''
    carries the sign (-1)**(i-1); there are 2**|B| - 2 ordered splits
    of a block B.
    """
    terms = []
    for i, block in enumerate(alpha.blocks):
        sign = -1 if i % 2 else 1
        for first in _proper_subsets(block):
            second = tuple(x for x in block if x not in first)
            blocks = alpha.blocks[:i] + (first, second) + alpha.blocks[i + 1:]
            terms.append(SignedTerm(TOPartition(alpha.n, blocks), sign))
    return terms


def _proper_subsets(block) -> Iterator[tuple]:
    size = len(block)
    for mask in range(1, (1 << size) - 1):
        yield tuple(block[k] for k in range(size) if mask >> k & 1)


def width(alpha: TOPartition) -> int:
    """Cardinality of the least (rightmost) block."""
    return len(alpha.blocks[-1])


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
    return tuple(len(b) for b in alpha.blocks)


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
