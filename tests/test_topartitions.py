import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from permfiber.topartitions import (
    TOPartition,
    differential_terms,
    enumerate_topartitions,
    labels,
    parity,
    parse_topartition,
    width,
)

from oracles import fubini, ids, ordered_partitions, stirling2


def test_enumerate_counts_match_fubini_recurrence():
    # each cell once, by block count and then in label order
    for n in range(1, 8):
        parts = enumerate_topartitions(n)
        assert len(parts) == fubini(n)
        keys = list(zip(map(len, parts), labels(n, parts)))
        assert keys == sorted(set(keys)), n


def test_enumerate_small_cases():
    assert enumerate_topartitions(1) == [(0b1,)]
    assert set(labels(2, enumerate_topartitions(2))) == {"12", "1>2", "2>1"}


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_topartitions(0)


def test_enumerate_matches_independent_enumerator():
    for n in range(1, 6):
        ours = {tuple(map(ids, p)) for p in enumerate_topartitions(n)}
        oracle = set(ordered_partitions(range(1, n + 1)))
        assert ours == oracle


def test_block_count_distribution():
    counts = Counter(map(len, enumerate_topartitions(4)))
    assert counts == {1: 1, 2: 14, 3: 36, 4: 24}
    for n in range(1, 7):
        counts = Counter(map(len, enumerate_topartitions(n)))
        for k, c in counts.items():
            from math import factorial
            assert c == factorial(k) * stirling2(n, k)


def test_worked_differential_example():
    alpha = parse_topartition("13|24")
    got = {(t.partition.pretty(), t.sign) for t in differential_terms(alpha)}
    assert got == {
        ("{1}>{3}>{2,4}", 1),
        ("{3}>{1}>{2,4}", 1),
        ("{1,3}>{2}>{4}", -1),
        ("{1,3}>{4}>{2}", -1),
    }


def test_differential_of_all_singletons_is_empty():
    alpha = TOPartition.of(3, [2], [1], [3])
    assert differential_terms(alpha) == []


def test_differential_of_single_block_brute_force():
    alpha = TOPartition.of(3, [1, 2, 3])
    terms = differential_terms(alpha)
    assert len(terms) == 6 and all(t.sign == 1 for t in terms)
    # ordered splits enumerated independently
    splits = set()
    for size in (1, 2):
        for first in combinations((1, 2, 3), size):
            second = tuple(x for x in (1, 2, 3) if x not in first)
            splits.add((first, second))
    assert {tuple(map(ids, t.partition.blocks)) for t in terms} == splits


def test_term_count_and_block_count():
    for blocks in enumerate_topartitions(4):
        terms = differential_terms(TOPartition(4, blocks))
        assert len(terms) == sum(2 ** b.bit_count() - 2 for b in blocks)
        for t in terms:
            assert len(t.partition.blocks) == len(blocks) + 1
            assert width(t.partition.blocks) <= width(blocks)


def test_d_squared_vanishes_as_formal_sum():
    for n in range(1, 6):
        for blocks in enumerate_topartitions(n):
            acc = Counter()
            for t1 in differential_terms(TOPartition(n, blocks)):
                for t2 in differential_terms(t1.partition):
                    acc[t2.partition] += t1.sign * t2.sign
            assert all(v == 0 for v in acc.values())


def test_width_and_shape_examples():
    def shape(alpha):
        return tuple(b.bit_count() for b in alpha.blocks)

    assert width(parse_topartition("13|24").blocks) == 2
    assert width(TOPartition.of(4, [1, 2, 3, 4]).blocks) == 4
    assert width(TOPartition.of(5, [4], [1], [2, 3, 5]).blocks) == 3
    assert shape(parse_topartition("13|24")) == (2, 2)
    assert shape(TOPartition.of(4, [1, 2, 3, 4])) == (4,)
    assert shape(TOPartition.of(5, [1], [2], [3, 4, 5])) == (1, 1, 3)


def test_parity_counts_inversions():
    """Against the pairwise inversion count, on orderings of 0..5 and of
    a set with gaps."""
    for ground in (range(6), (0, 3, 4, 9, 11)):
        for seq in permutations(ground):
            inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
            assert parity(seq) == (-1) ** inversions, seq
    assert parity(()) == 1


def test_parse_accepts_both_text_forms():
    a = parse_topartition("13|24")
    b = parse_topartition("{1,3}>{2,4}")
    c = parse_topartition("13>24")
    assert a == b == c
    assert a.label() == "13>24"
    assert a.pretty() == "{1,3}>{2,4}"
    ten = parse_topartition("{2,10}>{1,3,4,5,6,7,8,9}")
    assert ten.label() == "2,10>1,3,4,5,6,7,8,9"
    assert ten.pretty() == "{2,10}>{1,3,4,5,6,7,8,9}"


def test_labels_and_pretty_read_back_past_nine():
    """Past n = 9 the ids of a block are comma separated, so a block that
    holds one id of 10 or more has no comma, and must not be read as its
    digits ("10" as ids 1 and 0).  Seeded partitions of 1..n for n =
    10..12 read back from both text forms."""
    rng = random.Random(12)
    for n in range(10, 13):
        rest = (1 << n - 1) - 1
        cases = [TOPartition(n, (1 << n - 1, rest)), TOPartition(n, (rest, 1 << n - 1))]
        for _ in range(60):
            ids = rng.sample(range(1, n + 1), n)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            blocks = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
            cases.append(TOPartition.of(n, *blocks))
        assert any(block.bit_length() >= 10 and block.bit_count() == 1
                   for alpha in cases[2:] for block in alpha.blocks), n
        for alpha in cases:
            assert parse_topartition(alpha.label(), n) == alpha, alpha.label()
            assert parse_topartition(alpha.pretty(), n) == alpha, alpha.pretty()
            assert parse_topartition(alpha.pretty()) == alpha, alpha.pretty()
    assert parse_topartition("10>1,2,3,4,5,6,7,8,9", 10).blocks == (1 << 9, (1 << 9) - 1)
    assert parse_topartition("{10}>{1,2,3,4,5,6,7,8,9}").blocks == (1 << 9, (1 << 9) - 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_topartition("13||2")
    with pytest.raises(ValueError):
        parse_topartition("13|3")  # overlapping blocks


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        TOPartition.of(3, [1, 2])  # does not cover
    with pytest.raises(ValueError):
        TOPartition.of(3, [1, 2], [2, 3])  # overlap
    with pytest.raises(ValueError):
        TOPartition.of(3, (), (1, 2, 3))  # empty block
    with pytest.raises(ValueError, match="^ground set must be nonempty$"):
        TOPartition.of(0)


def test_invalid_ids_give_the_same_messages():
    """Blocks are bitmasks, so a repeated id would merge into one bit and
    a negative id would fail as a negative shift: ids are checked before
    any mask is made."""
    cases = [
        (lambda: parse_topartition("11>2", 2), "malformed block (1, 1)"),
        (lambda: parse_topartition("{1,1}>{2}", 2), "malformed block (1, 1)"),
        (lambda: TOPartition.of(2, (1, 1), (2,)), "malformed block (1, 1)"),
        (lambda: parse_topartition("0>12"), "blocks do not partition 1..3"),
        (lambda: parse_topartition("{1,-1}>2"), "blocks do not partition 1..3"),
        (lambda: parse_topartition("12>4", 3), "blocks do not partition 1..3"),
        (lambda: TOPartition.of(2, (0, 1), (2,)), "blocks do not partition 1..2"),
        (lambda: TOPartition.of(2, (1,), (2,), (3,)), "blocks do not partition 1..2"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message
