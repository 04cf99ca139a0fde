from collections import Counter
from itertools import combinations, permutations

import pytest

from permfiber.topartitions import (
    TOPartition,
    differential_terms,
    enumerate_topartitions,
    parity,
    parse_topartition,
    shape,
    width,
)

from oracles import fubini, ids, ordered_partitions, stirling2


def test_enumerate_counts_match_fubini_recurrence():
    # each cell once, by block count and then in label order
    for n in range(1, 8):
        parts = enumerate_topartitions(n)
        assert len(parts) == fubini(n)
        keys = [(p.block_count(), p.label()) for p in parts]
        assert keys == sorted(set(keys)), n


def test_enumerate_small_cases():
    assert [p.blocks for p in enumerate_topartitions(1)] == [(0b1,)]
    labels = {p.label() for p in enumerate_topartitions(2)}
    assert labels == {"12", "1>2", "2>1"}


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_topartitions(0)


def test_enumerate_matches_independent_enumerator():
    for n in range(1, 6):
        ours = {tuple(map(ids, p.blocks)) for p in enumerate_topartitions(n)}
        oracle = set(ordered_partitions(range(1, n + 1)))
        assert ours == oracle


def test_block_count_distribution():
    counts = Counter(p.block_count() for p in enumerate_topartitions(4))
    assert counts == {1: 1, 2: 14, 3: 36, 4: 24}
    for n in range(1, 7):
        counts = Counter(p.block_count() for p in enumerate_topartitions(n))
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
    for alpha in enumerate_topartitions(4):
        terms = differential_terms(alpha)
        assert len(terms) == sum(2 ** b.bit_count() - 2 for b in alpha.blocks)
        for t in terms:
            assert t.partition.block_count() == alpha.block_count() + 1
            assert width(t.partition) <= width(alpha)


def test_d_squared_vanishes_as_formal_sum():
    for n in range(1, 6):
        for alpha in enumerate_topartitions(n):
            acc = Counter()
            for t1 in differential_terms(alpha):
                for t2 in differential_terms(t1.partition):
                    acc[t2.partition] += t1.sign * t2.sign
            assert all(v == 0 for v in acc.values())


def test_width_and_shape_examples():
    assert width(parse_topartition("13|24")) == 2
    assert width(TOPartition.of(4, [1, 2, 3, 4])) == 4
    assert width(TOPartition.of(5, [4], [1], [2, 3, 5])) == 3
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
