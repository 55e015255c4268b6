import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelift.combinatorics import (
    EvenSequence,
    derivation_assignment,
    enumerate_a_even,
    enumerate_circles,
    enumerate_intervals,
    perm_sign,
    reduce_sequence,
)


def bits(seqs):
    return ["".join(map(str, a.bits)) for a in seqs]


def test_enumerate_small_instances():
    assert bits(enumerate_a_even(1, 1)) == ["100"]
    assert bits(enumerate_a_even(2, 1)) == ["1001", "1100"]
    assert bits(enumerate_a_even(3, 1)) == ["10011", "11001", "11100"]
    assert bits(enumerate_a_even(2, 2)) == ["100001", "100100", "110000"]


def brute_a_even(n, l):
    """Independent enumeration straight from the defining conditions."""
    total = n + 2 * l
    out = []
    for comb in itertools.product((0, 1), repeat=total):
        if comb[0] != 1 or sum(comb) != n:
            continue
        doubled = comb + comb
        runs = []
        i = 0
        while i < 2 * total:
            if doubled[i] == 0 and (i == 0 or doubled[i - 1] == 1):
                j = i
                while j < 2 * total and doubled[j] == 0:
                    j += 1
                if i < total:
                    runs.append(j - i)
                i = j
            else:
                i += 1
        if all(r % 2 == 0 for r in runs):
            out.append("".join(map(str, comb)))
    return out


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (1, 2)])
def test_enumeration_matches_brute_force(n, l):
    assert bits(enumerate_a_even(n, l)) == brute_a_even(n, l)


def test_even_sequence_validation():
    with pytest.raises(ValueError):
        EvenSequence(n=2, l=1, bits=(0, 1, 0, 1))
    with pytest.raises(ValueError):
        EvenSequence(n=2, l=1, bits=(1, 0, 1, 0))


def test_reduce_examples():
    a = enumerate_a_even(2, 1)[0]  # 1001
    r = reduce_sequence(a)
    assert r.s1 == 2
    assert r.tilde_bits == (1, 0, 1)
    b = enumerate_a_even(2, 1)[1]  # 1100
    r = reduce_sequence(b)
    assert r.s1 == 3
    assert r.tilde_bits == (1, 1, 0)


def test_reduce_keeps_one_count_and_shortens_by_one():
    for n, l in [(2, 1), (3, 1), (2, 2), (1, 2)]:
        for a in enumerate_a_even(n, l):
            r = reduce_sequence(a)
            assert len(r.tilde_bits) == n + 2 * l - 1
            assert sum(r.tilde_bits) == n


def test_derivation_assignment_in_turn():
    assert derivation_assignment((1, 0, 1)) == {1: 1, 3: 2}
    assert derivation_assignment((1, 1, 0)) == {1: 1, 2: 2}


def test_intervals_spacing():
    assert [t.marks for t in enumerate_intervals(2, 1)] == [(1,)]
    assert [t.marks for t in enumerate_intervals(4, 2)] == [(1, 3)]
    assert [t.marks for t in enumerate_intervals(6, 3)] == [(1, 3, 5)]
    assert len(enumerate_intervals(6, 2)) == 6


def test_interval_counts_give_psi_n1_sizes():
    # 1 lead word + interval corrections
    for n, expect in [(2, 2), (4, 5), (6, 13)]:
        total = 1 + sum(len(enumerate_intervals(n, k)) for k in range(1, n // 2 + 1))
        assert total == expect


def test_circles_need_adjacent_ones():
    r = reduce_sequence(enumerate_a_even(2, 2)[0])  # 100001 -> tilde 10001
    # ones are cyclically adjacent through the wrap only at (5,1)
    marks = [c.marks for c in enumerate_circles(r, 1)]
    assert all(len(m) == 1 for m in marks)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_perm_sign_multiplicative(p, q):
    comp = tuple(p[q[i]] for i in range(5))
    assert perm_sign(comp) == perm_sign(p) * perm_sign(q)
