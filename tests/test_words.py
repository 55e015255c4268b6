from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelift.freetrace import free_trace_combine
from tracelift.words import (
    arg,
    atom_key,
    atom_labels,
    canonicalize_cyclic,
    combine_maps,
    first_order,
    orbit_class,
    qatom,
    second_order,
)


def test_qatom_canonical_order_and_sign():
    a1, s1 = qatom(1, 2)
    a2, s2 = qatom(2, 1)
    assert a1 == a2
    assert s1 == -s2


def test_qatom_equal_labels_dies():
    a, s = qatom(2, 2)
    assert a is None and s == 0


def test_second_order_pair_unordered():
    assert second_order(1, 2, 5) == second_order(2, 1, 5)


def test_canonicalize_rotation_invariant():
    w = (arg(1), first_order(1, 2), arg(3))
    for k in range(len(w)):
        assert canonicalize_cyclic(w[k:] + w[:k]) == canonicalize_cyclic(w)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(0, 5))
def test_canonicalize_any_rotation(labels, shift):
    w = tuple(arg(i) for i in labels)
    k = shift % len(w)
    assert canonicalize_cyclic(w[k:] + w[:k]) == canonicalize_cyclic(w)


def _canonicalize_reference(word):
    """The O(L^2) canonicalization: every rotation's key built in full, the
    first minimal rotation kept."""
    word = tuple(word)
    best, best_key = word, tuple(atom_key(a) for a in word)
    for r in range(1, len(word)):
        rot = word[r:] + word[:r]
        key = tuple(atom_key(a) for a in rot)
        if key < best_key:
            best, best_key = rot, key
    return best


indices = st.integers(1, 3)
atoms = st.one_of(
    st.builds(arg, indices),
    st.builds(first_order, indices, indices),
    st.builds(second_order, indices, indices, indices),
    st.tuples(indices, indices).filter(lambda de: de[0] != de[1]).map(lambda de: qatom(*de)[0]),
)
mixed_words = st.one_of(
    st.lists(atoms, max_size=10).map(tuple),
    st.tuples(st.lists(atoms, min_size=1, max_size=5).map(tuple), st.integers(2, 3))
    .map(lambda wk: (wk[0] * wk[1])[:10]),
)


@settings(max_examples=300, deadline=None)
@given(mixed_words, st.integers(0, 9))
def test_canonicalize_matches_reference_on_mixed_words(w, shift):
    c = canonicalize_cyclic(w)
    assert c == _canonicalize_reference(w)
    assert canonicalize_cyclic(c) == c
    k = shift % len(w) if w else 0
    assert canonicalize_cyclic(w[k:] + w[:k]) == c


def test_free_trace_combine_cancels():
    w1 = (arg(1), arg(2))
    w2 = (arg(2), arg(1))
    # same cyclic class with opposite coefficients
    assert free_trace_combine([(w1, Fraction(1)), (w2, Fraction(-1))]) == {}


def test_free_trace_combine_accumulates():
    w = (arg(1), first_order(2, 2))
    m = free_trace_combine([(w, Fraction(1, 2)), (w, Fraction(1, 2))])
    assert list(m.values()) == [Fraction(1)]


def test_combine_maps_scales():
    w = (arg(1),)
    m1 = {canonicalize_cyclic(w): Fraction(2)}
    out = combine_maps([(m1, Fraction(3)), (m1, Fraction(-2))])
    assert out == {canonicalize_cyclic(w): Fraction(2)}


def test_orbit_class_is_rotation_invariant_and_signed_by_relabelling():
    w = (first_order(1, 1), arg(2), arg(3))
    cls, sign, stabilizer = orbit_class(w)
    assert cls == (arg(1), arg(2), first_order(1, 3)) and stabilizer == 1
    for k in range(3):
        assert orbit_class(w[k:] + w[:k]) == (cls, sign, stabilizer)
    # the transposition of A_2 and A_3 is odd
    assert orbit_class((first_order(1, 1), arg(3), arg(2))) == (cls, -sign, 1)


def test_orbit_class_vanishes_on_a_sign_reversing_stabilizer():
    # swapping the labels of D_1 D_2 A_1 fixes the letter, with sign -1
    assert orbit_class((second_order(1, 2, 1), arg(2))) == (None, 0, 0)
    # rotating DA_1 A_2 DA_3 A_4 by two: (13)(24) is even, (12) odd
    w = (first_order(1, 1), arg(2), first_order(2, 3), arg(4))
    assert orbit_class(w) == (None, 0, 0)


def test_orbit_class_q_letter_carries_its_sign():
    w = (first_order(3, 1), arg(2), qatom(1, 2)[0])
    cls, sign, stabilizer = orbit_class(w)
    # Q_de = -Q_ed: the label swap fixes the class, so it doubles the stabilizer
    assert stabilizer == 2
    # relabelling D_2 <-> D_3 is odd
    assert orbit_class((first_order(2, 1), arg(2), qatom(1, 3)[0])) == (cls, -sign, 2)
    # D_1 <-> D_3 is odd too, but turns Q_12 into Q_32 = -Q_23
    assert orbit_class((first_order(1, 1), arg(2), qatom(2, 3)[0])) == (cls, sign, 2)


def test_orbit_class_refuses_a_repeated_label():
    with pytest.raises(ValueError, match="twice"):
        orbit_class((arg(1), first_order(1, 1)))


def gen(d):
    """The generator letter of the inner derivation D_d."""
    return ("g", d)


def test_generator_letter_has_one_derivation_label_and_ranks_last():
    assert atom_labels(gen(3)) == ((3,), ())
    assert atom_key(gen(1)) > atom_key(qatom(1, 2)[0])


def test_orbit_class_of_a_generator_word_is_rotation_invariant():
    w = (gen(1), arg(1), first_order(2, 2), arg(3))
    cls, sign, stabilizer = orbit_class(w)
    assert cls == (arg(1), first_order(1, 2), arg(3), gen(2))
    assert (sign, stabilizer) == (-1, 1)
    for k in range(len(w)):
        assert orbit_class(w[k:] + w[:k]) == (cls, sign, stabilizer)


def test_orbit_class_signs_a_generator_relabelling():
    cls, sign, _ = orbit_class((gen(1), arg(1), arg(2)))
    # the transposition of A_1 and A_2 is odd
    assert orbit_class((gen(1), arg(2), arg(1))) == (cls, -sign, 1)
    # so is the one of D_1 and D_2, which moves the generator's label too
    cls, sign, _ = orbit_class((gen(1), arg(1), first_order(2, 2)))
    assert orbit_class((gen(2), arg(1), first_order(1, 2))) == (cls, -sign, 1)


def test_orbit_class_of_two_adjacent_generator_letters():
    w = (gen(1), gen(2), arg(1))
    assert orbit_class(w) == ((arg(1), gen(1), gen(2)), 1, 1)
    assert orbit_class((gen(2), gen(1), arg(1))) == ((arg(1), gen(1), gen(2)), -1, 1)


def test_orbit_class_of_generator_rotations_that_disagree_in_sign_is_zero():
    # Tr(G_1 G_2) - Tr(G_2 G_1) = 0: the rotation by one is the odd (12)
    assert orbit_class((gen(1), gen(2))) == (None, 0, 0)
    # rotating by three: (13)(24) on the derivations is even, (12) odd
    w = (gen(1), gen(2), arg(1), gen(3), gen(4), arg(2))
    assert orbit_class(w) == (None, 0, 0)
    # A_1 G_1 A_2 G_2: rotating by two swaps both label pairs, an even change
    assert orbit_class((arg(1), gen(1), arg(2), gen(2)))[1:] == (1, 2)
