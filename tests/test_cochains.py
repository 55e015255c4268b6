import pytest

from tracelift.cochains import (
    build_O_interval,
    build_Psi0,
    build_Psi_n1,
    build_Psi_nl,
    build_R,
    build_S,
    build_S_even,
    build_S_tilde,
    descriptor_from_dict,
    descriptor_to_dict,
    deriv,
    plain,
    qfused,
)
from tracelift.combinatorics import MarkedInterval, enumerate_a_even


def test_build_S_slot_layout():
    a = enumerate_a_even(2, 1)[0]  # 1001
    (w,) = build_S(a).words
    assert w.slots == (deriv(1, 1), plain(2), plain(3), deriv(4, 2))


def test_build_S_even_word_counts():
    assert len(build_S_even(2, 1).words) == 2
    assert len(build_S_even(3, 1).words) == 3
    assert len(build_S_even(2, 2).words) == 3


def test_build_R_shortens_by_one():
    for a in enumerate_a_even(2, 2):
        r = build_R(a)
        assert r.arity == 5
        kinds = [s[0] for s in r.words[0].slots]
        assert kinds.count("d") == 2


def test_psi0_signs():
    desc = build_Psi0(2, 1)
    # s1 = 2 for 1001 (sign +), s1 = 3 for 1100 (sign -)
    assert [int(w.coeff) for w in desc.words] == [1, -1]
    assert desc.arity == 3


def test_psi0_2_2_has_arity_5():
    desc = build_Psi0(2, 2)
    assert desc.arity == 5
    assert len(desc.words) == 3


def test_tilde_one_wrapped_word_per_derivation_slot():
    a = enumerate_a_even(2, 1)[1]  # 1100
    desc = build_S_tilde(a)
    assert len(desc.words) == 2
    assert all(w.outer_dslot is not None for w in desc.words)
    # demoted slots are plain where the derivation used to sit
    assert desc.words[0].slots[0] == plain(1)
    assert desc.words[1].slots[1] == plain(2)


def test_interval_word_marks_become_q_factors():
    t = MarkedInterval(n=6, marks=(1, 3, 5))
    (w,) = build_O_interval(t, 6).words
    assert w.slots == (
        qfused(1, 1, 2),
        plain(2),
        qfused(3, 3, 4),
        plain(4),
        qfused(5, 5, 6),
        plain(6),
        plain(7),
    )


def test_interval_word_unmarked_slots_keep_derivations():
    t = MarkedInterval(n=4, marks=(2,))
    (w,) = build_O_interval(t, 4).words
    assert w.slots == (
        deriv(1, 1),
        qfused(2, 2, 3),
        plain(3),
        deriv(4, 4),
        plain(5),
    )


def test_psi_n1_word_counts():
    assert len(build_Psi_n1(2).words) == 2
    assert len(build_Psi_n1(4).words) == 5
    assert len(build_Psi_n1(6).words) == 13


def test_psi_n1_requires_two_derivations():
    with pytest.raises(ValueError):
        build_Psi_n1(1)


def test_psi_nl_2_2_word_count():
    desc = build_Psi_nl(2, 2)
    assert desc.arity == 5
    # three shortened words plus one circle correction for each sequence
    # whose reduced form has cyclically adjacent derivation slots
    assert len(desc.words) == 5
    q_words = [w for w in desc.words if any(s[0] == "q" for s in w.slots)]
    assert len(q_words) == 2


def test_psi_nl_at_l_1_matches_interval_arity():
    a = build_Psi_n1(2)
    b = build_Psi_nl(2, 1)
    assert a.arity == b.arity == 3
    # different word layouts (interval vs circle bookkeeping), both carry Q
    assert any(s[0] == "q" for w in b.words for s in w.slots)


def test_serialization_roundtrip():
    for desc in (build_Psi0(2, 1), build_Psi_n1(3), build_Psi_nl(2, 2)):
        obj = descriptor_to_dict(desc)
        back = descriptor_from_dict(obj)
        assert back.arity == desc.arity
        assert back.n == desc.n
        assert [w.slots for w in back.words] == [w.slots for w in desc.words]
        assert [w.coeff for w in back.words] == [w.coeff for w in desc.words]


def test_serialization_rejects_unknown_kind():
    obj = descriptor_to_dict(build_Psi0(1, 1))
    obj["words"][0]["slots"][0]["kind"] = "mystery"
    with pytest.raises(ValueError):
        descriptor_from_dict(obj)


@pytest.mark.parametrize("labels", [(1, 3), (1, 1)], ids=["outside", "repeated"])
def test_serialization_rejects_derivation_labels_not_a_permutation(labels):
    obj = descriptor_to_dict(build_Psi0(2, 1))
    derived = [s for s in obj["words"][0]["slots"] if s["kind"] == "deriv"]
    for slot, label in zip(derived, labels):
        slot["d"] = label
    with pytest.raises(ValueError, match="permutation"):
        descriptor_from_dict(obj)
