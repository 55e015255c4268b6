from fractions import Fraction

import pytest

from tracelift.cochains import (
    CochainDescriptor,
    TermWord,
    build_differential,
    build_Psi0,
    build_Psi_n1,
    build_S,
    build_S_tilde,
)
from tracelift.combinatorics import enumerate_a_even
from tracelift.freetrace import (
    LEIBNIZ_TERM_BUDGET,
    certify_in_relation_span,
    certify_leibniz_sum_identity,
    leibniz_term_count,
    leibniz_trace_relation,
    relation_basis,
    solve_rational,
    symbolic_differential,
    symbolic_expand,
)
from tracelift.words import arg, canonicalize_cyclic, first_order


def test_leibniz_relation_of_two_letter_word():
    rel = leibniz_trace_relation(1, (arg(1), arg(2)))
    assert rel == {
        canonicalize_cyclic((first_order(1, 1), arg(2))): Fraction(1),
        canonicalize_cyclic((arg(1), first_order(1, 2))): Fraction(1),
    }


def test_opposite_leibniz_expansions_cancel():
    rel = leibniz_trace_relation(1, (arg(1), arg(2)))
    neg = {k: -v for k, v in rel.items()}
    combined = {k: rel[k] + neg[k] for k in rel}
    assert all(v == 0 for v in combined.values())


def test_generator_is_in_its_own_span():
    basis = relation_basis(2, 1, 0)
    rel = leibniz_trace_relation(1, (arg(1), arg(2)))
    ok, coeffs = certify_in_relation_span(rel, basis)
    assert ok
    assert any(c != 0 for c in coeffs)


def test_single_derived_word_not_in_span():
    basis = relation_basis(2, 1, 0)
    expr = {canonicalize_cyclic((first_order(1, 1), arg(2))): Fraction(1)}
    ok, _ = certify_in_relation_span(expr, basis)
    assert not ok


def test_differential_of_psi0_1_1_is_in_relation_span():
    expr = symbolic_differential(build_Psi0(1, 1))
    basis = relation_basis(3, 1, 0) + relation_basis(3, 1, 1)
    ok, _ = certify_in_relation_span(expr, basis)
    assert ok


def test_symbolic_differential_refuses_wrapped_and_q_fused_words():
    wrapped = build_S_tilde(enumerate_a_even(2, 1)[0])
    with pytest.raises(ValueError, match="wrapped"):
        symbolic_differential(wrapped)
    with pytest.raises(ValueError, match="wrapped"):
        build_differential(wrapped)
    with pytest.raises(ValueError, match="Q-fused"):
        symbolic_differential(build_Psi_n1(2))


def test_build_differential_splits_each_slot():
    """A plain slot takes the product of two arguments, a derived one splits
    by Leibniz and a Q stays on the right; the sign is (-1)^i."""
    word = TermWord(Fraction(1, 3), (("d", 1, 1), ("q", 2, 2, 3), ("p", 3)))
    got = build_differential(CochainDescriptor(3, 3, (word,))).words
    assert [(w.coeff, w.slots) for w in got] == [
        (Fraction(-1, 3), (("d", 1, 1), ("p", 2), ("q", 3, 2, 3), ("p", 4))),
        (Fraction(-1, 3), (("p", 1), ("d", 2, 1), ("q", 3, 2, 3), ("p", 4))),
        (Fraction(1, 3), (("d", 1, 1), ("p", 2), ("q", 3, 2, 3), ("p", 4))),
        (Fraction(-1, 3), (("d", 1, 1), ("q", 2, 2, 3), ("p", 3), ("p", 4))),
    ]


def test_solve_rational_finds_exact_solution():
    sol = solve_rational([[1, 2], [3, 4]], [5, 6])
    assert sol == [Fraction(-4), Fraction(9, 2)]
    assert solve_rational([[1, 1], [2, 2]], [1, 3]) is None


def test_symbolic_expand_counts():
    a = enumerate_a_even(1, 1)[0]
    # one word, 3! argument orders, no derivation alternation at n = 1
    m = symbolic_expand(build_S(a))
    total = sum(abs(v) for v in m.values())
    assert total == 6


def test_wrapped_expansion_second_order_cancels_within_one_sequence():
    a = enumerate_a_even(2, 1)[1]  # 1100
    m = symbolic_expand(build_S_tilde(a))
    kinds = {at[0] for w in m for at in w}
    # the derivation alternation cancels the second-order letters pairwise
    assert "f" in kinds and "s" not in kinds


@pytest.mark.parametrize(
    "n,l,observed",
    [(1, 1, 3), (2, 1, 4), (2, 2, 6)],
)
def test_wrapped_sum_is_proportional_with_factor_n_plus_2l(n, l, observed):
    res = certify_leibniz_sum_identity(n, l)
    assert res["proportional"]
    assert res["observed_factor"] == [observed, 1]
    assert res["second_order_cancelled"]
    # the contracted factor n + l is not what the expansion produces
    assert res["identity_holds"] is (res["factor"] == observed)


def test_leibniz_certificate_cost_budget():
    # the term counts of docs/leibniz_sum_factor.md
    assert leibniz_term_count(2, 3) == 5_160_960
    assert leibniz_term_count(5, 1) == 105_840_000
    assert leibniz_term_count(4, 2) == 309_657_600
    assert leibniz_term_count(6, 1) == 8_360_755_200
    computed = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (4, 1), (3, 2), (2, 3)]
    assert all(leibniz_term_count(n, l) <= LEIBNIZ_TERM_BUDGET for n, l in computed)
    for n, l in [(5, 1), (4, 2), (6, 1), (4, 3)]:
        with pytest.raises(ValueError, match="budget"):
            certify_leibniz_sum_identity(n, l)
