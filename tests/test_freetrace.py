import math
from fractions import Fraction

import pytest

from tracelift.cochains import (
    CochainDescriptor,
    TermWord,
    build_differential,
    build_Psi0,
    build_Psi_n1,
    build_S,
    build_S_even,
    build_S_tilde,
)
from tracelift.combinatorics import EvenSequence, enumerate_a_even
from tracelift.freetrace import (
    LEIBNIZ_COST_BUDGET,
    certify_in_relation_span,
    certify_leibniz_sum_identity,
    class_combine,
    descriptor_classes,
    leibniz_class_cost,
    leibniz_trace_relation,
    relation_basis,
    relation_class_rank,
    solve_rational,
    symbolic_differential,
    symbolic_expand,
)
from tracelift.words import arg, canonicalize_cyclic, combine_maps, first_order


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
    # the sequence count of the cost has a closed form: C(l + n - 1, n - 1)
    for n, l in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 2), (2, 5), (6, 1)]:
        seqs = len(enumerate_a_even(n, l))
        assert seqs == math.comb(l + n - 1, n - 1)
        assert leibniz_class_cost(n, l) == seqs * n * (n + 2 * l) ** 3
    # every pair with n + 2l <= 11 is accepted; the largest is (7,2)
    small = [(n, l) for l in range(1, 6) for n in range(1, 12 - 2 * l)]
    assert len(small) == 25
    assert max(small, key=lambda p: leibniz_class_cost(*p)) == (7, 2)
    assert all(leibniz_class_cost(n, l) <= LEIBNIZ_COST_BUDGET for n, l in small)
    # refused before any sequence is enumerated; (20,10) has C(39,19) bit patterns
    for n, l in [(20, 10), (15, 1), (7, 3), (1, 50)]:
        with pytest.raises(ValueError, match="budget"):
            certify_leibniz_sum_identity(n, l)


@pytest.mark.parametrize("n,l", [(5, 1), (4, 2), (6, 1)])
def test_leibniz_certificate_beyond_the_expansion(n, l):
    res = certify_leibniz_sum_identity(n, l)
    assert res["identity_holds"] and res["proportional"]
    assert res["observed_factor"] == [n + 2 * l, 1]
    assert res["second_order_cancelled"]
    assert res["residual_terms"] == 0
    assert res["tilde_terms"] == res["target_terms"] >= math.factorial(n + 2 * l)


def _expanded_certificate(n, l):
    """The certificate compared in expanded words: both sides through
    ``symbolic_expand``, (n + 2l)! n! words per descriptor word."""
    wrapped = CochainDescriptor(arity=n + 2 * l, n=n, words=tuple(
        w for a in enumerate_a_even(n, l) for w in build_S_tilde(a).words))
    tilde = symbolic_expand(wrapped)
    target = symbolic_expand(build_S_even(n, l))
    ratios = {Fraction(tilde.get(k, 0), v) for k, v in target.items()}
    proportional = len(ratios) == 1 and all(k in target for k in tilde)
    observed = ratios.pop() if proportional else None
    factor = n + 2 * l
    diff = combine_maps([(tilde, Fraction(1)), (target, Fraction(-factor))])
    return {
        "n": n,
        "l": l,
        "factor": factor,
        "identity_holds": not diff,
        "proportional": proportional,
        "observed_factor": [observed.numerator, observed.denominator]
        if observed is not None
        else None,
        "second_order_cancelled": not any(at[0] == "s" for w in tilde for at in w),
        "tilde_terms": len(tilde),
        "target_terms": len(target),
        "residual_terms": len(diff),
    }


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_class_certificate_matches_expanded_oracle(n, l):
    assert certify_leibniz_sum_identity(n, l) == _expanded_certificate(n, l)


def _span_basis(desc):
    """The relation generators of a span certificate for d(desc), as the
    benchmark builds them: every inner order 0..n."""
    return [g for k in range(desc.n + 1)
            for g in relation_basis(desc.arity + 1, desc.n, k)]


@pytest.mark.parametrize("n,l,classes,rank", [
    (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (3, 1, 2, 2), (1, 3, 1, 1),
    (2, 2, 2, 1),
])
def test_span_certificate_vacuity(n, l, classes, rank):
    """Up to (3,1) and (1,3) the relations span every alternating class
    they reach, so d(Psi0(n, l)) is in the span whatever it is; at (2,2)
    they span one direction of two."""
    desc = build_Psi0(n, l)
    assert relation_class_rank(_span_basis(desc), n) == (classes, rank)
    expr = descriptor_classes(build_differential(desc))
    assert expr and set(expr) <= set().union(*(
        class_combine(g.items()) for g in relation_basis(desc.arity + 1, n, n - 1)))


@pytest.mark.parametrize("bits", [(1, 1, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0),
                                  (1, 0, 0, 0, 0, 1)])
def test_span_certificate_negative_control_at_2_2(bits):
    """d(Psi0(2,2)) is in the class span; adding an alternated word of the
    class space takes it out."""
    desc = build_Psi0(2, 2)
    basis = [p for g in relation_basis(6, 2, 1) if (p := class_combine(g.items()))]
    expr = descriptor_classes(build_differential(desc))
    assert certify_in_relation_span(expr, basis)[0]
    bump = descriptor_classes(build_S(EvenSequence(2, 2, bits)))
    perturbed = combine_maps([(expr, Fraction(1)), (bump, Fraction(1))])
    assert set(bump) <= {c for p in basis for c in p}
    assert not certify_in_relation_span(perturbed, basis)[0]
