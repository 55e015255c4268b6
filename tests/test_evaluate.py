import random
from fractions import Fraction

import pytest

from tracelift.cochains import (
    CochainDescriptor,
    TermWord,
    build_Psi0,
    build_Psi_n1,
    build_S,
    build_S_even,
    build_S_tilde,
    deriv,
    evaluate,
    expand_inner,
    plain,
    split_adjacency,
)
from tracelift.combinatorics import enumerate_a_even
from tracelift.context import random_matrix_context
from tracelift.cohomology import ce_differential, sample_args, verify_cocycle
from tracelift.naive import naive_evaluate
from tracelift.psido import make_psido_context


def ctx_for(n, seed=3, commuting=False):
    return random_matrix_context(random.Random(seed), n, 3, commuting=commuting)


class TermCounter:
    """Forwards to ``ctx`` and counts the terms of its ``mul_sum`` calls."""

    def __init__(self, ctx):
        self.ctx, self.terms = ctx, 0

    def mul_sum(self, terms, *rest):
        self.terms += len(terms)
        return self.ctx.mul_sum(terms, *rest)

    def __getattr__(self, attr):
        return getattr(self.ctx, attr)


def test_kernel_takes_each_q_pair_once():
    """The product terms of d(Psi_n1(4)) on 4x4 matrices and of twelve
    d(Psi_n1(2)) trials on depth-12 psido symbols, a Q slot taking each
    derivation pair in ascending order only (both orders, halved, would
    take 20,220 and 1,728)."""
    ctx = TermCounter(random_matrix_context(random.Random(0), 4, 4))
    assert ce_differential(build_Psi_n1(4), ctx, sample_args(ctx, 6, random.Random(1))) == 0
    assert ctx.terms == 15_000
    ctx = TermCounter(make_psido_context(1, depth=12))
    assert verify_cocycle(build_Psi_n1(2), ctx, trials=12, seed=0).passed
    assert ctx.terms == 1_296


def test_evaluate_is_antisymmetric_in_arguments():
    ctx = ctx_for(2)
    desc = build_Psi0(2, 1)
    rng = random.Random(0)
    args = sample_args(ctx, 3, rng)
    swapped = (args[1], args[0], args[2])
    assert evaluate(desc, ctx, swapped) == -evaluate(desc, ctx, args)


def test_evaluate_matches_naive_on_q_descriptors():
    ctx = ctx_for(2)
    desc = build_Psi_n1(2)
    rng = random.Random(1)
    for _ in range(3):
        args = sample_args(ctx, 3, rng)
        assert evaluate(desc, ctx, args) == naive_evaluate(desc, ctx, args)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1)])
def test_evaluate_matches_naive_on_plain_descriptors(n, l):
    ctx = ctx_for(n, seed=9)
    desc = build_S_even(n, l)
    rng = random.Random(2)
    args = sample_args(ctx, desc.arity, rng)
    assert evaluate(desc, ctx, args) == naive_evaluate(desc, ctx, args)


def test_inner_expansion_preserves_values():
    ctx = ctx_for(2)
    desc = build_Psi0(2, 1)
    ec = expand_inner(desc)
    rng = random.Random(4)
    for _ in range(3):
        args = sample_args(ctx, 3, rng)
        assert ec.evaluate(ctx, args) == evaluate(desc, ctx, args)


def test_adjacency_split_partitions_value():
    ctx = ctx_for(2, seed=6)
    ec = expand_inner(build_Psi0(2, 1))
    tilde, rem = split_adjacency(ec)
    assert len(tilde.words) + len(rem.words) == len(ec.words)
    rng = random.Random(5)
    args = sample_args(ctx, 3, rng)
    assert tilde.evaluate(ctx, args) + rem.evaluate(ctx, args) == ec.evaluate(ctx, args)


def test_expand_inner_doubles_per_derivation_slot():
    desc = build_S(enumerate_a_even(2, 1)[0])
    assert len(expand_inner(desc).words) == 4


def test_wrapped_words_are_symbolic_only():
    ctx = ctx_for(2)
    desc = build_S_tilde(enumerate_a_even(2, 1)[0])
    rng = random.Random(7)
    args = sample_args(ctx, 4, rng)
    with pytest.raises(ValueError):
        evaluate(desc, ctx, args)


def test_arity_mismatch_rejected():
    ctx = ctx_for(2)
    desc = build_Psi0(2, 1)
    with pytest.raises(ValueError):
        evaluate(desc, ctx, (ctx.sample(random.Random(0)),))


@pytest.mark.parametrize("labels", [(1, 3), (2, 2)], ids=["outside", "repeated"])
def test_derivation_labels_must_be_a_permutation(labels):
    ctx = ctx_for(2)
    word = TermWord(coeff=Fraction(1),
                    slots=(deriv(1, labels[0]), plain(2), deriv(3, labels[1])))
    desc = CochainDescriptor(arity=3, n=2, words=(word,))
    args = sample_args(ctx, 3, random.Random(8))
    with pytest.raises(ValueError, match="permutation"):
        evaluate(desc, ctx, args)
