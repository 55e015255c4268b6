import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tracelift import cochains
from tracelift.cochains import (
    CochainDescriptor,
    TermWord,
    build_Psi0,
    build_Psi_n1,
    build_Psi_nl,
    build_S,
    build_S_even,
    build_S_tilde,
    deriv,
    evaluate,
    expand_inner,
    kernel_words,
    plain,
    split_adjacency,
)
from tracelift.combinatorics import enumerate_a_even
from tracelift.context import random_matrix_context
from tracelift.cohomology import (
    ce_differential,
    sample_args,
    verify_cocycle,
    verify_inner_tilde_cocycle,
)
from tracelift.naive import naive_evaluate
from tracelift.psido import make_psido_context


def ctx_for(n, seed=3, commuting=False):
    return random_matrix_context(random.Random(seed), n, 3, commuting=commuting)


class TermCounter:
    """Forwards to ``ctx`` and counts its ``mul_sum`` calls and their terms,
    and its ``bracket`` calls."""

    def __init__(self, ctx):
        self.ctx, self.calls, self.terms, self.brackets = ctx, 0, 0, 0

    def mul_sum(self, terms, *rest):
        self.calls += 1
        self.terms += len(terms)
        return self.ctx.mul_sum(terms, *rest)

    def bracket(self, a, b):
        self.brackets += 1
        return self.ctx.bracket(a, b)

    def __getattr__(self, attr):
        return getattr(self.ctx, attr)


def test_kernel_takes_each_q_pair_once():
    """The product terms of d(Psi_n1(4)) on 4x4 matrices and of twelve
    d(Psi_n1(2)) trials on depth-12 psido symbols, the differential
    evaluated as its class-collapsed descriptor and a Q slot taking each
    derivation pair in ascending order only.  The one-pass kernel whose
    argument slots took brackets formed 15,000 and 1,296 (both Q orders,
    halved, 20,220 and 1,728)."""
    ctx = TermCounter(random_matrix_context(random.Random(0), 4, 4))
    assert ce_differential(build_Psi_n1(4), ctx, sample_args(ctx, 6, random.Random(1))) == 0
    assert ctx.terms == 4_920
    ctx = TermCounter(make_psido_context(1, depth=12))
    assert verify_cocycle(build_Psi_n1(2), ctx, trials=12, seed=0).passed
    assert ctx.terms == 864


def test_ce_differential_takes_no_bracket():
    """The differential is the kernel's value of the differential
    descriptor, whose slots take products of arguments, never brackets:
    no ``bracket`` call on a matrix context, for descriptors and inner
    expansions alike."""
    inner = expand_inner(build_Psi0(2, 2))
    for cochain in (build_Psi_n1(3), build_Psi_nl(2, 2), inner):
        ctx = TermCounter(random_matrix_context(random.Random(0), cochain.n, 3))
        args = sample_args(ctx, cochain.arity + 1, random.Random(1))
        assert ce_differential(cochain, ctx, args) == 0
        assert ctx.terms > 0
        assert ctx.brackets == 0


def test_differential_descriptor_collapses_to_few_classes():
    """d(Psi_n1(n)) has 8, 17, 35, 68, 129, 239 words for n = 2..7 but
    2, 3, 5, 8, 13, 21 orbit classes; d(Psi_nl(4,2)) 368 words and 11
    classes.  ``ce_differential`` walks one word per class."""
    counts = []
    for psi in [build_Psi_n1(n) for n in range(2, 8)] + [build_Psi_nl(4, 2)]:
        diff = cochains.build_differential(psi)
        counts.append((len(diff.words), len(kernel_words(diff, SimpleNamespace(n=psi.n)))))
    assert counts == [(8, 2), (17, 3), (35, 5), (68, 8), (129, 13), (239, 21),
                      (368, 11)]


def test_kernel_walks_one_word_per_orbit_class():
    """The words the kernel keeps: Psi_nl(2,2), the inner expansion of
    Psi0(2,2) and its two adjacency parts collapse; each Psi_n1(n) word is a
    class of its own and stays as written."""
    ctx = SimpleNamespace(n=2)
    inner = expand_inner(build_Psi0(2, 2))
    counts = [(len(c.words), len(kernel_words(c, ctx)))
              for c in (build_Psi_nl(2, 2), inner, *split_adjacency(inner))]
    assert counts == [(5, 3), (12, 3), (10, 2), (2, 1)]
    for n in range(2, 8):
        psi = build_Psi_n1(n)
        assert kernel_words(psi, SimpleNamespace(n=n)) == [
            (w.coeff, w.slots) for w in psi.words]


def test_one_matrix_circle_operation_takes_fewer_products(monkeypatch):
    """A Psi_nl(2,2) trial and an inner-split trial (n = l = 2) on 3x3
    matrices, the operation of the benchmark's matrix-circle workload:
    1,968 product terms with one word per class of the differential
    descriptors, 9,744 with every word.  The one-pass kernel whose argument
    slots took brackets formed 9,252 and 16,016."""
    counts = []
    for collapse in (True, False):
        if not collapse:
            monkeypatch.setattr(cochains, "_class_words", list)
        ctx = TermCounter(random_matrix_context(random.Random(0), 2, 3))
        assert verify_cocycle(build_Psi_nl(2, 2), ctx, trials=1, seed=0).passed
        assert verify_inner_tilde_cocycle(2, 2, ctx, trials=1, seed=0).passed
        counts.append(ctx.terms)
    assert counts == [1_968, 9_744]


def test_cancelling_class_coefficients_take_no_product():
    """A word and its rotation with D_2 and D_3 swapped (so its Q names the
    pair in descending order), with coefficients that cancel in their
    class: 0, and no ``mul_sum`` call, though each word alone is nonzero."""
    words = (TermWord(Fraction(1), (("d", 1, 1), ("p", 2), ("q", 3, 2, 3))),
             TermWord(Fraction(1), (("p", 1), ("q", 2, 3, 2), ("d", 3, 1))))
    ctx = TermCounter(random_matrix_context(random.Random(1), 3, 3))
    args = sample_args(ctx, 4, random.Random(2))
    desc = CochainDescriptor(3, 3, words)
    assert evaluate(desc, ctx, args[:3]) == 0
    assert ce_differential(desc, ctx, args) == 0
    assert ctx.calls == 0
    for w in words:
        alone = CochainDescriptor(3, 3, (w,))
        assert evaluate(alone, ctx, args[:3]) != 0
        assert ce_differential(alone, ctx, args) != 0


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
