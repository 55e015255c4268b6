"""Hypothesis properties of the alternation kernel and of ``trace_mul``.

The kernel is checked against the naive oracle on random valid descriptors
(plain, derived and Q-fused slots, derivation slots named out of order,
coefficients other than 1), and ``trace_mul`` against the trace of the full
product on both backends, including where the psido window is too shallow.
"""

import random
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from tracelift.cochains import CochainDescriptor, TermWord, evaluate
from tracelift.cohomology import sample_args
from tracelift.context import random_matrix_context
from tracelift.matrices import mat_mul, mat_trace, mat_trace_mul
from tracelift.naive import naive_evaluate
from tracelift.psido import (
    InsufficientWindowError,
    LogDerivationTag,
    apply_log_derivation,
    compose,
    laurent_symbol,
    make_psido_context,
    residue_trace,
)

coefficients = st.builds(
    Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4)
)


@st.composite
def words(draw, n, arity):
    """One word of the given arity whose d and q slots name 1..n once each,
    in a drawn (not necessarily ascending) order."""
    nq = draw(st.integers(max(0, n - arity), n // 2))
    kinds = ["q"] * nq + ["d"] * (n - 2 * nq)
    kinds = draw(st.permutations(kinds + ["p"] * (arity - len(kinds))))
    labels = iter(draw(st.permutations(range(1, n + 1))))
    slots = []
    for pos, kind in enumerate(kinds, start=1):
        if kind == "p":
            slots.append(("p", pos))
        elif kind == "d":
            slots.append(("d", pos, next(labels)))
        else:
            slots.append(("q", pos, next(labels), next(labels)))
    return TermWord(coeff=draw(coefficients), slots=tuple(slots))


@st.composite
def descriptors(draw):
    n = draw(st.sampled_from([2, 3]))
    arity = draw(st.integers(n - n // 2, 4))
    ws = draw(st.lists(words(n, arity), min_size=1, max_size=3))
    return CochainDescriptor(arity=arity, n=n, words=tuple(ws))


@settings(max_examples=40, deadline=None)
@given(descriptors(), st.integers(0, 10**6))
def test_evaluate_matches_naive_on_random_descriptors(desc, seed):
    ctx = random_matrix_context(random.Random(seed), desc.n, 3)
    args = sample_args(ctx, desc.arity, random.Random(seed + 1))
    value = evaluate(desc, ctx, args)
    event("nonzero" if value else "zero")
    assert value == naive_evaluate(desc, ctx, args)


matrices = st.integers(1, 4).flatmap(
    lambda N: st.tuples(*[
        st.tuples(*[st.tuples(*[st.integers(-5, 5)] * N)] * N)
    ] * 2)
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_matrix_trace_mul_is_trace_of_product(ab):
    a, b = ab
    assert mat_trace_mul(a, b) == mat_trace(mat_mul(a, b))


@st.composite
def symbols(draw, nvars, depth):
    """A finite symbol, optionally moved by one log derivation so that its
    window and top order differ from the plain Laurent ones.  x-exponents
    stay within 2 of the d-exponents, where residues of products live."""
    entries = {}
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.tuples(*[st.integers(-3, 2)] * nvars))
        x = tuple(e + draw(st.integers(-2, 2)) for e in d)
        entries[(x, d)] = draw(coefficients)
    sym = laurent_symbol(nvars, entries, depth)
    if draw(st.booleans()):
        tag = LogDerivationTag(draw(st.sampled_from(["ln_x", "ln_partial"])),
                               draw(st.integers(0, nvars - 1)))
        sym = apply_log_derivation(tag, sym)
    return sym


def symbol_pairs(depths):
    return st.tuples(st.integers(1, 2), depths).flatmap(
        lambda nd: st.tuples(symbols(*nd), symbols(*nd)))


def _residue_or_fault(fn):
    try:
        return fn()
    except InsufficientWindowError:
        return InsufficientWindowError


@settings(max_examples=60, deadline=None)
@given(symbol_pairs(st.integers(8, 12)))
def test_psido_trace_mul_is_residue_of_composition(ab):
    a, b = ab
    ctx = make_psido_context(a.nvars)
    value = ctx.trace_mul(a, b)
    event("nonzero" if value else "zero")
    assert value == ctx.trace(ctx.mul(a, b))


@settings(max_examples=80, deadline=None)
@given(symbol_pairs(st.integers(0, 3)))
def test_psido_trace_mul_faults_exactly_when_residue_does(ab):
    a, b = ab
    ctx = make_psido_context(a.nvars)
    fused = _residue_or_fault(lambda: ctx.trace_mul(a, b))
    full = _residue_or_fault(lambda: residue_trace(compose(a, b)))
    event("fault" if full is InsufficientWindowError else "exact")
    assert fused == full
