"""Hypothesis properties of the alternation kernel, of ``trace_mul`` and
``mul_sum``, and of the psido symbol arithmetic.

The kernel is checked against the naive oracle on random valid descriptors
(plain, derived and Q-fused slots, derivation slots named out of order,
coefficients other than 1), for antisymmetry in its arguments, and for a
lossless JSON round trip of the descriptor; its differential (the
class-collapsed differential descriptor) against the per-pair sum kept
below as the reference, on descriptors, inner expansions and psido windows
(where the fault is the first faulting kept word's), with examples for the
first-slot sums the kernel folds into its ``mul_sum`` terms; the kernel's
walk over all of a cochain's words together against the sum over its words
one by one, values and window faults alike; ``evaluate`` and
``ce_differential``, which walk one word per alternation-orbit class,
against that per-word sum over the words as written and against the naive
oracle, on words with twins in their class whose coefficients may cancel;
the class words walked at every rotation against the walk as written, the
naive oracle and, on psido windows, the same fault;
``trace_mul`` against the trace
of the full product on both backends, including where the psido window is
too shallow; ``mul_sum`` against the signed sum of single products on both
backends (on matrices also against the row-by-column product kept below as
the reference, and at the edge of its packed field width), and the psido
``mul_sum`` with a demand floor against the full sum; the integer-numerator
psido operations against the per-contribution ``Fraction`` formulas kept
below as the reference; and the free-trace layer (integer-numerator
expansions, fraction-free span solve) against ``Fraction`` references kept
below as well; alternation-orbit classes against the full expansion; and
the symbolic expansion, evaluated word by word on matrices, against the
kernel.
"""

import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tracelift.cochains import (
    CochainDescriptor,
    ExpandedCochain,
    ExpandedWord,
    TermWord,
    _alternate,
    _class_words,
    _rotate,
    build_Psi_n1,
    build_differential,
    checked_words,
    descriptor_from_dict,
    descriptor_to_dict,
    evaluate,
    expand_inner,
    kernel_words,
    split_adjacency,
)
from tracelift.cohomology import ce_differential, sample_args
from tracelift.combinatorics import perm_sign
from tracelift.context import random_matrix_context
from tracelift.freetrace import (
    _integer_gauss_jordan,
    class_combine,
    descriptor_classes,
    expanded_size,
    solve_rational,
    symbolic_differential,
    symbolic_expand,
)
from tracelift.matrices import (
    mat_add,
    mat_mul,
    mat_mul_sum,
    mat_operand,
    mat_sub,
    mat_trace,
    mat_trace_mul,
    zero,
)
from tracelift.naive import naive_evaluate
from tracelift.psido import (
    InsufficientWindowError,
    LogDerivationTag,
    PsiDOSymbol,
    apply_log_derivation,
    bracket_series_symbol,
    compose,
    compose_sum,
    laurent_symbol,
    make_psido_context,
    residue_trace,
    residue_trace_compose,
    sym_add,
    sym_scale,
    sym_sub,
)
from tracelift.words import arg, canonicalize_cyclic, first_order, qatom, second_order

coefficients = st.builds(
    Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4)
)


@st.composite
def words(draw, n, arity, q=True):
    """One word of the given arity whose d and q slots name 1..n once each,
    in a drawn (not necessarily ascending) order; without q slots if not
    ``q`` (then arity >= n)."""
    nq = draw(st.integers(max(0, n - arity), n // 2 if q else 0))
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
def descriptors(draw, ns=(2, 3), min_arity=1, max_arity=4, max_words=3):
    n = draw(st.sampled_from(ns))
    arity = draw(st.integers(max(min_arity, n - n // 2), max_arity))
    ws = draw(st.lists(words(n, arity), min_size=1, max_size=max_words))
    return CochainDescriptor(arity=arity, n=n, words=tuple(ws))


# Words whose first-slot sums the kernel folds into the next products, each
# nonzero at seed 1 in both properties below: a Q-fused first slot, a
# one-slot word (its trace taken directly) and a two-slot word (the first
# slot's sum folded into the trace_mul of the last).
_Q_FIRST = CochainDescriptor(3, 2, (
    TermWord(Fraction(1), (("q", 1, 1, 2), ("p", 2), ("p", 3))),))
_ONE_SLOT = CochainDescriptor(1, 2, (TermWord(Fraction(-2, 3), (("q", 1, 2, 1),)),))
_TWO_SLOTS = CochainDescriptor(2, 3, (
    TermWord(Fraction(1), (("q", 1, 1, 2), ("d", 2, 3))),))
# Two Q slots, the first naming its pair in descending order, also nonzero
# at seed 1 in both: the drawn descriptors have n <= 3, so one Q slot at most.
_TWO_QS = CochainDescriptor(3, 4, (
    TermWord(Fraction(1), (("q", 1, 3, 1), ("q", 2, 2, 4), ("p", 3))),))


@settings(max_examples=40, deadline=None)
@given(descriptors(), st.integers(0, 10**6))
@example(_Q_FIRST, 1)
@example(_ONE_SLOT, 1)
@example(_TWO_SLOTS, 1)
@example(_TWO_QS, 1)
def test_evaluate_matches_naive_on_random_descriptors(desc, seed):
    ctx = random_matrix_context(random.Random(seed), desc.n, 3)
    args = sample_args(ctx, desc.arity, random.Random(seed + 1))
    value = evaluate(desc, ctx, args)
    event("nonzero" if value else "zero")
    assert value == naive_evaluate(desc, ctx, args)


@settings(max_examples=40, deadline=None)
@given(descriptors().filter(lambda d: d.arity >= 2), st.integers(0, 10**6),
       st.data())
def test_swapping_two_arguments_negates_evaluate(desc, seed, data):
    ctx = random_matrix_context(random.Random(seed), desc.n, 3)
    args = list(sample_args(ctx, desc.arity, random.Random(seed + 1)))
    i, j = data.draw(st.lists(st.integers(0, desc.arity - 1), min_size=2,
                              max_size=2, unique=True))
    value = evaluate(desc, ctx, args)
    event("nonzero" if value else "zero")
    args[i], args[j] = args[j], args[i]
    assert evaluate(desc, ctx, args) == -value


def _ce_differential_ref(cochain, ctx, args, value=evaluate):
    """The per-pair differential: one evaluation per argument pair, by
    ``value`` (the kernel, or the naive oracle)."""
    total = 0
    m = len(args)
    for i, j in itertools.combinations(range(m), 2):
        br = ctx.bracket(args[i], args[j])
        rest = tuple(args[k] for k in range(m) if k not in (i, j))
        total += (-1) ** (i + j) * value(cochain, ctx, (br,) + rest)
    return total


@st.composite
def expanded_cochains(draw):
    """Inner expansions of Q-free descriptors, or one part of their
    adjacency split."""
    n = draw(st.sampled_from([2, 3]))
    arity = draw(st.integers(n, 4))
    ws = draw(st.lists(words(n, arity, q=False), min_size=1, max_size=2))
    ec = expand_inner(CochainDescriptor(arity=arity, n=n, words=tuple(ws)))
    part = draw(st.sampled_from([None, 0, 1]))
    return ec if part is None else split_adjacency(ec)[part]


# an inner expansion whose differential, and its adjacency part's, are
# nonzero at seed 1
_INNER_SOURCE = CochainDescriptor(3, 2, (
    TermWord(Fraction(1), (("d", 1, 1), ("d", 2, 2), ("p", 3))),))
_INNER = expand_inner(_INNER_SOURCE)


@settings(max_examples=40, deadline=None)
@given(st.one_of(descriptors(), expanded_cochains()), st.integers(0, 10**6))
@example(_INNER, 1)
@example(split_adjacency(_INNER)[1], 1)
@example(_Q_FIRST, 1)
@example(_ONE_SLOT, 1)
@example(_TWO_SLOTS, 1)
@example(_TWO_QS, 1)
@example(ExpandedCochain(2, 2, (
    ExpandedWord(Fraction(1), (("g", 1), ("a", 1), ("g", 2), ("a", 2))),)), 1)
def test_ce_differential_matches_per_pair_reference(cochain, seed):
    ctx = random_matrix_context(random.Random(seed), cochain.n, 3)
    args = sample_args(ctx, cochain.arity + 1, random.Random(seed + 1))
    value = ce_differential(cochain, ctx, args)
    event(f"{type(cochain).__name__}: {'nonzero' if value else 'zero'}")
    assert value == _ce_differential_ref(cochain, ctx, args)
    assert evaluate(build_differential(cochain), ctx, args) == value


@settings(max_examples=40, deadline=None)
@given(descriptors(), st.integers(0, 10**6), st.data())
def test_swapping_two_arguments_negates_ce_differential(desc, seed, data):
    ctx = random_matrix_context(random.Random(seed), desc.n, 3)
    args = list(sample_args(ctx, desc.arity + 1, random.Random(seed + 1)))
    i, j = data.draw(st.lists(st.integers(0, desc.arity), min_size=2,
                              max_size=2, unique=True))
    value = ce_differential(desc, ctx, args)
    event("nonzero" if value else "zero")
    args[i], args[j] = args[j], args[i]
    assert ce_differential(desc, ctx, args) == -value


@pytest.mark.parametrize("depth", [1, 2, 3, 12])
def test_psido_ce_differential_matches_per_pair_reference(depth):
    """Equal values, and a window fault on exactly the same inputs.  Psi_n1(2)
    is a cocycle; the arity-1 Q word gives nonzero values on these seeds."""
    ctx = make_psido_context(1, depth=depth)
    qword = CochainDescriptor(1, 2, (TermWord(Fraction(-2, 3), (("q", 1, 2, 1),)),))
    outcomes = []
    for desc in (build_Psi_n1(2), qword):
        for seed in range(4):
            args = sample_args(ctx, desc.arity + 1, random.Random(seed))
            fused = _residue_or_fault(lambda: ce_differential(desc, ctx, args))
            assert fused == _residue_or_fault(lambda: _ce_differential_ref(desc, ctx, args))
            outcomes.append(fused)
    assert (InsufficientWindowError in outcomes) == (depth < 4)
    assert any(v not in (0, InsufficientWindowError) for v in outcomes) == (depth > 1)


def test_ce_differential_rejects_what_evaluate_rejects():
    ctx = random_matrix_context(random.Random(0), 2, 3)
    args = sample_args(ctx, 4, random.Random(1))
    wrapped = CochainDescriptor(arity=3, n=2, words=(
        TermWord(Fraction(1), (("p", 1), ("d", 2, 2), ("p", 3)), outer_dslot=1),))
    with pytest.raises(ValueError, match="wrapped"):
        ce_differential(wrapped, ctx, args)


def _outcome(fn):
    """The value of ``fn()``, or the message of its window fault."""
    try:
        return fn()
    except InsufficientWindowError as exc:
        return f"fault: {exc}"


def _raw_words(cochain):
    """The (coeff, slots) words of ``cochain`` as written, one per word."""
    expanded = isinstance(cochain, ExpandedCochain)
    return [(w.coeff, w.letters if expanded else w.slots) for w in cochain.words]


def _kernel_outcomes(cochain, ctx, args, one_by_one=False):
    """The value or fault of the kernel's walk (``_alternate``) over words
    as written, not collapsed to orbit classes: those of ``cochain`` at the
    first arity ``args``, and those of its differential descriptor
    (``build_differential``) at all of them; with ``one_by_one``, the
    reference: each summed over the words walked alone."""
    outcomes = []
    for c, a in ((cochain, args[:-1]), (build_differential(cochain), args)):
        words = _raw_words(c)
        groups = [[w] for w in words] if one_by_one else [words]
        outcomes.append(_outcome(lambda: sum(_alternate(g, ctx, a, cochain.n)
                                             for g in groups)))
    return outcomes


def _public_outcomes(cochain, ctx, args):
    """The value or fault of ``evaluate`` at the first arity ``args`` and of
    ``ce_differential`` at all of them: the words collapsed to one per
    alternation-orbit class, then walked."""
    return [_outcome(lambda: evaluate(cochain, ctx, args[:-1])),
            _outcome(lambda: ce_differential(cochain, ctx, args))]


def _residue_symbols(rng, nvars, depth, count):
    """Symbols of 2-4 monomials whose x-exponents stay within 1 of their
    d-exponents, where residues of products live."""
    out = []
    for _ in range(count):
        entries = {}
        for _ in range(rng.randint(2, 4)):
            d = tuple(rng.randint(-1, 1) for _ in range(nvars))
            x = tuple(e + rng.randint(-1, 1) for e in d)
            entries[(x, d)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        out.append(laurent_symbol(nvars, entries, depth))
    return out


@st.composite
def kernel_cases(draw):
    """(cochain, psido variables or 0 for matrices, window, seed): several
    words of one shape, so that some share slot prefixes.  Matrices take
    descriptors and inner expansions; psido symbols descriptors on one
    variable (n = 2, windows 0-6) or two (n = 4, windows 0-4)."""
    nvars = draw(st.sampled_from([0, 1, 2]))
    if nvars == 0:
        cochain = draw(st.one_of(descriptors(max_words=5), expanded_cochains()))
    elif nvars == 1:
        cochain = draw(descriptors(ns=(2,), max_words=5))
    else:
        cochain = draw(descriptors(ns=(4,), min_arity=2, max_arity=3, max_words=3))
    depth = draw(st.integers(0, 6 if nvars < 2 else 4)) if nvars else None
    return cochain, nvars, depth, draw(st.integers(0, 10**6))


# Inner-expanded words with the common letter prefix A_1 G_1 that part
# where the first takes its last argument letter and the second does not;
# nonzero at seed 1.
_LAST_ARG_APART = ExpandedCochain(2, 2, (
    ExpandedWord(Fraction(1), (("a", 1), ("g", 1), ("a", 2), ("g", 2))),
    ExpandedWord(Fraction(-2), (("a", 1), ("g", 2), ("g", 1), ("a", 2))),
))
# Psido words with the kind prefix (plain, plain) whose states after it get
# different demand floors: two derived slots follow in one, a Q-fused and a
# plain slot in the other (tests/test_psido.py checks the floors).
_REST_APART = CochainDescriptor(4, 2, (
    TermWord(Fraction(1), (("p", 1), ("p", 2), ("d", 3, 1), ("d", 4, 2))),
    TermWord(Fraction(1), (("p", 1), ("p", 2), ("q", 3, 1, 2), ("p", 4))),
))


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
@example((_INNER, 0, None, 1))
@example((_LAST_ARG_APART, 0, None, 1))
@example((_REST_APART, 1, 4, 0))
def test_walk_equals_the_sum_over_single_words(case):
    """Walking a cochain's words together gives the sum of the walk's
    values on each word alone, and the same window fault where one
    faults."""
    cochain, nvars, depth, seed = case
    rng = random.Random(seed)
    if nvars:
        ctx = make_psido_context(nvars, depth)
        args = _residue_symbols(rng, nvars, depth, cochain.arity + 1)
    else:
        ctx = random_matrix_context(rng, cochain.n, 3)
        args = sample_args(ctx, cochain.arity + 1, rng)
    together = _kernel_outcomes(cochain, ctx, args)
    for value in together:
        event("fault" if isinstance(value, str) else "nonzero" if value else "zero")
    assert together == _kernel_outcomes(cochain, ctx, args, one_by_one=True)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_window_faults_follow_the_word_order(depth):
    """On windows too shallow for the residue, Psi_n1(2) and the same words
    in the other order fault on the same trials, with the same message, as
    the sum over single words, which raises the first faulting word's
    fault.  At windows 0 and 1 both words fault on some trials, with
    different messages.  The two words lie in different orbit classes, so
    ``evaluate`` walks both and faults alike; ``ce_differential``, which
    walks the first word of each class of the differential descriptor,
    faults here as the walk over all of its words does."""
    ctx = make_psido_context(1, depth)
    psi = build_Psi_n1(2)
    flipped = dataclasses.replace(psi, words=psi.words[::-1])
    faults = differing = 0
    for seed in range(12):
        args = sample_args(ctx, psi.arity + 1, random.Random(seed))
        for cochain in (psi, flipped):
            together = _kernel_outcomes(cochain, ctx, args)
            assert together == _kernel_outcomes(cochain, ctx, args, one_by_one=True)
            assert together == _public_outcomes(cochain, ctx, args)
            faults += sum(isinstance(v, str) for v in together)
        singles = [_kernel_outcomes(dataclasses.replace(psi, words=(w,)), ctx, args)
                   for w in psi.words]
        differing += sum(isinstance(a, str) and isinstance(b, str) and a != b
                         for a, b in zip(*singles))
    assert faults > 0
    assert (differing > 0) == (depth < 2)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_differential_fault_is_the_first_faulting_kept_word(depth):
    """On windows too shallow for the residue, ``ce_differential`` of
    Psi_n1(2) raises the fault of the first word, in descriptor order, of
    the class-collapsed differential descriptor (``kernel_words``) whose
    walk alone faults, and returns a value where none faults."""
    ctx = make_psido_context(1, depth)
    psi = build_Psi_n1(2)
    kept = kernel_words(build_differential(psi), ctx)
    faults = 0
    for seed in range(12):
        args = sample_args(ctx, psi.arity + 1, random.Random(seed))
        alone = [_outcome(lambda: _alternate([w], ctx, args, psi.n)) for w in kept]
        first = next((v for v in alone if isinstance(v, str)), None)
        got = _outcome(lambda: ce_differential(psi, ctx, args))
        if first is None:
            assert got == sum(alone)
        else:
            assert got == first
            faults += 1
    assert faults > 0


def _twin(w, rotation, rho):
    """``w`` rotated left by ``rotation`` slots, its derivation labels
    renamed by ``rho`` (label d becomes rho[d - 1]) and its argument labels
    renumbered to slot order, with the sign of the relabelling: the
    trace is cyclic, so Alt(twin) = sign * Alt(w)."""
    rotated = w.slots[rotation:] + w.slots[:rotation]
    slots = tuple((s[0], pos, *(rho[d - 1] for d in s[2:]))
                  for pos, s in enumerate(rotated, start=1))
    return slots, perm_sign([s[1] for s in rotated]) * perm_sign(rho)


@st.composite
def twinned_descriptors(draw, ns=(2, 3), q=True):
    """Descriptors some of whose words have a twin in their orbit class
    (``_twin``), placed anywhere, whose coefficient cancels the word's or
    is drawn.  Q slots name their pairs in either order."""
    n = draw(st.sampled_from(ns))
    arity = draw(st.integers(n - n // 2 if q else n, 4))
    ws = draw(st.lists(words(n, arity, q), min_size=1, max_size=3))
    out = list(ws)
    for w in ws:
        if draw(st.booleans()):
            slots, sign = _twin(w, draw(st.integers(0, arity - 1)),
                                draw(st.permutations(range(1, n + 1))))
            coeff = -sign * w.coeff if draw(st.booleans()) else draw(coefficients)
            out.insert(draw(st.integers(0, len(out))), TermWord(coeff, slots))
    return CochainDescriptor(arity=arity, n=n, words=tuple(out))


@st.composite
def reduction_cases(draw):
    """(cochain, a descriptor of the same values for the naive oracle or
    None, psido window or None for matrices, seed).  Matrices take twinned
    descriptors, their inner expansions and the parts of their adjacency
    split; one-variable psido symbols take twinned descriptors with n = 2
    at windows 0-6."""
    if draw(st.booleans()):
        desc = draw(twinned_descriptors(ns=(2,)))
        return desc, desc, draw(st.integers(0, 6)), draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        desc = draw(twinned_descriptors())
        return desc, desc, None, draw(st.integers(0, 10**6))
    desc = draw(twinned_descriptors(q=False))
    inner = expand_inner(desc)
    part = draw(st.sampled_from([None, 0, 1]))
    if part is None:
        return inner, desc, None, draw(st.integers(0, 10**6))
    return split_adjacency(inner)[part], None, None, draw(st.integers(0, 10**6))


# A word and its twin rotated by one slot with D_2 and D_3 swapped, which
# names the Q pair in descending order; their coefficients cancel in the
# class, while each word alone is nonzero at seed 1.
_CANCELLING = CochainDescriptor(3, 3, (
    TermWord(Fraction(1), (("d", 1, 1), ("p", 2), ("q", 3, 2, 3))),
    TermWord(Fraction(1), (("p", 1), ("q", 2, 3, 2), ("d", 3, 1))),
))


def _reduction_context(cochain, depth, seed):
    """A context and arity + 1 arguments: 3x3 matrices, or symbols on one
    variable at window ``depth``, drawn alike for every window."""
    rng = random.Random(seed)
    if depth is None:
        ctx = random_matrix_context(rng, cochain.n, 3)
        return ctx, sample_args(ctx, cochain.arity + 1, rng)
    return (make_psido_context(1, depth),
            _residue_symbols(rng, 1, depth, cochain.arity + 1))


@settings(max_examples=60, deadline=None)
@given(reduction_cases())
@example((_CANCELLING, _CANCELLING, None, 1))
@example((_TWO_QS, _TWO_QS, None, 1))
@example((_INNER, _INNER_SOURCE, None, 1))
def test_class_reduction_matches_the_raw_words_and_the_oracle(case):
    """``evaluate`` and ``ce_differential``, which walk one word per orbit
    class, equal the per-word walk over the words as written and the naive
    oracle wherever neither faults.  Where the words as written fault, the
    reduced kernel faults too or returns the exact value, the one a window
    deep enough for every word gives: a dropped word cannot fault."""
    cochain, source, depth, seed = case
    ctx, args = _reduction_context(cochain, depth, seed)
    reduced = _public_outcomes(cochain, ctx, args)
    raw = _kernel_outcomes(cochain, ctx, args, one_by_one=True)
    oracle = [None, None]
    if source is not None:
        oracle = [_outcome(lambda: naive_evaluate(source, ctx, args[:-1])),
                  _outcome(lambda: _ce_differential_ref(source, ctx, args, naive_evaluate))]
    exact = None
    for k, (got, want, naive) in enumerate(zip(reduced, raw, oracle)):
        event("fault" if isinstance(got, str) else "nonzero" if got else "zero")
        if isinstance(want, str):
            if not isinstance(got, str):
                exact = exact or _public_outcomes(cochain, *_reduction_context(cochain, 12, seed))
                assert got == exact[k]
            continue
        assert got == want
        if naive is not None and not isinstance(naive, str):
            assert got == naive


@settings(max_examples=40, deadline=None)
@given(reduction_cases())
@example((_CANCELLING, _CANCELLING, None, 1))
@example((_INNER, _INNER_SOURCE, None, 1))
@example((_REST_APART, _REST_APART, 4, 0))
def test_every_rotation_of_the_class_words_walks_alike(case):
    """The class words of a cochain and of its differential descriptor,
    all rotated by one r (``_rotate``), walk to the value of the words as
    written (r = 0), for every r, and that value is the naive oracle's; on
    psido windows a rotation faults where r = 0 does, with its message."""
    cochain, source, depth, seed = case
    ctx, args = _reduction_context(cochain, depth, seed)
    values = []
    for c, a in ((cochain, args[:-1]), (build_differential(cochain), args)):
        words = _class_words(checked_words(c))
        written = _outcome(lambda: _alternate(words, ctx, a, c.n))
        event("fault" if isinstance(written, str) else "nonzero" if written else "zero")
        for r in range(1, len(words[0][1]) if words else 0):
            rotated = [_rotate(*w, r) for w in words]
            assert _outcome(lambda: _alternate(rotated, ctx, a, c.n)) == written
        values.append(written)
    if source is not None and depth is None:
        assert values[0] == naive_evaluate(source, ctx, args[:-1])


@st.composite
def labelled_descriptors(draw):
    """Descriptors whose words carry labels and, some of them, an outer
    derivation: one derived slot becomes plain and its label wraps the word."""
    desc = draw(descriptors())
    ws = []
    for w in desc.words:
        dslots = [k for k, s in enumerate(w.slots) if s[0] == "d"]
        slots, outer = w.slots, None
        if dslots and draw(st.booleans()):
            k = draw(st.sampled_from(dslots))
            outer = slots[k][2]
            slots = slots[:k] + (("p", slots[k][1]),) + slots[k + 1:]
        ws.append(TermWord(w.coeff, slots, outer,
                           draw(st.sampled_from(["", "lead", "S(1,0,0)"]))))
    return CochainDescriptor(desc.arity, desc.n, tuple(ws))


@settings(max_examples=60, deadline=None)
@given(labelled_descriptors())
def test_descriptor_json_round_trip(desc):
    text = json.dumps(descriptor_to_dict(desc))
    assert descriptor_from_dict(json.loads(text)) == desc


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


def reference_mul_sum(terms):
    """The row-by-column ``mat_mul_sum`` that packed rows replaced, kept as
    the reference: the rows of the a's laid side by side times the columns
    of the b's stacked, each b's sign folded into its columns."""
    rows = [[] for _ in terms[0][1]]
    cols = [[] for _ in terms[0][2][0]]
    for neg, a, b in terms:
        for row, ra in zip(rows, a):
            row += ra
        for col, cb in zip(cols, zip(*b)):
            col += [-x for x in cb] if neg else cb
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in cols) for ra in rows)


@st.composite
def signed_products(draw):
    """1-12 (negate, a, b) terms of N x N matrices, N in 1-6, with entries
    in [-5, 5], of 2^64 to 2^200 either sign, or Fraction, or all zero;
    sometimes every term negated."""
    N = draw(st.integers(1, 6))
    big = st.tuples(st.integers(2**64, 2**200), st.sampled_from([1, -1]))
    entries = st.one_of(st.integers(-5, 5), big.map(lambda xs: xs[0] * xs[1]),
                        coefficients)
    matrix = st.one_of(st.just(zero(N)), st.tuples(*[st.tuples(*[entries] * N)] * N))
    negs = st.just(True) if draw(st.booleans()) else st.booleans()
    return draw(st.lists(st.tuples(negs, matrix, matrix), min_size=1, max_size=12))


@settings(max_examples=80, deadline=None)
@given(signed_products())
# a Fraction only in the row of the smaller sum
@example([(False, ((Fraction(1, 2), 0), (5, 5)), ((1, 0), (0, 1)))])
def test_matrix_mul_sum_is_signed_sum_of_products(terms):
    want = zero(len(terms[0][1]))
    for neg, a, b in terms:
        want = (mat_sub if neg else mat_add)(want, mat_mul(a, b))
    assert reference_mul_sum(terms) == want
    assert mat_mul_sum([(neg, a, mat_operand(b)) for neg, a, b in terms]) == want


@pytest.mark.parametrize("neg", [False, True])
@pytest.mark.parametrize("x, width", [(2**15 - 1, 16), (2**15, 32),
                                      (2**63 - 1, 64), (2**63, 80)])
def test_matrix_mul_sum_field_width_at_the_bound(x, width, neg):
    """Two terms whose bound, max_r sum_t |a[r][t]| * max |b| = x, is
    reached by the entries +-x of the sum: at x = 2^(B-1) - 1 the fields
    are B bits wide, one above it they widen by 16, and the low field's
    -x borrows from the next either way."""
    b = mat_operand(((1, -1), (-1, 1)))
    terms = [(neg, ((x - 1, 0), (0, 0)), b), (neg, ((1, 0), (0, 0)), b)]
    s = -1 if neg else 1
    assert mat_mul_sum(terms) == ((s * x, -s * x), (0, 0))
    assert set(b[3]) == {width}


def test_matrix_operand_packed_at_two_widths():
    """One operand packed at two widths, for a sum of small entries and
    then for one of large entries, gives the reference sum at both, and
    the narrow packing again when reused."""
    b = ((2, -3, 0), (1, 1, -5), (0, 4, 1))
    op = mat_operand(b)
    small = [(False, ((1, 2, 3), (-1, 0, 2), (0, 0, 1)), b)]
    large = small + [(True, tuple(tuple(2**40 * x for x in row) for row in b), b)]
    sums = []
    for terms in (small, large, small):
        assert mat_mul_sum([(neg, a, op) for neg, a, _ in terms]) == reference_mul_sum(terms)
        sums.append(len(op[3]))
    assert sums == [1, 2, 2]


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


# The per-contribution Fraction formulas of the psido arithmetic: one
# Fraction product per (term pair, k) and one Fraction sum per contribution,
# normalised through PsiDOSymbol.make.  The library sums integer numerators
# instead and must agree with these exactly.

def _falling_ref(c, k):
    return math.prod(c - t for t in range(k))


def _compose_ref(a, b):
    nv = a.nvars
    dmin = tuple(max(a.dmin[i] + b.dtop[i], b.dmin[i] + a.dtop[i]) for i in range(nv))
    dtop = tuple(a.dtop[i] + b.dtop[i] for i in range(nv))
    out = {}
    for (ax, ad), ca in a.terms:
        for (bx, bd), cb in b.terms:
            per_var = [
                [(k, Fraction(_falling_ref(ad[i], k), math.factorial(k))
                  * _falling_ref(bx[i], k))
                 for k in range(ad[i] + bd[i] - dmin[i] + 1)]
                for i in range(nv)
            ]
            for combo in itertools.product(*per_var):
                coef = ca * cb
                for _, c in combo:
                    coef *= c
                key = (tuple(ax[i] + bx[i] - combo[i][0] for i in range(nv)),
                       tuple(ad[i] + bd[i] - combo[i][0] for i in range(nv)))
                out[key] = out.get(key, 0) + coef
    return PsiDOSymbol.make(nv, out, dmin, dtop)


def _log_derivation_ref(tag, a):
    v = tag.var
    dmin = tuple(m - (i == v) for i, m in enumerate(a.dmin))
    dtop = tuple(t - (i == v) for i, t in enumerate(a.dtop))
    out = {}
    for (x, d), c in a.terms:
        for k in range(1, d[v] - dmin[v] + 1):
            series = Fraction((-1) ** (k - 1), k)
            if tag.kind == "ln_partial":
                coef = series * _falling_ref(x[v], k)
            else:
                coef = -series * _falling_ref(d[v], k)
            key = (tuple(e - k * (i == v) for i, e in enumerate(x)),
                   tuple(e - k * (i == v) for i, e in enumerate(d)))
            out[key] = out.get(key, 0) + c * coef
    return PsiDOSymbol.make(a.nvars, out, dmin, dtop)


def _add_ref(a, b, sign=1):
    terms = dict(a.terms)
    for k, c in b.terms:
        terms[k] = terms.get(k, 0) + sign * c
    return PsiDOSymbol.make(a.nvars, terms,
                            tuple(map(max, a.dmin, b.dmin)),
                            tuple(map(max, a.dtop, b.dtop)))


@st.composite
def operands(draw, nvars, depth):
    """A symbol from ``symbols``, optionally multiplied by a Q series of one
    variable (as the kernel's Q-fused slots are), built with the reference
    product so the operand does not depend on the code under test."""
    sym = draw(symbols(nvars, depth))
    if draw(st.booleans()):
        q = bracket_series_symbol(nvars, draw(st.integers(0, nvars - 1)),
                                  draw(st.integers(1, 4)), depth)
        sym = _compose_ref(sym, q)
    return sym


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 2), st.integers(0, 8)).flatmap(
           lambda nd: st.tuples(operands(*nd), operands(*nd))),
       st.sampled_from(["ln_x", "ln_partial"]), st.data())
def test_psido_arithmetic_matches_fraction_reference(ab, kind, data):
    a, b = ab
    tag = LogDerivationTag(kind, data.draw(st.integers(0, a.nvars - 1)))
    c = data.draw(coefficients)
    pairs = [
        (compose(a, b), _compose_ref(a, b)),
        (apply_log_derivation(tag, a), _log_derivation_ref(tag, a)),
        (sym_add(a, b), _add_ref(a, b)),
        (sym_sub(a, b), _add_ref(a, b, -1)),
        (sym_scale(c, a), PsiDOSymbol.make(a.nvars, {k: c * v for k, v in a.terms},
                                           a.dmin, a.dtop)),
    ]
    for got, want in pairs:
        assert got == want
        assert all(type(v) is Fraction for _, v in got.terms)
    fused = _residue_or_fault(lambda: residue_trace_compose(a, b))
    full = _residue_or_fault(lambda: residue_trace(_compose_ref(a, b)))
    event("fault" if full is InsufficientWindowError else "exact")
    assert fused == full


def _compose_fold(terms):
    """The sequential fold: compose each term, then sym_add or sym_sub it
    into the sum, negating a first term with sym_scale."""
    total = None
    for neg, a, b in terms:
        prod = compose(a, b)
        if total is None:
            total = sym_scale(-1, prod) if neg else prod
        else:
            total = (sym_sub if neg else sym_add)(total, prod)
    return total


@st.composite
def signed_compositions(draw):
    """1-5 (negate, a, b) terms on operands of different windows, derived or
    Q-fused; terms may share their right operand, as the kernel's folded
    first-slot sums do."""
    nv = draw(st.integers(1, 2))
    operand = st.integers(0, 8).flatmap(lambda depth: operands(nv, depth))
    rights = draw(st.lists(operand, min_size=1, max_size=3))
    return draw(st.lists(st.tuples(st.booleans(), operand, st.sampled_from(rights)),
                         min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(signed_compositions())
def test_psido_mul_sum_matches_sequential_fold(terms):
    """On operands of different windows, derived or Q-fused: the same terms,
    dmin and dtop as composing one term at a time."""
    got = compose_sum(terms)
    event("empty" if got.is_zero_on_window() else "nonempty")
    event("shared right operand" if len({id(b) for _, _, b in terms}) < len(terms)
          else "distinct right operands")
    assert got == _compose_fold(terms)
    assert all(type(v) is Fraction for _, v in got.terms)


@settings(max_examples=80, deadline=None)
@given(signed_compositions(), st.data())
def test_psido_mul_sum_demand_floor_keeps_what_the_residue_reads(terms, data):
    """With a demand floor ``rest``: the window of the full sum and its
    coefficients at every d-exponent at or above -1 - rest in every
    variable; a right factor whose order is at most ``rest`` reads the same
    residue from it as from the full sum, or faults on both."""
    nv = terms[0][1].nvars
    rest = data.draw(st.tuples(*[st.integers(-3, 3)] * nv))
    # an operand, times d^-s where its order would pass rest
    depth = data.draw(st.integers(0, 8))
    factor = data.draw(operands(nv, depth))
    shift = tuple(min(0, r - t) for r, t in zip(rest, factor.dtop))
    factor = _compose_ref(factor, laurent_symbol(nv, {((0,) * nv, shift): 1}, 8))
    assert all(t <= r for t, r in zip(factor.dtop, rest))
    full, cut = compose_sum(terms), compose_sum(terms, rest)
    assert (cut.dmin, cut.dtop) == (full.dmin, full.dtop)
    kept = tuple((key, c) for key, c in full.terms
                 if all(e >= -1 - r for e, r in zip(key[1], rest)))
    event("truncated" if len(kept) < len(full.terms) else "complete")
    assert cut.terms == kept
    fused = _residue_or_fault(lambda: residue_trace_compose(cut, factor))
    want = _residue_or_fault(lambda: residue_trace_compose(full, factor))
    event("fault" if want is InsufficientWindowError else "nonzero" if want else "zero")
    assert fused == want


# The per-term Fraction formulas of the free-trace layer: every term's
# coefficient a Fraction, summed into the map as it comes, zeros popped, and
# the span solved by Gauss-Jordan over Fractions.  The library sums integer
# numerators over one denominator and eliminates fraction-free instead.

def _accumulate_ref(acc, word, coeff):
    cw = canonicalize_cyclic(word)
    c = acc.get(cw, 0) + coeff
    if c == 0:
        acc.pop(cw, None)
    else:
        acc[cw] = c


def _deriv_atom_ref(d, atom):
    if atom[0] == "a":
        return first_order(d, atom[1])
    if atom[0] == "f":
        return second_order(d, atom[1], atom[2])
    raise ValueError(atom)


def _symbolic_expand_ref(desc):
    acc = {}
    for tau in itertools.permutations(range(desc.n)):
        stau = perm_sign(tau)
        for w in desc.words:
            for sigma in itertools.permutations(range(desc.arity)):
                atoms, coeff = [], w.coeff * stau * perm_sign(sigma)
                for slot in w.slots:
                    a_idx = sigma[slot[1] - 1] + 1
                    if slot[0] == "p":
                        atoms.append(arg(a_idx))
                    elif slot[0] == "d":
                        atoms.append(first_order(tau[slot[2] - 1] + 1, a_idx))
                    else:
                        qa, qs = qatom(tau[slot[2] - 1] + 1, tau[slot[3] - 1] + 1)
                        if qa is None:
                            break
                        atoms += [arg(a_idx), qa]
                        coeff *= Fraction(qs, 2)
                else:
                    if w.outer_dslot is None:
                        _accumulate_ref(acc, tuple(atoms), coeff)
                        continue
                    d = tau[w.outer_dslot - 1] + 1
                    for pos in range(len(atoms)):
                        hit = atoms[:pos] + [_deriv_atom_ref(d, atoms[pos])] + atoms[pos + 1:]
                        _accumulate_ref(acc, tuple(hit), coeff)
    return acc


def _symbolic_differential_ref(desc):
    k = desc.arity
    acc = {}
    for u, v in itertools.combinations(range(1, k + 2), 2):
        rest = [w for w in range(1, k + 2) if w not in (u, v)]
        elements = [[(Fraction(1), (arg(u), arg(v))), (Fraction(-1), (arg(v), arg(u)))]]
        elements += [[(Fraction(1), (arg(w),))] for w in rest]
        for tau in itertools.permutations(range(desc.n)):
            stau = perm_sign(tau)
            for w in desc.words:
                for sigma in itertools.permutations(range(k)):
                    ssig = perm_sign(sigma)
                    prod = [(w.coeff, ())]
                    for slot in w.slots:
                        elem = elements[sigma[slot[1] - 1]]
                        if slot[0] == "d":
                            d = tau[slot[2] - 1] + 1
                            elem = [(c, ls[:p] + (_deriv_atom_ref(d, ls[p]),) + ls[p + 1:])
                                    for c, ls in elem for p in range(len(ls))]
                        prod = [(c1 * c2, l1 + l2) for c1, l1 in prod for c2, l2 in elem]
                    for c, ls in prod:
                        _accumulate_ref(acc, ls, (-1) ** (u + v) * stau * ssig * c)
    return acc


def _solve_ref(matrix, rhs):
    rows = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(rows[i][ncols] != 0 for i in range(r, len(rows))):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


wide_coefficients = st.builds(
    Fraction, st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5]), st.integers(1, 6)
)


@st.composite
def expansion_descriptors(draw, **shape):
    """Descriptors with coefficients such as 1/3 and -5/2; a word without Q
    slots may instead be wrapped: one derived slot turns plain and its
    derivation moves outside the trace.  ``shape`` goes to ``descriptors``."""
    desc = draw(descriptors(**shape))
    ws = []
    for w in desc.words:
        slots, outer = w.slots, None
        dslots = [k for k, s in enumerate(slots) if s[0] == "d"]
        if dslots and all(s[0] != "q" for s in slots) and draw(st.booleans()):
            k = draw(st.sampled_from(dslots))
            outer = slots[k][2]
            slots = slots[:k] + (("p", slots[k][1]),) + slots[k + 1:]
        ws.append(TermWord(draw(wide_coefficients), slots, outer))
    return CochainDescriptor(desc.arity, desc.n, tuple(ws))


@settings(max_examples=60, deadline=None)
@given(expansion_descriptors())
def test_symbolic_expand_matches_fraction_reference(desc):
    got = symbolic_expand(desc)
    event("empty" if not got else "nonempty")
    assert got == _symbolic_expand_ref(desc)
    assert all(type(v) is Fraction for v in got.values())


@settings(max_examples=60, deadline=None)
@given(expansion_descriptors(ns=(1, 2, 3), min_arity=2, max_arity=6))
@example(CochainDescriptor(4, 2, (TermWord(Fraction(1), (
    ("d", 1, 1), ("p", 2), ("d", 3, 2), ("p", 4))),)))
@example(CochainDescriptor(6, 2, (TermWord(Fraction(-3, 2), (
    ("d", 1, 2), ("p", 2), ("p", 3), ("d", 4, 1), ("p", 5), ("p", 6))),)))
def test_descriptor_classes_match_the_expansion(desc):
    """Classifying a descriptor's own words gives the class map of its full
    expansion over arity! n!, and the orbit sizes count its cyclic words.
    The examples are periodic: a rotation by two that reverses the sign
    (class 0), and a rotation by three that keeps it (stabilizer 2)."""
    expanded = symbolic_expand(desc)
    classes = descriptor_classes(desc)
    event("empty" if not classes else "nonempty")
    group = math.factorial(desc.arity) * math.factorial(desc.n)
    assert class_combine(expanded.items()) == {c: group * v for c, v in classes.items()}
    assert expanded_size(classes, desc.arity, desc.n) == len(expanded)


def _evaluate_words(expanded, ctx, args):
    """A cyclic-word map evaluated word by word: a = A_i, f = [G_d, A_i] and
    q = [G_d, G_e], each word the trace of its letters' product."""
    total = 0
    for word, coeff in expanded.items():
        letters = []
        for atom in word:
            if atom[0] == "a":
                letters.append(args[atom[1] - 1])
            elif atom[0] == "f":
                letters.append(ctx.deriv(atom[1] - 1, args[atom[2] - 1]))
            else:
                letters.append(ctx.q(atom[1] - 1, atom[2] - 1))
        total += coeff * mat_trace(functools.reduce(mat_mul, letters))
    return total


@settings(max_examples=40, deadline=None)
@given(descriptors(), st.integers(0, 10**6))
def test_symbolic_expansion_evaluates_to_the_kernel(desc, seed):
    """The symbolic expansion and the alternation kernel agree on matrices."""
    ctx = random_matrix_context(random.Random(seed), desc.n, 3)
    args = sample_args(ctx, desc.arity, random.Random(seed + 1))
    value = evaluate(desc, ctx, args)
    event("nonzero" if value else "zero")
    assert _evaluate_words(symbolic_expand(desc), ctx, args) == value


@st.composite
def differential_descriptors(draw):
    """Unwrapped descriptors with plain and derived slots only, n <= 2, and
    n + arity odd (with n + arity even the differential is identically 0)."""
    n = draw(st.integers(1, 2))
    arity = draw(st.sampled_from([k for k in range(n, 5) if (n + k) % 2]))
    ws = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = draw(st.permutations(["d"] * n + ["p"] * (arity - n)))
        labels = iter(draw(st.permutations(range(1, n + 1))))
        slots = tuple(("p", pos) if kind == "p" else ("d", pos, next(labels))
                      for pos, kind in enumerate(kinds, start=1))
        ws.append(TermWord(draw(wide_coefficients), slots))
    return CochainDescriptor(arity, n, tuple(ws))


@settings(max_examples=40, deadline=None)
@given(differential_descriptors())
def test_symbolic_differential_matches_fraction_reference(desc):
    got = symbolic_differential(desc)
    event("empty" if not got else "nonempty")
    assert got == _symbolic_differential_ref(desc)
    assert all(type(v) is Fraction for v in got.values())


@st.composite
def linear_systems(draw):
    """[matrix | rhs] over small rationals, mostly zero: rank-deficient when
    a row is a combination of others, consistent when rhs is matrix @ x."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), wide_coefficients)
    matrix = [[draw(entry) for _ in range(k)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        a, b = draw(wide_coefficients), draw(wide_coefficients)
        matrix[-1] = [a * x + b * y for x, y in zip(matrix[0], matrix[1])]
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(k)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    else:
        rhs = [draw(entry) for _ in range(m)]
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_rational_matches_fraction_reference(system):
    matrix, rhs = system
    got = solve_rational(matrix, rhs)
    event("inconsistent" if got is None else "solved")
    assert got == _solve_ref(matrix, rhs)
    assert got is None or all(type(v) is Fraction for v in got)
    # the elimination keeps its integer rows primitive
    rows, _ = _integer_gauss_jordan(matrix, rhs)
    assert all(math.gcd(*row) in (0, 1) for row in rows)
