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
from tracelift.context import (
    InsufficientWindowError,
    MatrixContext,
    random_matrix_context,
)
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
    its ``operand`` preparations and its ``bracket`` calls."""

    def __init__(self, ctx):
        self.ctx, self.calls, self.terms, self.brackets = ctx, 0, 0, 0
        self.operands = 0

    def mul_sum(self, terms, *rest):
        self.calls += 1
        self.terms += len(terms)
        return self.ctx.mul_sum(terms, *rest)

    def operand(self, b):
        self.operands += 1
        return self.ctx.operand(b)

    def bracket(self, a, b):
        self.brackets += 1
        return self.ctx.bracket(a, b)

    def __getattr__(self, attr):
        return getattr(self.ctx, attr)


def test_kernel_takes_each_q_pair_once():
    """The product terms of d(Psi_n1(4)) on 4x4 matrices and of twelve
    d(Psi_n1(2)) trials on depth-12 psido symbols, the differential
    evaluated as its class-collapsed descriptor at the rotation of fewest
    predicted terms and a Q slot taking each derivation pair in ascending
    order only.  Walked as written, the class words formed 4,920 and 864;
    the one-pass kernel whose argument slots took brackets 15,000 and 1,296
    (both Q orders, halved, 20,220 and 1,728)."""
    ctx = TermCounter(random_matrix_context(random.Random(0), 4, 4))
    assert ce_differential(build_Psi_n1(4), ctx, sample_args(ctx, 6, random.Random(1))) == 0
    assert ctx.terms == 3_630
    ctx = TermCounter(make_psido_context(1, depth=12))
    assert verify_cocycle(build_Psi_n1(2), ctx, trials=12, seed=0).passed
    assert ctx.terms == 720


@pytest.mark.parametrize("cochain, N, operands, terms", [
    (build_Psi_n1(4), 4, 66, 3_630), (build_Psi_nl(2, 2), 3, 24, 540)])
def test_kernel_prepares_each_factor_once(cochain, N, operands, terms):
    """The kernel prepares each factor once per call as a right operand:
    d(Psi_n1(4)) on 4x4 takes 66, 6 arguments each plain, derived by the 4
    derivations and fused with the 6 Q pairs; d(Psi_nl(2,2)) on 3x3 takes
    24.  The product terms are those of the unprepared factors."""
    ctx = TermCounter(random_matrix_context(random.Random(0), cochain.n, N))
    args = sample_args(ctx, cochain.arity + 1, random.Random(1))
    assert ce_differential(cochain, ctx, args) == 0
    assert (ctx.operands, ctx.terms) == (operands, terms)


def fraction_matrix(rng, N):
    """An N x N matrix of entries k/2 and k/3, k in [-3, 3]."""
    return tuple(tuple(Fraction(rng.randint(-3, 3), rng.choice((2, 3)))
                       for _ in range(N)) for _ in range(N))


def test_kernel_on_fraction_matrices():
    """On Fraction generators and arguments the packed products keep every
    value: ``evaluate`` of Psi_n1(3) and of the inner expansion of
    Psi0(2,1) against the naive oracle, and ``ce_differential`` against
    the kernel's value of the differential descriptor, 0 for the cocycle
    Psi_n1(3) and nonzero for the inner expansion."""
    rng = random.Random(5)
    psi0 = build_Psi0(2, 1)
    diffs = []
    for cochain, oracle in ((build_Psi_n1(3), None), (expand_inner(psi0), psi0)):
        ctx = MatrixContext([fraction_matrix(rng, 3) for _ in range(cochain.n)])
        args = [fraction_matrix(rng, 3) for _ in range(cochain.arity + 1)]
        value = evaluate(cochain, ctx, args[:-1])
        assert value == naive_evaluate(oracle or cochain, ctx, args[:-1]) != 0
        diffs.append(ce_differential(cochain, ctx, args))
        assert diffs[-1] == evaluate(cochains.build_differential(cochain), ctx, args)
    assert diffs[0] == 0 != diffs[1]


class ZeroContext(SimpleNamespace):
    """An ungraded context whose elements, products and traces are all 0:
    the kernel's walk there does not depend on the values, so it forms the
    product terms a matrix context gets, at no algebra cost."""

    def order(self, a):
        return None

    def __getattr__(self, attr):
        return lambda *args: 0


def test_predicted_walk_cost_is_the_measured_one():
    """The product terms ``_walk_cost`` predicts for the words the kernel
    walks are those it forms, and no more than the class words as written
    (r = 0) would take: d(Psi_n1(n)) for n = 2..6, d(Psi_nl(2,2)),
    Psi_n1(4), and the inner expansion of Psi0(2,2) and its differential."""
    inner = expand_inner(build_Psi0(2, 2))
    cases = [(build_Psi_n1(n), True) for n in range(2, 7)]
    cases += [(build_Psi_nl(2, 2), True), (build_Psi_n1(4), False),
              (inner, False), (inner, True)]
    measured = []
    for cochain, differential in cases:
        ctx = TermCounter(ZeroContext(n=cochain.n))
        args = (0,) * (cochain.arity + differential)
        if differential:
            ce_differential(cochain, ctx, args)
        else:
            evaluate(cochain, ctx, args)
        source = cochains.build_differential(cochain) if differential else cochain
        as_written = cochains._class_words(cochains.checked_words(source))
        predicted = cochains._walk_cost(kernel_words(cochain, ctx, differential),
                                        source.arity, source.n)
        assert predicted == ctx.terms
        assert predicted <= cochains._walk_cost(as_written, source.arity, source.n)
        measured.append(ctx.terms)
    assert measured == [48, 440, 3_630, 27_867, 201_712, 540, 1_880, 170, 188]


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


def _rotated(word, r):
    """A word of argument slots only, as ``slots[r:] + slots[:r]`` written
    out by hand: argument labels renumbered 1..m in the new order,
    derivation slots kept, and the sign (-1)^(r(m - r)) of the
    relabelling."""
    rotated = word.slots[r:] + word.slots[:r]
    slots = tuple((s[0], pos, *s[2:]) for pos, s in enumerate(rotated, start=1))
    return (-1) ** (r * (len(slots) - r)) * word.coeff, slots


def test_kernel_walks_one_word_per_orbit_class():
    """The words the kernel keeps: Psi_nl(2,2), the inner expansion of
    Psi0(2,2) and its two adjacency parts collapse; each Psi_n1(n) word is a
    class of its own.  Every kept word is a word as written, rotated by the
    one r the cochain's words share: none for Psi_n1(2), two slots for
    Psi_n1(3) and (4), and n slots, bringing the last plain slot first, for
    Psi_n1(n), n = 5..7."""
    ctx = SimpleNamespace(n=2)
    inner = expand_inner(build_Psi0(2, 2))
    counts = [(len(c.words), len(kernel_words(c, ctx)))
              for c in (build_Psi_nl(2, 2), inner, *split_adjacency(inner))]
    assert counts == [(5, 3), (12, 3), (10, 2), (2, 1)]
    shifts = {2: 0, 3: 2, 4: 2, 5: 5, 6: 6, 7: 7}
    for n, r in shifts.items():
        psi = build_Psi_n1(n)
        assert kernel_words(psi, SimpleNamespace(n=n)) == [
            _rotated(w, r) for w in psi.words]


@pytest.fixture
def word_cache():
    """``kernel_words``'s cache, emptied before the test and after it, so
    that no entry made under a patch reaches a later test."""
    cache = cochains._collapsed_words
    cache.cache_clear()
    yield cache
    cache.cache_clear()


def matrix_circle_operation(seed):
    """The benchmark's matrix-circle operation: a Psi_nl(2,2) trial and an
    inner-split trial (n = l = 2) on 3x3 matrices; its context."""
    ctx = TermCounter(random_matrix_context(random.Random(seed), 2, 3))
    assert verify_cocycle(build_Psi_nl(2, 2), ctx, trials=1, seed=seed).passed
    assert verify_inner_tilde_cocycle(2, 2, ctx, trials=1, seed=seed).passed
    return ctx


def test_one_matrix_circle_operation_takes_fewer_products(monkeypatch, word_cache):
    """One matrix-circle operation: 1,426 product terms with one word per
    class of the differential descriptors, 7,664 with every word, each at
    the rotation of fewest predicted terms.  Walked as written they formed
    1,968 and 9,744; the one-pass kernel whose argument slots took brackets
    9,252 and 16,016."""
    counts = []
    for collapse in (True, False):
        if not collapse:
            # the cache holds the collapsed words of the first pass
            word_cache.cache_clear()
            monkeypatch.setattr(cochains, "_class_words", list)
        counts.append(matrix_circle_operation(0).terms)
    assert counts == [1_426, 7_664]


def test_equal_cochains_share_one_cache_entry(word_cache):
    """``verify_inner_tilde_cocycle`` rebuilds Psi0, its inner expansion and
    the two adjacency parts on every call; the second call finds all four
    differentials in the cache, since the key is the cochain's value."""
    ctx = random_matrix_context(random.Random(0), 2, 3)
    assert verify_inner_tilde_cocycle(2, 2, ctx, trials=1, seed=0).passed
    cold = word_cache.cache_info()
    assert (cold.hits, cold.misses, cold.currsize) == (0, 4, 4)
    assert verify_inner_tilde_cocycle(2, 2, ctx, trials=1, seed=1).passed
    warm = word_cache.cache_info()
    assert (warm.hits, warm.misses, warm.currsize) == (4, 4, 4)


def test_warm_operation_collapses_no_word(monkeypatch, word_cache):
    """A second matrix-circle operation, on other matrices, calls neither
    ``orbit_class`` nor ``build_differential``, and adds no cache entry."""
    calls = {"orbit_class": 0, "build_differential": 0}

    def counted(name):
        fn = getattr(cochains, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cochains, name, counted(name))
    matrix_circle_operation(0)
    assert calls["orbit_class"] > 0 and calls["build_differential"] == 5
    size = word_cache.cache_info().currsize
    calls.update(dict.fromkeys(calls, 0))
    matrix_circle_operation(1)
    assert calls == {"orbit_class": 0, "build_differential": 0}
    assert word_cache.cache_info().currsize == size


def test_invalid_cochains_raise_on_every_call(word_cache):
    """Errors are not cached: a context with another number of derivations
    is refused after a cached success on the same cochain, and a wrapped
    word or a bad derivation-slot permutation on every call, for the
    cochain and for its differential."""
    ctx = ctx_for(2)
    args = sample_args(ctx, 5, random.Random(8))
    psi = build_Psi_n1(2)
    assert ce_differential(psi, ctx, args[:4]) == 0
    evaluate(psi, ctx, args[:3])
    wrong_n = ctx_for(3)
    wrapped = build_S_tilde(enumerate_a_even(2, 1)[0])
    bad = CochainDescriptor(3, 2, (TermWord(Fraction(1), (
        deriv(1, 1), plain(2), deriv(3, 1))),))
    size = word_cache.cache_info().currsize
    for cochain, c, match in ((psi, wrong_n, "derivations"),
                              (wrapped, ctx, "symbolic-only"),
                              (bad, ctx, "permutation")):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                evaluate(cochain, c, args[:cochain.arity])
            with pytest.raises(ValueError, match=match):
                ce_differential(cochain, c, args[:cochain.arity + 1])
    assert word_cache.cache_info().currsize == size


def test_kernel_words_hands_out_copies(word_cache):
    """Changing the list ``kernel_words`` returns leaves the cached words,
    and so the next call's list, as they were."""
    ctx = SimpleNamespace(n=2)
    psi = build_Psi_nl(2, 2)
    for differential in (False, True):
        first = kernel_words(psi, ctx, differential)
        expected = list(first)
        first.clear()
        assert kernel_words(psi, ctx, differential) == expected


def test_word_cache_stays_bounded(word_cache):
    """More distinct cochains than the cache holds leave it at its size."""
    ctx = SimpleNamespace(n=2)
    size = word_cache.cache_info().maxsize
    for k in range(1, size + 9):
        word = TermWord(Fraction(k), (deriv(1, 1), deriv(2, 2), plain(3)))
        kernel_words(CochainDescriptor(3, 2, (word,)), ctx)
    assert word_cache.cache_info().currsize == size


def _fault(fn):
    """The message of the window fault ``fn()`` raises, or None."""
    try:
        fn()
    except InsufficientWindowError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_differential_fault_repeats_on_a_warm_cache(depth, word_cache):
    """On windows too shallow for the residue, ``ce_differential`` of
    Psi_n1(2) raises the same fault on a cold cache and on a warm one: that
    of the first faulting kept word of the differential descriptor."""
    ctx = make_psido_context(1, depth)
    psi = build_Psi_n1(2)
    faults = 0
    for seed in range(12):
        args = sample_args(ctx, psi.arity + 1, random.Random(seed))
        word_cache.cache_clear()
        cold = _fault(lambda: ce_differential(psi, ctx, args))
        warm = _fault(lambda: ce_differential(psi, ctx, args))
        kept = kernel_words(psi, ctx, differential=True)
        alone = (_fault(lambda: cochains._alternate([w], ctx, args, psi.n))
                 for w in kept)
        assert cold == warm == next((m for m in alone if m), None)
        faults += cold is not None
    assert faults > 0


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
