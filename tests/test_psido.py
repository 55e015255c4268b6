import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from tracelift.cochains import (
    CochainDescriptor,
    TermWord,
    build_Psi_n1,
    evaluate,
    kernel_words,
)
from tracelift.cohomology import ce_differential, sample_args
from tracelift.naive import naive_evaluate
from tracelift.psido import (
    InsufficientWindowError,
    LogDerivationTag,
    PsiDOContext,
    _falling,
    _gbinom,
    apply_log_derivation,
    bracket_series_check,
    bracket_series_symbol,
    compose,
    laurent_symbol,
    make_psido_context,
    monomial,
    residue_trace,
    sym_add,
    sym_sub,
    zero_symbol,
)

D = 12


def mono(x, d, c=1):
    return monomial(1, (x,), (d,), c, depth=D)


def test_normal_ordering_d_times_x():
    # d x = x d + 1
    out = compose(mono(0, 1), mono(1, 0))
    assert out.coeff((1,), (1,)) == 1
    assert out.coeff((0,), (0,)) == 1
    assert len(out.terms) == 2


def test_normal_ordering_dinv_times_x():
    # d^-1 x = x d^-1 - d^-2 + ... (higher corrections vanish: x'' = 0)
    out = compose(mono(0, -1), mono(1, 0))
    assert out.coeff((1,), (-1,)) == 1
    assert out.coeff((0,), (-2,)) == -1


def test_compose_associative_on_window():
    a, b, c = mono(1, -1), mono(-1, 2), mono(2, -2, 3)
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    diff = sym_sub(lhs, rhs)
    assert diff.is_zero_on_window()


def test_window_tightens_under_composition():
    a = mono(0, -1)
    out = compose(a, a)
    assert out.dmin[0] > -2 * D  # window is finite, not the naive sum
    assert out.dmin[0] == a.dmin[0] + a.dtop[0]


def test_residue_trace_picks_corner_coefficient():
    s = laurent_symbol(1, {((-1,), (-1,)): Fraction(7, 2)}, D)
    assert residue_trace(s) == Fraction(7, 2)
    assert residue_trace(mono(0, 0)) == 0


def test_residue_raises_below_window():
    s = zero_symbol(1, depth=0)
    with pytest.raises(InsufficientWindowError):
        residue_trace(s)


def test_context_refuses_negative_depth():
    with pytest.raises(ValueError, match="depth >= 0"):
        make_psido_context(1, depth=-7)


def test_residue_of_commutator_vanishes():
    ctx = make_psido_context(1, depth=D)
    rng = random.Random(3)
    for _ in range(10):
        a, b = ctx.sample(rng), ctx.sample(rng)
        assert residue_trace(ctx.bracket(a, b)) == 0


def test_log_derivations_satisfy_leibniz():
    ctx = make_psido_context(1, depth=D)
    rng = random.Random(5)
    a, b = ctx.sample(rng), ctx.sample(rng)
    for tag in (LogDerivationTag("ln_x", 0), LogDerivationTag("ln_partial", 0)):
        lhs = apply_log_derivation(tag, compose(a, b))
        rhs = sym_add(
            compose(apply_log_derivation(tag, a), b),
            compose(a, apply_log_derivation(tag, b)),
        )
        assert sym_sub(lhs, rhs).is_zero_on_window()


def test_residue_annihilates_log_derivations():
    ctx = make_psido_context(1, depth=D)
    rng = random.Random(6)
    a = ctx.sample(rng)
    for tag in (LogDerivationTag("ln_x", 0), LogDerivationTag("ln_partial", 0)):
        assert residue_trace(apply_log_derivation(tag, a)) == 0


def test_bracket_series_coefficients():
    t = bracket_series_symbol(1, 0, 4, D)
    got = [t.coeff((-m,), (-m,)) for m in range(1, 5)]
    assert got == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 2),
    ]


@pytest.mark.parametrize("cutoff", [3, 4])
def test_bracket_series_check_passes(cutoff):
    rep = bracket_series_check(cutoff=cutoff, trials=3, seed=5)
    assert rep.passed
    assert len(rep.params["coefficients"]) == cutoff


def test_bracket_series_check_shallow_cutoff_faults():
    # cutoff 1 leaves no exact overlap between the two sides
    with pytest.raises(InsufficientWindowError):
        bracket_series_check(cutoff=1, trials=1, seed=0)


def test_q_nonzero_only_for_matching_pair():
    ctx = make_psido_context(2, depth=D)
    # derivation order: ln x1, ln x2, ln d1, ln d2
    assert not ctx.q(0, 2).is_zero_on_window()
    assert not ctx.q(1, 3).is_zero_on_window()
    assert ctx.q(0, 3).is_zero_on_window()
    assert ctx.q(0, 1).is_zero_on_window()
    assert ctx.q(2, 3).is_zero_on_window()
    assert sym_add(ctx.q(0, 2), ctx.q(2, 0)).is_zero_on_window()


@pytest.mark.parametrize("b", [-5, -2, -1, 0, 3])
def test_gbinom_is_an_exact_integer(b):
    for k in range(8):
        value = _gbinom(b, k)
        assert type(value) is int
        assert value == Fraction(_falling(b, k), math.factorial(k))


# ---------------------------------------------------------------------------
# the alternation kernel on symbols: demand-driven truncation
# ---------------------------------------------------------------------------

class UnprunedContext(PsiDOContext):
    """The psido context without orders: the kernel then passes ``mul_sum``
    no demand floor, and every state is composed out to its full window."""

    def order(self, a):
        return None


class RecordingContext(PsiDOContext):
    """Records the demand floor of each of the kernel's ``mul_sum`` calls
    and counts the coefficients they return."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rests = []
        self.coefficients = 0

    def mul_sum(self, terms, rest=None):
        self.rests.append(rest)
        out = super().mul_sum(terms, rest)
        self.coefficients += len(out.terms)
        return out


class UnprunedRecordingContext(UnprunedContext, RecordingContext):
    pass


def _naive_differential(desc, ctx, args):
    """The per-pair differential, each pair evaluated by the naive oracle."""
    total = 0
    for i, j in itertools.combinations(range(len(args)), 2):
        rest = tuple(a for k, a in enumerate(args) if k not in (i, j))
        bracket = ctx.bracket(args[i], args[j])
        total += (-1) ** (i + j) * naive_evaluate(desc, ctx, (bracket,) + rest)
    return total


@pytest.mark.parametrize("depth", [4, 6, 12])
def test_kernel_truncation_keeps_psi_n1_values(depth):
    """Psi_n1(2) and its leading word alone (not a cocycle): the truncated
    kernel gives the naive oracle's and the unpruned kernel's values."""
    ctx, unpruned = make_psido_context(1, depth), UnprunedContext(1, depth)
    psi = build_Psi_n1(2)
    lead = CochainDescriptor(psi.arity, psi.n, psi.words[:1])
    values = []
    for seed in range(4):
        args = sample_args(ctx, psi.arity + 1, random.Random(seed))
        for desc in (psi, lead):
            value = evaluate(desc, ctx, args[:-1])
            assert value == naive_evaluate(desc, ctx, args[:-1])
            assert value == evaluate(desc, unpruned, args[:-1])
            diff = ce_differential(desc, ctx, args)
            assert diff == ce_differential(desc, unpruned, args)
            assert diff == _naive_differential(desc, ctx, args)
            values += [value, diff]
    assert any(values)


@pytest.mark.parametrize("slots,walked,rests", [
    ((("d", 1, 1), ("p", 2), ("p", 3), ("d", 4, 2)),
     (("p", 1), ("p", 2), ("d", 3, 2), ("d", 4, 1)), [(2,), (1,)]),
    ((("p", 1), ("p", 2), ("q", 3, 1, 2)),
     (("p", 1), ("p", 2), ("q", 3, 1, 2)), [(1,)]),
], ids=["derived", "q-fused"])
def test_kernel_passes_the_orders_of_the_later_slots(slots, walked, rests):
    """Arguments of order 2: a plain slot adds 2, a derived one 1 and a
    Q-fused one 1 (the commutator series has order -1).  The derived word
    is walked rotated by one slot, as (plain, plain, derived, derived), so
    its floors are 1 + 1 after the second slot and 1 after the third; the
    Q-fused word is walked as written."""
    ctx = RecordingContext(1, 12)
    desc = CochainDescriptor(len(slots), 2, (TermWord(Fraction(1), slots),))
    assert [w for _, w in kernel_words(desc, ctx)] == [walked]
    args = [mono(i, 2) for i in range(len(slots))]
    evaluate(desc, ctx, args)
    assert list(dict.fromkeys(ctx.rests)) == rests


def test_words_with_a_common_kind_prefix_keep_their_own_floors():
    """Arguments of order 2 as above: after the common prefix (plain,
    plain) two derived slots add 2 and a Q-fused and a plain slot 3, so
    walking the words together passes ``mul_sum`` the floors each word
    alone gets, and computes the states after the prefix once per word."""
    words = (TermWord(Fraction(1), (("p", 1), ("p", 2), ("d", 3, 1), ("d", 4, 2))),
             TermWord(Fraction(1), (("p", 1), ("p", 2), ("q", 3, 1, 2), ("p", 4))))
    args = [mono(i, 2) for i in range(4)]
    alone = Counter()
    for w in words:
        ctx = RecordingContext(1, 12)
        evaluate(CochainDescriptor(4, 2, (w,)), ctx, args)
        alone += Counter(ctx.rests)
    ctx = RecordingContext(1, 12)
    evaluate(CochainDescriptor(4, 2, words), ctx, args)
    assert Counter(ctx.rests) == alone
    assert {(1,), (2,), (3,)} <= set(alone)


def test_kernel_truncation_computes_fewer_coefficients():
    """The demand floor at least halves the coefficients that the states of
    d(Psi_n1(2)) hold on a depth-12 window."""
    counts = []
    for ctx in (UnprunedRecordingContext(1, 12), RecordingContext(1, 12)):
        ce_differential(build_Psi_n1(2), ctx, sample_args(ctx, 4, random.Random(3)))
        counts.append(ctx.coefficients)
    assert counts[1] < counts[0] / 2


def _symbol2(rng, depth):
    """A two-variable symbol whose x-exponents stay within 1 of its
    d-exponents, where residues of products live (the context's sampler
    gives residue 0 for most two-variable words)."""
    entries = {}
    for _ in range(4):
        d = (rng.randint(-1, 1), rng.randint(-1, 1))
        x = tuple(e + rng.randint(-1, 1) for e in d)
        entries[(x, d)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return laurent_symbol(2, entries, depth)


def test_kernel_truncation_on_two_variables():
    """n = 4 on the two-variable torus: a Q-fused slot and two derived ones."""
    ctx, unpruned = make_psido_context(2, depth=6), UnprunedContext(2, 6)
    desc = CochainDescriptor(3, 4, (TermWord(Fraction(1), (
        ("q", 1, 1, 2), ("d", 2, 3), ("d", 3, 4))),))
    for seed in (4, 6):
        rng = random.Random(seed)
        args = [_symbol2(rng, 6) for _ in range(4)]
        value = evaluate(desc, ctx, args[:3])
        assert value != 0
        assert value == naive_evaluate(desc, ctx, args[:3])
        assert value == evaluate(desc, unpruned, args[:3])
        diff = ce_differential(desc, ctx, args)
        assert diff != 0
        assert diff == ce_differential(desc, unpruned, args)
