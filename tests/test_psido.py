import math
import random
from fractions import Fraction

import pytest

from tracelift.psido import (
    InsufficientWindowError,
    LogDerivationTag,
    _falling,
    _gbinom,
    apply_log_derivation,
    bracket_series_check,
    bracket_series_symbol,
    compose,
    format_symbol,
    laurent_symbol,
    make_psido_context,
    monomial,
    parse_symbol,
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


def test_format_parse_roundtrip_single_var():
    s = laurent_symbol(
        1, {((1,), (-1,)): Fraction(3, 2), ((-2,), (0,)): Fraction(-1)}, D
    )
    text = format_symbol(s)
    back = parse_symbol(text, nvars=1, depth=D)
    assert back.terms == s.terms


def test_format_parse_roundtrip_two_vars():
    s = laurent_symbol(
        2, {((1, -1), (0, 2)): Fraction(5), ((0, 0), (-1, -1)): Fraction(1, 3)}, D
    )
    back = parse_symbol(format_symbol(s), nvars=2, depth=D)
    assert back.terms == s.terms


def test_parse_zero():
    assert parse_symbol("0", 1, D).is_zero_on_window()


@pytest.mark.parametrize("b", [-5, -2, -1, 0, 3])
def test_gbinom_is_an_exact_integer(b):
    for k in range(8):
        value = _gbinom(b, k)
        assert type(value) is int
        assert value == Fraction(_falling(b, k), math.factorial(k))
