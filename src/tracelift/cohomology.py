"""Chevalley-Eilenberg differential and the exact verification harness.

The differential follows the standard trivial-coefficients convention

    (d psi)(A_1, .., A_{k+1}) =
        sum_{i<j} (-1)^{i+j} psi([A_i, A_j], .., ^A_i, .., ^A_j, ..)

whose overall sign is pinned by ``verify_shortening_sign`` (the matched
sign is recorded, not assumed).  It is not a sum of one evaluation per
pair (i, j): ``ce_differential`` evaluates ``cochains.build_differential``,
d(psi) as a descriptor of arity k + 1 whose words (each argument slot i
taking the product A_i A_{i+1}, with sign (-1)^i) collapse to few
alternation-orbit classes, in one pass of the plain kernel.  All checks
are exact: a trial passes iff its residual is literally zero.  Every
sampled check is a generator of trial entries that ``run_trials`` seeds,
times and judges.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .cochains import (
    _alternate,
    build_Psi0,
    build_S,
    build_R,
    build_S_even,
    evaluate,
    expand_inner,
    kernel_words,
    split_adjacency,
)
from .combinatorics import enumerate_a_even, perm_sign, reduce_sequence
from .naive import naive_evaluate


@dataclass
class VerificationReport:
    check: str
    params: dict
    trials: list = field(default_factory=list)
    terms_evaluated: int = 0
    ms: int = 0
    passed: bool = False

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "check": self.check,
            "params": self.params,
            "trials": self.trials,
            "terms_evaluated": self.terms_evaluated,
        }
        if include_timing:
            out["ms"] = self.ms
        out["pass"] = self.passed
        return out


def residual_entry(offset: int, value) -> dict:
    entry = {"seed_offset": offset, "zero": value == 0}
    if value != 0:
        f = Fraction(value)
        entry["residual"] = [f.numerator, f.denominator]
    return entry


def run_trials(check: str, params: dict, trials: int, seed: int, entries) -> VerificationReport:
    """The seeded-trial policy of every sampled check.

    ``entries(rngs)`` yields (trial entry, terms evaluated); each call of
    ``rngs()`` iterates (seed offset, Random seeded "seed:offset") over the
    trials, so a check may pass over them once per sequence.  ``params``
    becomes the report's, and a check may add to it.  The report passes iff
    it has an entry and every entry is zero; zero trials would pass
    vacuously, so they are refused.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    t0 = time.perf_counter()
    report = VerificationReport(check=check, params=params)

    def rngs():
        return ((t, random.Random(f"{seed}:{t}")) for t in range(trials))

    for entry, terms in entries(rngs):
        report.trials.append(entry)
        report.terms_evaluated += terms
    report.ms = int((time.perf_counter() - t0) * 1000)
    report.passed = bool(report.trials) and all(t["zero"] for t in report.trials)
    return report


def sample_args(ctx, count: int, rng) -> tuple:
    return tuple(ctx.sample(rng) for _ in range(count))


def ce_differential(cochain, ctx, args):
    """Differential of a descriptor or an inner-expanded cochain at arity+1
    arguments: the kernel's value of ``build_differential(cochain)``, whose
    words collapse to few orbit classes.  ``cochain`` is validated first,
    as ``evaluate`` validates it; a window fault is that of the first
    faulting kept word of the differential descriptor.  The collapsed words
    are computed once per cochain value, in ``kernel_words``'s bounded
    cache, and the check against ``ctx`` runs on every call."""
    if len(args) != cochain.arity + 1:
        raise ValueError(f"expected {cochain.arity + 1} arguments, got {len(args)}")
    words = kernel_words(cochain, ctx, differential=True)
    return _alternate(words, ctx, args, cochain.n)


def _term_count(cochain, diff_args: int | None = None) -> int:
    """words x arity! x n!, times the C(diff_args, 2) argument pairs of a
    differential."""
    terms = len(cochain.words) * math.factorial(cochain.arity) * math.factorial(cochain.n)
    return terms * math.comb(diff_args, 2) if diff_args else terms


def verify_cocycle(cochain, ctx, trials: int, seed: int, check: str = "cocycle",
                   params: dict | None = None) -> VerificationReport:
    """Sample argument tuples and assert d(cochain) = 0 exactly per trial."""
    params = {**(params or {}), "trials": trials, "seed": seed}
    k = cochain.arity + 1

    def entries(rngs):
        for t, rng in rngs():
            value = ce_differential(cochain, ctx, sample_args(ctx, k, rng))
            yield residual_entry(t, value), _term_count(cochain, k)

    return run_trials(check, params, trials, seed, entries)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def check_axioms(ctx, trials: int, seed: int) -> VerificationReport:
    """Exact check of the context invariants on seeded random elements.

    Per trial: trace of brackets, trace-annihilation of derivations,
    Leibniz, the Q commutation relation, the alternated Q-derivation
    identity, and antisymmetry of Q.  Failures are report entries.
    """
    nd = ctx.n

    def entries(rngs):
        for t, rng in rngs():
            a = ctx.sample(rng)
            b = ctx.sample(rng)
            failed = []
            if ctx.trace(ctx.bracket(a, b)) != 0:
                failed.append("trace_bracket")
            for i in range(nd):
                if ctx.trace(ctx.deriv(i, a)) != 0:
                    failed.append(f"trace_deriv_{i + 1}")
                lhs = ctx.deriv(i, ctx.mul(a, b))
                rhs = ctx.add(ctx.mul(ctx.deriv(i, a), b), ctx.mul(a, ctx.deriv(i, b)))
                if not ctx.elem_is_zero(ctx.sub(lhs, rhs)):
                    failed.append(f"leibniz_{i + 1}")
            for i in range(nd):
                for j in range(nd):
                    comm = ctx.sub(ctx.deriv(i, ctx.deriv(j, a)),
                                   ctx.deriv(j, ctx.deriv(i, a)))
                    if not ctx.elem_is_zero(ctx.sub(comm, ctx.bracket(ctx.q(i, j), a))):
                        failed.append(f"commutation_q_{i + 1}{j + 1}")
                    if not ctx.elem_is_zero(ctx.add(ctx.q(i, j), ctx.q(j, i))):
                        failed.append(f"antisym_q_{i + 1}{j + 1}")
            for triple in itertools.combinations(range(nd), 3):
                alt = None
                for i, j, k in itertools.permutations(triple):
                    term = ctx.scale(perm_sign((i, j, k)), ctx.deriv(k, ctx.q(i, j)))
                    alt = term if alt is None else ctx.add(alt, term)
                if alt is not None and not ctx.elem_is_zero(alt):
                    failed.append(f"alt_dq_{triple}")
            yield {"seed_offset": t, "zero": not failed, "failed": failed}, 0

    params = {"backend": getattr(ctx, "backend", "?"), "n": nd,
              "trials": trials, "seed": seed}
    return run_trials("axioms", params, trials, seed, entries)


# ---------------------------------------------------------------------------
# named identity verifiers
# ---------------------------------------------------------------------------

def verify_even_sum_vanishes(n: int, l: int, ctx, trials: int, seed: int,
                             require_commuting: bool = True) -> VerificationReport:
    """The even-sequence sum evaluates to zero when derivations commute.

    On a context whose derivations do not commute the check is
    inapplicable: no trial runs, and the report says why and fails.  Bad
    (n, l) are refused first, whatever the context.
    """
    params = {"n": n, "l": l, "trials": trials, "seed": seed,
              "backend": getattr(ctx, "backend", "?")}

    def entries(rngs):
        desc = build_S_even(n, l)
        if require_commuting and not ctx.is_commuting():
            params["inapplicable"] = "derivations do not commute"
            return
        for t, rng in rngs():
            args = sample_args(ctx, desc.arity, rng)
            yield residual_entry(t, evaluate(desc, ctx, args)), _term_count(desc)

    return run_trials("even_sum_vanishes", params, trials, seed, entries)


def verify_shortening_sign(n: int, l: int, ctx, trials: int, seed: int) -> VerificationReport:
    """d(R_a) = +-S_a exactly; the matched sign is recorded per sequence.

    Under this module's differential sign convention the matched sign is
    (-1)^(n+2l-s1).  It can only be pinned on trials where S_a itself is
    nonzero: for inner derivations S_a vanishes identically whenever the
    derivations commute or n+2l is odd (cyclic rotation of the trace word
    is then an even relabelling), so on commuting matrix contexts the
    check degenerates to 0 = 0 and ``matched`` stays None.
    """
    params = {"n": n, "l": l, "trials": trials, "seed": seed}
    length = n + 2 * l

    def entries(rngs):
        for a in enumerate_a_even(n, l):
            bits = "".join(map(str, a.bits))
            r_desc = build_R(a)
            s_desc = build_S(a)
            terms = _term_count(r_desc, length) + _term_count(s_desc)
            matched = None
            for t, rng in rngs():
                args = sample_args(ctx, length, rng)
                rotated = (args[-1],) + args[:-1]
                x = ce_differential(r_desc, ctx, rotated)
                y = evaluate(s_desc, ctx, args)
                if y != 0 and matched is None:
                    matched = 1 if x == y else (-1 if x == -y else None)
                # until a sign is matched the residual is x - y: zero when
                # both vanish, nonzero when S_a != 0 matched neither sign
                entry = residual_entry(t, x - (matched or 1) * y)
                entry["sequence"] = bits
                yield entry, terms
            predicted = -1 if (length - reduce_sequence(a).s1) % 2 else 1
            params.setdefault("signs", {})[bits] = {
                "matched": matched,
                "expected": predicted,
            }

    return run_trials("shortening_sign", params, trials, seed, entries)


def verify_inner_tilde_cocycle(n: int, l: int, ctx, trials: int, seed: int) -> VerificationReport:
    """The adjacency-free part of the inner expansion is a cocycle, and the
    differential respects the adjacency split.

    The inner expansion writes each derivation as the bracket with its
    generator, so a context without generators (outer derivations, as on
    psido symbols) is refused with ``ValueError``, after bad (n, l).
    """
    psi0 = build_Psi0(n, l)
    if not hasattr(ctx, "generator"):
        raise ValueError("the inner expansion needs inner derivations; "
                         f"the {getattr(ctx, 'backend', '?')} context has none")
    inner = expand_inner(psi0)
    tilde, rem = split_adjacency(inner)
    k = psi0.arity + 1
    params = {"n": n, "l": l, "trials": trials, "seed": seed,
              "expanded_words": len(inner.words), "tilde_words": len(tilde.words)}

    def entries(rngs):
        for t, rng in rngs():
            args = sample_args(ctx, k, rng)
            d_tilde = ce_differential(tilde, ctx, args)
            d_rem = ce_differential(rem, ctx, args)
            d_full = ce_differential(inner, ctx, args)
            d_desc = ce_differential(psi0, ctx, args)
            # the first of the three identities that fails, else 0
            residual = d_tilde or (d_tilde + d_rem - d_full) or (d_full - d_desc)
            yield residual_entry(t, residual), _term_count(inner, k)

    return run_trials("inner_tilde_cocycle", params, trials, seed, entries)


def verify_oracle_agreement(n: int, l: int, ctx, trials: int, seed: int) -> VerificationReport:
    """Optimized evaluator against the naive reference, exact agreement."""
    params = {"n": n, "l": l, "trials": trials, "seed": seed}

    def entries(rngs):
        descs = [build_Psi0(n, l), build_S_even(n, l)]
        terms = sum(_term_count(d) for d in descs)
        for t, rng in rngs():
            residual = 0
            for desc in descs:
                args = sample_args(ctx, desc.arity, rng)
                diff = evaluate(desc, ctx, args) - naive_evaluate(desc, ctx, args)
                if diff != 0:
                    residual = diff
                    break
            yield residual_entry(t, residual), terms

    return run_trials("oracle_agreement", params, trials, seed, entries)
