"""Chevalley-Eilenberg differential and the exact verification harness.

The differential follows the standard trivial-coefficients convention

    (d psi)(A_1, .., A_{k+1}) =
        sum_{i<j} (-1)^{i+j} psi([A_i, A_j], .., ^A_i, .., ^A_j, ..)

whose overall sign is pinned by ``verify_shortening_sign`` (the matched
sign is recorded, not assumed).  It is not a sum of one evaluation per
pair (i, j): ``ce_differential`` runs the alternation kernel once over all
k + 1 arguments, with an argument slot allowed to take the bracket of two
unused arguments once per path, and the sign (-1)^(i+j) folded into that
step's parity (see ``cochains``).  All checks are exact: a trial passes iff
its residual is literally zero.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .cochains import (
    CochainDescriptor,
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
from .combinatorics import enumerate_a_even, reduce_sequence, signed_permutations


@dataclass
class VerificationReport:
    check: str
    params: dict
    trials: list = field(default_factory=list)
    terms_evaluated: int = 0
    ms: int = 0
    passed: bool = False

    def finalize(self):
        self.passed = all(t.get("zero", False) for t in self.trials)
        return self

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


def _residual_entry(offset: int, value) -> dict:
    entry = {"seed_offset": offset, "zero": value == 0}
    if value != 0:
        f = Fraction(value)
        entry["residual"] = [f.numerator, f.denominator]
    return entry


def _trial_rng(seed: int, offset: int) -> random.Random:
    return random.Random(f"{seed}:{offset}")


def _require_trials(trials: int) -> None:
    """A sampled check with no trials would pass vacuously."""
    if trials < 1:
        raise ValueError("trials >= 1 required")


def sample_args(ctx, count: int, rng) -> tuple:
    return tuple(ctx.sample(rng) for _ in range(count))


def ce_differential(cochain, ctx, args):
    """Differential of a descriptor or an inner-expanded cochain at arity+1
    arguments, in one kernel pass whose argument slots may take a bracket."""
    if len(args) != cochain.arity + 1:
        raise ValueError(f"expected {cochain.arity + 1} arguments, got {len(args)}")
    words = kernel_words(cochain, ctx)
    return _alternate(words, ctx, args, cochain.n, differential=True)


def _term_count(cochain, diff_args: int) -> int:
    pairs = diff_args * (diff_args - 1) // 2
    return (
        pairs
        * len(cochain.words)
        * math.factorial(cochain.arity)
        * math.factorial(cochain.n)
    )


def verify_cocycle(cochain, ctx, trials: int, seed: int, check: str = "cocycle",
                   params: dict | None = None) -> VerificationReport:
    """Sample argument tuples and assert d(cochain) = 0 exactly per trial."""
    _require_trials(trials)
    t0 = time.perf_counter()
    report = VerificationReport(check=check, params=dict(params or {}))
    report.params.setdefault("trials", trials)
    report.params.setdefault("seed", seed)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        args = sample_args(ctx, cochain.arity + 1, rng)
        report.trials.append(_residual_entry(t, ce_differential(cochain, ctx, args)))
        report.terms_evaluated += _term_count(cochain, cochain.arity + 1)
    report.ms = int((time.perf_counter() - t0) * 1000)
    return report.finalize()


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def check_axioms(ctx, trials: int, seed: int) -> VerificationReport:
    """Exact check of the context invariants on seeded random elements.

    Per trial: trace of brackets, trace-annihilation of derivations,
    Leibniz, the Q commutation relation, the alternated Q-derivation
    identity, and antisymmetry of Q.  Failures are report entries.
    """
    _require_trials(trials)
    t0 = time.perf_counter()
    report = VerificationReport(
        check="axioms", params={"backend": getattr(ctx, "backend", "?"),
                                "n": ctx.n, "trials": trials, "seed": seed}
    )
    nd = ctx.n
    for t in range(trials):
        rng = _trial_rng(seed, t)
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
        if getattr(ctx, "has_q", False):
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
                for tau, s in signed_permutations(3):
                    i, j, k = (triple[tau[0]], triple[tau[1]], triple[tau[2]])
                    term = ctx.scale(s, ctx.deriv(k, ctx.q(i, j)))
                    alt = term if alt is None else ctx.add(alt, term)
                if alt is not None and not ctx.elem_is_zero(alt):
                    failed.append(f"alt_dq_{triple}")
        report.trials.append(
            {"seed_offset": t, "zero": not failed, "failed": failed}
        )
    report.ms = int((time.perf_counter() - t0) * 1000)
    return report.finalize()


# ---------------------------------------------------------------------------
# named identity verifiers
# ---------------------------------------------------------------------------

def verify_even_sum_vanishes(n: int, l: int, ctx, trials: int, seed: int,
                             require_commuting: bool = True) -> VerificationReport:
    """The even-sequence sum evaluates to zero when derivations commute."""
    _require_trials(trials)
    t0 = time.perf_counter()
    params = {"n": n, "l": l, "trials": trials, "seed": seed,
              "backend": getattr(ctx, "backend", "?")}
    report = VerificationReport(check="even_sum_vanishes", params=params)
    if require_commuting and hasattr(ctx, "is_commuting") and not ctx.is_commuting():
        report.params["inapplicable"] = "derivations do not commute"
        report.ms = int((time.perf_counter() - t0) * 1000)
        report.passed = False
        return report
    desc = build_S_even(n, l)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        args = sample_args(ctx, desc.arity, rng)
        report.trials.append(_residual_entry(t, evaluate(desc, ctx, args)))
        report.terms_evaluated += (
            len(desc.words) * math.factorial(desc.arity) * math.factorial(n)
        )
    report.ms = int((time.perf_counter() - t0) * 1000)
    return report.finalize()


def verify_shortening_sign(n: int, l: int, ctx, trials: int, seed: int) -> VerificationReport:
    """d(R_a) = +-S_a exactly; the matched sign is recorded per sequence.

    Under this module's differential sign convention the matched sign is
    (-1)^(n+2l-s1).  It can only be pinned on trials where S_a itself is
    nonzero: for inner derivations S_a vanishes identically whenever the
    derivations commute or n+2l is odd (cyclic rotation of the trace word
    is then an even relabelling), so on commuting matrix contexts the
    check degenerates to 0 = 0 and ``matched`` stays None.
    """
    _require_trials(trials)
    t0 = time.perf_counter()
    report = VerificationReport(
        check="shortening_sign",
        params={"n": n, "l": l, "trials": trials, "seed": seed},
    )
    length = n + 2 * l
    for a in enumerate_a_even(n, l):
        r_desc = build_R(a)
        s_desc = build_S(a)
        s1 = reduce_sequence(a).s1
        predicted = -1 if (length - s1) % 2 else 1
        matched = None
        for t in range(trials):
            rng = _trial_rng(seed, t)
            args = sample_args(ctx, length, rng)
            rotated = (args[-1],) + args[:-1]
            x = ce_differential(r_desc, ctx, rotated)
            y = evaluate(s_desc, ctx, args)
            if y != 0 and matched is None:
                matched = 1 if x == y else (-1 if x == -y else None)
            ok = (x == y == 0) or (matched is not None and x == matched * y)
            residual = x - matched * y if matched else x
            entry = _residual_entry(t, 0 if ok else residual)
            entry["sequence"] = "".join(map(str, a.bits))
            report.trials.append(entry)
            report.terms_evaluated += _term_count(r_desc, length) + (
                math.factorial(length) * math.factorial(n)
            )
        report.params.setdefault("signs", {})["".join(map(str, a.bits))] = {
            "matched": matched,
            "expected": predicted,
        }
    report.ms = int((time.perf_counter() - t0) * 1000)
    return report.finalize()


def verify_inner_tilde_cocycle(n: int, l: int, ctx, trials: int, seed: int) -> VerificationReport:
    """The adjacency-free part of the inner expansion is a cocycle, and the
    differential respects the adjacency split."""
    _require_trials(trials)
    t0 = time.perf_counter()
    report = VerificationReport(
        check="inner_tilde_cocycle",
        params={"n": n, "l": l, "trials": trials, "seed": seed},
    )
    psi0 = build_Psi0(n, l)
    inner = expand_inner(psi0)
    tilde, rem = split_adjacency(inner)
    report.params["expanded_words"] = len(inner.words)
    report.params["tilde_words"] = len(tilde.words)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        args = sample_args(ctx, psi0.arity + 1, rng)
        d_tilde = ce_differential(tilde, ctx, args)
        d_rem = ce_differential(rem, ctx, args)
        d_full = ce_differential(inner, ctx, args)
        d_desc = ce_differential(psi0, ctx, args)
        residual = 0
        if d_tilde != 0:
            residual = d_tilde
        elif d_tilde + d_rem != d_full:
            residual = d_tilde + d_rem - d_full
        elif d_full != d_desc:
            residual = d_full - d_desc
        report.trials.append(_residual_entry(t, residual))
        report.terms_evaluated += _term_count(inner, psi0.arity + 1)
    report.ms = int((time.perf_counter() - t0) * 1000)
    return report.finalize()


def verify_oracle_agreement(n: int, l: int, ctx, trials: int, seed: int) -> VerificationReport:
    """Optimized evaluator against the naive reference, exact agreement."""
    from .naive import naive_evaluate

    _require_trials(trials)
    t0 = time.perf_counter()
    report = VerificationReport(
        check="oracle_agreement",
        params={"n": n, "l": l, "trials": trials, "seed": seed},
    )
    descs = [build_Psi0(n, l), build_S_even(n, l)]
    for t in range(trials):
        rng = _trial_rng(seed, t)
        residual = 0
        for desc in descs:
            args = sample_args(ctx, desc.arity, rng)
            diff = evaluate(desc, ctx, args) - naive_evaluate(desc, ctx, args)
            if diff != 0:
                residual = diff
                break
        report.trials.append(_residual_entry(t, residual))
        report.terms_evaluated += sum(
            len(d.words) * math.factorial(d.arity) * math.factorial(n) for d in descs
        )
    report.ms = int((time.perf_counter() - t0) * 1000)
    return report.finalize()
