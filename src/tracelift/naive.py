"""Maximally naive reference evaluator.

Deliberately independent of the optimized evaluator: explicit nested loops
over both permutation groups via itertools, parity by inversion counting,
one full left-to-right product per permutation, no caching or sharing.
Used as the agreement oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def naive_evaluate(desc, ctx, args):
    """Direct transcription of the double alternation, with no sharing."""
    if len(args) != desc.arity:
        raise ValueError("arity mismatch")
    total = 0
    for sigma in itertools.permutations(range(desc.arity)):
        s_sig = _sign(sigma)
        for tau in itertools.permutations(range(desc.n)):
            s_tau = _sign(tau)
            for w in desc.words:
                prod = None
                n_q = 0
                for slot in w.slots:
                    a = args[sigma[slot[1] - 1]]
                    if slot[0] == "p":
                        factor = a
                    elif slot[0] == "d":
                        factor = ctx.deriv(tau[slot[2] - 1], a)
                    else:
                        n_q += 1
                        factor = ctx.mul(a, ctx.q(tau[slot[2] - 1], tau[slot[3] - 1]))
                    prod = factor if prod is None else ctx.mul(prod, factor)
                # the two indices inside one Q are not antisymmetrized:
                # halve once per Q factor to undo the label-swap double count
                total += (
                    w.coeff * Fraction(1, 2 ** n_q) * s_sig * s_tau * ctx.trace(prod)
                )
    return total

