"""Symbolic expansion of cochains in the free trace algebra.

Everything here is exact and backend-free: descriptors are alternated
formally, words are accumulated as cyclic-word -> rational maps, and
identities are certified by the map coming out empty (or by exact linear
algebra over the span of trace-annihilation relations).  Commuting
derivations are encoded structurally: a second-order letter stores its
derivation pair unordered.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cochains import CochainDescriptor, build_S_even, build_S_tilde
from .combinatorics import enumerate_a_even, signed_permutations
from .words import (
    arg,
    canonicalize_cyclic,
    combine_maps,
    first_order,
    qatom,
    second_order,
)


def _apply_deriv_atom(d: int, atom):
    """Leibniz action of D_d on one letter, commuting encoding."""
    kind = atom[0]
    if kind == "a":
        return first_order(d, atom[1])
    if kind == "f":
        return second_order(d, atom[1], atom[2])
    raise ValueError(f"derivation undefined on letter kind {kind!r}")


def symbolic_expand(desc: CochainDescriptor) -> dict:
    """Fully alternated expansion of a descriptor into cyclic words.

    Wrapped words (outer derivation outside the trace) are expanded by the
    Leibniz rule over every slot.
    """
    acc: dict = {}

    def add(word, coeff):
        cw = canonicalize_cyclic(word)
        c = acc.get(cw, 0) + coeff
        if c == 0:
            acc.pop(cw, None)
        else:
            acc[cw] = c

    for tau, stau in signed_permutations(desc.n):
        for w in desc.words:
            base_coeff = w.coeff * stau
            for sigma, ssig in signed_permutations(desc.arity):
                atoms = []
                sign = 1
                dead = False
                for slot in w.slots:
                    kind = slot[0]
                    a_idx = sigma[slot[1] - 1] + 1
                    if kind == "p":
                        atoms.append(arg(a_idx))
                    elif kind == "d":
                        atoms.append(first_order(tau[slot[2] - 1] + 1, a_idx))
                    else:
                        qa, qs = qatom(tau[slot[2] - 1] + 1, tau[slot[3] - 1] + 1)
                        if qa is None:
                            dead = True
                            break
                        atoms.append(arg(a_idx))
                        atoms.append(qa)
                        # undo the label-swap double count inside one Q
                        sign *= Fraction(qs, 2)
                if dead:
                    continue
                coeff = base_coeff * ssig * sign
                if w.outer_dslot is None:
                    add(tuple(atoms), coeff)
                else:
                    d = tau[w.outer_dslot - 1] + 1
                    for pos in range(len(atoms)):
                        if atoms[pos][0] == "q":
                            raise ValueError("outer derivation over Q letters unsupported")
                        hit = _apply_deriv_atom(d, atoms[pos])
                        add(tuple(atoms[:pos]) + (hit,) + tuple(atoms[pos + 1 :]), coeff)
    return acc


def _mul_element(words, elem):
    """Concatenate every (coeff, letters) of ``words`` with those of ``elem``."""
    return [(c1 * c2, ls1 + ls2) for c1, ls1 in words for c2, ls2 in elem]


def _deriv_element(d: int, elem):
    out = []
    for c, ls in elem:
        for pos in range(len(ls)):
            out.append((c, ls[:pos] + (_apply_deriv_atom(d, ls[pos]),) + ls[pos + 1 :]))
    return out


def symbolic_differential(desc: CochainDescriptor) -> dict:
    """Chevalley-Eilenberg differential of a descriptor, expanded formally.

    Arguments are the formal letters A_1..A_{arity+1}; the bracket
    [A_u, A_v] is substituted as a two-word element and derivation slots
    act on it by Leibniz (commuting encoding).
    """
    k = desc.arity
    acc: dict = {}

    def add(word, coeff):
        cw = canonicalize_cyclic(word)
        c = acc.get(cw, 0) + coeff
        if c == 0:
            acc.pop(cw, None)
        else:
            acc[cw] = c

    for u in range(1, k + 2):
        for v in range(u + 1, k + 2):
            pair_sign = -1 if (u + v) % 2 else 1
            rest = [w for w in range(1, k + 2) if w not in (u, v)]
            elements = [
                [(Fraction(1), (arg(u), arg(v))), (Fraction(-1), (arg(v), arg(u)))]
            ] + [[(Fraction(1), (arg(w),))] for w in rest]
            for tau, stau in signed_permutations(desc.n):
                for w in desc.words:
                    if w.outer_dslot is not None:
                        raise ValueError("wrapped words have no differential here")
                    for sigma, ssig in signed_permutations(desc.arity):
                        prod = [(w.coeff, ())]
                        for slot in w.slots:
                            kind = slot[0]
                            elem = elements[sigma[slot[1] - 1]]
                            if kind == "p":
                                prod = _mul_element(prod, elem)
                            elif kind == "d":
                                d = tau[slot[2] - 1] + 1
                                prod = _mul_element(prod, _deriv_element(d, elem))
                            else:
                                raise ValueError(
                                    "symbolic differential of Q-fused slots unsupported"
                                )
                        coeff0 = pair_sign * stau * ssig
                        for c, ls in prod:
                            add(ls, coeff0 * c)
    return acc


# ---------------------------------------------------------------------------
# relation span certification
# ---------------------------------------------------------------------------

def leibniz_trace_relation(d: int, word) -> dict:
    """Expansion of Tr(D_d(word)) by the Leibniz rule, as a cyclic map.

    Each such expression vanishes for every algebra satisfying the
    trace-annihilation condition, so these maps generate the relation span.
    """
    out = []
    for pos in range(len(word)):
        hit = _apply_deriv_atom(d, word[pos])
        out.append((tuple(word[:pos]) + (hit,) + tuple(word[pos + 1 :]), Fraction(1)))
    acc: dict = {}
    for wd, c in out:
        cw = canonicalize_cyclic(wd)
        t = acc.get(cw, 0) + c
        if t == 0:
            acc.pop(cw, None)
        else:
            acc[cw] = t
    return acc


def relation_basis(arg_count: int, n: int, inner_order: int):
    """Generators Tr(D_d(w)) for all base words w with the given shape.

    w runs over arrangements of the argument letters (first letter pinned
    to A_1, rotations being redundant inside a trace) decorated with
    ``inner_order`` first-order letters carrying distinct derivation
    indices; the outer index d runs over the unused indices.
    """
    import itertools

    gens = []
    for perm in itertools.permutations(range(2, arg_count + 1)):
        order = (1,) + perm
        for positions in itertools.combinations(range(arg_count), inner_order):
            for dchoice in itertools.permutations(range(1, n + 1), inner_order):
                word = []
                dmap = dict(zip(positions, dchoice))
                for pos, a_idx in enumerate(order):
                    if pos in dmap:
                        word.append(first_order(dmap[pos], a_idx))
                    else:
                        word.append(arg(a_idx))
                used = set(dchoice)
                for d in range(1, n + 1):
                    if d in used:
                        continue
                    g = leibniz_trace_relation(d, tuple(word))
                    if g:
                        gens.append(g)
    return gens


def solve_rational(matrix, rhs):
    """Gaussian elimination over Fractions; returns a solution or None."""
    rows = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


def certify_in_relation_span(expr: dict, basis):
    """Decide whether ``expr`` is a rational combination of the generators.

    Returns (True, coefficients) with the certificate, or (False, None).
    """
    if not expr:
        return True, [Fraction(0)] * len(basis)
    if not basis:
        return False, None
    keys = sorted(set(expr) | {k for g in basis for k in g})
    matrix = [[g.get(k, Fraction(0)) for g in basis] for k in keys]
    rhs = [expr.get(k, Fraction(0)) for k in keys]
    sol = solve_rational(matrix, rhs)
    if sol is None:
        return False, None
    return True, sol


# ---------------------------------------------------------------------------
# Leibniz-sum identity certification
# ---------------------------------------------------------------------------

# Largest predicted Leibniz-term count certify_leibniz_sum_identity accepts.
# The largest computed case, (2,3), has 5,160,960 terms (248 s); the next
# ones, (5,1) and (4,2), have 1.1e8 and 3.1e8 (see docs/leibniz_sum_factor.md).
LEIBNIZ_TERM_BUDGET = 10_000_000


def leibniz_term_count(n: int, l: int) -> int:
    """Words the Leibniz-sum certificate canonicalizes: sequences x n wrapped
    words x (n + 2l) slots x (n + 2l)! x n!."""
    m = n + 2 * l
    return len(enumerate_a_even(n, l)) * n * m * math.factorial(m) * math.factorial(n)


def certify_leibniz_sum_identity(n: int, l: int, size_bound: int = 8) -> dict:
    """Certify the Leibniz-sum identity sum_a S_tilde(a) = (n + 2l) S_even
    after full symbolic Leibniz expansion.

    Expands every wrapped sum, accumulates cyclic words, and compares the
    total against the even-sequence sum.  By the Leibniz rule the wrapped
    derivation hits the demoted slot (n copies of S_even over all wrapped
    words), one of the 2l plain slots (2l copies in total, after the
    argument alternation), or another derivation slot (second-order
    letters, cancelled by the derivation alternation); see
    docs/leibniz_sum_factor.md.

    ``identity_holds`` is the exact emptiness of the residual
    ``sum_a S_tilde(a) - factor * S_even`` with ``factor`` = n + 2l.
    ``proportional`` and ``observed_factor`` are computed independently of
    it, as the exact scalar ratio of the two expansions when one exists.
    Second-order letters must cancel in all cases.

    Refused with ``ValueError`` before any expansion: n + 2l above
    ``size_bound``, or a predicted ``leibniz_term_count`` above
    ``LEIBNIZ_TERM_BUDGET``.
    """
    if n + 2 * l > size_bound:
        raise ValueError(f"n + 2l = {n + 2 * l} exceeds symbolic size bound {size_bound}")
    terms = leibniz_term_count(n, l)
    if terms > LEIBNIZ_TERM_BUDGET:
        raise ValueError(
            f"(n, l) = ({n}, {l}) needs {terms:,} Leibniz terms, over the "
            f"budget of {LEIBNIZ_TERM_BUDGET:,}"
        )
    tilde_total: dict = {}
    for a in enumerate_a_even(n, l):
        tilde_total = combine_maps(
            [(tilde_total, Fraction(1)), (symbolic_expand(build_S_tilde(a)), Fraction(1))]
        )
    target = symbolic_expand(build_S_even(n, l))
    observed = None
    ratios = {Fraction(tilde_total.get(k, 0), v) for k, v in target.items()}
    proportional = len(ratios) == 1 and all(k in target for k in tilde_total)
    if proportional:
        observed = ratios.pop()
    factor = n + 2 * l
    diff = combine_maps([(tilde_total, Fraction(1)), (target, Fraction(-factor))])
    second_order_left = [cw for cw in tilde_total if any(at[0] == "s" for at in cw)]
    return {
        "n": n,
        "l": l,
        "factor": factor,
        "identity_holds": not diff,
        "proportional": proportional,
        "observed_factor": [observed.numerator, observed.denominator]
        if observed is not None
        else None,
        "second_order_cancelled": not second_order_left,
        "tilde_terms": len(tilde_total),
        "target_terms": len(target),
        "residual_terms": len(diff),
    }
