"""Symbolic expansion of cochains in the free trace algebra.

Everything here is exact and backend-free: descriptors are alternated
formally, words are accumulated as cyclic-word -> rational maps, and
identities are certified by the map coming out empty (or by exact linear
algebra over the span of trace-annihilation relations).  Coefficients are
summed as integer numerators over one common denominator, one ``Fraction``
per surviving cyclic word.  Commuting derivations are encoded
structurally: a second-order letter stores its derivation pair unordered.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .cochains import CochainDescriptor, build_differential, build_S_even, build_S_tilde
from .combinatorics import enumerate_a_even, perm_sign
from .words import (
    arg,
    atom_labels,
    canonicalize_cyclic,
    combine_maps,
    first_order,
    orbit_class,
    qatom,
    second_order,
)


def free_trace_combine(terms, denominator=1) -> dict:
    """Accumulate (word, numerator) pairs into a CyclicWord -> Fraction map.

    Each value is the summed numerators of one cyclic word over
    ``denominator``; exact zeros are dropped, so an identically-zero trace
    expression yields the empty map.
    """
    canonical = canonicalize_cyclic
    acc: dict = {}
    get = acc.get
    for word, num in terms:
        cw = canonical(word)
        acc[cw] = get(cw, 0) + num
    return {cw: Fraction(v, denominator) for cw, v in acc.items() if v}


def _apply_deriv_atom(d: int, atom):
    """Leibniz action of D_d on one letter, commuting encoding."""
    kind = atom[0]
    if kind == "a":
        return first_order(d, atom[1])
    if kind == "f":
        return second_order(d, atom[1], atom[2])
    raise ValueError(f"derivation undefined on letter kind {kind!r}")


def _leibniz(d: int, word):
    """The words of D_d(word) by the Leibniz rule, one per letter hit."""
    for pos, atom in enumerate(word):
        yield word[:pos] + (_apply_deriv_atom(d, atom),) + word[pos + 1 :]


def _q_slots(w) -> int:
    return sum(slot[0] == "q" for slot in w.slots)


def _denominator(desc: CochainDescriptor) -> int:
    """Common denominator of every expansion term: each word contributes its
    coefficient's denominator times 2 per Q slot."""
    return math.lcm(*(w.coeff.denominator << _q_slots(w) for w in desc.words))


def _identity(items):
    """The identity permutation of ``items``, alone."""
    return (tuple(items),)


def _expansion_terms(desc: CochainDescriptor, den: int, perms=itertools.permutations):
    """(word, integer numerator over ``den``) of every alternated term;
    wrapped words are expanded by the Leibniz rule over every slot.
    ``perms(range(k))`` yields the permutations alternated over;
    ``_identity`` gives the words at the identity labelling alone.

    The derivation alternation is resolved first, into one plan per
    (tau, word) that a Q_{d,d} does not kill; the argument permutations
    then stream over the plans.
    """
    plans = []
    for tau in perms(range(desc.n)):
        stau = perm_sign(tau)
        for w in desc.words:
            num = stau * w.coeff.numerator * (den // (w.coeff.denominator << _q_slots(w)))
            slots = []
            for slot in w.slots:
                d = qa = None
                if slot[0] == "d":
                    d = tau[slot[2] - 1] + 1
                elif slot[0] == "q":
                    qa, qs = qatom(tau[slot[2] - 1] + 1, tau[slot[3] - 1] + 1)
                    if qa is None:
                        break
                    # the 1/2 per Q in den undoes the label-swap double count
                    num *= qs
                slots.append((slot[1] - 1, d, qa))
            else:
                outer = None if w.outer_dslot is None else tau[w.outer_dslot - 1] + 1
                plans.append((num, outer, slots))
    for sigma in perms(range(desc.arity)):
        ssig = perm_sign(sigma)
        for num, outer, slots in plans:
            atoms = []
            for pos, d, qa in slots:
                a_idx = sigma[pos] + 1
                atoms.append(arg(a_idx) if d is None else first_order(d, a_idx))
                if qa is not None:
                    atoms.append(qa)
            word = tuple(atoms)
            if outer is None:
                yield word, num * ssig
            else:
                for hit in _leibniz(outer, word):
                    yield hit, num * ssig


def symbolic_expand(desc: CochainDescriptor) -> dict:
    """Fully alternated expansion of a descriptor into cyclic words.

    Wrapped words (outer derivation outside the trace) are expanded by the
    Leibniz rule over every slot.
    """
    den = _denominator(desc)
    return free_trace_combine(_expansion_terms(desc, den), den)


def symbolic_differential(desc: CochainDescriptor) -> dict:
    """Chevalley-Eilenberg differential of a descriptor, expanded formally:
    the expansion of ``build_differential(desc)`` over the formal letters
    A_1..A_{arity+1}.  Q-fused slots are refused."""
    if any(slot[0] == "q" for w in desc.words for slot in w.slots):
        raise ValueError("symbolic differential of Q-fused slots unsupported")
    return symbolic_expand(build_differential(desc))


# ---------------------------------------------------------------------------
# alternation-orbit classes
# ---------------------------------------------------------------------------

def class_combine(terms, denominator=1) -> dict:
    """Accumulate (word, numerator) pairs into an orbit class -> Fraction
    map: each word adds its numerator times its ``orbit_class`` sign, and
    classes of alternated value 0 are dropped.  The class map of an
    alternated expression determines it exactly."""
    acc: dict = {}
    for word, num in terms:
        cls, sign, _ = orbit_class(word)
        if sign:
            acc[cls] = acc.get(cls, 0) + sign * num
    return {c: Fraction(v, denominator) for c, v in acc.items() if v}


def descriptor_classes(desc: CochainDescriptor) -> dict:
    """Class map of ``symbolic_expand(desc)`` divided by arity! n!, computed
    without the expansion: the descriptor's words, and the Leibniz hits of
    its wrapped words, at the identity labelling."""
    den = _denominator(desc)
    return class_combine(_expansion_terms(desc, den, _identity), den)


def expanded_size(classes: dict, arity: int, n: int) -> int:
    """Cyclic words in the full expansion of a class map: the sum of the
    orbit sizes arity! n! / stabilizer."""
    group = math.factorial(arity) * math.factorial(n)
    return sum(group // orbit_class(c)[2] for c in classes)


# ---------------------------------------------------------------------------
# relation span certification
# ---------------------------------------------------------------------------

def leibniz_trace_relation(d: int, word) -> dict:
    """Expansion of Tr(D_d(word)) by the Leibniz rule, as a cyclic map.

    Each such expression vanishes for every algebra satisfying the
    trace-annihilation condition, so these maps generate the relation span.
    """
    return free_trace_combine((hit, 1) for hit in _leibniz(d, tuple(word)))


def relation_basis(arg_count: int, n: int, inner_order: int):
    """Generators Tr(D_d(w)) for all base words w with the given shape.

    w runs over arrangements of the argument letters (first letter pinned
    to A_1, rotations being redundant inside a trace) decorated with
    ``inner_order`` first-order letters carrying distinct derivation
    indices; the outer index d runs over the unused indices.
    """
    gens = []
    for perm in itertools.permutations(range(2, arg_count + 1)):
        order = (1,) + perm
        for positions in itertools.combinations(range(arg_count), inner_order):
            for dchoice in itertools.permutations(range(1, n + 1), inner_order):
                dmap = dict(zip(positions, dchoice))
                word = tuple(first_order(dmap[pos], a_idx) if pos in dmap else arg(a_idx)
                             for pos, a_idx in enumerate(order))
                for d in range(1, n + 1):
                    if d not in dchoice:
                        g = leibniz_trace_relation(d, word)
                        if g:
                            gens.append(g)
    return gens


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_gauss_jordan(matrix, rhs):
    """Fraction-free Gauss-Jordan elimination of [matrix | rhs]; returns the
    reduced integer rows and the pivot columns.

    Each row is scaled to primitive integers.  A row hit by pivot row y at
    pivot value pv becomes ``x*pv - f*y``, made primitive again, so it stays
    a nonzero multiple of its row in the reduced row echelon form and its
    entries stay small.
    """
    rows = []
    for r, v in zip(matrix, rhs):
        row = list(map(Fraction, r)) + [Fraction(v)]
        den = math.lcm(*(x.denominator for x in row))
        rows.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    pivots = []
    r = 0
    for c in range(len(matrix[0]) if matrix else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = _primitive([x * pv - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_rational(matrix, rhs):
    """Solve ``matrix x = rhs`` exactly; returns a solution (free variables
    0, as Gauss-Jordan over the rationals gives) or None.

    After the elimination the solution is rhs_i / pivot_i on each pivot row.
    """
    rows, pivots = _integer_gauss_jordan(matrix, rhs)
    ncols = len(matrix[0]) if matrix else 0
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = Fraction(rows[i][ncols], rows[i][c])
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


def relation_class_rank(basis, n: int):
    """(classes, rank): the number of alternating classes the relation
    generators reach, and the rank of their span in that class space.

    Each generator whose words name all n derivation labels is projected to
    classes by ``class_combine``; the others are skipped, as orbit classes
    are taken over words that name every label.  Alternation maps the span
    onto the span of the projections, so when rank equals classes every
    alternating element over these classes is in the span, and a span
    certificate there is vacuous: it holds for any alternating input.
    """
    labels = set(range(1, n + 1))
    projected = [class_combine(g.items()) for g in basis
                 if {d for atom in next(iter(g)) for d in atom_labels(atom)[0]} == labels]
    classes = list(dict.fromkeys(c for p in projected for c in p))
    matrix = [[p.get(c, 0) for p in projected] for c in classes]
    _, pivots = _integer_gauss_jordan(matrix, [0] * len(classes))
    return len(classes), len(pivots)


# ---------------------------------------------------------------------------
# Leibniz-sum identity certification
# ---------------------------------------------------------------------------

# Largest predicted class-path cost certify_leibniz_sum_identity accepts:
# every (n, l) with n + 2l <= 11 is under it, the largest being (7,2) at
# 260,876 (see docs/leibniz_sum_factor.md).
LEIBNIZ_COST_BUDGET = 1_000_000


def leibniz_class_cost(n: int, l: int) -> int:
    """Predicted cost of the Leibniz-sum certificate: sequences x n wrapped
    words x m Leibniz hits x m^2 for classifying a hit, m = n + 2l.  The
    sequences split the l zero pairs over the n gaps: C(l + n - 1, n - 1)."""
    m = n + 2 * l
    return math.comb(l + n - 1, n - 1) * n * m**3


def certify_leibniz_sum_identity(n: int, l: int) -> dict:
    """Certify the Leibniz-sum identity sum_a S_tilde(a) = (n + 2l) S_even
    in alternation-orbit classes.

    Each word of the even sum, and each Leibniz hit of a wrapped word, is
    classified at the identity labelling (``descriptor_classes``); the
    alternation maps the classes one-to-one onto the alternated elements,
    so comparing class maps is comparing the full expansions.  By the
    Leibniz rule the wrapped derivation hits the demoted slot (n copies of
    S_even over all wrapped words), one of the 2l plain slots (2l copies in
    total, after the argument alternation), or another derivation slot
    (second-order letters, whose classes are 0); see
    docs/leibniz_sum_factor.md.

    ``identity_holds`` is the exact emptiness of the residual
    ``sum_a S_tilde(a) - factor * S_even`` with ``factor`` = n + 2l.
    ``proportional`` and ``observed_factor`` are computed independently of
    it, as the exact scalar ratio of the two class maps when one exists.
    Second-order letters must cancel in all cases.  The ``*_terms`` counts
    are cyclic words of the full expansions (``expanded_size``).

    Refused with ``ValueError`` before any work when n < 1 or l < 1, or
    when the predicted ``leibniz_class_cost`` is above
    ``LEIBNIZ_COST_BUDGET``.
    """
    if n < 1 or l < 1:
        raise ValueError("n >= 1 and l >= 1 required")
    cost = leibniz_class_cost(n, l)
    if cost > LEIBNIZ_COST_BUDGET:
        raise ValueError(
            f"(n, l) = ({n}, {l}) has a predicted certificate cost of {cost:,}, "
            f"over the budget of {LEIBNIZ_COST_BUDGET:,}"
        )
    m = n + 2 * l
    # every S_tilde(a) has arity m, so the wrapped sum is one descriptor
    wrapped = CochainDescriptor(arity=m, n=n, words=tuple(
        w for a in enumerate_a_even(n, l) for w in build_S_tilde(a).words))
    tilde_total = descriptor_classes(wrapped)
    target = descriptor_classes(build_S_even(n, l))
    observed = None
    ratios = {Fraction(tilde_total.get(k, 0), v) for k, v in target.items()}
    proportional = len(ratios) == 1 and all(k in target for k in tilde_total)
    if proportional:
        observed = ratios.pop()
    factor = m
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
        "tilde_terms": expanded_size(tilde_total, m, n),
        "target_terms": expanded_size(target, m, n),
        "residual_terms": expanded_size(diff, m, n),
    }
