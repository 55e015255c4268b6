"""Backend-independent cochain descriptors and their exact evaluation.

A descriptor is a list of term words; a word is an ordered list of slots

    ('p', i)          the plain letter A_i
    ('d', i, ds)      the letter D_{j(ds)} A_i, ds a derivation slot index
    ('q', i, d1, d2)  the fused letter A_i * Q_{j(d1), j(d2)}

with a rational coefficient.  Argument labels i equal the slot position in
the word; the derivation slot indices of a word name each of 1..n exactly
once.  Evaluation is the unnormalized double alternation: sum over argument
permutations and derivation permutations with parity signs, of the trace of
the product, the quantization on Q_ij taking each derivation pair once.  The
two orders of a pair give equal terms (swapping them flips the parity, and
Q_ji = -Q_ij flips the factor), so a Q slot takes its pair in ascending
order only.

The evaluator is one kernel, shared with inner-expanded words (whose
generator letters ('g', ds) take a derivation and no argument).  It walks a
word's slots left to right by dynamic programming over the pair (used
argument mask, used derivation mask): products are bilinear, so all
assignments reaching the same pair are summed before the next
multiplication.  Every step into a state is collected as a signed (negate,
product, factor) term, and the state's value is one call of the context's
``mul_sum`` on them.  The first slot's sums are never formed: each of their
summands becomes a term of the second slot, so the kernel calls no ``add``,
``sub`` or ``scale``.  The last slot is fused into the trace through the
context's ``trace_mul``.  A word costs about one product term per reachable
state and choice instead of one product per permutation.

A slot's step reads only its signature: the slot kind, its number of
derivation slots and the demand floor ``rest`` below; labels and
derivation indices enter only the word's sign.  So a cochain's words are
walked together, depth first over the prefix tree of their signature
sequences, and a state after a common prefix is computed once for all of
them (a Q correction is the lead word with adjacent derivation slots fused,
and the inner expansion doubles the words at each derivation slot, so
prefixes are long).  Each word's coefficient, with its derivation-order
sign, is applied at its leaf, and words with equal signatures are traced
once.

Before the walk, a cochain's words are collapsed to their
alternation-orbit classes (``words.orbit_class``): the trace is cyclic, so
the alternated value of a word depends only on its class under relabelling
and rotation, up to a sign.  A word whose class is 0 is dropped, and the
first word of each class stands for the others with the signed sum of
their coefficients.  The kept words are then all rotated by the one r of
fewest product terms by a closed-form count (``_rotate``, ``_walk_cost``;
ties to the smallest r, so words that gain nothing stay as written).  A
rotation keeps every path's window, since a product's window
max_i(dmin_i + sum_{j != i} dtop_j) is symmetric in its factors, and the
words keep their order, so a window fault is the first faulting kept
word's.  A dropped word cannot fault, and where it would have, the value
returned is exact, since the kept word's trace is exact on its window and
cyclicity holds on exact symbols.  The collapsed words are computed once
per cochain value and kept in a bounded cache (``kernel_words``); only the
check against the context runs on every call.

On a graded backend (``ctx.order`` not ``None``: psido symbols, graded by
d-order) a state is computed only as far as the trace can read it.  Each
slot kind has a top order, the largest order of the factors such a slot can
take, and the state after a slot will be multiplied by factors whose orders
sum to at most ``rest``, the tops of the slots after it.  A product never
raises d-order above the sum of its factors' orders, so a term of the state
below d-exponent -1 - rest in some variable cannot reach the residue
x^-1 d^-1.  The kernel passes ``rest`` to ``mul_sum``, which drops such
terms.  The windows stay those of the full products, so a fault is raised
exactly where it was without the truncation.

The Chevalley-Eilenberg differential is not a mode of the kernel:
``build_differential`` states d(psi) as a descriptor of arity k + 1, whose
words collapse to few orbit classes (d(Psi_n1(n)) has 8, 17, 35, 68, 129
and 239 words for n = 2..7, but 2, 3, 5, 8, 13 and 21 classes), and the
kernel evaluates that descriptor like any other.  A window fault of the
differential is thus the first faulting kept word of that descriptor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add

from .combinatorics import (
    EvenSequence,
    MarkedCircle,
    MarkedInterval,
    derivation_assignment,
    enumerate_a_even,
    enumerate_circles,
    enumerate_intervals,
    perm_sign,
    reduce_sequence,
)
from .context import InsufficientWindowError
from .words import orbit_class, qatom


def plain(i: int):
    return ("p", i)


def deriv(i: int, ds: int):
    return ("d", i, ds)


def qfused(i: int, d1: int, d2: int):
    return ("q", i, d1, d2)


@dataclass(frozen=True)
class TermWord:
    coeff: Fraction
    slots: tuple
    outer_dslot: int | None = None  # wraps the whole product in D_{j(outer)}
    label: str = ""


@dataclass(frozen=True)
class CochainDescriptor:
    arity: int
    n: int
    words: tuple

    def evaluate(self, ctx, args):
        return evaluate(self, ctx, args)


@dataclass(frozen=True)
class ExpandedWord:
    """A word over Arg/Gen letters from inner-derivation expansion."""

    coeff: Fraction
    letters: tuple  # ('a', i) or ('g', ds)


@dataclass(frozen=True)
class ExpandedCochain:
    arity: int
    n: int
    words: tuple  # of ExpandedWord

    def evaluate(self, ctx, args):
        return evaluate_expanded(self, ctx, args)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _slots_from_bits(bits):
    slots = []
    ds = 0
    for pos, b in enumerate(bits, start=1):
        if b == 1:
            ds += 1
            slots.append(deriv(pos, ds))
        else:
            slots.append(plain(pos))
    return tuple(slots)


def build_S(a: EvenSequence) -> CochainDescriptor:
    """Single word of arity n+2l: derivation slots where the bits are 1."""
    word = TermWord(
        coeff=Fraction(1),
        slots=_slots_from_bits(a.bits),
        label=f"S{''.join(map(str, a.bits))}",
    )
    return CochainDescriptor(arity=len(a.bits), n=a.n, words=(word,))


def build_S_even(n: int, l: int) -> CochainDescriptor:
    words = []
    for a in enumerate_a_even(n, l):
        words.extend(build_S(a).words)
    return CochainDescriptor(arity=n + 2 * l, n=n, words=tuple(words))


def build_S_tilde(a: EvenSequence) -> CochainDescriptor:
    """One wrapped word per derivation slot: the slot is demoted to plain
    and its derivation is applied outside the trace.  Symbolic use only."""
    base = _slots_from_bits(a.bits)
    words = []
    for pos, b in enumerate(a.bits, start=1):
        if b != 1:
            continue
        slot = base[pos - 1]
        outer = slot[2]
        demoted = base[: pos - 1] + (plain(pos),) + base[pos:]
        words.append(
            TermWord(
                coeff=Fraction(1),
                slots=demoted,
                outer_dslot=outer,
                label=f"Stilde{''.join(map(str, a.bits))}:j={pos}",
            )
        )
    return CochainDescriptor(arity=len(a.bits), n=a.n, words=tuple(words))


def build_R(a: EvenSequence) -> CochainDescriptor:
    """The shortened word of arity n+2l-1, from the reduced sequence."""
    r = reduce_sequence(a)
    word = TermWord(
        coeff=Fraction(1),
        slots=_slots_from_bits(r.tilde_bits),
        label=f"R{''.join(map(str, a.bits))}",
    )
    return CochainDescriptor(arity=len(r.tilde_bits), n=a.n, words=(word,))


def build_Psi0(n: int, l: int) -> CochainDescriptor:
    """Sum of the shortened words with signs (-1)^{s1}."""
    words = []
    for a in enumerate_a_even(n, l):
        r = reduce_sequence(a)
        sign = -1 if r.s1 % 2 else 1
        base = build_R(a).words[0]
        words.append(
            TermWord(coeff=Fraction(sign), slots=base.slots, label=base.label)
        )
    return CochainDescriptor(arity=n + 2 * l - 1, n=n, words=tuple(words))


def build_O_interval(t: MarkedInterval, n: int) -> CochainDescriptor:
    """One word of arity n+1: each mark fuses two adjacent derivation slots
    into a Q factor."""
    marks = set(t.marks)
    slots = []
    for i in range(1, n + 2):
        if i in marks:
            slots.append(qfused(i, i, i + 1))
        elif i - 1 in marks or i == n + 1:
            slots.append(plain(i))
        else:
            slots.append(deriv(i, i))
    word = TermWord(
        coeff=Fraction(1),
        slots=tuple(slots),
        label=f"O(interval marks={list(t.marks)})",
    )
    return CochainDescriptor(arity=n + 1, n=n, words=(word,))


def build_Sigma_interval(n: int, k: int) -> CochainDescriptor:
    words = []
    for t in enumerate_intervals(n, k):
        words.extend(build_O_interval(t, n).words)
    return CochainDescriptor(arity=n + 1, n=n, words=tuple(words))


def build_Psi_n1(n: int) -> CochainDescriptor:
    """Leading fully-derived word plus all interval corrections."""
    if n < 2:
        raise ValueError("n >= 2 required")
    lead = TermWord(
        coeff=Fraction(1),
        slots=tuple(deriv(i, i) for i in range(1, n + 1)) + (plain(n + 1),),
        label="lead",
    )
    words = [lead]
    for k in range(1, n // 2 + 1):
        words.extend(build_Sigma_interval(n, k).words)
    return CochainDescriptor(arity=n + 1, n=n, words=tuple(words))


def build_O_circle(c: MarkedCircle) -> CochainDescriptor:
    """Interval construction transplanted to the circle of the reduced
    sequence; a wrap-around mark pairs the last point's derivation with the
    first point's, in that order."""
    tilde = c.base.tilde_bits
    length = len(tilde)
    assign = derivation_assignment(tilde)
    marks = set(c.marks)
    n = c.base.source.n

    def succ(i):
        return i % length + 1

    def pred(i):
        return length if i == 1 else i - 1

    slots = []
    for i in range(1, length + 1):
        if i in marks:
            slots.append(qfused(i, assign[i], assign[succ(i)]))
        elif pred(i) in marks:
            slots.append(plain(i))
        elif tilde[i - 1] == 1:
            slots.append(deriv(i, assign[i]))
        else:
            slots.append(plain(i))
    word = TermWord(
        coeff=Fraction(1),
        slots=tuple(slots),
        label=f"O(circle {''.join(map(str, tilde))} marks={list(c.marks)})",
    )
    return CochainDescriptor(arity=length, n=n, words=(word,))


def build_Psi_nl(n: int, l: int) -> CochainDescriptor:
    """The lifted cocycle: shortened words plus all circle corrections,
    each correction with the sign of its source sequence."""
    words = list(build_Psi0(n, l).words)
    for a in enumerate_a_even(n, l):
        r = reduce_sequence(a)
        sign = Fraction(-1 if r.s1 % 2 else 1)
        for k in range(1, n // 2 + 1):
            for c in enumerate_circles(r, k):
                base = build_O_circle(c).words[0]
                words.append(
                    TermWord(coeff=sign, slots=base.slots, label=base.label)
                )
    return CochainDescriptor(arity=n + 2 * l - 1, n=n, words=tuple(words))


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------

def build_differential(d):
    """d(``d``) as a descriptor (or inner-expanded cochain) of arity k + 1:
    each word once per argument slot i, with sign (-1)^i, the slot taking
    the product A_i A_{i+1} and later argument labels shifting up by one (a
    derived slot splits by Leibniz, a Q stays on the right, a generator
    letter keeps its label).  ``ce_differential`` evaluates it."""
    field = "letters" if isinstance(d, ExpandedCochain) else "slots"
    words = []
    for w in d.words:
        slots = getattr(w, field)
        if getattr(w, "outer_dslot", None) is not None:
            raise ValueError("wrapped words have no differential here")
        for pos, (kind, i, *ds) in enumerate(slots):
            if kind == "g":
                continue
            if kind in "pa":
                splits = [((kind, i), (kind, i + 1))]
            elif kind == "d":
                splits = [(deriv(i, *ds), plain(i + 1)), (plain(i), deriv(i + 1, *ds))]
            else:
                splits = [(plain(i), qfused(i + 1, *ds))]
            tail = tuple(s if s[0] == "g" else (s[0], s[1] + 1, *s[2:])
                         for s in slots[pos + 1:])
            coeff = -w.coeff if i % 2 else w.coeff
            words += [replace(w, coeff=coeff, **{field: slots[:pos] + pair + tail})
                      for pair in splits]
    return replace(d, arity=d.arity + 1, words=tuple(words))


# ---------------------------------------------------------------------------
# inner-derivation expansion
# ---------------------------------------------------------------------------

def expand_inner(d: CochainDescriptor):
    """Replace every D A factor by D*A - A*D and remove parentheses.

    Each derivation slot doubles the word count; rejected on descriptors
    with Q-fused slots (the expansion is defined on the D-form only).
    """
    out = []
    for w in d.words:
        if w.outer_dslot is not None:
            raise ValueError("cannot inner-expand a wrapped word")
        expanded = [(w.coeff, ())]
        for slot in w.slots:
            kind = slot[0]
            if kind == "p":
                expanded = [(c, ls + (("a", slot[1]),)) for c, ls in expanded]
            elif kind == "d":
                _, i, ds = slot
                nxt = []
                for c, ls in expanded:
                    nxt.append((c, ls + (("g", ds), ("a", i))))
                    nxt.append((-c, ls + (("a", i), ("g", ds))))
                expanded = nxt
            else:
                raise ValueError("inner expansion undefined for Q-fused slots")
        out.extend(ExpandedWord(coeff=c, letters=ls) for c, ls in expanded)
    return ExpandedCochain(arity=d.arity, n=d.n, words=tuple(out))


def _has_cyclic_gen_adjacency(letters) -> bool:
    m = len(letters)
    if m < 2:
        return False
    return any(
        letters[i][0] == "g" and letters[(i + 1) % m][0] == "g" for i in range(m)
    )


def split_adjacency(ec: ExpandedCochain):
    """Partition by "no two generator letters cyclically adjacent".

    Cyclic, because the letters sit inside a trace.  Returns (tilde, r).
    """
    tilde, r = [], []
    for w in ec.words:
        (r if _has_cyclic_gen_adjacency(w.letters) else tilde).append(w)
    return (
        ExpandedCochain(arity=ec.arity, n=ec.n, words=tuple(tilde)),
        ExpandedCochain(arity=ec.arity, n=ec.n, words=tuple(r)),
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _dslots(slot) -> tuple:
    """Derivation slot indices a slot or letter names, in order."""
    kind = slot[0]
    if kind == "d":
        return (slot[2],)
    if kind == "q":
        return slot[2:4]
    if kind == "g":
        return (slot[1],)
    return ()


def _check_derivation_slots(slots, nd: int, outer=None) -> list:
    """The derivation slot indices of one word, in slot order; they must
    name each of 1..nd exactly once."""
    order = [ds for s in slots for ds in _dslots(s)]
    if outer is not None:
        order.append(outer)
    if sorted(order) != list(range(1, nd + 1)):
        raise ValueError(
            f"derivation slot indices must be a permutation of 1..{nd}: {order}"
        )
    return order


def _check_ascending_args(slots, arity: int):
    labels = [s[1] for s in slots if s[0] != "g"]
    if labels != list(range(1, arity + 1)):
        raise ValueError(f"argument labels must be 1..{arity} in order: {labels}")


def _choices(takes_arg: bool, nder: int, nargs: int, nd: int) -> list:
    """The choices a slot can take, as (argument, derivations, bits, gt).

    Argument -1 stands for a slot that takes none.  ``bits`` marks what a
    choice uses in a state mask (arguments from bit 0, derivations from bit
    ``nargs``), and the step's sign is the parity of
    ``(state & gt).bit_count()``, the used elements above each choice.  A Q
    slot takes each derivation pair once, in ascending order, so no choice
    has an inversion of its own.
    """
    amask = (1 << nargs) - 1
    singles = [(-1, 0, 0)]
    if takes_arg:
        singles = [(a, 1 << a, amask ^ ((2 << a) - 1)) for a in range(nargs)]
    ders = []
    for es in combinations(range(nd), nder):
        dbits = dgt = 0
        for e in es:
            dbits |= 1 << e
            dgt ^= ((1 << nd) - 1) ^ ((2 << e) - 1)
        ders.append((es, dbits << nargs, dgt << nargs))
    return [(x, es, abits | dbits, agt | dgt)
            for x, abits, agt in singles for es, dbits, dgt in ders]


def _alternate(words, ctx, args, nd: int):
    """Sum of coeff times the double alternation of each (coeff, slots) word.

    The words are walked together in sorted order of their signature
    sequences (module docstring), with a stack of the states after each
    step of the current path, so the states after a common prefix are
    computed once.  A state is the mask of used arguments and derivations
    and holds the signed sum of the products of every path that reaches it:
    one ``ctx.mul_sum`` of the steps into it, or after the first slot the
    unsummed list of them.  A step's sign is the parity of the used
    elements greater than each new choice, and a Q slot takes each
    derivation pair once, in ascending order; the last slot is fused into
    ``ctx.trace_mul``.  Each factor is also prepared once per call as a right
    operand of ``mul_sum`` (``ctx.operand``); first-slot summands and traces
    take it plain.

    On a windowed backend a sum keeps the shallowest window of its terms, so
    the fused trace faults exactly when the trace of some single path would;
    the fault raised is that of the first faulting word in ``words``.
    ``kernel_words`` passes one word per orbit class, so a word it dropped
    cannot fault (module docstring).  On a graded backend each ``mul_sum``
    gets the demand floor ``rest`` of the module docstring: per variable,
    the sum over the later slots of the largest ``ctx.order`` of the
    factors each can take, read through the factor memo.  A state
    truncated so holds fewer coefficients than its window claims and is
    exact only for what the later slots and the trace make of it, so no
    state leaves this function: states are never returned and never enter
    the factor memo.
    """
    nargs = len(args)
    choices = {
        shape: _choices(*shape, nargs, nd)
        for shape in ((True, 0), (True, 1), (True, 2), (False, 1))
    }
    memo = {}
    qs = {}

    def factor(kind, x, es):
        key = (kind, x, es)
        f = memo.get(key)
        if f is None:
            if kind == "d":
                f = ctx.deriv(es[0], args[x])
            elif kind == "q":
                if es not in qs:
                    qs[es] = ctx.q(*es)
                f = ctx.mul(args[x], qs[es])
            elif kind == "g":
                f = ctx.generator(es[0])
            else:
                f = args[x]
            memo[key] = f
        return f

    operand = functools.cache(lambda *key: ctx.operand(factor(*key)))

    # On a graded backend, the top order of each slot kind: per variable,
    # the largest order of the factors such a slot can take.
    graded = bool(args) and ctx.order(args[0]) is not None
    tops = {}

    def top(slot):
        kind = slot[0]
        t = tops.get(kind)
        if t is None:
            options = choices[kind != "g", len(_dslots(slot))]
            orders = [ctx.order(factor(kind, x, es)) for x, es, *_ in options]
            t = tops[kind] = tuple(map(max, zip(*orders)))
        return t

    # each word's signature sequence -> [its coefficient, first word index]
    leaves = {}
    for index, (coeff, slots) in enumerate(words):
        order = _check_derivation_slots(slots, nd)
        # what the state after each slot passes to mul_sum after its terms:
        # on a graded backend, the orders the later slots can add
        rests = [()] * len(slots)
        if graded:
            rest = top(slots[-1])
            for pos in range(len(slots) - 2, 0, -1):
                rests[pos] = (rest,)
                rest = tuple(map(add, rest, top(slots[pos])))
        key = tuple((s[0], len(_dslots(s)), rests[p]) for p, s in enumerate(slots))
        # A word naming derivation slots out of order gets that order's sign.
        leaf = leaves.setdefault(key, [0, index])
        leaf[0] += coeff * perm_sign(order)

    def moves(states, step, get=factor):
        """Each (state, negate, summands, factor) that ``step`` takes from
        one of ``states``, the factor read through ``get``."""
        kind, nder, _ = step
        options = choices[kind != "g", nder]
        for st, summands in states.items():
            for x, es, bits, gt in options:
                if not st & bits:
                    neg = (st & gt).bit_count() & 1
                    yield st | bits, neg, summands, get(kind, x, es)

    trace, trace_mul, mul_sum = ctx.trace, ctx.trace_mul, ctx.mul_sum
    total = 0
    fault = None  # (word index, error) of the first word whose trace faults
    # The steps of the current path, and the states before each of them and
    # after the last.  A state's value is a list of (negate, element)
    # summands: one per step into it after the first slot, and one mul_sum
    # after later ones.
    path, stack = [], [{0: None}]
    for key, (coeff, index) in sorted(leaves.items()):
        if fault is not None and fault[0] < index:
            continue
        depth = next((p for p, (a, b) in enumerate(zip(path, key)) if a != b),
                     len(path))
        del path[depth:], stack[depth + 1:]
        states = stack[-1]
        for pos in range(depth, len(key) - 1):
            step = key[pos]
            nxt = {}
            for st, neg, summands, f in moves(states, step, operand if pos else factor):
                terms = nxt.get(st)
                if terms is None:
                    terms = nxt[st] = []
                if summands is None:
                    terms.append((neg, f))
                else:
                    terms += [(neg ^ sneg, p, f) for sneg, p in summands]
            if pos:
                nxt = {st: [(0, mul_sum(terms, *step[2]))]
                       for st, terms in nxt.items()}
            states = nxt
            path.append(step)
            stack.append(states)
        value = 0
        try:
            for _, neg, summands, f in moves(states, key[-1]):
                if summands is None:
                    t = trace(f)
                    value += -t if neg else t
                else:
                    for sneg, p in summands:
                        t = trace_mul(p, f)
                        value += -t if neg ^ sneg else t
        except InsufficientWindowError as exc:
            fault = (index, exc)
            continue
        total += coeff * value
    if fault is not None:
        raise fault[1]
    return total


def _atoms(slots):
    """The free-trace atoms (``tracelift.words``) of a word's slots and the
    sign that its Q letters take from ``qatom``: a plain or argument letter
    is ('a', i), a derived slot ('f', ds, i), a Q slot ('a', i) followed by
    its Q letter, and a generator letter stays ('g', ds)."""
    atoms, sign = [], 1
    for s in slots:
        kind = s[0]
        if kind == "d":
            atoms.append(("f", s[2], s[1]))
        elif kind == "g":
            atoms.append(s)
        else:
            atoms.append(("a", s[1]))
            if kind == "q":
                q, qsign = qatom(s[2], s[3])
                atoms.append(q)
                sign *= qsign
    return tuple(atoms), sign


def _class_words(words) -> list:
    """One (coeff, slots) word per alternation-orbit class of ``words``.

    The trace is cyclic, so Alt(w) = sign_w Alt(class) (``orbit_class``).
    A word whose class is 0 is dropped; the first word of each class, in
    the given order, stands for it, with the sum over the class's words of
    coeff times sign_w times its own sign; a class whose sum is 0 is
    dropped.  The words kept are words of the cochain as written;
    ``_collapsed_words`` then rotates them.
    """
    reps = {}  # class -> [coeff, slots, sign of the first word]
    for coeff, slots in words:
        atoms, qsign = _atoms(slots)
        cls, sign, _ = orbit_class(atoms)
        if not sign:
            continue
        sign *= qsign
        rep = reps.get(cls)
        if rep is None:
            reps[cls] = [coeff, slots, sign]
        else:
            rep[0] += coeff * sign * rep[2]
    return [(coeff, slots) for coeff, slots, _ in reps.values() if coeff]


def checked_words(cochain) -> list:
    """The (coeff, slots) words of a descriptor or an inner-expanded
    cochain, validated for evaluation: no wrapped words, argument labels
    1..arity in order, and derivation slots naming each of 1..n once.
    These checks need no context, so ``kernel_words`` runs them once per
    cochain value, in its bounded cache; the check against the context
    runs on every call."""
    if isinstance(cochain, ExpandedCochain):
        words = [(w.coeff, w.letters) for w in cochain.words]
    else:
        for w in cochain.words:
            if w.outer_dslot is not None:
                raise ValueError("wrapped words are symbolic-only; expand first")
        words = [(w.coeff, w.slots) for w in cochain.words]
    for _, slots in words:
        _check_ascending_args(slots, cochain.arity)
    for _, slots in words:
        _check_derivation_slots(slots, cochain.n)
    return words


def _rotate(coeff, slots, r: int) -> tuple:
    """The (coeff, slots) word as ``slots[r:] + slots[:r]``, argument labels
    renumbered 1..m in the new order and derivation slots kept.  The trace
    is cyclic, so only the relabelling changes the alternated value: by
    (-1)^(r'(m - r')), the sign of a cyclic shift by r' moved arguments."""
    rotated, m = [], 0
    for s in slots[r:] + slots[:r]:
        if s[0] != "g":
            m += 1
            s = (s[0], m, *s[2:])
        rotated.append(s)
    moved = sum(s[0] != "g" for s in slots[:r])
    return (-coeff if moved * (m - moved) % 2 else coeff), tuple(rotated)


def _walk_cost(words, nargs: int, nd: int) -> int:
    """The product terms the kernel forms walking ``words`` on an ungraded
    backend.  Each distinct signature prefix ending at a slot other than the
    first and the last has C(nargs, a) x C(nd, e) states, a arguments and e
    derivations used, each the ``mul_sum`` of (a, or 1 for a slot taking no
    argument) x C(e, k) steps, k the slot's derivation count."""
    prefixes, cost = set(), 0
    for _, slots in words:
        prefix, a, e = (), 0, 0
        for pos, s in enumerate(slots[:-1]):
            k, takes_arg = len(_dslots(s)), s[0] != "g"
            a, e = a + takes_arg, e + k
            prefix += ((s[0], k),)
            if pos and prefix not in prefixes:
                prefixes.add(prefix)
                cost += (comb(nargs, a) * comb(nd, e)
                         * (a if takes_arg else 1) * comb(e, k))
    return cost


@functools.lru_cache(maxsize=64)
def _collapsed_words(cochain, differential: bool) -> tuple:
    """The ``_class_words`` of a validated ``cochain``, or of
    ``build_differential(cochain)``, all rotated by the smallest r of least
    ``_walk_cost``, as a tuple no caller can change.

    The key is the cochain's value: descriptors and inner-expanded cochains
    are frozen, so one rebuilt on every call (as ``verify_inner_tilde_cocycle``
    rebuilds its four) still hits.  The cache holds a fixed number of
    cochains, and an invalid cochain raises on every call, since errors are
    not cached.
    """
    words = checked_words(cochain)
    if differential:
        cochain = build_differential(cochain)
        words = checked_words(cochain)
    words = _class_words(words)
    length = max((len(slots) for _, slots in words), default=1)
    rotations = [[_rotate(*w, r) for w in words] for r in range(length)]
    return tuple(min(rotations,
                     key=lambda ws: _walk_cost(ws, cochain.arity, cochain.n)))


def kernel_words(cochain, ctx, differential: bool = False) -> list:
    """The words the kernel walks for ``cochain``, or with ``differential``
    for ``build_differential(cochain)``: validated for evaluation on ``ctx``,
    collapsed to one word per alternation-orbit class (``_class_words``)
    and rotated by the r of fewest predicted product terms
    (``_collapsed_words``).

    The collapsed words are computed once per cochain value, in a bounded
    cache (``_collapsed_words``); the check against ``ctx`` runs on every
    call, and the list returned is a copy the caller may change.
    """
    if not isinstance(cochain, ExpandedCochain) and ctx.n != cochain.n:
        raise ValueError(
            f"context has {ctx.n} derivations, descriptor needs {cochain.n}"
        )
    return list(_collapsed_words(cochain, differential))


def evaluate(d, ctx, args):
    """Exact value of the double alternation of a descriptor or an
    inner-expanded cochain ``d`` at ``args``; generator letters become the
    context's generator elements (permuted by the derivation alternation)."""
    if len(args) != d.arity:
        raise ValueError(f"expected {d.arity} arguments, got {len(args)}")
    return _alternate(kernel_words(d, ctx), ctx, args, d.n)


# inner-expanded cochains evaluate through this name, so that it can be
# wrapped apart from ``evaluate``
evaluate_expanded = evaluate


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def descriptor_to_dict(d: CochainDescriptor) -> dict:
    words = []
    for w in d.words:
        slots = []
        for s in w.slots:
            if s[0] == "p":
                slots.append({"kind": "plain", "arg": s[1]})
            elif s[0] == "d":
                slots.append({"kind": "deriv", "arg": s[1], "d": s[2]})
            else:
                slots.append({"kind": "qfused", "arg": s[1], "d": s[2], "d2": s[3]})
        entry = {
            "coeff": [w.coeff.numerator, w.coeff.denominator],
            "slots": slots,
        }
        if w.outer_dslot is not None:
            entry["outer_d"] = w.outer_dslot
        words.append(entry)
    return {
        "arity": d.arity,
        "n": d.n,
        "words": words,
        "meta": [w.label for w in d.words],
    }


def descriptor_from_dict(obj: dict) -> CochainDescriptor:
    meta = obj.get("meta") or [""] * len(obj["words"])
    words = []
    for w, label in zip(obj["words"], meta):
        slots = []
        for s in w["slots"]:
            if s["kind"] == "plain":
                slots.append(plain(s["arg"]))
            elif s["kind"] == "deriv":
                slots.append(deriv(s["arg"], s["d"]))
            elif s["kind"] == "qfused":
                slots.append(qfused(s["arg"], s["d"], s["d2"]))
            else:
                raise ValueError(f"unknown slot kind {s['kind']!r}")
        _check_derivation_slots(slots, obj["n"], w.get("outer_d"))
        num, den = w["coeff"]
        words.append(
            TermWord(
                coeff=Fraction(num, den),
                slots=tuple(slots),
                outer_dslot=w.get("outer_d"),
                label=label,
            )
        )
    return CochainDescriptor(arity=obj["arity"], n=obj["n"], words=tuple(words))
