"""Free trace algebra: formal words up to cyclic rotation.

Atoms (the letters of a word) are plain tuples tagged by kind:

    ('a', i)        the argument letter A_i
    ('f', d, i)     the first-order letter D_d A_i
    ('s', d, e, i)  the second-order letter D_d D_e A_i, pair {d, e} unordered
                    (encodes commuting derivations)
    ('q', d, e)     the letter Q_{d,e}, canonicalized to d < e
    ('g', d)        the generator letter of an inner derivation D_d (one
                    derivation label, no argument)

The trace property Tr(ab) = Tr(ba) is encoded structurally: a word inside
a trace is identified with all its rotations, and ``canonicalize_cyclic``
picks the lexicographically minimal rotation under a fixed total order on
atoms (kind rank 'a' < 'f' < 's' < 'q' < 'g', then indices).

Alternation over arguments and derivations (S_m x S_n, with signs) is
encoded the same way: ``orbit_class`` maps a word to the minimal rotation
after renumbering its labels, with the sign of that renumbering.
"""

from __future__ import annotations

import functools

from .combinatorics import perm_sign

_KIND_RANK = {"a": 0, "f": 1, "s": 2, "q": 3, "g": 4}


def arg(i: int):
    return ("a", i)


def first_order(d: int, i: int):
    return ("f", d, i)


def second_order(d: int, e: int, i: int):
    if d > e:
        d, e = e, d
    return ("s", d, e, i)


def qatom(d: int, e: int):
    """Canonical Q letter and the sign flip; Q_{d,d} = 0 gives (None, 0)."""
    if d == e:
        return None, 0
    if d < e:
        return ("q", d, e), 1
    return ("q", e, d), -1


@functools.cache
def atom_key(atom):
    """Sort key of one atom; memoized, since the atoms of a run are few."""
    return (_KIND_RANK[atom[0]],) + atom[1:]


def canonicalize_cyclic(word):
    """Lexicographically minimal rotation of ``word`` (a tuple of atoms).

    Each atom's key is looked up once; rotations are compared as slices of
    the doubled key list, the first minimal one winning.  Idempotent and
    invariant under rotation; the empty word maps to itself.
    """
    word = tuple(word)
    n = len(word)
    if n <= 1:
        return word
    keys = list(map(atom_key, word))
    keys += keys
    best, best_key = 0, keys[:n]
    for r in range(1, n):
        k = keys[r : r + n]
        if k < best_key:
            best, best_key = r, k
    return word[best:] + word[:best]


def atom_labels(atom):
    """(derivation labels, argument labels) of one atom."""
    kind = atom[0]
    if kind == "a":
        return (), atom[1:]
    if kind in ("q", "g"):
        return atom[1:], ()
    return atom[1:-1], atom[-1:]


def _renumbered(word):
    """``word`` with its argument and its derivation labels each renumbered
    1, 2, ... in order of appearance, and the sign of the two renumberings.
    A pair letter's labels are both new where it stands (each label occurs
    in one letter), so they stay ascending and the letter keeps its sign."""
    ders: dict = {}
    args: dict = {}
    out = []
    for atom in word:
        ds, xs = atom_labels(atom)
        out.append((atom[0], *(ders.setdefault(d, len(ders) + 1) for d in ds),
                    *(args.setdefault(x, len(args) + 1) for x in xs)))
    return tuple(out), perm_sign(list(ders)) * perm_sign(list(args))


def orbit_class(word):
    """Class of ``word`` under relabelling (S_m x S_n) and rotation.

    Returns (class, sign, stabilizer) with Alt(word) = sign * Alt(class),
    Alt the signed sum over S_m x S_n.  The class is the smallest rotation,
    by ``atom_key``, after renumbering the argument and the derivation
    labels in order of appearance.  Every label must occur in one letter
    only (as in every word a descriptor expands to; ``ValueError``
    otherwise), so the renumbered rotation depends only on its sequence of
    letter kinds, and the rotations with the smallest kind sequence are the
    ones that reach the class.  ``stabilizer`` is their number times 2 per
    pair letter (two derivation labels) whose label swap gives the same
    letter: the class's orbit holds m! n! / stabilizer cyclic words.  When
    two of those rotations have opposite signs, or a pair swap has sign -1
    (the transposition's -1 times the letter's sign change), Alt(word) =
    -Alt(word) = 0 and (None, 0, 0) is returned.
    """
    word = tuple(word)
    labels = [atom_labels(atom) for atom in word]
    for k in (0, 1):
        seen = [x for lab in labels for x in lab[k]]
        if len(set(seen)) < len(seen):
            raise ValueError(f"a label occurs twice in {word}")
    size = len(word)
    ranks = [_KIND_RANK[atom[0]] for atom in word] * 2
    low = min(ranks[r : r + size] for r in range(size))
    signs = set()
    stabilizer = 0
    for r in range(size):
        if ranks[r : r + size] == low:
            cls, sign = _renumbered(word[r:] + word[:r])
            signs.add(sign)
            stabilizer += 1
    for atom, (ds, xs) in zip(word, labels):
        if len(ds) == 2:
            if atom[0] == "q":
                swapped, s = qatom(ds[1], ds[0])
            else:
                swapped, s = second_order(ds[1], ds[0], *xs), 1
            if swapped == atom:
                if s == 1:  # times the transposition's -1
                    return None, 0, 0
                stabilizer *= 2
    if len(signs) > 1:
        return None, 0, 0
    return cls, sign, stabilizer


def combine_maps(maps_with_coeffs):
    """Linear combination of CyclicWord maps: [(map, coeff), ...]."""
    acc: dict = {}
    for m, c in maps_with_coeffs:
        if c == 0:
            continue
        for cw, v in m.items():
            t = acc.get(cw, 0) + c * v
            if t == 0:
                acc.pop(cw, None)
            else:
                acc[cw] = t
    return acc
