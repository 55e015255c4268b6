"""Free trace algebra: formal words up to cyclic rotation.

Atoms (the letters of a word) are plain tuples tagged by kind:

    ('a', i)        the argument letter A_i
    ('f', d, i)     the first-order letter D_d A_i
    ('s', d, e, i)  the second-order letter D_d D_e A_i, pair {d, e} unordered
                    (encodes commuting derivations)
    ('q', d, e)     the letter Q_{d,e}, canonicalized to d < e

The trace property Tr(ab) = Tr(ba) is encoded structurally: a word inside
a trace is identified with all its rotations, and ``canonicalize_cyclic``
picks the lexicographically minimal rotation under a fixed total order on
atoms (kind rank 'a' < 'f' < 's' < 'q', then indices).
"""

from __future__ import annotations

import functools

_KIND_RANK = {"a": 0, "f": 1, "s": 2, "q": 3}


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
