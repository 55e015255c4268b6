"""Exact matrix arithmetic over Python rationals.

Matrices are immutable tuples of row tuples.  Entries are plain ints or
``fractions.Fraction``; arithmetic dispatches to exact big-integer or
rational operations automatically, so integer matrices stay on the fast
integer path.

``mat_mul_sum`` makes each output row one big-integer dot product: the left
factors' rows laid side by side times the right factors' rows, each packed
once by ``mat_operand`` into one integer of B-bit fields.  Each entry has
|entry| <= bound = max_r sum |row r| * max |b| < 2^(B-1), B the bit length of
bound plus one rounded up to a multiple of 16, so no field overflows.  Packing
the left rows too (Kronecker substitution) would pay for every cross term.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul


def zero(n: int):
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in cols) for ra in a)


def mat_operand(b):
    """b as a right factor of ``mat_mul_sum``: (rows, den, top, packs); rows
    is b times den, the lcm of its denominators; top, its largest |entry|;
    packs, width B -> (rows packed as sum_c rows[t][c] * 2^(cB), negated)."""
    den = lcm(*(x.denominator for row in b for x in row))
    rows = tuple(tuple(int(x * den) for x in row) for row in b)
    return rows, den, max(abs(x) for row in rows for x in row), {}


def mat_mul_sum(terms):
    """Sum of the products a * b, each negated where asked, over at least one
    (negate, a, b) term with b from ``mat_operand``, one dot product per row
    (module docstring); Fraction rows, or rows times a scaled b, are scaled."""
    rows = [[] for _ in terms[0][1]]
    for _, a, b in terms:
        for row, ra in zip(rows, a):
            row += ra if b[1] == 1 else [Fraction(x, b[1]) for x in ra]
    sums = [sum(map(abs, row)) for row in rows]
    bound, den = max(sums) * max([b[2] for _, _, b in terms]), 1
    if type(sum(sums)) is not int:  # some Fraction entry
        den = lcm(*(x.denominator for row in rows for x in row))
        rows = [[int(x * den) for x in row] for row in rows]
        bound = int(bound * den)
    width = bound.bit_length() + 16 & -16
    packed = []
    for neg, _, b in terms:
        packs = b[3].get(width)
        if packs is None:
            p = [sum(x << c * width for c, x in enumerate(row)) for row in b[0]]
            packs = b[3][width] = (p, [-x for x in p])
        packed += packs[neg]
    fields = range(len(terms[0][2][0][0]))
    half, mask = 1 << width - 1, (1 << width) - 1
    out = []
    for row in rows:
        v = sum(map(mul, row, packed))
        out.append(entries := [])
        for _ in fields:
            entries.append(d := (v & mask ^ half) - half)  # signed low field
            v = (v - d) >> width
    if den != 1:
        out = [[Fraction(x, den) for x in row] for row in out]
    return tuple(map(tuple, out))


def mat_comm(a, b):
    """Commutator a*b - b*a."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_trace_mul(a, b):
    """trace(a * b) = sum_ij a_ij b_ji, without forming the product."""
    return sum(sum(x * y for x, y in zip(ra, cb)) for ra, cb in zip(a, zip(*b)))


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def random_matrix(rng, n: int, lo: int = -3, hi: int = 3):
    """Random integer matrix, entries uniform in [lo, hi]."""
    return tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))


def random_diagonal(rng, n: int, lo: int = -3, hi: int = 3):
    return tuple(
        tuple(rng.randint(lo, hi) if i == j else 0 for j in range(n))
        for i in range(n)
    )
