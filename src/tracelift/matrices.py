"""Exact matrix arithmetic over Python rationals.

Matrices are immutable tuples of row tuples.  Entries are plain ints or
``fractions.Fraction``; arithmetic dispatches to exact big-integer or
rational operations automatically, so integer matrices stay on the fast
integer path.
"""

from __future__ import annotations

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


def mat_mul_sum(terms):
    """Sum of the products a * b, each negated where asked, over at least one
    (negate, a, b) term, computed as one product: the rows of the a's laid
    side by side times the columns of the b's stacked, each b's sign folded
    into its columns."""
    rows = [[] for _ in terms[0][1]]
    cols = [[] for _ in terms[0][2][0]]
    for neg, a, b in terms:
        for row, ra in zip(rows, a):
            row += ra
        for col, cb in zip(cols, zip(*b)):
            col += [-x for x in cb] if neg else cb
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in cols) for ra in rows)


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
