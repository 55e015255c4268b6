"""Index sets for the alternating trace sums.

Even-gap bit sequences and their reductions, marked intervals, marked
circles, and permutation parity.  Bit sequences are tuples over
{0, 1}; positions, marks and derivation indices are 1-based throughout, to
match the slot labelling used by the cochain builders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class EvenSequence:
    """Bit sequence with a leading 1, n ones, 2l zeros, all cyclic zero-runs even."""

    n: int
    l: int
    bits: tuple

    def __post_init__(self):
        if not is_even_sequence(self.bits, self.n, self.l):
            raise ValueError(f"not an admissible sequence: {self.bits}")


@dataclass(frozen=True)
class ReducedSequence:
    """An EvenSequence with one zero deleted from its first zero-run.

    ``s1`` is the (1-based) position of the first zero in the source;
    ``s2`` is the position of the one terminating the first zero-run, or
    None when that run is the tail of the sequence.
    """

    source: EvenSequence
    tilde_bits: tuple
    s1: int
    s2: int | None


@dataclass(frozen=True)
class MarkedInterval:
    """Integral points 1..n-1 of an interval, marks pairwise >= 2 apart."""

    n: int
    marks: tuple


@dataclass(frozen=True)
class MarkedCircle:
    """Marks on the circle of the reduced sequence's n+2l-1 points."""

    base: ReducedSequence
    marks: tuple


def _cyclic_zero_runs_even(bits) -> bool:
    ones = [i for i, b in enumerate(bits) if b == 1]
    if not ones:
        return len(bits) % 2 == 0
    m = len(ones)
    total = len(bits)
    for k in range(m):
        gap = (ones[(k + 1) % m] - ones[k] - 1) % total
        if gap % 2 != 0:
            return False
    return True


def is_even_sequence(bits, n: int, l: int) -> bool:
    bits = tuple(bits)
    if len(bits) != n + 2 * l:
        return False
    if not bits or bits[0] != 1:
        return False
    if sum(bits) != n:
        return False
    return _cyclic_zero_runs_even(bits)


def enumerate_a_even(n: int, l: int):
    """All admissible sequences for (n, l), lexicographic on bits."""
    if n < 1 or l < 1:
        raise ValueError("n >= 1 and l >= 1 required")
    length = n + 2 * l
    out = []
    for ones_rest in itertools.combinations(range(1, length), n - 1):
        bits = [0] * length
        bits[0] = 1
        for p in ones_rest:
            bits[p] = 1
        if _cyclic_zero_runs_even(bits):
            out.append(EvenSequence(n, l, tuple(bits)))
    out.sort(key=lambda s: s.bits)
    return out


def reduce_sequence(a: EvenSequence) -> ReducedSequence:
    """Delete exactly one zero from the first maximal zero-run."""
    bits = a.bits
    s1 = next(i for i, b in enumerate(bits) if b == 0) + 1  # 1-based
    s2 = None
    for i in range(s1, len(bits)):  # 0-based index i == 1-based i+1
        if bits[i] == 1:
            s2 = i + 1
            break
    tilde = bits[: s1 - 1] + bits[s1:]
    return ReducedSequence(source=a, tilde_bits=tilde, s1=s1, s2=s2)


def derivation_assignment(tilde_bits) -> dict:
    """Map slot -> derivation index: the i-th one (left to right) gets index i."""
    out = {}
    j = 0
    for pos, b in enumerate(tilde_bits, start=1):
        if b == 1:
            j += 1
            out[pos] = j
    return out


def enumerate_intervals(n: int, k: int):
    """Marked intervals: k marks among 1..n-1, consecutive marks >= 2 apart."""
    if n < 2:
        raise ValueError("n >= 2 required")
    if k < 1 or k > n // 2:
        return []
    out = []
    for marks in itertools.combinations(range(1, n), k):
        if all(b - a >= 2 for a, b in zip(marks, marks[1:])):
            out.append(MarkedInterval(n=n, marks=marks))
    return out


def _cyclic_distance(i: int, j: int, length: int) -> int:
    d = abs(i - j) % length
    return min(d, length - d)


def enumerate_circles(r: ReducedSequence, k: int):
    """Admissible k-mark sets on the circle of the reduced sequence.

    Point i is markable only if tilde_i = 1 and tilde_{succ(i)} = 1 with a
    cyclic successor on n+2l-1 points; marks are pairwise at cyclic
    distance >= 2.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    tilde = r.tilde_bits
    length = len(tilde)
    admissible = [
        i
        for i in range(1, length + 1)
        if tilde[i - 1] == 1 and tilde[i % length] == 1
    ]
    out = []
    for marks in itertools.combinations(admissible, k):
        if all(
            _cyclic_distance(a, b, length) >= 2
            for a, b in itertools.combinations(marks, 2)
        ):
            out.append(MarkedCircle(base=r, marks=marks))
    return out


def perm_sign(perm) -> int:
    """Parity of a permutation given as a sequence, by inversion count."""
    inv = 0
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv % 2 else 1
