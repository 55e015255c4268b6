"""Traced-algebra-with-derivations evaluation contexts.

A context bundles an associative algebra with trace, n derivations and the
antisymmetric Q family measuring their failure to commute.  The matrix
backend uses inner derivations ad(G_i) on N x N rational matrices, where
everything holds identically (Q_ij = [G_i, G_j], condition (ii) is the
Jacobi identity).  Contexts and elements are immutable values; all
operations are pure.

The context protocol, shared with ``psido.PsiDOContext``: ``n`` (the number
of derivations), ``mul``, ``add``, ``sub``, ``scale``, ``bracket``,
``trace``, ``elem_is_zero``, ``deriv(d, a)``, ``q(i, j)``, ``is_commuting()``
(true iff every Q is zero; on a windowed algebra, zero on its window) and
``sample(rng)``; ``generator(d)`` where derivations are inner, which the
inner expansion needs.  Four calls serve the alternation kernel:
``trace_mul(a, b)``, the trace of a * b without forming it; ``operand(b)``,
b prepared once as a right factor; ``mul_sum(terms)``, the sum of the
products a * b over at least one (negate, a, b) term, b prepared, each
negated where asked; and ``order(a)``, the top order of ``a`` per variable
on a graded algebra, else ``None``.  The kernel makes one ``mul_sum`` per
state and no ``add``, ``sub`` or ``scale``.  Where ``order`` is not
``None`` it passes ``mul_sum(terms, rest)``, with ``rest`` the sum of the
orders the state's remaining factors can have, and the result needs to be
exact only where it can still reach the trace (``psido.compose_sum``; there
``operand`` is the identity).  Matrices have no grading: ``order`` is
``None``, and ``operand`` and ``mul_sum`` pack rows into integers
(``matrices``).  A trace that the element's truncation window cannot give
exactly raises ``InsufficientWindowError`` (psido symbols; matrices never do).
"""

from __future__ import annotations

from . import matrices as mat


class InsufficientWindowError(Exception):
    """A requested coefficient lies outside the guaranteed-exact window."""


class MatrixContext:
    """N x N rational matrices with inner derivations D_i = ad(G_i).

    Q is stored only for i < j; accesses with i > j negate, so
    Q_ji = -Q_ij holds by construction.  Derivation and Q indices are
    0-based at this level.
    """

    backend = "matrix"

    def __init__(self, generators):
        generators = tuple(tuple(tuple(row) for row in g) for g in generators)
        if not generators:
            raise ValueError("at least one generator required")
        N = len(generators[0])
        if N < 1:
            raise ValueError("matrices must be at least 1x1")
        for idx, g in enumerate(generators):
            if len(g) != N or any(len(row) != N for row in g):
                raise ValueError(f"generator {idx} is not {N}x{N}")
        self.N = N
        self.n = len(generators)
        self.generators = generators
        self._q = {}
        for i in range(self.n):
            for j in range(i + 1, self.n):
                self._q[(i, j)] = mat.mat_comm(generators[i], generators[j])
        self._zero = mat.zero(N)

    # -- algebra operations -------------------------------------------------
    def mul(self, a, b):
        return mat.mat_mul(a, b)

    def mul_sum(self, terms):
        return mat.mat_mul_sum(terms)

    def operand(self, b):
        return mat.mat_operand(b)

    def add(self, a, b):
        return mat.mat_add(a, b)

    def sub(self, a, b):
        return mat.mat_sub(a, b)

    def scale(self, c, a):
        return mat.mat_scale(c, a)

    def bracket(self, a, b):
        return mat.mat_comm(a, b)

    def trace(self, a):
        return mat.mat_trace(a)

    def trace_mul(self, a, b):
        return mat.mat_trace_mul(a, b)

    def order(self, a):
        return None

    def elem_is_zero(self, a) -> bool:
        return mat.is_zero(a)

    # -- derivations and Q --------------------------------------------------
    def deriv(self, d: int, a):
        return mat.mat_comm(self.generators[d], a)

    def generator(self, d: int):
        return self.generators[d]

    def q(self, i: int, j: int):
        if i == j:
            return self._zero
        if i < j:
            return self._q[(i, j)]
        return mat.mat_neg(self._q[(j, i)])

    def is_commuting(self) -> bool:
        return all(mat.is_zero(q) for q in self._q.values())

    # -- sampling -----------------------------------------------------------
    def sample(self, rng):
        """Random element; integer entries uniform in [-3, 3]."""
        return mat.random_matrix(rng, self.N)


def random_matrix_context(rng, n: int, N: int, commuting: bool = False) -> MatrixContext:
    """Random generators; diagonal (hence commuting) when requested."""
    if commuting:
        gens = [mat.random_diagonal(rng, N) for _ in range(n)]
    else:
        gens = [mat.random_matrix(rng, N) for _ in range(n)]
    return MatrixContext(gens)
