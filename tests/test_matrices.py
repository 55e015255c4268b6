import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tracelift import matrices as mat


def rand(seed, n=3):
    return mat.random_matrix(random.Random(seed), n)


def test_identity_is_neutral():
    a = rand(1)
    e = mat.identity(3)
    assert mat.mat_mul(a, e) == a
    assert mat.mat_mul(e, a) == a


def test_trace_of_commutator_vanishes():
    a, b = rand(2), rand(3)
    assert mat.mat_trace(mat.mat_comm(a, b)) == 0


def test_add_sub_roundtrip():
    a, b = rand(4), rand(5)
    assert mat.mat_sub(mat.mat_add(a, b), b) == a
    assert mat.is_zero(mat.mat_sub(a, a))


def test_scale_distributes():
    a, b = rand(6), rand(7)
    c = Fraction(3, 2)
    lhs = mat.mat_scale(c, mat.mat_add(a, b))
    rhs = mat.mat_add(mat.mat_scale(c, a), mat.mat_scale(c, b))
    assert lhs == rhs


def test_random_matrix_entry_range():
    rng = random.Random(0)
    a = mat.random_matrix(rng, 4)
    assert all(-3 <= x <= 3 for row in a for x in row)


def test_random_diagonal_shape():
    d = mat.random_diagonal(random.Random(1), 3)
    assert all(d[i][j] == 0 for i in range(3) for j in range(3) if i != j)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_mul_associative(s1, s2, s3):
    a, b, c = rand(s1), rand(s2), rand(s3)
    assert mat.mat_mul(mat.mat_mul(a, b), c) == mat.mat_mul(a, mat.mat_mul(b, c))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_trace_cyclicity(s1, s2):
    a, b = rand(s1), rand(s2)
    assert mat.mat_trace(mat.mat_mul(a, b)) == mat.mat_trace(mat.mat_mul(b, a))
