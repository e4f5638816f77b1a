"""Property tests: the polynomial-time formulas equal the paper's enumerations.

Instances are integer valued with n <= 8, in max-plus and min-plus, so
every sum is exact and the comparisons are bitwise.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, sf, n):
    """An n-by-n integer matrix in [-9, 9]; draws above 9 become the zero element."""
    extra_zeros = draw(st.integers(0, 10))
    cells = draw(st.lists(st.integers(-9, 9 + extra_zeros), min_size=n * n, max_size=n * n))
    M = np.array(cells, dtype=np.float64).reshape(n, n)
    M[M > 9] = sf.zero
    return M


@st.composite
def instances(draw, max_n=8):
    sf = draw(st.sampled_from([MAX_PLUS, MIN_PLUS]))
    n = draw(st.integers(1, max_n))
    return sf, draw(matrices(sf, n)), draw(matrices(sf, n))


def feasible(B, sf):
    """Shift ``B`` by an integer until ``Tr(B) <= 1`` in the order of ``sf``."""
    lam = ts.spectral_radius(B, sf)
    if lam == sf.zero or sf.leq(lam, sf.one):
        return B
    return B - (math.ceil(lam) if sf is MAX_PLUS else math.floor(lam))


@PROPERTY_SETTINGS
@given(instances())
def test_theta_equals_the_enumeration_when_constraint_feasible(case):
    sf, A, B = case
    B = feasible(B, sf)
    assert sf.leq(ts.big_tr(B, sf), sf.one)
    assert ts.compute_theta(A, B, sf) == ts.theta_enumeration_oracle(A, B, sf)


@PROPERTY_SETTINGS
@given(instances())
def test_tr_is_the_trace_of_b_times_its_star(case):
    sf, _, B = case
    star = ts.kleene_star(B, sf)
    assert ts.trace(ts.mat_mul(B, star, sf), sf) == ts.big_tr(B, sf)


@PROPERTY_SETTINGS
@given(instances(), st.integers(1, 6))
def test_trace_binomial_identity(case, m):
    sf, A, B = case
    lhs = ts.trace(ts.mat_pow(ts.mat_add(A, B, sf), m, sf), sf)
    assert lhs == ts.trace_binomial_rhs(A, B, m, sf)
