"""Property tests: the polynomial-time formulas equal the paper's enumerations.

Instances are integer valued with n <= 8, in max-plus and min-plus, so
every sum is exact and the comparisons are bitwise.  Generator reduction
is also checked on non-integer data, where only identical arithmetic
gives identical answers.
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


def power_traces(A, sf):
    return ts.spectral_summary(A, sf).per_power_traces


@PROPERTY_SETTINGS
@given(instances())
def test_spectral_radius_is_the_best_cycle_mean(case):
    sf, A, _ = case
    assert ts.spectral_radius(A, sf) == ts.cycle_mean_oracle(A, sf)


@PROPERTY_SETTINGS
@given(instances())
def test_spectral_radius_is_the_sum_of_trace_roots(case):
    sf, A, _ = case
    roots = sf.zero
    for m, t in power_traces(A, sf):
        roots = sf.add(roots, t / m)
    assert ts.spectral_radius(A, sf) == roots == ts.spectral_summary(A, sf).radius


@PROPERTY_SETTINGS
@given(instances())
def test_star_is_the_bounded_power_sum(case):
    # the instances include Tr(A) > 1, where the star is the bounded sum only
    sf, A, _ = case
    n = A.shape[0]
    horner = ts.identity_matrix(n, sf)
    for k in range(1, n):
        horner = ts.mat_add(horner, ts.mat_pow(A, k, sf), sf)
    assert np.array_equal(ts.kleene_star(A, sf), horner)


@PROPERTY_SETTINGS
@given(instances())
def test_big_tr_is_the_sum_of_power_traces(case):
    sf, A, _ = case
    acc = sf.zero
    for _, t in power_traces(A, sf):
        acc = sf.add(acc, t)
    assert ts.big_tr(A, sf) == acc


@st.composite
def float_generators(draw):
    """Columns ``c (x) x`` over a few non-integer base columns ``x``, some
    with an entry set to zero, so that some columns are collinear in
    floating point and some only nearly so."""
    sf = draw(st.sampled_from([MAX_PLUS, MIN_PLUS]))
    n = draw(st.integers(1, 6))
    entries = st.integers(-40, 40).map(lambda k: k / 7)
    bases = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    shifts = st.sampled_from([0.0, 0.1, 1 / 3, -2.5, 0.7, 1e-9])
    cols = []
    for _ in range(draw(st.integers(1, 10))):
        col = draw(shifts) + np.array(draw(st.sampled_from(bases)))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            col[i] = sf.zero
        cols.append(col)
    return sf, np.column_stack(cols)


@PROPERTY_SETTINGS
@given(float_generators())
def test_reduction_keeps_what_pairwise_collinear_keeps(case):
    sf, G = case
    kept = []
    for j in range(G.shape[1]):
        col = G[:, j]
        if np.all(col == sf.zero):
            continue
        if any(ts.collinear(G[:, i], col, sf) is not None for i in kept):
            continue
        kept.append(j)
    assert np.array_equal(ts.reduce_generators(G, sf), G[:, kept or [0]])
