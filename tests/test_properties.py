"""Property tests: the polynomial-time formulas equal the paper's enumerations.

Instances are integer valued with n <= 8, in max-plus and min-plus, so
every sum is exact and the comparisons are bitwise.  Generator reduction
is also checked on non-integer data, where only identical arithmetic
gives identical answers, and on closures up to n = 24 and inputs of up
to 30 columns, where classes of collinear columns are large.  Every
public function is checked to answer in min-plus exactly as in max-plus
on the negated data.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS, TropicalError, tensor

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


@st.composite
def objective_patterns(draw):
    """An integer pair with n <= 7 whose ``A`` is drawn as ``matrices``
    draws it (often reducible), strictly triangular up to a relabelling of
    the nodes (nilpotent), or all zero."""
    n = draw(st.integers(1, 7))
    A = draw(matrices(MAX_PLUS, n))
    pattern = draw(st.sampled_from(["drawn", "nilpotent", "zero"]))
    if pattern == "nilpotent":
        A[np.tril_indices(n)] = MAX_PLUS.zero
        order = draw(st.permutations(range(n)))
        A = A[np.ix_(order, order)]
    elif pattern == "zero":
        A[:] = MAX_PLUS.zero
    return A, draw(matrices(MAX_PLUS, n))


@PROPERTY_SETTINGS
@given(objective_patterns())
@example((np.array([[-np.inf]]), np.array([[0.0]])))
@example((np.array([[-3.0]]), np.array([[-np.inf]])))
def test_spectral_radius_hypothesis_is_read_from_the_zero_pattern(case):
    A, B = case
    has_cycle = ts.cycle_mean_oracle(A) != -np.inf
    assert ts.check_hypotheses(A, B)["spectral_radius_positive"] == has_cycle


@PROPERTY_SETTINGS
@given(instances(max_n=7))
def test_forced_solve_records_what_check_hypotheses_returns(case):
    sf, A, B = case
    B = feasible(B, sf)
    try:
        cone = ts.solve_constrained(ts.ProblemInstance(A, B, sf), override_irreducibility=True)
    except TropicalError:
        return
    # equal entries in the same order
    expected = ts.check_hypotheses(A, B, sf)
    assert list(cone.hypotheses.items()) == list(expected.items())


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
def float_generators(draw, max_n=6, max_cols=10):
    """Up to ``max_cols`` columns ``c (x) x`` over a few non-integer base
    columns ``x`` of length at most ``max_n``, some with an entry set to
    zero, so that some columns are collinear in floating point and some
    only nearly so."""
    sf = draw(st.sampled_from([MAX_PLUS, MIN_PLUS]))
    n = draw(st.integers(1, max_n))
    entries = st.integers(-40, 40).map(lambda k: k / 7)
    bases = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    shifts = st.sampled_from([0.0, 0.1, 1 / 3, -2.5, 0.7, 1e-9])
    cols = []
    for _ in range(draw(st.integers(1, max_cols))):
        col = draw(shifts) + np.array(draw(st.sampled_from(bases)))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            col[i] = sf.zero
        cols.append(col)
    return sf, np.column_stack(cols)


def pairwise_kept(G, sf):
    """The columns of ``G`` that survive a pairwise :func:`collinear` scan."""
    kept = []
    for j in range(G.shape[1]):
        col = G[:, j]
        if np.all(col == sf.zero):
            continue
        if any(ts.collinear(G[:, i], col, sf) is not None for i in kept):
            continue
        kept.append(j)
    return G[:, kept or [0]]


@PROPERTY_SETTINGS
@given(float_generators())
def test_reduction_keeps_what_pairwise_collinear_keeps(case):
    sf, G = case
    assert np.array_equal(ts.reduce_generators(G, sf), pairwise_kept(G, sf))


@PROPERTY_SETTINGS
@given(float_generators(max_n=8, max_cols=30))
def test_reduction_of_many_columns_keeps_what_pairwise_collinear_keeps(case):
    # with up to 30 columns over at most three bases, one leader drops many
    # shifted copies of its base in one pass
    sf, G = case
    assert np.array_equal(ts.reduce_generators(G, sf), pairwise_kept(G, sf))


@st.composite
def scaled_matrices(draw, min_n, max_n, dens=(7, 10), spreads=(40,)):
    """``lambda^-1 A`` for an n-by-n matrix ``A`` of ``k/den``, den in
    ``dens``, k in [-s, s] for a spread s in ``spreads``, with some zero
    elements, and ``lambda`` its spectral radius.  A narrow spread ties
    many cycles at ``lambda``, which makes large classes of collinear
    columns in the closure."""
    sf = draw(st.sampled_from([MAX_PLUS, MIN_PLUS]))
    n = draw(st.integers(min_n, max_n))
    den = draw(st.sampled_from(dens))
    s = draw(st.sampled_from(spreads))
    cells = st.integers(-s, s + draw(st.integers(0, s // 2)))
    k = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
    A = np.where(k > s, sf.zero, k / den)
    lam = ts.spectral_radius(A, sf)
    assume(lam != sf.zero)
    return sf, ts.scalar_mul(sf.inv(lam), A, sf)


def horner(A, sf):
    """``I (+) A (I (+) A (...))``, the bounded sum by n - 1 products."""
    n = A.shape[0]
    S = ts.identity_matrix(n, sf)
    for _ in range(n - 1):
        S = ts.mat_add(ts.identity_matrix(n, sf), ts.mat_mul(A, S, sf), sf)
    return S


@PROPERTY_SETTINGS
@given(scaled_matrices(1, 7))
def test_closure_reduction_keeps_what_pairwise_collinear_keeps(case):
    # a closure (lambda^-1 A)* has a zero diagonal unless lambda was rounded
    # up to an ulp-positive cycle, so this reaches the partner prefilter
    sf, M = case
    G = ts.kleene_star(M, sf)
    assert np.array_equal(ts.reduce_generators(G, sf), pairwise_kept(G, sf))


@PROPERTY_SETTINGS
@given(scaled_matrices(8, 24, dens=(1, 7), spreads=(1, 3, 40)))
def test_large_closure_reduction_keeps_what_pairwise_collinear_keeps(case):
    # integer and k/7 closures up to n = 24, where one leader drops a whole
    # class of partners in one pass
    sf, M = case
    G = ts.kleene_star(M, sf)
    assert np.array_equal(ts.reduce_generators(G, sf), pairwise_kept(G, sf))


def fw_diagonal(M):
    """Diagonal of the Floyd-Warshall closure of a max-plus matrix."""
    S = M.copy()
    for k in range(S.shape[0]):
        S = np.maximum(S, S[:, k, None] + S[k])
    return np.diagonal(S)


@PROPERTY_SETTINGS
@given(scaled_matrices(3, 3))
def test_ulp_positive_closure_takes_the_doubling_star(case):
    # n <= 3: each bounded-sum entry is one addition, so every evaluation
    # order gives the same bits and the fallback (I (+) A)**(n-1), built by
    # squaring, must equal Horner's
    sf, M = case
    assume((fw_diagonal(0.0 - M if sf is MIN_PLUS else M) > 0.0).any())
    calls = []
    inner = tensor._pow
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_pow", lambda A, p: calls.append(p) or inner(A, p))
        star = ts.kleene_star(M, sf)
    assert calls == [M.shape[0] - 1]
    assert np.array_equal(star, horner(M, sf))


# -- min-plus is max-plus read through x -> -x ---------------------------------


@st.composite
def min_plus_cases(draw, max_n=6):
    """A min-plus pair ``A, B`` and vectors ``x, y`` of length n.

    Entries are ``k * s`` for integers ``k`` in [-9, 9] and one scale
    ``s`` in {1, 0.1, 1/7, 1e307}, the last so that products overflow;
    draws above 9 become the zero element ``+inf``.  ``B`` is sometimes
    shifted so its least finite entry is 0, which makes ``Tr(B) <= 1``.
    """
    n = draw(st.integers(1, max_n))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 7, 1e307]))
    extra_zeros = draw(st.integers(0, 10))
    cell = st.integers(-9, 9 + extra_zeros)

    def block(*shape):
        k = np.array(draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape))))
        return (np.where(k > 9, math.inf, k) * scale).reshape(shape)

    A, B, x, y = block(n, n), block(n, n), block(n), block(n)
    finite = B[np.isfinite(B)]
    if draw(st.booleans()) and finite.size:
        B = B - finite.min()
    if draw(st.booleans()):
        y = x + float(draw(st.integers(-3, 3)))
    return A, B, x, y


DUAL_CALLS = {
    "as_matrix": lambda sf, A, B, x, y: ts.as_matrix(A, sf),
    "as_vector": lambda sf, A, B, x, y: ts.as_vector(x, sf),
    "zero_matrix": lambda sf, A, B, x, y: ts.zero_matrix(*A.shape, sf=sf),
    "identity_matrix": lambda sf, A, B, x, y: ts.identity_matrix(A.shape[0], sf),
    "mat_add": lambda sf, A, B, x, y: ts.mat_add(A, B, sf),
    "mat_mul": lambda sf, A, B, x, y: ts.mat_mul(A, B, sf),
    "mat_vec": lambda sf, A, B, x, y: ts.mat_vec(A, x, sf),
    "mat_pow": lambda sf, A, B, x, y: ts.mat_pow(A, 3, sf),
    "scalar_mul": lambda sf, A, B, x, y: ts.scalar_mul(y[0], A, sf),
    "trace": lambda sf, A, B, x, y: ts.trace(A, sf),
    "conjugate": lambda sf, A, B, x, y: ts.conjugate(x, sf),
    "kleene_star": lambda sf, A, B, x, y: ts.kleene_star(A, sf),
    "is_regular": lambda sf, A, B, x, y: ts.is_regular(x, sf),
    "collinear": lambda sf, A, B, x, y: ts.collinear(x, y, sf),
    "reduce_generators": lambda sf, A, B, x, y: ts.reduce_generators(
        np.column_stack([x, y, A]), sf
    ),
    "entrywise_leq": lambda sf, A, B, x, y: ts.entrywise_leq(A, B, sf),
    "spectral_summary": lambda sf, A, B, x, y: ts.spectral_summary(A, sf),
    "spectral_radius": lambda sf, A, B, x, y: ts.spectral_radius(A, sf),
    "big_tr": lambda sf, A, B, x, y: ts.big_tr(B, sf),
    "is_irreducible": lambda sf, A, B, x, y: ts.is_irreducible(A, sf),
    "objective": lambda sf, A, B, x, y: ts.objective(A, x, sf),
    "solve_linear_inequality": lambda sf, A, B, x, y: ts.solve_linear_inequality(B, sf),
    "compute_theta": lambda sf, A, B, x, y: ts.compute_theta(A, B, sf),
    "check_hypotheses": lambda sf, A, B, x, y: ts.check_hypotheses(A, B, sf),
    "solve_unconstrained": lambda sf, A, B, x, y: ts.solve_unconstrained(A, sf),
    "ProblemInstance": lambda sf, A, B, x, y: ts.ProblemInstance(A, B, sf),
    "solve_constrained": lambda sf, A, B, x, y: ts.solve_constrained(
        ts.ProblemInstance(A, B, sf), override_irreducibility=True
    ),
    "is_solution": lambda sf, A, B, x, y: ts.is_solution(ts.ProblemInstance(A, B, sf), y[0], x),
    "cycle_mean_oracle": lambda sf, A, B, x, y: ts.cycle_mean_oracle(A, sf),
    "theta_enumeration_oracle": lambda sf, A, B, x, y: ts.theta_enumeration_oracle(A, B, sf),
    "trace_binomial_rhs": lambda sf, A, B, x, y: ts.trace_binomial_rhs(A, B, 3, sf),
}


def negated(v):
    """A max-plus result read in min-plus: every scalar negated as ``0.0 - v``."""
    if isinstance(v, (np.ndarray, float)):
        return 0.0 - v
    if isinstance(v, ts.SolutionCone):
        return dataclasses.replace(
            v,
            theta=negated(v.theta),
            generators=negated(v.generators),
            closure_matrix=negated(v.closure_matrix),
        )
    if isinstance(v, ts.InequalitySolution):
        verdict = dataclasses.replace(v.verdict, tr_value=negated(v.verdict.tr_value))
        generators = None if v.generators is None else negated(v.generators)
        return dataclasses.replace(v, verdict=verdict, generators=generators)
    if isinstance(v, ts.SpectralSummary):
        traces = tuple((m, negated(t)) for m, t in v.per_power_traces)
        return ts.SpectralSummary(negated(v.radius), traces)
    if isinstance(v, ts.ProblemInstance):
        return (negated(v.A), negated(v.B))
    return v  # bool, None, dict of bools


def bits(v):
    """``v`` with every float replaced by its exact bytes, for comparison."""
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, ts.ProblemInstance):
        return bits((v.A, v.B))
    if dataclasses.is_dataclass(v):
        return tuple(bits(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (tuple, list)):
        return tuple(bits(e) for e in v)
    if isinstance(v, dict):
        return tuple((k, bits(e)) for k, e in v.items())
    return (type(v).__name__, v)


def holds_negative_zero(v) -> bool:
    if isinstance(v, np.ndarray):
        return bool(np.any((v == 0.0) & np.signbit(v)))
    if isinstance(v, float):
        return v == 0.0 and math.copysign(1.0, v) < 0
    if isinstance(v, ts.ProblemInstance):
        return holds_negative_zero((v.A, v.B))
    if dataclasses.is_dataclass(v):
        return any(holds_negative_zero(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (tuple, list)):
        return any(holds_negative_zero(e) for e in v)
    return False


def outcome(call, sf, args):
    try:
        return "ok", call(sf, *args)
    except TropicalError as exc:
        return "error", (type(exc), getattr(exc, "hypothesis", None), str(exc))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@PROPERTY_SETTINGS
@given(min_plus_cases())
def test_min_plus_is_negated_max_plus(case):
    # f(A, MIN_PLUS) must be f(0.0 - A, MAX_PLUS) read back through 0.0 - r,
    # bit for bit; errors keep their type and hypothesis and speak in the
    # caller's semifield
    mirrored = tuple(0.0 - v for v in case)
    for name, call in DUAL_CALLS.items():
        kind, got = outcome(call, MIN_PLUS, case)
        mkind, want = outcome(call, MAX_PLUS, mirrored)
        assert kind == mkind, name
        if kind == "error":
            assert got[:2] == want[:2], name
            assert "max-plus" not in got[2] and "min-plus" not in want[2], name
            continue
        assert bits(got) == bits(negated(want)), name
        assert not holds_negative_zero(got) and not holds_negative_zero(want), name
