"""The range guard: functions that sum walk weights bound their data on entry.

Every finite entry of an n-by-n matrix must satisfy ``|x| <= 2**1000 /
n**2`` (and ``|theta|``, ``|x_i| <= 2**1000`` in ``is_solution``).  At the edge a
guarded function returns scalars only and warns of nothing; one ulp past
it, it raises the guard's one :class:`DomainError`, in either semifield.
Inside the guard no walk weight overflows or underflows, so the library
cannot contradict itself through a rounded infinity.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS, DomainError

LIMIT = 2.0**1000
N = 3
EDGE = LIMIT / N**2
OUT_OF_RANGE = "entry out of range"


def mirror(v, sf):
    """Max-plus data read in ``sf``: negated (``0.0 - v``) for min-plus."""
    return v if sf is MAX_PLUS else 0.0 - v


def edge_data(beyond=False):
    """Max-plus ``A``, ``B``, ``theta`` and a regular ``x`` whose largest
    magnitudes are the guard's edge, or one ulp past it.

    ``A`` is irreducible with a zero element and ``Tr(A) > 1``; ``B`` has
    ``Tr(B) <= 1``, so every guarded function returns at the edge.
    """
    past = np.nextafter(EDGE, math.inf) if beyond else EDGE
    A = np.array([[-EDGE, past, -math.inf], [-EDGE, -EDGE, EDGE], [EDGE, -EDGE, -EDGE]])
    B = np.full((N, N), -EDGE)
    B[1, 0] = -past
    theta = np.nextafter(LIMIT, math.inf) if beyond else LIMIT
    return A, B, theta, np.array([0.0, 1.0, theta])


def edge_instance(sf):
    A, B, _, _ = edge_data()
    return ts.ProblemInstance(mirror(A, sf), mirror(B, sf), sf)


GUARDED = {
    "ProblemInstance": lambda sf, A, B, theta, x: ts.ProblemInstance(A, B, sf),
    "compute_theta": lambda sf, A, B, theta, x: ts.compute_theta(A, B, sf),
    "check_hypotheses": lambda sf, A, B, theta, x: ts.check_hypotheses(A, B, sf),
    "solve_constrained": lambda sf, A, B, theta, x: ts.solve_constrained(
        ts.ProblemInstance(A, B, sf)
    ),
    "solve_unconstrained": lambda sf, A, B, theta, x: ts.solve_unconstrained(A, sf),
    "solve_linear_inequality": lambda sf, A, B, theta, x: ts.solve_linear_inequality(B, sf),
    "kleene_star": lambda sf, A, B, theta, x: ts.kleene_star(A, sf),
    "big_tr": lambda sf, A, B, theta, x: ts.big_tr(A, sf),
    "spectral_radius": lambda sf, A, B, theta, x: ts.spectral_radius(A, sf),
    "spectral_summary": lambda sf, A, B, theta, x: ts.spectral_summary(A, sf),
    "is_solution": lambda sf, A, B, theta, x: ts.is_solution(edge_instance(sf), theta, x),
}


def floats_of(v):
    """Every float in a result: array entries, scalars, and the fields of
    result objects, recursively."""
    if isinstance(v, np.ndarray):
        yield from v.ravel().tolist()
    elif isinstance(v, float):
        yield v
    elif isinstance(v, ts.ProblemInstance):
        yield from floats_of((v.A, v.B))
    elif dataclasses.is_dataclass(v):
        for f in dataclasses.fields(v):
            yield from floats_of(getattr(v, f.name))
    elif isinstance(v, (tuple, list)):
        for e in v:
            yield from floats_of(e)
    elif isinstance(v, dict):
        yield from floats_of(list(v.values()))


def call_without_warnings(name, sf, beyond):
    A, B, theta, x = (mirror(v, sf) for v in edge_data(beyond))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return GUARDED[name](sf, A, B, theta, x)


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
@pytest.mark.parametrize("name", list(GUARDED))
def test_at_the_edge_only_scalars_come_back(name, sf):
    result = call_without_warnings(name, sf, beyond=False)
    for v in floats_of(result):
        assert not math.isnan(v), name
        assert math.isfinite(v) or v == sf.zero, name


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
@pytest.mark.parametrize("name", list(GUARDED))
def test_one_ulp_past_the_edge_is_the_guards_error(name, sf):
    with pytest.raises(DomainError, match=OUT_OF_RANGE):
        call_without_warnings(name, sf, beyond=True)


def test_the_underflowing_cycle_is_refused_without_a_warning():
    # the 3-cycle's edges weigh -1e308: its walks would round to -inf, the
    # zero element, and give B* zero entries although B is irreducible
    B = np.full((3, 3), -math.inf)
    B[0, 1] = B[1, 2] = B[2, 0] = -1e308
    assert ts.is_irreducible(B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=OUT_OF_RANGE):
            ts.check_hypotheses(np.zeros((3, 3)), B)
        with pytest.raises(DomainError, match=OUT_OF_RANGE):
            ts.kleene_star(B)


@st.composite
def pairs_up_to_the_edge(draw, max_n=6):
    """Integer patterns in [-9, 9] scaled by up to ``edge / 9``; draws above
    9 become the zero element."""
    sf = draw(st.sampled_from([MAX_PLUS, MIN_PLUS]))
    n = draw(st.integers(1, max_n))
    scale = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0))) * LIMIT / n**2 / 9
    extra_zeros = draw(st.integers(0, 10))

    def block():
        cells = st.lists(st.integers(-9, 9 + extra_zeros), min_size=n * n, max_size=n * n)
        k = np.array(draw(cells))
        return np.where(k > 9, sf.zero, k * scale).reshape(n, n)

    return sf, block(), block()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairs_up_to_the_edge())
def test_is_irreducible_agrees_with_check_hypotheses(case):
    sf, A, B = case
    try:
        hypotheses = ts.check_hypotheses(A, B, sf)
    except DomainError as exc:
        # 9 * (edge / 9) can round one ulp past the edge
        assert OUT_OF_RANGE in str(exc)
        assume(False)
    assert ts.is_irreducible(B, sf) == hypotheses["irreducible_B"]
