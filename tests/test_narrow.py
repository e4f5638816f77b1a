"""The float32 Floyd-Warshall and Karp passes give bitwise the float64 results.

``tensor._narrow`` hands ``_star`` and ``_karp`` a float32 copy of integer
data with ``n * max |entry| <= 2**22``, from ``n = _NARROW_MIN`` up.  Each
public result is compared bitwise with the narrow path forced on at every
size and forced off, in both semifields.
"""

import warnings

import numpy as np
import pytest

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS, tensor

from helpers import rand_matrix

SIZES = (tensor._NARROW_MIN - 1, tensor._NARROW_MIN, 48)

CALLS = {
    "kleene_star": ts.kleene_star,
    "big_tr": ts.big_tr,
    "spectral_radius": ts.spectral_radius,
    "solve_unconstrained": ts.solve_unconstrained,
    "solve_linear_inequality": ts.solve_linear_inequality,
}


def cases(n):
    """Named max-plus integer matrices, and whether they are narrow data."""
    rng = np.random.default_rng(n)
    edge = 2**22 // n  # the largest integer x with n * x <= 2**22
    for density in (0.0, 0.3, 0.6, 0.9):
        yield f"zeros {density}", rand_matrix(rng, n, zero_density=density), True
    feasible = rand_matrix(rng, n, lo=-9, hi=0, zero_density=0.3)
    feasible[rng.random((n, n)) < 0.2] = -0.0
    feasible[1] = -np.inf
    yield "-0.0 entries and an all-zero row", feasible, True
    loop = feasible.copy()
    loop[0, 0] = 1.0
    yield "positive self-loop", loop, True
    # walks of large weight with random low bits: a float32 sum past 2**24
    # would round them
    deep = rng.integers(-edge, -edge // 2, size=(n, n)).astype(np.float64)
    deep[rng.random((n, n)) < 0.3] = -np.inf
    deep[0, 1] = -edge
    yield "at the bound, no positive cycle", deep, True
    mixed = rng.integers(-edge, edge + 1, size=(n, n)).astype(np.float64)
    mixed[0, 1], mixed[1, 0] = edge, -edge
    yield "at the bound, signs mixed", mixed, True
    for sign in (1, -1):
        past = deep.copy()
        past[1, 2] = sign * (edge + 1)
        yield f"one past the bound ({sign:+d})", past, False
    yield "sevenths", feasible / 7, False


def outcome(call, A, sf):
    """Every bit of a public result, or the error it raised."""
    try:
        result = call(A, sf)
    except ts.TropicalError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, float):
        return np.float64(result).tobytes()
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, ts.InequalitySolution):
        verdict = result.verdict
        gens = None if result.generators is None else result.generators.tobytes()
        return verdict.feasible, np.float64(verdict.tr_value).tobytes(), gens, result.warnings
    return (
        np.float64(result.theta).tobytes(),
        result.generators.dtype.str,
        result.generators.shape,
        result.generators.tobytes(),
        result.closure_matrix.tobytes(),
        result.degenerate,
        result.warnings,
    )


@pytest.mark.parametrize("n", SIZES)
def test_the_narrow_path_is_bitwise_the_float64_path(n, monkeypatch):
    for label, A, narrow in cases(n):
        for sf in (MAX_PLUS, MIN_PLUS):
            data = A if sf is MAX_PLUS else 0.0 - A
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                monkeypatch.setattr(tensor, "_NARROW_MIN", 1)
                assert (tensor._narrow(A).dtype == np.float32) == narrow, label
                on = {name: outcome(call, data, sf) for name, call in CALLS.items()}
                monkeypatch.setattr(tensor, "_NARROW_MIN", 10**9)
                off = {name: outcome(call, data, sf) for name, call in CALLS.items()}
            for name in CALLS:
                assert on[name] == off[name], (label, sf.name, name)


def test_a_float32_overflow_only_selects_the_power(monkeypatch):
    # every cycle is positive and every entry is at the narrow bound, so the
    # float32 pass doubles walk weights past its range (about 2**128) before
    # it ends; the diagonal is then +inf, never <= 0, and the star is the
    # float64 power (I (+) A)**127
    n = 128
    A = np.full((n, n), 2.0**22 / n)
    assert tensor._narrow(A).dtype == np.float32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = ts.kleene_star(A)
        monkeypatch.setattr(tensor, "_NARROW_MIN", 10**9)
        off = ts.kleene_star(A)
    assert S.dtype == np.float64
    assert S.tobytes() == off.tobytes()
    assert np.array_equal(S, np.full((n, n), (n - 1) * 2.0**22 / n))
