"""Memory and work bounds of the kernels at n = 256, counted, not timed."""

import math
import tracemalloc

import numpy as np
import pytest

import tropsolve as ts
from tropsolve import spectral, tensor

from helpers import rand_matrix

N = 256


@pytest.fixture(scope="module")
def big():
    # entries <= 0 keep every cycle weight at most the identity
    return rand_matrix(np.random.default_rng(61), N, lo=-9, hi=0, zero_density=0.3)


def traced_peak(fn, *args) -> int:
    """Bytes allocated by ``fn(*args)`` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name, call",
    [
        ("mat_mul", lambda A: ts.mat_mul(A, A)),
        ("kleene_star", ts.kleene_star),
        ("spectral_radius", ts.spectral_radius),
    ],
)
def test_working_memory_is_quadratic(big, name, call):
    # sixteen n-by-n float64 matrices; one (n, n, n) temporary would be 128 MiB
    assert traced_peak(call, big) < 16 * N * N * 8, name


@pytest.fixture
def products(monkeypatch):
    """Count every semiring matrix product, wherever it is called from."""
    calls = []
    inner = tensor._mm

    def counted(A, B):
        calls.append(A.shape)
        return inner(A, B)

    monkeypatch.setattr(tensor, "_mm", counted)
    monkeypatch.setattr(spectral, "_mm", counted)
    return calls


def test_feasible_star_takes_no_product(big, products):
    # no cycle of big is positive, so Floyd-Warshall alone builds the star
    ts.kleene_star(big)
    assert products == []


def test_star_takes_logarithmically_many_products(big, products):
    # a positive self-loop makes Tr > 1, where the doubling star runs
    infeasible = big.copy()
    infeasible[0, 0] = 1.0
    ts.kleene_star(infeasible)
    assert 0 < len(products) <= 4 * math.ceil(math.log2(N))


def test_spectral_radius_takes_no_product(big, products):
    ts.spectral_radius(big)
    assert products == []
