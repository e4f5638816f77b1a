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


@pytest.fixture(scope="module")
def one_cycle_closure():
    # the closure of one zero-weight cycle through all n nodes: every column
    # is a multiple of every other, so the n columns form one class
    w = np.random.default_rng(63).integers(-9, 10, size=N).astype(np.float64)
    w[-1] -= w.sum()
    A = np.full((N, N), -np.inf)
    A[np.arange(N), (np.arange(N) + 1) % N] = w
    return ts.kleene_star(A)


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


def with_self_loop(A):
    """``A`` with a positive self-loop, so ``Tr(A) > 1``."""
    A = A.copy()
    A[0, 0] = 1.0
    return A


@pytest.mark.parametrize(
    "name, call",
    [
        ("mat_mul", lambda A: ts.mat_mul(A, A)),
        ("kleene_star", ts.kleene_star),
        ("kleene_star_tr_above_one", lambda A: ts.kleene_star(with_self_loop(A))),
        ("mat_pow", lambda A: ts.mat_pow(A, 5)),
        ("spectral_radius", ts.spectral_radius),
        ("reduce_generators", lambda A: ts.reduce_generators(ts.kleene_star(A))),
    ],
)
def test_working_memory_is_quadratic(big, name, call):
    # sixteen n-by-n float64 matrices; one (n, n, n) temporary would be 128 MiB
    assert traced_peak(call, big) < 16 * N * N * 8, name


def test_small_integer_data_takes_the_float32_kernels(big):
    # n * max |entry| <= 2**22 (16384 at n = 256) on integer data only
    assert tensor._narrow(big).dtype == np.float32
    edge = big.copy()
    edge[0, 1], edge[1, 0] = 2**22 // N, -(2**22 // N)
    assert tensor._narrow(edge).dtype == np.float32
    above, below = edge.copy(), edge.copy()
    above[0, 1] += 1
    below[1, 0] -= 1
    small = big[: tensor._NARROW_MIN - 1, : tensor._NARROW_MIN - 1]
    for X in (big / 7, above, below, small):
        assert tensor._narrow(X) is X


def test_star_and_karp_run_on_the_narrow_copy(big, monkeypatch):
    dtypes = []
    inner = tensor._narrow

    def recorded(A):
        narrowed = inner(A)
        dtypes.append(narrowed.dtype)
        return narrowed

    monkeypatch.setattr(tensor, "_narrow", recorded)
    monkeypatch.setattr(spectral, "_narrow", recorded)
    ts.kleene_star(big)
    ts.spectral_radius(big)
    assert dtypes == [np.float32, np.float32]


def test_one_zero_weight_cycle_reduces_to_one_column(one_cycle_closure):
    assert ts.reduce_generators(one_cycle_closure).shape == (N, 1)
    assert traced_peak(ts.reduce_generators, one_cycle_closure) < 16 * N * N * 8


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
    # Tr > 1, where the star is the power (I (+) A)**(n-1) by squaring
    ts.kleene_star(with_self_loop(big))
    assert 0 < len(products) <= 4 * math.ceil(math.log2(N))


def test_huge_power_takes_logarithmically_many_products(products):
    # entries <= 0: no overflow, and a p-product loop would never finish
    A = rand_matrix(np.random.default_rng(62), 3, lo=-9, hi=0)
    ts.mat_pow(A, 10**18)
    assert 0 < len(products) <= 120


def test_spectral_radius_takes_no_product(big, products):
    ts.spectral_radius(big)
    assert products == []
