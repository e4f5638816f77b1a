import numpy as np
import pytest

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS, DomainError, ShapeError

from helpers import (
    NEG_INF,
    batch_objective,
    rand_irreducible,
    rand_matrix,
    rand_regular_vector,
)

A2 = [[0.0, -3.0], [-5.0, -2.0]]
B2 = [[0.0, -8.0], [5.0, -3.0]]


class TestSpectralRadius:
    def test_worked_example(self):
        assert ts.spectral_radius(A2) == 0.0
        summary = ts.spectral_summary(A2)
        assert summary.per_power_traces == ((1, 0.0), (2, 0.0))

    def test_diagonal_matrix(self):
        D = ts.zero_matrix(3)
        np.fill_diagonal(D, [1.0, -4.0, 7.0])
        assert ts.spectral_radius(D) == 7.0

    def test_matches_exhaustive_cycle_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            A = rand_matrix(rng, n)
            assert ts.spectral_radius(A) == ts.cycle_mean_oracle(A)

    def test_acyclic_pattern_gives_zero_element(self):
        A = ts.zero_matrix(3)
        A[0, 1] = 4.0
        A[1, 2] = 2.0
        assert ts.spectral_radius(A) == NEG_INF

    def test_homogeneous_under_scaling(self):
        # entries on a multiple-of-12 grid keep every k-th root integral,
        # which is what makes the float comparison exact
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            A = rand_matrix(rng, n, multiple_of=12)
            c = float(rng.integers(-9, 10))
            lam = ts.spectral_radius(A)
            scaled = ts.spectral_radius(ts.scalar_mul(c, A))
            if lam == NEG_INF:
                assert scaled == NEG_INF
            else:
                assert scaled == c + lam

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            ts.spectral_radius(ts.zero_matrix(2, 3))

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ts.spectral_radius([[1e308] * 2] * 2)
        with pytest.raises(DomainError):
            ts.spectral_radius(ts.as_matrix([[-1e308] * 2] * 2, MIN_PLUS), MIN_PLUS)

    def test_overflow_inside_karps_table_is_a_domain_error(self):
        # a path 0 -> 1 -> 2 of weight 2e308 and no cycle: the radius is the
        # zero element, but the walk weights in Karp's table would overflow,
        # so the range guard refuses the matrix; at the guard's edge
        # (2**1000 / 3**2) every walk weight is a float
        edge = 2.0**1000 / 9
        for sf, w in ((MAX_PLUS, 1e308), (MIN_PLUS, -1e308)):
            path = ts.zero_matrix(3, sf=sf)
            path[0, 1] = path[1, 2] = w
            with pytest.raises(DomainError, match="out of range"):
                ts.spectral_radius(path, sf)
            path[0, 1] = path[1, 2] = edge if w > 0 else -edge
            assert ts.spectral_radius(path, sf) == sf.zero


class TestExtremalProperty:
    def test_objective_is_bounded_below_by_radius(self):
        rng = np.random.default_rng(23)
        total = 0
        for _ in range(20):
            n = int(rng.integers(2, 5))
            A = rand_irreducible(rng, n)
            lam = ts.spectral_radius(A)
            X = rng.integers(-15, 16, size=(n, 5000)).astype(float)
            assert bool(np.all(batch_objective(A, X) >= lam))
            total += X.shape[1]
        assert total >= 100_000

    def test_scaled_star_columns_attain_the_radius(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            A = rand_irreducible(rng, n, multiple_of=12)
            lam = ts.spectral_radius(A)
            if lam == NEG_INF:
                continue
            S = ts.kleene_star(ts.scalar_mul(-lam, A))
            u = rand_regular_vector(rng, n)
            x = ts.mat_vec(S, u)
            assert ts.objective(A, x) == lam


class TestBigTr:
    def test_values(self):
        assert ts.big_tr(B2) == 0.0
        assert ts.big_tr(ts.zero_matrix(3)) == NEG_INF
        assert ts.big_tr(ts.identity_matrix(3)) == MAX_PLUS.one
        assert ts.big_tr([[1.0, -8.0], [5.0, -3.0]]) == 2.0

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ts.big_tr([[1e308] * 2] * 2)


class TestIrreducibility:
    def test_examples(self):
        assert ts.is_irreducible(A2)
        assert not ts.is_irreducible([[1.0, NEG_INF], [NEG_INF, 1.0]])
        assert ts.is_irreducible([[NEG_INF, 1.0], [1.0, NEG_INF]])

    def test_one_by_one_convention(self):
        assert ts.is_irreducible([[NEG_INF]])
        assert ts.is_irreducible([[3.0]])

    def test_block_triangular_is_reducible(self):
        A = ts.as_matrix([[0.0, 1.0, 2.0], [3.0, 0.0, 4.0], [NEG_INF, NEG_INF, 0.0]])
        assert not ts.is_irreducible(A)

    def test_invariant_under_simultaneous_permutation(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            A = rand_matrix(rng, n, zero_density=0.5)
            p = rng.permutation(n)
            assert ts.is_irreducible(A) == ts.is_irreducible(A[np.ix_(p, p)])


class TestTraceBinomial:
    def test_m_equal_one(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            assert ts.trace_binomial_rhs(A, B, 1) == MAX_PLUS.add(ts.trace(A), ts.trace(B))

    def test_worked_example_m_two(self):
        # terms: tr B**2 = 0, tr(AB) = 2, tr A**2 = 0
        assert ts.trace_binomial_rhs(A2, B2, 2) == 2.0
        assert ts.trace(ts.mat_pow(ts.mat_add(A2, B2), 2)) == 2.0

    def test_zero_objective_matrix_leaves_constraint_traces(self):
        rng = np.random.default_rng(27)
        for m in range(1, 5):
            B = rand_matrix(rng, 3)
            Z = ts.zero_matrix(3)
            assert ts.trace_binomial_rhs(Z, B, m) == ts.trace(ts.mat_pow(B, m))

    def test_identity_holds_exactly(self):
        rng = np.random.default_rng(28)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            m = int(rng.integers(1, 5))
            lhs = ts.trace(ts.mat_pow(ts.mat_add(A, B), m))
            assert lhs == ts.trace_binomial_rhs(A, B, m)
            checked += 1
        assert checked == 1000
