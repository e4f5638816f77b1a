import warnings

import numpy as np
import pytest

import tropsolve as ts
from tropsolve import MAX_PLUS, MIN_PLUS, DomainError, HypothesisError, ResourceError, ShapeError

from helpers import (
    NEG_INF,
    batch_mat_vec,
    make_constrained_instance,
    rand_irreducible,
    rand_matrix,
    rand_regular_vector,
    shift_feasible,
)

A2 = ts.as_matrix([[0.0, -3.0], [-5.0, -2.0]])
B2 = ts.as_matrix([[0.0, -8.0], [5.0, -3.0]])


def worked_instance():
    return ts.ProblemInstance(A2, B2)


class TestObjective:
    def test_worked_example(self):
        assert ts.objective(A2, [0.0, 5.0]) == 2.0

    def test_identity_matrix_gives_one(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            x = rand_regular_vector(rng, n)
            assert ts.objective(ts.identity_matrix(n), x) == MAX_PLUS.one

    def test_invariant_under_scaling(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            A = rand_matrix(rng, n)
            x = rand_regular_vector(rng, n)
            c = float(rng.integers(-9, 10))
            assert ts.objective(A, x) == ts.objective(A, c + x)

    def test_rejects_non_regular_vectors(self):
        with pytest.raises(DomainError):
            ts.objective(A2, [0.0, NEG_INF])


class TestLinearInequality:
    def test_worked_example(self):
        result = ts.solve_linear_inequality(B2)
        assert result.verdict.feasible
        assert result.verdict.tr_value == 0.0
        assert np.array_equal(result.generators, [[0.0, -8.0], [5.0, 0.0]])
        assert result.warnings == ()

    def test_zero_matrix_is_unconstrained(self):
        result = ts.solve_linear_inequality(ts.zero_matrix(3))
        assert result.verdict.feasible
        assert np.array_equal(result.generators, ts.identity_matrix(3))

    def test_positive_diagonal_entry_is_infeasible(self):
        A = ts.as_matrix([[1.0, -8.0], [5.0, -3.0]])
        result = ts.solve_linear_inequality(A)
        assert not result.verdict.feasible
        assert result.generators is None
        assert result.verdict.tr_value == 2.0  # tr A (+) tr A**2

    def test_reducible_matrix_warns_about_completeness(self):
        A = ts.as_matrix([[-1.0, 0.0], [NEG_INF, -2.0]])
        result = ts.solve_linear_inequality(A)
        assert result.verdict.feasible
        assert any("completeness" in w for w in result.warnings)

    def test_star_family_solves_the_inequality(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            A = shift_feasible(rand_matrix(rng, n))
            result = ts.solve_linear_inequality(A)
            assert result.verdict.feasible
            U = rng.integers(-10, 11, size=(n, 10)).astype(float)
            X = batch_mat_vec(result.generators, U)
            assert bool(np.all(batch_mat_vec(A, X) <= X))


class TestComputeTheta:
    def test_worked_example(self):
        assert ts.compute_theta(A2, B2) == 2.0

    def test_zero_constraint_reduces_to_spectral_radius(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            A = rand_irreducible(rng, n)
            assert ts.compute_theta(A, ts.zero_matrix(n)) == ts.spectral_radius(A)

    def test_one_by_one(self):
        assert ts.compute_theta([[4.0]], [[-1.0]]) == 4.0

    def test_never_below_the_spectral_radius(self):
        # outside Tr(B) <= 1 compute_theta refuses; the paper's sum still
        # bounds lambda(A) from above there
        rng = np.random.default_rng(38)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            A, B = rand_matrix(rng, n), rand_matrix(rng, n)
            lam = ts.spectral_radius(A)
            if MAX_PLUS.leq(ts.big_tr(B), MAX_PLUS.one):
                assert MAX_PLUS.leq(lam, ts.compute_theta(A, B))
            else:
                with pytest.raises(HypothesisError) as exc:
                    ts.compute_theta(A, B)
                assert exc.value.hypothesis == "constraint feasibility"
                assert MAX_PLUS.leq(lam, ts.theta_enumeration_oracle(A, B))

    def test_enumeration_cap(self):
        n = 21
        A = ts.identity_matrix(n)
        with pytest.raises(ResourceError):
            ts.theta_enumeration_oracle(A, A)
        with pytest.raises(ResourceError):
            ts.theta_enumeration_oracle(ts.identity_matrix(5), ts.identity_matrix(5), cap=4)
        # the solver's formula has no cap
        assert ts.compute_theta(A, A) == 0.0

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            ts.compute_theta([[1e308] * 2] * 2, [[-1.0, -1.0], [-1.0, -1.0]])
        with pytest.raises(DomainError):
            ts.compute_theta([[0.0] * 2] * 2, [[-1.0, 1e308], [1e308, -1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ts.compute_theta(A2, ts.zero_matrix(3))


class TestSolveConstrained:
    def test_worked_example(self):
        cone = ts.solve_constrained(worked_instance())
        assert cone.theta == 2.0
        assert np.array_equal(cone.closure_matrix, [[0.0, -5.0], [5.0, 0.0]])
        assert np.array_equal(cone.generators, [[0.0], [5.0]])
        assert not cone.degenerate
        assert cone.warnings == ()

    def test_zero_constraint_matches_unconstrained(self):
        instance = ts.ProblemInstance(A2, ts.zero_matrix(2))
        cone = ts.solve_constrained(instance)
        free = ts.solve_unconstrained(A2)
        assert cone.theta == free.theta == 0.0
        assert np.array_equal(cone.closure_matrix, free.closure_matrix)

    def test_one_by_one(self):
        cone = ts.solve_constrained(ts.ProblemInstance([[4.0]], [[-1.0]]))
        assert cone.theta == 4.0
        assert np.array_equal(cone.generators, [[0.0]])

    def test_hypothesis_neither_irreducible(self):
        A = ts.as_matrix([[1.0, 0.0], [NEG_INF, 1.0]])
        B = ts.as_matrix([[-1.0, NEG_INF], [NEG_INF, -2.0]])
        with pytest.raises(HypothesisError, match="neither A nor B irreducible") as exc:
            ts.solve_constrained(ts.ProblemInstance(A, B))
        assert exc.value.hypothesis == "irreducibility"

    def test_hypothesis_zero_spectral_radius(self):
        A = ts.zero_matrix(2)
        with pytest.raises(HypothesisError, match="spectral radius") as exc:
            ts.solve_constrained(ts.ProblemInstance(A, B2))
        assert exc.value.hypothesis == "spectral radius"

    def test_hypothesis_infeasible_constraints(self):
        B = ts.as_matrix([[1.0, -8.0], [5.0, -3.0]])
        with pytest.raises(HypothesisError, match="no regular point") as exc:
            ts.solve_constrained(ts.ProblemInstance(A2, B))
        assert exc.value.hypothesis == "constraint feasibility"

    def test_cone_records_the_hypotheses(self):
        cone = ts.solve_constrained(worked_instance())
        assert cone.hypotheses == ts.check_hypotheses(A2, B2)
        A = ts.as_matrix([[1.0, 0.0], [NEG_INF, 1.0]])
        B = ts.as_matrix([[-1.0, NEG_INF], [NEG_INF, -2.0]])
        cone = ts.solve_constrained(ts.ProblemInstance(A, B), override_irreducibility=True)
        assert cone.hypotheses == ts.check_hypotheses(A, B)
        assert not (cone.hypotheses["irreducible_A"] or cone.hypotheses["irreducible_B"])

    def test_underflowing_cycle_still_has_a_nonzero_spectral_radius(self):
        # a 2-cycle of weight -2e308 would round to -inf in a sum of weights,
        # so the range guard refuses it where the pair enters, with no numpy
        # warning; at the guard's edge the cycle is an ordinary cycle
        A = ts.as_matrix([[NEG_INF, -1e308], [-1e308, NEG_INF]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (ts.check_hypotheses, ts.compute_theta):
                with pytest.raises(DomainError, match="out of range"):
                    call(A, B2)
            with pytest.raises(DomainError, match="out of range"):
                ts.solve_constrained(ts.ProblemInstance(A, B2))
            edge = 2.0**1000 / 4
            A = ts.as_matrix([[NEG_INF, -edge], [-edge, NEG_INF]])
            assert ts.check_hypotheses(A, B2)["spectral_radius_positive"]
            assert ts.solve_constrained(ts.ProblemInstance(A, B2)).theta == -edge

    @pytest.mark.parametrize(
        "pair_function",
        [
            ts.check_hypotheses,
            ts.compute_theta,
            ts.theta_enumeration_oracle,
            lambda A, B: ts.trace_binomial_rhs(A, B, 2),
        ],
        ids=["check_hypotheses", "compute_theta", "theta_enumeration_oracle", "trace_binomial_rhs"],
    )
    def test_pairs_are_validated_as_a_problem_instance(self, pair_function):
        # a size mismatch and a non-square pair are shape errors everywhere
        for A, B in [([[0, -1], [-1, 0]], [[0]]), ([[0, 1]], [[0, 1]])]:
            with pytest.raises(ShapeError):
                ts.ProblemInstance(A, B)
            with pytest.raises(ShapeError):
                pair_function(A, B)

    def test_override_emits_warnings_but_stays_sound(self):
        A = ts.as_matrix([[1.0, 0.0], [NEG_INF, 1.0]])
        B = ts.as_matrix([[-1.0, NEG_INF], [NEG_INF, -2.0]])
        instance = ts.ProblemInstance(A, B)
        cone = ts.solve_constrained(instance, override_irreducibility=True)
        assert cone.theta == 1.0
        assert any("neither A nor B" in w for w in cone.warnings)
        assert any("reducible" in w for w in cone.warnings)
        assert cone.degenerate
        # every regular combination of the closure still attains theta
        report = ts.sample_solution_family(instance, cone, trials=200, seed=2)
        real = [f for f in report.failures if f.kind != "regularity"]
        assert real == []

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            instance = ts.ProblemInstance([[1e308] * 2] * 2, [[-1.0, -1.0], [-1.0, -1.0]])
            ts.solve_constrained(instance)

    def test_n_64_solve_attains_planted_theta(self):
        # A <= 0 except a self-loop of weight 5 and B <= 0: every closed walk
        # of A (+) B weighs at most 5 per A-edge, and the self-loop attains it;
        # a zero-weight Hamiltonian cycle keeps A irreducible
        rng = np.random.default_rng(39)
        n = 64
        A = rand_matrix(rng, n, lo=-9, hi=0, zero_density=0.3)
        np.fill_diagonal(A[:, 1:], 0.0)
        A[-1, 0] = 0.0
        A[0, 0] = 5.0
        B = rand_matrix(rng, n, lo=-9, hi=0, zero_density=0.5)
        instance = ts.ProblemInstance(A, B)
        cone = ts.solve_constrained(instance)
        assert cone.theta == 5.0
        assert ts.sample_solution_family(instance, cone, trials=50, seed=4).passed

    def test_override_does_not_bypass_feasibility(self):
        B = ts.as_matrix([[1.0, -8.0], [5.0, -3.0]])
        with pytest.raises(HypothesisError):
            ts.solve_constrained(ts.ProblemInstance(A2, B), override_irreducibility=True)

    def test_homogeneous_in_the_objective_matrix(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            instance = make_constrained_instance(rng, 2)
            c = float(rng.integers(-9, 10))
            cone = ts.solve_constrained(instance)
            scaled = ts.solve_constrained(
                ts.ProblemInstance(ts.scalar_mul(c, instance.A), instance.B)
            )
            assert scaled.theta == c + cone.theta
            assert np.array_equal(scaled.closure_matrix, cone.closure_matrix)

    def test_membership_characterization(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            instance = make_constrained_instance(rng, n, multiple_of=6 if n == 3 else 1)
            cone = ts.solve_constrained(instance)
            u = rand_regular_vector(rng, cone.generators.shape[1])
            x = ts.mat_vec(cone.generators, u)
            assert ts.is_solution(instance, cone.theta, x)
            assert np.array_equal(ts.mat_vec(cone.closure_matrix, x), x)


class TestSolveUnconstrained:
    def test_worked_example(self):
        cone = ts.solve_unconstrained(A2)
        assert cone.theta == 0.0
        assert np.array_equal(cone.closure_matrix, [[0.0, -3.0], [-5.0, 0.0]])
        assert np.array_equal(cone.generators, cone.closure_matrix)

    def test_identity_is_reducible_for_n_at_least_two(self):
        with pytest.raises(HypothesisError):
            ts.solve_unconstrained(ts.identity_matrix(2))

    def test_one_by_one(self):
        cone = ts.solve_unconstrained([[7.0]])
        assert cone.theta == 7.0
        assert np.array_equal(cone.generators, [[0.0]])
        with pytest.raises(HypothesisError):
            ts.solve_unconstrained([[NEG_INF]])


class TestIsSolution:
    def test_worked_example(self):
        instance = worked_instance()
        assert ts.is_solution(instance, 2.0, [0.0, 5.0])
        assert not ts.is_solution(instance, 2.0, [0.0, 0.0])

    def test_generated_points_are_members(self):
        rng = np.random.default_rng(37)
        instance = worked_instance()
        cone = ts.solve_constrained(instance)
        for _ in range(100):
            u = rand_regular_vector(rng, cone.generators.shape[1])
            x = ts.mat_vec(cone.generators, u)
            assert ts.is_solution(instance, cone.theta, x)

    def test_rejects_non_regular(self):
        with pytest.raises(DomainError):
            ts.is_solution(worked_instance(), 2.0, [NEG_INF, 0.0])

    @pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.name)
    def test_rejects_a_theta_that_is_no_finite_scalar(self, sf):
        instance = ts.ProblemInstance([[1, 2], [3, 0]], [[-1, -5], [-5, -1]], sf)
        for theta in (float("nan"), -sf.zero, sf.zero):
            with pytest.raises(DomainError):
                ts.is_solution(instance, theta, [0, 1])

    def test_a_theta_outside_the_range_guard_is_refused_without_a_warning(self):
        # -theta + A would overflow in the combined matrix, so |theta| is
        # bounded by 2**1000 before any sum is formed
        instance = ts.ProblemInstance([[0, 2.5e300], [1, 0]], [[-1, -1], [-1, -1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="out of range"):
                ts.is_solution(instance, -1.7976931348623157e308, [0, 0])
            # theta**-1 A (+) B is B at theta = 2**1000, which fixes x = 0
            assert ts.is_solution(instance, 2.0**1000, [0, 0])
            assert not ts.is_solution(instance, -(2.0**1000), [0, 0])
