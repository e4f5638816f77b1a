import dataclasses

import numpy as np
import pytest

import tropsolve as ts
from tropsolve import MIN_PLUS, DomainError, ResourceError

from helpers import NEG_INF, make_constrained_instance

A2 = ts.as_matrix([[0.0, -3.0], [-5.0, -2.0]])
B2 = ts.as_matrix([[0.0, -8.0], [5.0, -3.0]])


def worked_instance():
    return ts.ProblemInstance(A2, B2)


class TestGridMin:
    def test_worked_example(self):
        report = ts.grid_min(worked_instance(), (-10.0, 10.0), 0.5)
        assert report.feasible_found
        assert report.estimated_min == 2.0
        assert report.argmin == (0.0, 5.0)
        assert report.samples_evaluated == 41  # first coordinate pinned
        assert report.grid_box == ((-10.0, 10.0), (-10.0, 10.0))

    def test_unconstrained_cross_check(self):
        instance = ts.ProblemInstance(A2, ts.zero_matrix(2))
        report = ts.grid_min(instance, (-10.0, 10.0), 0.5)
        assert report.estimated_min == 0.0 == ts.spectral_radius(A2)
        # ties break toward the lexicographically smallest grid point
        assert report.argmin == (0.0, -5.0)

    def test_infeasible_constraints_found_empty(self):
        B = ts.as_matrix([[1.0, -8.0], [5.0, -3.0]])
        report = ts.grid_min(ts.ProblemInstance(A2, B), (-10.0, 10.0), 1.0)
        assert not report.feasible_found
        assert report.estimated_min is None and report.argmin is None
        assert report.samples_evaluated == 21

    def test_without_pinning(self):
        report = ts.grid_min(worked_instance(), (-6.0, 6.0), 1.0, pin_first=False)
        assert report.samples_evaluated == 13 * 13
        assert report.estimated_min == 2.0
        assert report.argmin == (-6.0, -1.0)

    def test_per_coordinate_boxes(self):
        report = ts.grid_min(worked_instance(), [(-1.0, 1.0), (4.0, 6.0)], 1.0)
        assert report.estimated_min == 2.0
        assert report.argmin == (0.0, 5.0)

    def test_estimate_never_undercuts_the_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            instance = make_constrained_instance(rng, 2)
            cone = ts.solve_constrained(instance)
            report = ts.grid_min(instance, (-15.0, 15.0), 1.0)
            if report.feasible_found:
                assert report.estimated_min >= cone.theta

    def test_reports_are_reproducible(self):
        a = ts.grid_min(worked_instance(), (-10.0, 10.0), 0.5)
        b = ts.grid_min(worked_instance(), (-10.0, 10.0), 0.5)
        assert a == b
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_max_plus_only(self):
        Z = ts.as_matrix([[0.0]], MIN_PLUS)
        instance = ts.ProblemInstance(Z, Z, MIN_PLUS)
        with pytest.raises(DomainError):
            ts.grid_min(instance, (-5.0, 5.0), 1.0)

    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            ts.grid_min(worked_instance(), (-10.0, 10.0), 0.0)
        with pytest.raises(DomainError):
            ts.grid_min(worked_instance(), (10.0, -10.0), 1.0)

    def test_size_cap(self):
        # default box, step 1: n = 4 needs 4 * 4 * 21**3 = 148176 entries
        Z4 = ts.zero_matrix(4)
        np.fill_diagonal(Z4, 0.0)
        report = ts.grid_min(ts.ProblemInstance(Z4, Z4), (-10.0, 10.0), 1.0)
        assert report.samples_evaluated == 21**3
        Z6 = ts.zero_matrix(6)
        with pytest.raises(ResourceError, match="cap"):
            ts.grid_min(ts.ProblemInstance(Z6, Z6), (-10.0, 10.0), 1.0)
        # a box too wide for its step is refused, not overflowed
        with pytest.raises(ResourceError):
            ts.grid_min(worked_instance(), (-1e308, 1e308), 1e-300)


class TestThetaEnumerationOracle:
    def test_worked_example(self):
        # terms: tr A = 0 at k = 1; tr(A B) = 2 and tr(A A) = 0 at k = 2
        assert ts.theta_enumeration_oracle(A2, B2) == 2.0

    def test_matches_compute_theta_when_constraint_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            instance = make_constrained_instance(rng, n, multiple_of=60)
            expected = ts.theta_enumeration_oracle(instance.A, instance.B)
            assert ts.compute_theta(instance.A, instance.B) == expected


class TestTraceBinomialRhs:
    def test_worked_example(self):
        lhs = ts.trace(ts.mat_pow(ts.mat_add(A2, B2), 3))
        assert ts.trace_binomial_rhs(A2, B2, 3) == lhs

    def test_cap_is_checked_before_any_product(self, monkeypatch):
        def no_product(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(ts.oracle, "_mm", no_product)
        assert ts.THETA_ENUMERATION_CAP == 20
        with pytest.raises(ResourceError, match="m = 21"):
            ts.trace_binomial_rhs(A2, B2, 21)


class TestCycleMeanOracle:
    def test_worked_example(self):
        # cycles: self-loop 0, self-loop -2, two-cycle mean (-3 - 5) / 2
        assert ts.cycle_mean_oracle(A2) == 0.0

    def test_diagonal(self):
        D = ts.zero_matrix(3)
        np.fill_diagonal(D, [1.0, -4.0, 7.0])
        assert ts.cycle_mean_oracle(D) == 7.0

    def test_no_cycles(self):
        assert ts.cycle_mean_oracle(ts.zero_matrix(4)) == NEG_INF

    def test_cap(self):
        with pytest.raises(ResourceError):
            ts.cycle_mean_oracle(ts.zero_matrix(9))
        assert ts.cycle_mean_oracle(ts.zero_matrix(9), cap=9) == NEG_INF

    def test_min_plus_uses_the_mirrored_order(self):
        A = ts.as_matrix([[0.0, -3.0], [-5.0, -2.0]], MIN_PLUS)
        assert ts.cycle_mean_oracle(A, MIN_PLUS) == -4.0 == ts.spectral_radius(A, MIN_PLUS)


class TestSampleSolutionFamily:
    def test_worked_example_has_no_failures(self):
        instance = worked_instance()
        cone = ts.solve_constrained(instance)
        report = ts.sample_solution_family(instance, cone, trials=1000, seed=17)
        assert report.passed
        assert report.trials == 1000

    def test_zero_trials_is_a_vacuous_pass(self):
        instance = worked_instance()
        cone = ts.solve_constrained(instance)
        report = ts.sample_solution_family(instance, cone, trials=0, seed=0)
        assert report.passed and report.failures == ()

    def test_corrupted_cone_is_reported(self):
        instance = worked_instance()
        cone = ts.solve_constrained(instance)
        broken = dataclasses.replace(cone, theta=cone.theta + 1.0)
        report = ts.sample_solution_family(instance, broken, trials=50, seed=17)
        assert not report.passed
        assert all(f.kind == "objective" for f in report.failures)
        assert all(f.observed == 2.0 for f in report.failures)

    def test_same_seed_reproduces_byte_for_byte(self):
        instance = worked_instance()
        cone = ts.solve_constrained(instance)
        a = ts.sample_solution_family(instance, cone, trials=100, seed=5)
        b = ts.sample_solution_family(instance, cone, trials=100, seed=5)
        assert a == b


class TestScalarClose:
    def test_integer_aligned_data_compares_exactly(self):
        assert ts.scalar_close(2.0, 2.0)
        assert not ts.scalar_close(2.0, 3.0)  # both integral: no tolerance
        assert ts.scalar_close(2.0, 2.0 + 1e-12)  # non-integral side: tolerance applies
        assert ts.scalar_close(0.5, 0.5 + 1e-12)
        assert not ts.scalar_close(0.5, 0.5 + 1e-6)
        assert ts.scalar_close(NEG_INF, NEG_INF)
        assert not ts.scalar_close(NEG_INF, 2.0)
        assert not ts.scalar_close(None, 2.0)
        assert ts.scalar_close(None, None)
