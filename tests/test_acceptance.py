"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every assertion is bitwise (``==`` on float64); random data is integer
valued, scaled where needed so that k-th roots stay exactly
representable.  Each test prints one ``criterion NN ...: PASS`` line on
success (run with ``pytest -s`` to see them; ``pytest -v`` shows the
per-test verdicts either way).
"""

import time

import numpy as np
import pytest

import tropsolve as ts
from tropsolve.cli import main

from helpers import (
    batch_mat_vec,
    batch_objective,
    make_constrained_instance,
    rand_irreducible,
    rand_matrix,
    shift_feasible,
    shift_infeasible,
)

A2 = ts.as_matrix([[0.0, -3.0], [-5.0, -2.0]])
B2 = ts.as_matrix([[0.0, -8.0], [5.0, -3.0]])


def _report(num: int, name: str) -> None:
    print(f"criterion {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def feasible_matrices():
    """500 random integer matrices with Tr(A) <= 1, shared by criteria 3 and 9."""
    rng = np.random.default_rng(93)
    out = []
    for _ in range(500):
        n = int(rng.integers(1, 5))
        out.append(shift_feasible(rand_matrix(rng, n)))
    return out


def test_criterion_01_worked_example():
    start = time.perf_counter()
    assert ts.spectral_radius(A2) == 0.0
    assert np.array_equal(ts.kleene_star(A2), [[0.0, -3.0], [-5.0, 0.0]])
    assert np.array_equal(ts.mat_mul(A2, B2), [[2.0, -6.0], [3.0, -5.0]])
    assert ts.compute_theta(A2, B2) == 2.0
    cone = ts.solve_constrained(ts.ProblemInstance(A2, B2))
    assert cone.theta == 2.0
    assert np.array_equal(cone.closure_matrix, [[0.0, -5.0], [5.0, 0.0]])
    assert np.array_equal(cone.generators, [[0.0], [5.0]])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "worked-example reproduction")


def test_criterion_02_trace_binomial_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(94)
    pairs = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        A = rand_matrix(rng, n, lo=-9, hi=9, zero_density=0.2)
        B = rand_matrix(rng, n, lo=-9, hi=9, zero_density=0.2)
        for m in range(1, 5):
            lhs = ts.trace(ts.mat_pow(ts.mat_add(A, B), m))
            assert lhs == ts.trace_binomial_rhs(A, B, m)
        pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs >= 1000
    assert elapsed < 10.0
    _report(2, f"trace binomial identity ({pairs} pairs, {elapsed:.1f}s)")


def test_criterion_03_inequality_sufficiency(feasible_matrices):
    rng = np.random.default_rng(95)
    for A in feasible_matrices:
        n = A.shape[0]
        assert ts.big_tr(A) <= 0.0
        S = ts.kleene_star(A)
        U = rng.integers(-10, 11, size=(n, 10)).astype(float)
        X = batch_mat_vec(S, U)
        assert bool(np.all(batch_mat_vec(A, X) <= X))
    _report(3, f"star family solves A x <= x ({len(feasible_matrices)} matrices)")


def test_criterion_04_inequality_infeasibility():
    rng = np.random.default_rng(96)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        A = shift_infeasible(rng, rand_matrix(rng, n))
        assert ts.big_tr(A) > 0.0
        X = rng.integers(-20, 21, size=(n, 10_000)).astype(float)
        solved = np.all(batch_mat_vec(A, X) <= X, axis=0)
        assert not solved.any()
    _report(4, "no sampled regular x solves A x <= x when Tr(A) > 1")


def test_criterion_05_constrained_soundness_and_lower_bound():
    rng = np.random.default_rng(97)
    feasible_samples = 0
    for size, mult, count in ((2, 1, 100), (3, 6, 100)):
        for _ in range(count):
            instance = make_constrained_instance(rng, size, multiple_of=mult)
            cone = ts.solve_constrained(instance)
            # attainment: every generated point is feasible with value theta
            U = rng.integers(-10, 11, size=(cone.generators.shape[1], 100)).astype(float)
            X = batch_mat_vec(cone.generators, U)
            assert bool(np.all(batch_mat_vec(instance.B, X) <= X))
            assert bool(np.all(batch_objective(instance.A, X) == cone.theta))
            # lower bound: rejection-sampled feasible points never beat theta
            collected = 0
            for _ in range(40):
                if collected >= 520:
                    break
                Y = rng.integers(-30, 31, size=(size, 4000)).astype(float)
                keep = np.all(batch_mat_vec(instance.B, Y) <= Y, axis=0)
                Y = Y[:, keep]
                if Y.shape[1]:
                    assert bool(np.all(batch_objective(instance.A, Y) >= cone.theta))
                    collected += Y.shape[1]
            feasible_samples += collected
    assert feasible_samples >= 100_000
    _report(5, f"constrained soundness and lower bound ({feasible_samples} feasible samples)")


def _grid_compatible_2x2(rng):
    """Random integer 2x2 instance whose optimizer cone meets the step-1 grid.

    The grid equality requires an exact optimizer on the lattice: theta
    must be integral and some integer offset d with (0, d) in the cone
    must fall inside the box.  Instances are drawn until both hold.
    """
    while True:
        instance = make_constrained_instance(rng, 2)
        cone = ts.solve_constrained(instance)
        if cone.theta != int(cone.theta):
            continue
        c12, c21 = cone.closure_matrix[0, 1], cone.closure_matrix[1, 0]
        lo = max(float(np.ceil(c21)), -15.0)
        hi = min(float(np.floor(-c12)), 15.0)
        if lo > hi:
            continue
        return instance, cone


def test_criterion_06_grid_oracle_equivalence():
    rng = np.random.default_rng(98)
    cases = [(ts.ProblemInstance(A2, B2), ts.solve_constrained(ts.ProblemInstance(A2, B2)))]
    cases += [_grid_compatible_2x2(rng) for _ in range(50)]
    for instance, cone in cases:
        start = time.perf_counter()
        report = ts.grid_min(instance, (-15.0, 15.0), 1.0)
        elapsed = time.perf_counter() - start
        assert report.feasible_found
        assert report.estimated_min == cone.theta
        assert elapsed < 5.0
    _report(6, f"grid oracle reproduces theta exactly ({len(cases)} instances)")


def test_criterion_07_cycle_mean_cross_check():
    rng = np.random.default_rng(99)
    for i in range(500):
        n = int(rng.integers(1, 7))
        density = (0.0, 0.2, 0.5)[i % 3]
        A = rand_matrix(rng, n, zero_density=density)
        assert ts.cycle_mean_oracle(A) == ts.spectral_radius(A)
    _report(7, "cycle enumeration matches the spectral radius (500 matrices)")


def test_criterion_08_zero_constraint_consistency():
    rng = np.random.default_rng(100)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        A = rand_irreducible(rng, n)
        assert ts.compute_theta(A, ts.zero_matrix(n)) == ts.spectral_radius(A)
    _report(8, "theta with zero constraints equals the spectral radius (500 matrices)")


def test_criterion_09_star_algebra(feasible_matrices):
    for A in feasible_matrices:
        S = ts.kleene_star(A)
        assert np.array_equal(ts.mat_mul(S, S), S)
        assert np.array_equal(ts.kleene_star(S), S)
    _report(9, f"star idempotence ({len(feasible_matrices)} matrices)")


SOLVE_JSON = (
    '{\n  "theta": "2",\n  "closure": [\n    [\n      "0",\n      "-5"\n    ],\n'
    '    [\n      "5",\n      "0"\n    ]\n  ],\n  "generators": [\n    [\n'
    '      "0"\n    ],\n    [\n      "5"\n    ]\n  ],\n  "reduced": true,\n'
    '  "degenerate": false,\n  "hypotheses": {\n    "irreducible_A": true,\n'
    '    "irreducible_B": true,\n    "spectral_radius_positive": true,\n'
    '    "constraint_feasible": true\n  },\n  "warnings": []\n}\n'
)
INEQUALITY_JSON = (
    '{\n  "feasible": false,\n  "tr": "2",\n  "generators": null,\n  "warnings": []\n}\n'
)
SPECTRAL_JSON = (
    '{\n  "lambda": "0",\n  "traces": [\n    [\n      1,\n      "0"\n    ],\n'
    '    [\n      2,\n      "0"\n    ]\n  ]\n}\n'
)


def test_criterion_10_cli_golden_runs(tmp_path, capsys):
    a = tmp_path / "a.mat"
    a.write_text("2 2\n0 -3\n-5 -2\n")
    b = tmp_path / "b.mat"
    b.write_text("2 2\n0 -8\n5 -3\n")
    b_infeasible = tmp_path / "binf.mat"
    b_infeasible.write_text("2 2\n1 -8\n5 -3\n")

    code = main(["solve", "-A", str(a), "-B", str(b), "--format", "json"])
    assert (code, capsys.readouterr().out) == (0, SOLVE_JSON)

    code = main(["inequality", "-A", str(b_infeasible), "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, INEQUALITY_JSON)
    assert "no regular solution" in captured.err

    code = main(["spectral", "-A", str(a), "--format", "json"])
    assert (code, capsys.readouterr().out) == (0, SPECTRAL_JSON)

    # byte stability: a second run reproduces the bytes
    code = main(["solve", "-A", str(a), "-B", str(b), "--format", "json"])
    assert (code, capsys.readouterr().out) == (0, SOLVE_JSON)
    _report(10, "CLI golden runs")
