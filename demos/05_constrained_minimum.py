"""The headline act: minimize x^- A x subject to B x <= x, in closed form.

Run with:  python3 demos/05_constrained_minimum.py
"""

import tropsolve as ts

A = ts.as_matrix([[0, -3], [-5, -2]])
B = ts.as_matrix([[0, -8], [5, -3]])
instance = ts.ProblemInstance(A, B)

# The paper's minimum is a finite trace sum, no iteration:
# theta = max over k and exponent tuples of tr(A B^i1 ... A B^ik)^(1/k).
# Since Tr(B) <= 0 it equals the spectral radius of A B*, which the
# solver computes in polynomial time; the oracle sums the 2^n - 1 terms.
theta = ts.compute_theta(A, B)
print("theta =", theta)
print("term-by-term sum agrees:", ts.theta_enumeration_oracle(A, B) == theta)

# The optimizers are exactly (theta^-1 A (+) B)* u over regular u.
cone = ts.solve_constrained(instance)
print("closure matrix =\n", cone.closure_matrix)
print("reduced generators =\n", cone.generators)

# Sample the family: every member is feasible and attains theta exactly.
family = ts.sample_solution_family(instance, cone, trials=1000, seed=42)
print("1000 sampled members, failures:", len(family.failures))

# Cross-check against brute force: evaluate the objective on a grid of
# candidate vectors (first coordinate pinned by scaling invariance) and
# keep the feasible ones.
report = ts.grid_min(instance, (-10, 10), 0.5)
print("grid minimum =", report.estimated_min, "at", report.argmin,
      f"({report.samples_evaluated} lattice points)")
print("grid agrees with the closed form:", report.estimated_min == theta)

# Membership of any regular vector can be tested directly.
print("is (0, 5) optimal?", ts.is_solution(instance, theta, [0, 5]))
print("is (0, 0) optimal?", ts.is_solution(instance, theta, [0, 0]))
