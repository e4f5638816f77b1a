"""Spectral radius: Karp's cycle mean, the trace formula and cycle enumeration.

Run with:  python3 demos/03_spectral_radius.py
"""

import numpy as np

import tropsolve as ts

A = ts.as_matrix([[0, -3], [-5, -2]])

# The spectral radius is the best mean weight of a cycle in the weighted
# digraph, computed by Karp's algorithm; the paper writes it as the max
# over m of the m-th root of tr(A^m), which spectral_summary also reports.
summary = ts.spectral_summary(A)
print("per-power traces:", summary.per_power_traces)
print("spectral radius:", summary.radius)
print("trace formula agrees:", max(t / m for m, t in summary.per_power_traces) == summary.radius)
print("cycle-mean oracle agrees:", ts.cycle_mean_oracle(A) == summary.radius)

# It is also the minimum of x^- A x over regular x, attained on the
# columns of (lambda^-1 A)*.
cone = ts.solve_unconstrained(A)
print("unconstrained minimum:", cone.theta)
rng = np.random.default_rng(0)
for _ in range(3):
    u = rng.integers(-5, 6, size=2).astype(float)
    x = ts.mat_vec(cone.generators, u)
    print("  objective at generated x =", ts.objective(A, x))

# Irreducibility (a strongly connected pattern) is what guarantees a
# unique eigenvalue; a block-triangular pattern is reducible.
R = ts.as_matrix([[0, 1], [float("-inf"), 0]])
print("A irreducible:", ts.is_irreducible(A), "  R irreducible:", ts.is_irreducible(R))
