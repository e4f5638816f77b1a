"""The benchmark's references agree with tropsolve and its oracles.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import refs

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
import tropsolve as ts  # noqa: E402

SEEDS = range(40)


def _instance(seed: int, n: int, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    density = (0.2, 0.5, 0.8)[seed % 3]
    A = inputs._irreducible(rng, n, density, scale)
    B = inputs._feasible(rng, n, density, scale)
    return A, B


@pytest.mark.parametrize("seed", SEEDS)
def test_karp_matches_cycle_oracle_and_spectral_radius(seed):
    n = 2 + seed % 7
    rng = np.random.default_rng(seed)
    A = inputs.rand_matrix(rng, n, (0.2, 0.5, 0.8)[seed % 3], 1.0)
    lam = refs.karp(A)
    assert lam == ts.cycle_mean_oracle(A)
    assert lam == ts.spectral_radius(A)
    exact = refs.karp_exact(A)
    assert (lam == refs.NEG_INF) if exact is None else lam == float(exact)


@pytest.mark.parametrize("seed", SEEDS)
def test_star_and_tr_match_library(seed):
    _, B = _instance(seed, 2 + seed % 10)
    S = refs.star(B)
    assert np.array_equal(S, ts.kleene_star(B))
    assert refs.big_tr(B, S) == ts.big_tr(B)


@pytest.mark.parametrize("seed", SEEDS)
def test_theta_matches_compute_theta(seed):
    n = 2 + seed % 7
    A, B = _instance(seed, n, float(math.lcm(*range(1, n + 1))))
    assert refs.theta(A, B) == ts.compute_theta(A, B)


@pytest.mark.parametrize("x", [-math.inf, 0.0, -3.0, 12.0, 7.5, 23 / 3])
def test_token_matches_format_scalar(x):
    assert refs.token(x) == ts.MAX_PLUS.format_scalar(x)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_per_seed(workload):
    assert inputs.digest(inputs.generate(workload, 3)) == inputs.digest(inputs.generate(workload, 3))
    assert inputs.digest(inputs.generate(workload, 3)) != inputs.digest(inputs.generate(workload, 4))


def test_inputs_do_not_import_tropsolve():
    code = "import sys, inputs; inputs.generate('small_solve', 0); print('tropsolve' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).parent, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
