"""Seeded input generation for every workload, with no call into tropsolve.

Values come from numpy, strong connectivity from ``scipy.sparse.csgraph``
and the ``Tr(B) <= 0`` shift from the benchmark's own Karp, so a change
to the library cannot change the data it is measured on.  Each pool is
a list of ops in the order one pass runs them; ``digest`` fingerprints
the arrays so two commits can be shown to get identical inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

import refs

WORKLOADS = ("small_solve", "theta_enum", "kernel_scale", "cli")


@dataclass
class Op:
    """One call into the library with the reference answers to check it against."""

    kind: str  # "constrained" | "unconstrained" | "inequality" | a CLI subcommand
    n: int
    density: float
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    ref: dict = field(default_factory=dict)
    fmt: str | None = None  # CLI output format


def rand_matrix(rng, n: int, density: float, scale: float) -> np.ndarray:
    M = rng.integers(-9, 10, size=(n, n)).astype(np.float64) * scale
    M[rng.random((n, n)) < density] = refs.NEG_INF
    return M


def _strongly_connected(M: np.ndarray) -> bool:
    count, _ = connected_components(np.isfinite(M), directed=True, connection="strong")
    return count == 1


def _irreducible(rng, n: int, density: float, scale: float) -> np.ndarray:
    while True:
        M = rand_matrix(rng, n, density, scale)
        if _strongly_connected(M):
            return M


def _feasible(rng, n: int, density: float, scale: float) -> np.ndarray:
    """Random matrix shifted down by a multiple of ``scale`` until ``Tr <= 0``."""
    B = rand_matrix(rng, n, density, scale)
    lam = refs.karp(B)
    if lam > 0:
        B = B - scale * math.ceil(lam / scale)
    return B


def _constrained(rng, n: int, density: float, scale: float) -> Op:
    A = _irreducible(rng, n, density, scale)
    B = _feasible(rng, n, density, scale)
    return Op("constrained", n, density, A, B, {"theta": refs.theta(A, B)})


def _unconstrained(rng, n: int, density: float) -> Op:
    A = _irreducible(rng, n, density, 1.0)
    lam = refs.karp_exact(A)
    # a mean whose denominator has an odd factor is not a float64 value
    dyadic = lam.denominator & (lam.denominator - 1) == 0
    return Op("unconstrained", n, density, A, None, {"lambda": refs.karp(A), "dyadic": dyadic})


def _inequality(rng, n: int, density: float) -> Op:
    B = _feasible(rng, n, density, 1.0)
    S = refs.star(B)
    return Op("inequality", n, density, None, B, {"star": S, "tr": refs.big_tr(B, S)})


def small_solve(rng) -> list[Op]:
    # 3 sizes x 2 densities, 20 instances each; 12 = lcm(1..4) keeps theta exact
    return [
        _constrained(rng, n, d, 12.0)
        for _ in range(20)
        for n in (2, 3, 4)
        for d in (0.2, 0.5)
    ]


def theta_enum(rng) -> list[Op]:
    # n = 11 appears three times per pass so the median op lies inside one
    # size class instead of on the gap between two
    return [
        _constrained(rng, n, d, float(math.lcm(*range(1, n + 1))))
        for n in (9, 10, 11, 11, 11, 12)
        for d in (0.2, 0.6)
    ]


def kernel_scale(rng) -> list[Op]:
    # n = 128 costs ~1 s an op, so smaller sizes repeat; with these counts the
    # median op is an n = 64 inequality, not a gap between two sizes.  Sizes
    # are interleaved so each op type is sampled at several moments of a pass.
    sizes = (48, 48, 48, 64, 64, 96, 128)
    ops = []
    for j in range(4):
        for s, n in enumerate(sizes):
            d = (0.2, 0.9)[j // 2]
            # len(sizes) is odd, so this alternates the two kinds op by op
            if (j + s) % 2 == 0:
                ops.append(_unconstrained(rng, n, d))
            else:
                ops.append(_inequality(rng, n, d))
    return ops


CLI_SMALL = ("solve", "theta", "verify")
CLI_LARGE = ("unconstrained", "inequality", "spectral", "star")


def cli(rng) -> list[Op]:
    small = _constrained(rng, 4, 0.2, 12.0)
    A = _irreducible(rng, 16, 0.5, 1.0)
    B = _feasible(rng, 16, 0.5, 1.0)
    S = refs.star(B)
    ref = {"lambda": refs.karp(A), "tr": refs.big_tr(B, S), "star": S, "theta": small.ref["theta"]}
    ops = []
    for i, cmd in enumerate(CLI_SMALL + CLI_LARGE + CLI_SMALL + CLI_LARGE):
        big = cmd in CLI_LARGE
        ops.append(
            Op(
                cmd,
                16 if big else 4,
                0.5 if big else 0.2,
                A if big else small.A,
                B if big else small.B,
                ref,
                "text" if i % 2 == 0 else "json",
            )
        )
    return ops


def generate(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return globals()[workload](rng)


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.kind}:{op.n}:{op.density}:{op.fmt}".encode())
        for M in (op.A, op.B):
            if M is not None:
                h.update(np.ascontiguousarray(M).tobytes())
    return h.hexdigest()[:16]
