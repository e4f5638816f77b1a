"""Spectral radius, the Tr feasibility function, and irreducibility.

The spectral radius of a square matrix is computed from traces of its
powers; it equals the extremal value ``min over regular x of x^- A x``
and the best cycle mean of the associated digraph.  ``big_tr`` is the
related feasibility function deciding whether ``A x <= x`` has regular
solutions.  Every trace is checked to be a scalar of the semifield, so
an overflow to the wrong-sign infinity raises :class:`DomainError`
instead of passing for a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ShapeError
from .semiring import MAX_PLUS, Semifield
from .tensor import _mm, as_matrix

__all__ = [
    "SpectralSummary",
    "spectral_summary",
    "spectral_radius",
    "big_tr",
    "is_irreducible",
]


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral radius together with the per-power traces it came from.

    ``per_power_traces`` holds ``(m, tr(A**m))`` for ``m = 1..n``; the
    radius is the idempotent sum of their m-th roots.
    """

    radius: float
    per_power_traces: tuple[tuple[int, float], ...]


def _power_traces(A: np.ndarray, sf: Semifield) -> list[tuple[int, float]]:
    n = A.shape[0]
    out = []
    P = A
    for m in range(1, n + 1):
        out.append((m, sf.scalar(sf.np_reduce_add(np.diagonal(P)))))
        if m < n:
            P = _mm(P, A, sf)
    return out


def spectral_summary(A, sf: Semifield = MAX_PLUS) -> SpectralSummary:
    A = as_matrix(A, sf)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    traces = _power_traces(A, sf)
    lam = sf.zero
    for m, t in traces:
        lam = sf.add(lam, sf.rational_pow(t, Fraction(1, m)))
    return SpectralSummary(radius=lam, per_power_traces=tuple(traces))


def spectral_radius(A, sf: Semifield = MAX_PLUS) -> float:
    """Maximal eigenvalue: the (+)-sum over m = 1..n of tr(A**m) ** (1/m)."""
    return spectral_summary(A, sf).radius


def big_tr(A, sf: Semifield = MAX_PLUS) -> float:
    """Feasibility function ``Tr(A) = tr A (+) ... (+) tr A**n``.

    ``A x <= x`` has regular solutions iff ``Tr(A) <= 1`` (the identity
    element); equivalently, iff no cycle weight exceeds the identity.
    """
    A = as_matrix(A, sf)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    acc = sf.zero
    for _, t in _power_traces(A, sf):
        acc = sf.add(acc, t)
    return acc


def _reachable(adj: list[list[int]], start: int) -> np.ndarray:
    seen = np.zeros(len(adj), dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return seen


def is_irreducible(A, sf: Semifield = MAX_PLUS) -> bool:
    """True iff the nonzero-pattern digraph of ``A`` is strongly connected.

    Equivalent to: no simultaneous row/column permutation puts ``A`` in
    block-triangular form.  A 1x1 matrix is irreducible by convention
    regardless of its entry.
    """
    A = as_matrix(A, sf)
    n = A.shape[0]
    if n != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    if n == 1:
        return True
    pattern = A != sf.zero
    fwd = [list(np.nonzero(pattern[i])[0]) for i in range(n)]
    bwd = [list(np.nonzero(pattern[:, i])[0]) for i in range(n)]
    return bool(_reachable(fwd, 0).all() and _reachable(bwd, 0).all())
