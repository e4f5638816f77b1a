"""Spectral radius, the Tr feasibility function, and irreducibility.

The spectral radius of a square matrix is the best cycle mean of its
digraph; it equals the extremal value ``min over regular x of x^- A x``.
It is computed by Karp's algorithm (Karp, Discrete Math. 23, 1978) in
``O(n**3)`` time and ``O(n**2)`` memory.  ``big_tr`` is the related
feasibility function deciding whether ``A x <= x`` has regular
solutions, read from the bounded star as ``tr(A A*)``.  The traces of
the powers of ``A``, whose m-th roots the paper sums to the same radius,
are formed only by :func:`spectral_summary`, which reports them.
``spectral_summary``, ``spectral_radius`` and ``big_tr`` bound their
matrix on entry with the range guard of :mod:`tropsolve.tensor` (every
finite ``|entry| <= 2**1000 / n**2``), so no walk weight in Karp's table,
the star or the powers can leave the float range, and no value is checked
after the fact.  The kernels are max-plus only; a ``MIN_PLUS`` matrix is
negated once on entry and each result once on exit, which is exact (see
:mod:`tropsolve.tensor`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .semiring import MAX_PLUS, Semifield
from .tensor import _flip, _image, _mm, _star

__all__ = [
    "SpectralSummary",
    "spectral_summary",
    "spectral_radius",
    "big_tr",
    "is_irreducible",
]


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral radius together with the per-power traces of the paper's formula.

    ``per_power_traces`` holds ``(m, tr(A**m))`` for ``m = 1..n``; the
    radius equals the idempotent sum of their m-th roots.
    """

    radius: float
    per_power_traces: tuple[tuple[int, float], ...]


def _karp(A: np.ndarray) -> float:
    # D[k, v]: best walk of exactly k edges ending at v, starting anywhere;
    # lambda = max over v with finite D[n, v] of the min over k < n of
    # (D[n, v] - D[k, v]) / (n - k).  Each candidate is one correctly
    # rounded division, as in tr(A**m) / m.
    n = A.shape[0]
    D = np.empty((n + 1, n))
    D[0] = 0.0
    for k in range(1, n + 1):
        D[k] = np.max(D[k - 1][:, None] + A, axis=0)
    ends = D[n] != -np.inf
    if not ends.any():
        return -np.inf
    # an unreachable D[k, v] (-inf) gives a +inf ratio, which the min
    # ignores, and D[0, v] is always finite
    ratios = (D[n, ends] - D[:n, ends]) / (n - np.arange(n))[:, None]
    return float(np.max(np.min(ratios, axis=0)))


def _tr(A: np.ndarray, S: np.ndarray) -> float:
    # Tr(A) = tr(A S) with S = A*: max_ik A_ik + S_ki, no product formed
    return float(np.max(A + S.T))


def _power_traces(A: np.ndarray, sf: Semifield) -> list[tuple[int, float]]:
    n = A.shape[0]
    out = []
    P = A
    for m in range(1, n + 1):
        out.append((m, float(_flip(np.max(np.diagonal(P)), sf))))
        if m < n:
            P = _mm(P, A)
    return out


def spectral_summary(A, sf: Semifield = MAX_PLUS) -> SpectralSummary:
    """Spectral radius with the traces ``tr(A**m)``, m = 1..n, for display."""
    A = _image(A, sf, "walks")
    return SpectralSummary(
        radius=_flip(_karp(A), sf), per_power_traces=tuple(_power_traces(A, sf))
    )


def spectral_radius(A, sf: Semifield = MAX_PLUS) -> float:
    """Maximal eigenvalue: the best cycle mean, equal to the (+)-sum over
    m = 1..n of tr(A**m) ** (1/m)."""
    return _flip(_karp(_image(A, sf, "walks")), sf)


def big_tr(A, sf: Semifield = MAX_PLUS) -> float:
    """Feasibility function ``Tr(A) = tr A (+) ... (+) tr A**n = tr(A A*)``.

    ``A x <= x`` has regular solutions iff ``Tr(A) <= 1`` (the identity
    element); equivalently, iff no cycle weight exceeds the identity.
    """
    A = _image(A, sf, "walks")
    return _flip(_tr(A, _star(A)), sf)


def _reaches_all(edges: np.ndarray) -> bool:
    # level-synchronous breadth-first search from node 0
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _irreducible(A: np.ndarray) -> bool:
    edges = A != -np.inf
    return A.shape[0] == 1 or (_reaches_all(edges) and _reaches_all(edges.T))


def is_irreducible(A, sf: Semifield = MAX_PLUS) -> bool:
    """True iff the nonzero-pattern digraph of ``A`` is strongly connected.

    Equivalent to: no simultaneous row/column permutation puts ``A`` in
    block-triangular form.  A 1x1 matrix is irreducible by convention
    regardless of its entry.
    """
    return _irreducible(_image(A, sf, "square"))
