"""Reference answers computed without tropsolve.

Every function here is independent of the library: Karp's maximum cycle
mean, a max-plus Floyd-Warshall closure, and the constrained minimum
``theta = lambda(A B*)``, which equals the paper's trace sum when
``Tr(B) <= 0`` (Butkovic, Max-linear Systems, 2010).  On integer data
each result is the correctly rounded value of an exact rational, so it
must agree with the library bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

NEG_INF = float("-inf")


def maxplus_mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Max-plus matrix product, one column of ``B`` at a time."""
    out = np.empty((A.shape[0], B.shape[1]))
    for j in range(B.shape[1]):
        out[:, j] = np.max(A + B[:, j][None, :], axis=1)
    return out


def maxplus_broadcast_mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Max-plus product through one ``(n, n, n)`` temporary (calibration only)."""
    return np.max(A[:, :, None] + B[None, :, :], axis=1)


def _karp_table(A: np.ndarray) -> np.ndarray:
    # D[k, v]: heaviest walk of exactly k edges ending at v, starting anywhere
    n = A.shape[0]
    D = np.empty((n + 1, n))
    D[0] = 0.0
    for k in range(1, n + 1):
        D[k] = np.max(D[k - 1][:, None] + A, axis=0)
    return D


def karp(A: np.ndarray) -> float:
    """Maximum cycle mean of ``A`` (Karp 1978); ``-inf`` if acyclic."""
    n = A.shape[0]
    D = _karp_table(A)
    ends = np.isfinite(D[n])
    if not ends.any():
        return NEG_INF
    head = D[:n, ends]
    with np.errstate(invalid="ignore"):
        ratios = (D[n, ends][None, :] - head) / (n - np.arange(n))[:, None]
    ratios[~np.isfinite(head)] = np.inf
    return float(np.max(np.min(ratios, axis=0)))


def karp_exact(A: np.ndarray) -> Fraction | None:
    """Maximum cycle mean as an exact fraction (integer entries only)."""
    n = A.shape[0]
    D = _karp_table(A)
    best = None
    for v in range(n):
        if not np.isfinite(D[n, v]):
            continue
        m = min(
            Fraction(int(D[n, v] - D[k, v]), n - k) for k in range(n) if np.isfinite(D[k, v])
        )
        best = m if best is None else max(best, m)
    return best


def star(B: np.ndarray) -> np.ndarray:
    """Bounded star ``I (+) B (+) ... (+) B^(n-1)`` by Floyd-Warshall.

    Valid when no cycle of ``B`` is positive: the heaviest walk is then a
    simple path, which the bounded star already covers.
    """
    S = B.copy()
    for k in range(S.shape[0]):
        S = np.maximum(S, S[:, k : k + 1] + S[k : k + 1, :])
    np.fill_diagonal(S, np.maximum(np.diagonal(S), 0.0))
    return S


def big_tr(B: np.ndarray, S: np.ndarray) -> float:
    """``Tr(B)`` = heaviest simple cycle, given ``S = star(B)`` with no positive cycle."""
    return float(np.max(np.diagonal(maxplus_mm(B, S))))


def theta(A: np.ndarray, B: np.ndarray) -> float:
    """Constrained minimum ``lambda(A B*)``; needs ``Tr(B) <= 0``."""
    return karp(maxplus_mm(A, star(B)))


def objective(A: np.ndarray, x: np.ndarray) -> float:
    """``x^- A x`` for a regular vector ``x``."""
    return float(np.max(np.max(A + x[None, :], axis=1) - x))


def sub_solution(M: np.ndarray, x: np.ndarray) -> bool:
    """True iff ``M x <= x`` holds entrywise."""
    return bool(np.all(np.max(M + x[None, :], axis=1) <= x))


def token(x: float) -> str:
    """Max-plus scalar token as the CLI prints it."""
    if x == NEG_INF:
        return "-inf"
    if x == int(x):
        return str(int(x))
    return repr(x)
