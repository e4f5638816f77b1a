"""Dense vectors and square matrices over an idempotent semifield.

Matrices and vectors are ordinary ``numpy`` float64 arrays; every
operation takes the semifield as a keyword argument (default
``MAX_PLUS``) and validates its operands on entry.  Functions are pure:
inputs are never mutated and results are freshly allocated, so arrays can
be shared freely between threads.

The zero element of the semifield (``-inf`` in max-plus) doubles as the
missing-edge marker: a matrix is interpreted as a weighted digraph with
an edge ``i -> j`` wherever ``A[i, j]`` is nonzero.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .semiring import MAX_PLUS, Semifield

__all__ = [
    "as_matrix",
    "as_vector",
    "zero_matrix",
    "identity_matrix",
    "mat_add",
    "mat_mul",
    "mat_vec",
    "mat_pow",
    "scalar_mul",
    "trace",
    "conjugate",
    "kleene_star",
    "is_regular",
    "collinear",
    "reduce_generators",
    "entrywise_leq",
]


def _check_entries(arr: np.ndarray, sf: Semifield) -> None:
    if np.isnan(arr).any():
        raise DomainError("NaN entries are not semifield scalars")
    bad = np.isinf(arr) & (arr != sf.zero)
    if bad.any():
        raise DomainError(
            f"infinite entry with the wrong sign for {sf.name} "
            f"(zero element is {sf.format_scalar(sf.zero)})"
        )


def as_matrix(entries, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Copy ``entries`` into a validated float64 matrix (both sizes >= 1)."""
    try:
        A = np.array(entries, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"not a rectangular matrix: {exc}") from None
    if A.ndim != 2 or min(A.shape) < 1:
        raise ShapeError(f"expected a 2-d matrix with positive sizes, got shape {A.shape}")
    _check_entries(A, sf)
    return A


def as_vector(entries, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Copy ``entries`` into a validated float64 vector of length >= 1."""
    x = np.array(entries, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"expected a 1-d vector of positive length, got shape {x.shape}")
    _check_entries(x, sf)
    return x


def _square(A: np.ndarray) -> int:
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    return A.shape[0]


def zero_matrix(n: int, m: int | None = None, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """The n-by-m matrix with every entry equal to the zero element."""
    return np.full((n, n if m is None else m), sf.zero)


def identity_matrix(n: int, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """The identity: multiplicative one on the diagonal, zero elsewhere."""
    I = np.full((n, n), sf.zero)
    np.fill_diagonal(I, sf.one)
    return I


def _mm(A: np.ndarray, B: np.ndarray, sf: Semifield) -> np.ndarray:
    # (A B)_ij = (+)_k A_ik (x) B_kj, vectorized over the middle axis
    return sf.np_reduce_add(A[:, :, None] + B[None, :, :], axis=1)


def mat_add(A, B, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Entrywise idempotent addition; shapes must agree."""
    A, B = as_matrix(A, sf), as_matrix(B, sf)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch {A.shape} vs {B.shape}")
    return sf.np_add(A, B)


def mat_mul(A, B, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Semiring matrix product; inner dimensions must agree."""
    A, B = as_matrix(A, sf), as_matrix(B, sf)
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"inner dimension mismatch {A.shape} vs {B.shape}")
    return _mm(A, B, sf)


def mat_vec(A, x, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Matrix-vector product ``A x``."""
    A, x = as_matrix(A, sf), as_vector(x, sf)
    if A.shape[1] != x.shape[0]:
        raise ShapeError(f"dimension mismatch {A.shape} vs {x.shape}")
    return sf.np_reduce_add(A + x[None, :], axis=1)


def mat_pow(A, p: int, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """``p``-th power of a square matrix; ``A ** 0`` is the identity."""
    A = as_matrix(A, sf)
    n = _square(A)
    if p < 0 or p != int(p):
        raise DomainError(f"matrix power wants a nonnegative integer, got {p!r}")
    P = identity_matrix(n, sf)
    for _ in range(int(p)):
        P = _mm(P, A, sf)
    return P


def scalar_mul(c: float, A, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Entrywise multiplication of a matrix (or vector) by a scalar."""
    c = sf.scalar(c)
    A = np.array(A, dtype=np.float64)
    _check_entries(A, sf)
    return c + A


def trace(A, sf: Semifield = MAX_PLUS) -> float:
    """Idempotent sum of the diagonal entries."""
    A = as_matrix(A, sf)
    _square(A)
    return float(sf.np_reduce_add(np.diagonal(A)))


def conjugate(x, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Conjugate row vector: elementwise inverse where nonzero, zero elsewhere.

    Defined for nonzero vectors only; the all-zero vector has no
    conjugate.  The result is returned as a plain 1-d array whose row
    orientation is contextual.
    """
    x = as_vector(x, sf)
    if bool(np.all(x == sf.zero)):
        raise DomainError("the all-zero vector has no conjugate")
    return np.where(x == sf.zero, sf.zero, -x + 0.0)


def kleene_star(A, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Bounded star ``I (+) A (+) ... (+) A**(n-1)`` of an n-by-n matrix.

    Horner-style accumulation, n - 1 multiply-adds.  When every cycle
    weight is at most the identity (``Tr(A) <= 1``) this generates all
    regular solutions of ``A x <= x``.  A path weight that overflows to
    the wrong-sign infinity raises :class:`DomainError`.
    """
    A = as_matrix(A, sf)
    n = _square(A)
    I = identity_matrix(n, sf)
    S = I
    for _ in range(n - 1):
        S = sf.np_add(I, _mm(A, S, sf))
    _check_entries(S, sf)
    return S


def is_regular(x, sf: Semifield = MAX_PLUS) -> bool:
    """True iff the vector has no zero elements."""
    x = as_vector(x, sf)
    return bool(np.all(x != sf.zero))


def collinear(x, y, sf: Semifield = MAX_PLUS) -> float | None:
    """Scalar ``c`` with ``y = c (x) x`` if one exists, else ``None``.

    The zero patterns of ``x`` and ``y`` must coincide; ``c`` is read off
    the first index where both are nonzero and then checked exactly
    everywhere else.
    """
    x, y = as_vector(x, sf), as_vector(y, sf)
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch {x.shape} vs {y.shape}")
    fx = x != sf.zero
    fy = y != sf.zero
    if not fx.any() or not fy.any():
        raise DomainError("collinearity is defined for nonzero vectors")
    if not np.array_equal(fx, fy):
        return None
    i = int(np.argmax(fx))
    c = float(y[i] - x[i])
    return c if bool(np.all(y[fx] == c + x[fx])) else None


def reduce_generators(G, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Drop generator columns that add nothing to the linear span.

    A column collinear with an earlier kept column is removed, as is any
    all-zero column (it is a zero multiple of every vector).  Kept
    columns stay in their original order; if every column is zero the
    first is kept so the result still has one column.
    """
    G = as_matrix(G, sf)
    kept: list[int] = []
    for j in range(G.shape[1]):
        col = G[:, j]
        if bool(np.all(col == sf.zero)):
            continue
        if any(collinear(G[:, i], col, sf) is not None for i in kept):
            continue
        kept.append(j)
    if not kept:
        kept = [0]
    return G[:, kept].copy()


def entrywise_leq(A, B, sf: Semifield = MAX_PLUS) -> bool:
    """True iff ``A <= B`` holds entrywise in the induced order."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch {A.shape} vs {B.shape}")
    return bool(np.all(sf.np_add(A, B) == B))
