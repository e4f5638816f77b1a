"""Dense vectors and square matrices over an idempotent semifield.

Matrices and vectors are ordinary ``numpy`` float64 arrays; every
operation takes the semifield as a keyword argument (default
``MAX_PLUS``) and validates its operands on entry, once.  The work is done
by private kernels (``_mm``, ``_star``, ``_reduce``) that take trusted
float64 arrays; the spectral and solver layers call them directly on
data they have already validated.  Functions are pure: inputs are never
mutated and results are freshly allocated, so arrays can be shared
freely between threads.

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
    if (np.isfinite(arr) | (arr == sf.zero)).all():
        return
    if np.isnan(arr).any():
        raise DomainError("NaN entries are not semifield scalars")
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


def _as_square(entries, sf: Semifield) -> np.ndarray:
    A = as_matrix(entries, sf)
    _square(A)
    return A


def zero_matrix(n: int, m: int | None = None, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """The n-by-m matrix with every entry equal to the zero element."""
    return np.full((n, n if m is None else m), sf.zero)


def identity_matrix(n: int, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """The identity: multiplicative one on the diagonal, zero elsewhere."""
    I = np.full((n, n), sf.zero)
    np.fill_diagonal(I, sf.one)
    return I


# entries of the one (n, k, m) temporary a small product may broadcast into
# (square n <= 50); larger products loop over the middle index.  Measured on a
# 2-core Xeon VM with numpy 2.4: the loop takes 1.3-2.6x the broadcast's time
# at n = 4..40, the same at n = 48, and 0.74-0.98x at n = 56..80.
_MM_BROADCAST_ENTRIES = 1 << 17


def _mm(A: np.ndarray, B: np.ndarray, sf: Semifield) -> np.ndarray:
    # (A B)_ij = (+)_k A_ik (x) B_kj; every temporary stays within
    # max(_MM_BROADCAST_ENTRIES, n m) entries, so memory is O(n m)
    if A.size * B.shape[1] <= _MM_BROADCAST_ENTRIES:
        return sf.np_reduce_add(A[:, :, None] + B[None, :, :], axis=1)
    out = A[:, 0, None] + B[0]
    term = np.empty_like(out)
    for k in range(1, A.shape[1]):
        np.add(A[:, k, None], B[k], out=term)
        sf.np_add(out, term, out=out)
    return out


def _mv(A: np.ndarray, x: np.ndarray, sf: Semifield) -> np.ndarray:
    return sf.np_reduce_add(A + x[None, :], axis=1)


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
    return _mv(A, x, sf)


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
    A = _as_square(A, sf)
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


def _star(A: np.ndarray, sf: Semifield) -> np.ndarray:
    # S_t = I (+) A (+) ... (+) A**(t-1) with P = A**t, built along the bits
    # of n from the top: S_2t = S_t (+) A**t S_t and S_(t+1) = S_t (+) A**t.
    # At most three products per bit, and no power beyond A**(n-1).
    n = A.shape[0]
    S, P = identity_matrix(n, sf), A
    bits = bin(n)[3:]
    for pos, bit in enumerate(bits):
        last = pos == len(bits) - 1
        S = sf.np_add(S, _mm(P, S, sf))
        if bit == "1" or not last:
            P = _mm(P, P, sf)
        if bit == "1":
            S = sf.np_add(S, P)
            if not last:
                P = _mm(P, A, sf)
    _check_entries(S, sf)
    return S


def kleene_star(A, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Bounded star ``I (+) A (+) ... (+) A**(n-1)`` of an n-by-n matrix.

    Built by binary expansion of n, with at most three products per bit
    of n (``O(n**3 log n)``), and exactly the bounded sum even when some
    cycle weight exceeds the identity.  When every cycle weight is at
    most the identity (``Tr(A) <= 1``) this generates all regular
    solutions of ``A x <= x``.  A path weight that overflows to the
    wrong-sign infinity raises :class:`DomainError`.
    """
    return _star(_as_square(A, sf), sf)


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


def _reduce(G: np.ndarray, sf: Semifield) -> np.ndarray:
    # Each column is tested against every kept column at once, with the
    # arithmetic of collinear(): equal zero patterns, c = y_i - x_i at the
    # first nonzero index i, then y == c + x on the nonzero entries.
    nonzero = G != sf.zero
    kept: list[int] = []
    for j in np.flatnonzero(nonzero.any(axis=0)):
        pattern = nonzero[:, j]
        same = np.array(kept, dtype=np.intp)
        same = same[np.all(nonzero[:, same] == pattern[:, None], axis=0)]
        if same.size:
            rows = np.flatnonzero(pattern)
            x, y = G[np.ix_(rows, same)], G[rows, j]
            c = y[0] - x[0]
            if np.all(y[:, None] == c + x, axis=0).any():
                continue
        kept.append(int(j))
    return G[:, kept or [0]]


def reduce_generators(G, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Drop generator columns that add nothing to the linear span.

    A column collinear with an earlier kept column (in the sense of
    :func:`collinear`, with the same arithmetic) is removed, as is any
    all-zero column (it is a zero multiple of every vector).  Kept
    columns stay in their original order; if every column is zero the
    first is kept so the result still has one column.
    """
    return _reduce(as_matrix(G, sf), sf)


def entrywise_leq(A, B, sf: Semifield = MAX_PLUS) -> bool:
    """True iff ``A <= B`` holds entrywise in the induced order.

    Operands may be matrices or vectors of any shape, the same for both.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    _check_entries(A, sf)
    _check_entries(B, sf)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch {A.shape} vs {B.shape}")
    return bool(np.all(sf.np_add(A, B) == B))
