"""Dense vectors and square matrices over an idempotent semifield.

Matrices and vectors are ordinary ``numpy`` float64 arrays; every
operation takes the semifield as a keyword argument (default
``MAX_PLUS``) and validates its operands on entry, once.  Functions are
pure: inputs are never mutated and results are freshly allocated, so
arrays can be shared freely between threads.

One sign convention runs below the public functions.  ``MIN_PLUS`` is
the image of ``MAX_PLUS`` under ``x -> -x``, and IEEE negation is exact,
so caller data is negated once where it is validated (``_image``), every
private kernel (``_mm``, ``_mv``, ``_star``, ``_reduce``) is a max-plus
kernel on trusted float64 arrays, and each result is negated back once
(``_flip``).  Results are bitwise those of min-plus arithmetic, with
``0.0 - x`` in place of ``-x`` so that no ``-0.0`` appears.  The
spectral and solver layers call the kernels directly on data they have
already validated.

The zero element of the semifield (``-inf`` in max-plus) doubles as the
missing-edge marker: a matrix is interpreted as a weighted digraph with
an edge ``i -> j`` wherever ``A[i, j]`` is nonzero.  A result entry that
overflows to the wrong-sign infinity (``+inf`` in the max-plus image) is
no scalar: ``mat_mul``, ``mat_vec``, ``mat_pow``, ``scalar_mul`` and
``kleene_star`` raise :class:`DomainError` for it.

The bounded star is one Floyd-Warshall pass, ``O(n**3)`` time and
``O(n**2)`` memory, whenever no cycle weight exceeds the identity.  Every
star the solver builds is such a matrix, unless a non-float ``theta``
was rounded so that a cycle comes out one ulp above it.  A matrix with
such a cycle (``Tr > 1``) falls back to the doubling star,
``O(n**3 log n)``.  Generator reduction of a closure (zero diagonal)
tests only the columns that lie on a common zero-weight cycle with an
earlier column, found in ``O(n**2)``.
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


def _check_entries(X, sf: Semifield | None = None) -> None:
    # a max-plus image holds finite entries and -inf only; for caller data
    # the message names the caller's semifield, for a kernel result none
    if (X < np.inf).all():
        return
    if np.isnan(X).any():
        raise DomainError("NaN entries are not semifield scalars")
    if sf is None:
        raise DomainError("infinite entry with the wrong sign after an overflow")
    raise DomainError(
        f"infinite entry with the wrong sign for {sf.name} "
        f"(zero element is {sf.format_scalar(sf.zero)})"
    )


def _flip(X, sf: Semifield):
    # the max-plus image of caller data, and the caller's view of a kernel
    # result: the identity in max-plus, 0.0 - X in min-plus (never -0.0)
    return X if sf is MAX_PLUS else 0.0 - X


def _image(entries, sf: Semifield, kind: str = "array") -> np.ndarray:
    """The one entry for caller data: a checked float64 copy of ``entries``
    as its max-plus image.

    ``kind`` is ``"vector"`` (1-d, length >= 1), ``"matrix"`` (2-d, both
    sizes >= 1), ``"square"`` or ``"array"`` (any shape).  Ragged or
    non-numeric data and a wrong shape raise :class:`ShapeError`; NaN and
    the infinity opposite to the zero element raise :class:`DomainError`.
    """
    try:
        X = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        noun = "matrix" if kind in ("matrix", "square") else "array"
        raise ShapeError(f"not a rectangular {noun}: {exc}") from None
    if kind == "vector" and (X.ndim != 1 or X.shape[0] < 1):
        raise ShapeError(f"expected a 1-d vector of positive length, got shape {X.shape}")
    if kind in ("matrix", "square") and (X.ndim != 2 or min(X.shape) < 1):
        raise ShapeError(f"expected a 2-d matrix with positive sizes, got shape {X.shape}")
    X = _flip(X, sf)
    _check_entries(X, sf)
    if kind == "square" and X.shape[0] != X.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {X.shape}")
    return X


def as_matrix(entries, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Copy ``entries`` into a validated float64 matrix (both sizes >= 1)."""
    return _flip(_image(entries, sf, "matrix"), sf)


def as_vector(entries, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Copy ``entries`` into a validated float64 vector of length >= 1."""
    return _flip(_image(entries, sf, "vector"), sf)


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


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # (A B)_ij = max_k A_ik + B_kj; every temporary stays within
    # max(_MM_BROADCAST_ENTRIES, n m) entries, so memory is O(n m)
    if A.size * B.shape[1] <= _MM_BROADCAST_ENTRIES:
        return np.max(A[:, :, None] + B[None, :, :], axis=1)
    out = A[:, 0, None] + B[0]
    term = np.empty_like(out)
    for k in range(1, A.shape[1]):
        np.add(A[:, k, None], B[k], out=term)
        np.maximum(out, term, out=out)
    return out


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.max(A + x[None, :], axis=1)


def mat_add(A, B, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Entrywise idempotent addition; shapes must agree."""
    A, B = _image(A, sf, "matrix"), _image(B, sf, "matrix")
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch {A.shape} vs {B.shape}")
    return _flip(np.maximum(A, B), sf)


def mat_mul(A, B, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Semiring matrix product; inner dimensions must agree."""
    A, B = _image(A, sf, "matrix"), _image(B, sf, "matrix")
    if A.shape[1] != B.shape[0]:
        raise ShapeError(f"inner dimension mismatch {A.shape} vs {B.shape}")
    P = _mm(A, B)
    _check_entries(P)
    return _flip(P, sf)


def mat_vec(A, x, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Matrix-vector product ``A x``."""
    A, x = _image(A, sf, "matrix"), _image(x, sf, "vector")
    if A.shape[1] != x.shape[0]:
        raise ShapeError(f"dimension mismatch {A.shape} vs {x.shape}")
    y = _mv(A, x)
    _check_entries(y)
    return _flip(y, sf)


def mat_pow(A, p: int, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """``p``-th power of a square matrix; ``A ** 0`` is the identity."""
    A = _image(A, sf, "square")
    if p < 0 or p != int(p):
        raise DomainError(f"matrix power wants a nonnegative integer, got {p!r}")
    P = identity_matrix(A.shape[0])
    for _ in range(int(p)):
        P = _mm(P, A)
    # +inf from an overflow survives every later product (or turns into NaN)
    _check_entries(P)
    return _flip(P, sf)


def scalar_mul(c: float, A, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Entrywise multiplication of a matrix (or vector) by a scalar."""
    X = _flip(sf.scalar(c), sf) + _image(A, sf)
    _check_entries(X)
    return _flip(X, sf)


def trace(A, sf: Semifield = MAX_PLUS) -> float:
    """Idempotent sum of the diagonal entries."""
    return _flip(float(np.max(np.diagonal(_image(A, sf, "square")))), sf)


def conjugate(x, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Conjugate row vector: elementwise inverse where nonzero, zero elsewhere.

    Defined for nonzero vectors only; the all-zero vector has no
    conjugate.  The result is returned as a plain 1-d array whose row
    orientation is contextual.
    """
    x = _image(x, sf, "vector")
    if bool(np.all(x == -np.inf)):
        raise DomainError("the all-zero vector has no conjugate")
    return _flip(np.where(x == -np.inf, -np.inf, -x + 0.0), sf)


def _doubling_star(A: np.ndarray) -> np.ndarray:
    # S_t = I (+) A (+) ... (+) A**(t-1) with P = A**t, built along the bits
    # of n from the top: S_2t = S_t (+) A**t S_t and S_(t+1) = S_t (+) A**t.
    # At most three products per bit, and no power beyond A**(n-1).
    n = A.shape[0]
    S, P = identity_matrix(n), A
    bits = bin(n)[3:]
    for pos, bit in enumerate(bits):
        last = pos == len(bits) - 1
        S = np.maximum(S, _mm(P, S))
        if bit == "1" or not last:
            P = _mm(P, P)
        if bit == "1":
            S = np.maximum(S, P)
            if not last:
                P = _mm(P, A)
    _check_entries(S)
    return S


def _star(A: np.ndarray) -> np.ndarray:
    # Floyd-Warshall: after step k, S[i, j] is the heaviest walk from i to j
    # whose inner nodes are among 0..k.  With no positive cycle (no diagonal
    # entry above 0) the heaviest walk is a simple path, so S with its
    # diagonal set to 0.0 is exactly the bounded star.  A positive cycle, or
    # an overflow to +inf or NaN, takes the doubling star instead, which
    # gives the bounded sum or raises DomainError.  (+ 0.0 copies A and
    # turns -0.0 into 0.0.)
    S = A + 0.0
    term = np.empty_like(S)
    for k in range(S.shape[0]):
        np.add(S[:, k, None], S[k], out=term)
        np.maximum(S, term, out=S)
    if (np.diagonal(S) <= 0.0).all() and (S < np.inf).all():
        np.fill_diagonal(S, 0.0)
        return S
    return _doubling_star(A)


def kleene_star(A, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Bounded star ``I (+) A (+) ... (+) A**(n-1)`` of an n-by-n matrix.

    When every cycle weight is at most the identity (``Tr(A) <= 1``) the
    star is one Floyd-Warshall pass, ``O(n**3)`` time and ``O(n**2)``
    memory, and it generates all regular solutions of ``A x <= x``.
    Otherwise it is built by binary expansion of n, with at most three
    products per bit of n (``O(n**3 log n)``), and is still exactly the
    bounded sum.  On non-integer data the two orders of summation can
    differ in the last bits.  A path weight that overflows to the
    wrong-sign infinity raises :class:`DomainError`.
    """
    return _flip(_star(_image(A, sf, "square")), sf)


def is_regular(x, sf: Semifield = MAX_PLUS) -> bool:
    """True iff the vector has no zero elements."""
    return bool(np.all(_image(x, sf, "vector") != -np.inf))


def collinear(x, y, sf: Semifield = MAX_PLUS) -> float | None:
    """Scalar ``c`` with ``y = c (x) x`` if one exists, else ``None``.

    The zero patterns of ``x`` and ``y`` must coincide; ``c`` is read off
    the first index where both are nonzero and then checked exactly
    everywhere else.
    """
    x, y = _image(x, sf, "vector"), _image(y, sf, "vector")
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch {x.shape} vs {y.shape}")
    fx = x != -np.inf
    fy = y != -np.inf
    if not fx.any() or not fy.any():
        raise DomainError("collinearity is defined for nonzero vectors")
    if not np.array_equal(fx, fy):
        return None
    i = int(np.argmax(fx))
    c = float(y[i] - x[i])
    return _flip(c, sf) if bool(np.all(y[fx] == c + x[fx])) else None


def _reduce(G: np.ndarray) -> np.ndarray:
    # Each column is tested against the kept columns before it at once, with
    # the arithmetic of collinear(): equal zero patterns, c = y_i - x_i at
    # the first nonzero index i, then y == c + x on the nonzero entries.
    nonzero = G != -np.inf
    keep = nonzero.any(axis=0)
    tested, partner = keep, None
    if G.shape[0] == G.shape[1] and (np.diagonal(G) == 0.0).all():
        # a closure: if column j == c + column i, rows i and j give
        # G[i, j] == c and 0 == c + G[j, i], so only a column with an earlier
        # partner G[i, j] == -G[j, i] (a zero-weight cycle through i and j)
        # can be dropped, and only by a partner; the others are kept untested
        partner = np.triu(G == -G.T, 1)
        tested = partner.any(axis=0)
    for j in np.flatnonzero(tested):
        same = np.flatnonzero(keep[:j] if partner is None else keep[:j] & partner[:j, j])
        pattern = nonzero[:, j]
        same = same[np.all(nonzero[:, same] == pattern[:, None], axis=0)]
        if same.size:
            rows = np.flatnonzero(pattern)
            x, y = G[np.ix_(rows, same)], G[rows, j]
            c = y[0] - x[0]
            keep[j] = not np.all(y[:, None] == c + x, axis=0).any()
    if not keep.any():
        keep[0] = True
    return G[:, keep]


def reduce_generators(G, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Drop generator columns that add nothing to the linear span.

    A column collinear with an earlier kept column (in the sense of
    :func:`collinear`, with the same arithmetic) is removed, as is any
    all-zero column (it is a zero multiple of every vector).  Kept
    columns stay in their original order; if every column is zero the
    first is kept so the result still has one column.
    """
    return _flip(_reduce(_image(G, sf, "matrix")), sf)


def entrywise_leq(A, B, sf: Semifield = MAX_PLUS) -> bool:
    """True iff ``A <= B`` holds entrywise in the induced order.

    Operands may be matrices or vectors of any shape, the same for both.
    """
    A, B = _image(A, sf), _image(B, sf)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch {A.shape} vs {B.shape}")
    return bool(np.all(np.maximum(A, B) == B))
