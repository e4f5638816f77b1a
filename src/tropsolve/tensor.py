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
an edge ``i -> j`` wherever ``A[i, j]`` is nonzero.  Functions that sum
walk weights (``kleene_star`` here, the spectral functions and the
solver) bound their data where it enters: every finite entry of an
n-by-n matrix must satisfy ``|x| <= 2**1000 / n**2``, or
:class:`DomainError` is raised.  A walk of at most n edges weighs at
most n times the largest entry (Butkovic, *Max-linear Systems*, 2010,
ch. 1), so no sum those functions form can then leave the float range,
and none of their results is checked after the fact.  ``mat_mul``,
``mat_vec``, ``mat_pow`` and ``scalar_mul`` accept any data, and raise
:class:`DomainError` for a result entry that overflows to the wrong-sign
infinity (``+inf`` in the max-plus image).

The bounded star is one Floyd-Warshall pass, ``O(n**3)`` time and
``O(n**2)`` memory, whenever no cycle weight exceeds the identity.  Every
star the solver builds is such a matrix, unless a non-float ``theta``
was rounded so that a cycle comes out one ulp above it.  A matrix with
such a cycle (``Tr > 1``) falls back to the power ``(I (+) A)**(n-1)``,
which equals the bounded star because ``(+)`` is idempotent.  That power
and ``mat_pow`` share one kernel, ``_pow``, which squares along the bits
of the exponent: at most ``2 log2 p`` products, ``O(n**3 log n)`` for
the star.  Generator reduction makes one vectorized pass per class
leader, the first kept column of a class of collinear columns, which
drops the whole class at once; in a closure (zero diagonal) only columns
that lie on a common zero-weight cycle, found in ``O(n**2)``, are
compared.  The closure of one zero-weight cycle through n = 256 nodes
reduces to one column in about 1.8 ms on a 2-core Xeon VM (numpy 2.4),
where a pass per column took about 10.4 ms.
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


# every sum a guarded function forms is a walk weight of at most n**2
# edges (an entry of Karp's table on A B*), or the sum of two such, so
# finite entries within _RANGE / n**2 keep it within 2 * _RANGE, far below
# the largest float (about 2**1024); the one exception, a Floyd-Warshall
# pass on a positive cycle, only selects the power (see _star)
_RANGE = 2.0**1000


def _in_range(X, n: int):
    # the range guard on a max-plus image (an array or numpy scalar of finite
    # entries and -inf only); the bound is divided by n**2 rather than
    # n**2 * max formed, which can itself overflow.  (On a 2-core Xeon VM
    # with numpy 2.4, a masked np.max(np.abs(X), where=...) took 170 us at
    # n = 128 with half the entries -inf, these comparisons about 10 us.)
    bound = _RANGE / n**2
    if X.max() > bound or ((X < -bound) & (X != -np.inf)).any():
        raise DomainError(
            "entry out of range: every finite entry x of an n-by-n matrix (and "
            "theta, with n = 1) needs |x| <= 2**1000 / n**2, so that no walk "
            "weight leaves the float range"
        )
    return X


def _flip(X, sf: Semifield):
    # the max-plus image of caller data, and the caller's view of a kernel
    # result: the identity in max-plus, 0.0 - X in min-plus (never -0.0)
    return X if sf is MAX_PLUS else 0.0 - X


def _image(entries, sf: Semifield, kind: str = "array") -> np.ndarray:
    """The one entry for caller data: a checked float64 copy of ``entries``
    as its max-plus image.

    ``kind`` is ``"vector"`` (1-d, length >= 1), ``"matrix"`` (2-d, both
    sizes >= 1), ``"square"``, ``"walks"`` (square, within the range
    guard ``_in_range``) or ``"array"`` (any shape).  Ragged or
    non-numeric data and a wrong shape raise :class:`ShapeError`; NaN,
    the infinity opposite to the zero element and, for ``"walks"``, an
    entry outside the guard raise :class:`DomainError`.
    """
    try:
        X = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        noun = "array" if kind in ("vector", "array") else "matrix"
        raise ShapeError(f"not a rectangular {noun}: {exc}") from None
    if kind == "vector" and (X.ndim != 1 or X.shape[0] < 1):
        raise ShapeError(f"expected a 1-d vector of positive length, got shape {X.shape}")
    if kind in ("matrix", "square", "walks") and (X.ndim != 2 or min(X.shape) < 1):
        raise ShapeError(f"expected a 2-d matrix with positive sizes, got shape {X.shape}")
    X = _flip(X, sf)
    _check_entries(X, sf)
    if kind in ("square", "walks") and X.shape[0] != X.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {X.shape}")
    return _in_range(X, X.shape[0]) if kind == "walks" else X


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


def _pow(A: np.ndarray, p: int) -> np.ndarray:
    # A**p by squaring along the bits of p from the top: at most 2 log2(p)
    # products and O(n**2) memory.  Starting from A, not from the identity,
    # keeps a +inf from an overflow away from the identity's -inf entries.
    P = A if p else identity_matrix(A.shape[0])
    for bit in bin(p)[3:]:
        P = _mm(P, P)
        if bit == "1":
            P = _mm(P, A)
    return P


def mat_pow(A, p: int, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """``p``-th power of a square matrix; ``A ** 0`` is the identity.

    ``p`` is a nonnegative integer (an integral float such as ``2.0`` is
    accepted); anything else raises :class:`DomainError`.  The power is
    built by repeated squaring, at most ``2 log2 p`` products.
    """
    A = _image(A, sf, "square")
    try:
        k = int(p)
    except (TypeError, ValueError, OverflowError):
        k = -1
    if k < 0 or k != p:
        raise DomainError(f"matrix power wants a nonnegative integer, got {p!r}")
    P = _pow(A, k)
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


def _star(A: np.ndarray) -> np.ndarray:
    # Floyd-Warshall: after step k, S[i, j] is the heaviest walk from i to j
    # whose inner nodes are among 0..k.  With no positive cycle (no diagonal
    # entry above 0) the heaviest walk is a simple path, so S with its
    # diagonal set to 0.0 is exactly the bounded star.  A positive cycle
    # takes the power (I (+) A)**(n-1) instead, which is the bounded sum
    # because (+) is idempotent.  (+ 0.0 copies A and turns -0.0 into 0.0.)
    # Callers pass data within the range guard, so the pass can overflow
    # only on a positive cycle, whose weight it may double past the float
    # range.  A diagonal entry on that cycle is then positive, +inf or NaN,
    # never <= 0.0, so the overflow only selects the power, and numpy is not
    # asked to warn of it.
    S = A + 0.0
    term = np.empty_like(S)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(S.shape[0]):
            np.add(S[:, k, None], S[k], out=term)
            np.maximum(S, term, out=S)
    if (np.diagonal(S) <= 0.0).all():
        np.fill_diagonal(S, 0.0)
        return S
    return _pow(np.maximum(A + 0.0, identity_matrix(A.shape[0])), A.shape[0] - 1)


def kleene_star(A, sf: Semifield = MAX_PLUS) -> np.ndarray:
    """Bounded star ``I (+) A (+) ... (+) A**(n-1)`` of an n-by-n matrix.

    When every cycle weight is at most the identity (``Tr(A) <= 1``) the
    star is one Floyd-Warshall pass, ``O(n**3)`` time and ``O(n**2)``
    memory, and it generates all regular solutions of ``A x <= x``.
    Otherwise it is the power ``(I (+) A)**(n-1)``, equal to the bounded
    sum because ``(+)`` is idempotent, built by repeated squaring with at
    most ``2 log2 n`` products (``O(n**3 log n)``).  On non-integer data
    the two orders of summation can differ in the last bits.  A finite
    entry with ``|x| > 2**1000 / n**2`` raises :class:`DomainError`, so no
    path weight can leave the float range.
    """
    return _flip(_star(_image(A, sf, "walks")), sf)


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
    # Column j is dropped iff a kept column i < j is collinear with it, with
    # the arithmetic of collinear(): equal zero patterns, c = y_r - x_r at
    # the first nonzero row r, then y == c + x on the nonzero rows.  A leader
    # i (still kept when the loop reaches it) drops all of its collinear
    # later candidates in one vectorized test, so a class of collinear
    # columns costs one pass, not one per column.
    nonzero = G != -np.inf
    keep = nonzero.any(axis=0)
    partner = None
    if G.shape[0] == G.shape[1] and (np.diagonal(G) == 0.0).all():
        # a closure: if column j == c + column i, rows i and j give
        # G[i, j] == c and 0 == c + G[j, i], so the candidates of column i
        # are its later partners G[i, j] == -G[j, i] (a zero-weight cycle
        # through i and j); a column with no earlier partner is never tested
        partner = np.triu(G == -G.T, 1)
        starts = np.flatnonzero(partner.any(axis=1))
    else:
        starts = np.flatnonzero(keep)[:-1]
    for i in starts:
        if not keep[i]:
            continue
        later = keep[i + 1 :] if partner is None else keep[i + 1 :] & partner[i, i + 1 :]
        J = np.flatnonzero(later) + (i + 1)
        pattern = nonzero[:, i]
        J = J[(nonzero[:, J] == pattern[:, None]).all(axis=0)]
        if J.size:
            rows = np.flatnonzero(pattern)
            x, Y = G[rows, i], G[np.ix_(rows, J)]
            c = Y[0] - x[0]
            keep[J[(Y == c + x[:, None]).all(axis=0)]] = False
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
