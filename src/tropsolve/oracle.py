"""Brute-force cross-checks for the closed-form results.

Nothing here reuses the solver's formulas.  ``grid_min`` lower-bounds the
constrained minimum by direct evaluation over a lattice of candidate
vectors, ``cycle_mean_oracle`` recomputes the spectral radius by
exhaustive enumeration of simple cycles, ``theta_enumeration_oracle``
evaluates the paper's ``2**n - 1``-term trace sum for the constrained
minimum, ``trace_binomial_rhs`` expands ``tr (A (+) B)**m`` term by term,
and ``sample_solution_family`` stress-tests a solution cone by drawing
random regular combinations.  ``cycle_mean_oracle`` works in the
caller's semifield with its scalar arithmetic, so it checks min-plus by
code that does not share the max-plus image the other functions run
on.  ``grid_min``, ``cycle_mean_oracle``,
``theta_enumeration_oracle`` and ``trace_binomial_rhs`` have size caps
and raise :class:`ResourceError` past them, before allocating.  Reports
are deterministic: the same inputs and seed reproduce them byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .errors import DomainError, ResourceError, ShapeError
from .semiring import MAX_PLUS, Semifield
from .solver import ProblemInstance, SolutionCone, _objective
from .tensor import _check_entries, _flip, _image, _mm, _mv, identity_matrix

__all__ = [
    "DEFAULT_TOLERANCE",
    "CYCLE_ENUMERATION_CAP",
    "THETA_ENUMERATION_CAP",
    "GRID_ELEMENT_CAP",
    "OracleReport",
    "FamilyFailure",
    "FamilyReport",
    "grid_min",
    "cycle_mean_oracle",
    "theta_enumeration_oracle",
    "trace_binomial_rhs",
    "sample_solution_family",
    "scalar_close",
]

DEFAULT_TOLERANCE = 1e-9
CYCLE_ENUMERATION_CAP = 8
# 2**n - 1 trace terms; past this the sum is refused rather than left to hang
THETA_ENUMERATION_CAP = 20
# entries of one (n, n, points) float64 temporary in grid_min, about 80 MB
GRID_ELEMENT_CAP = 10_000_000


@dataclass(frozen=True)
class OracleReport:
    """Grid-search estimate of the constrained minimum.

    ``estimated_min`` is the exact minimum of the objective over the
    evaluated lattice points that satisfy the constraint (``None`` when
    no lattice point is feasible); ties in ``argmin`` are broken toward
    the lexicographically smallest vector.
    """

    estimated_min: float | None
    argmin: tuple[float, ...] | None
    grid_step: float
    grid_box: tuple[tuple[float, float], ...]
    samples_evaluated: int
    feasible_found: bool


@dataclass(frozen=True)
class FamilyFailure:
    trial: int
    u: tuple[float, ...]
    kind: str  # "constraint" | "objective" | "regularity"
    observed: float | None


@dataclass(frozen=True)
class FamilyReport:
    trials: int
    seed: int
    failures: tuple[FamilyFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _normalize_box(box, n: int) -> tuple[tuple[float, float], ...]:
    box = list(box)
    if len(box) == 2 and np.isscalar(box[0]):
        box = [tuple(box)] * n
    if len(box) != n:
        raise ShapeError(f"expected {n} coordinate intervals, got {len(box)}")
    out = []
    for lo, hi in box:
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise DomainError(f"invalid grid interval [{lo}, {hi}]")
        out.append((lo, hi))
    return tuple(out)


def grid_min(
    instance: ProblemInstance,
    box,
    step: float,
    *,
    pin_first: bool = True,
) -> OracleReport:
    """Minimum of ``x^- A x`` over an evaluation lattice, constraints kept.

    ``box`` is one ``(lo, hi)`` pair broadcast to every coordinate or a
    sequence of per-coordinate pairs; lattice points run from ``lo`` to
    ``hi`` inclusive in multiples of ``step``.  Since objective and
    constraints are invariant under scaling, the first coordinate is
    pinned to the identity by default, which drops one grid dimension.
    Max-plus instances only.
    """
    sf = instance.semifield
    if sf is not MAX_PLUS:
        raise DomainError("the grid oracle supports max-plus instances only")
    step = float(step)
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"grid step must be a positive real, got {step!r}")
    n = instance.n
    grid_box = _normalize_box(box, n)

    # float counts, so a box too wide for the step reads as inf, not OverflowError
    counts = [
        1.0 if i == 0 and pin_first else float(np.floor((hi - lo) / step + 1e-9)) + 1
        for i, (lo, hi) in enumerate(grid_box)
    ]
    entries = n * n * prod(counts)
    if entries > GRID_ELEMENT_CAP:
        raise ResourceError(
            f"grid of {prod(counts):.4g} points at n = {n} needs {entries:.4g} temporary "
            f"entries, over the cap of {GRID_ELEMENT_CAP}; narrow the box or coarsen the step"
        )
    axes = [
        np.array([sf.one]) if i == 0 and pin_first else lo + step * np.arange(int(count))
        for i, ((lo, _), count) in enumerate(zip(grid_box, counts))
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh])  # (n, P), lexicographic point order
    total = X.shape[1]

    Bx = np.max(instance.B[:, :, None] + X[None, :, :], axis=1)
    feasible = np.all(Bx <= X, axis=0)
    if not feasible.any():
        return OracleReport(
            estimated_min=None,
            argmin=None,
            grid_step=step,
            grid_box=grid_box,
            samples_evaluated=total,
            feasible_found=False,
        )
    Ax = np.max(instance.A[:, :, None] + X[None, :, :], axis=1)
    obj = np.max(Ax - X, axis=0)
    best = int(np.argmin(np.where(feasible, obj, np.inf)))
    return OracleReport(
        estimated_min=float(obj[best]),
        argmin=tuple(float(v) for v in X[:, best]),
        grid_step=step,
        grid_box=grid_box,
        samples_evaluated=total,
        feasible_found=True,
    )


def cycle_mean_oracle(
    A, sf: Semifield = MAX_PLUS, *, cap: int = CYCLE_ENUMERATION_CAP
) -> float:
    """Spectral radius recomputed as the best mean weight of a simple cycle.

    Enumerates every simple cycle of the nonzero-pattern digraph by
    depth-first search (each cycle rooted at its smallest node) and takes
    the (+)-maximum of ``weight / length``.  Matrices with no cycle at
    all yield the zero element.  Exhaustive, hence capped at ``cap``
    nodes.
    """
    A = _flip(_image(A, sf, "square"), sf)
    n = A.shape[0]
    if n > cap:
        raise ResourceError(f"cycle enumeration is exhaustive; n = {n} exceeds the cap of {cap}")

    best = sf.zero

    def walk(root: int, node: int, weight: float, length: int, visited: set[int]) -> None:
        nonlocal best
        for j in range(root, n):
            w = A[node, j]
            if w == sf.zero:
                continue
            if j == root:
                best = sf.add(best, (weight + w) / (length + 1))
            elif j not in visited:
                visited.add(j)
                walk(root, j, weight + w, length + 1, visited)
                visited.remove(j)

    for root in range(n):
        walk(root, root, 0.0, 0, {root})
    return best


def _product_trace_sum(
    A: np.ndarray,
    b_powers: list[np.ndarray],
    k: int,
    budget: int,
    exact: bool,
) -> float:
    """Max of ``tr(A B**i1 ... A B**ik)`` over exponent tuples.

    Enumerates k-tuples of nonnegative integers with sum equal to
    ``budget`` (``exact=True``) or at most ``budget`` (``exact=False``),
    reusing the prefix product across the recursion.  ``b_powers`` must
    hold ``B**0 .. B**budget`` at least.
    """
    n = A.shape[0]
    ab = [_mm(A, bp) for bp in b_powers[: budget + 1]]
    acc = -np.inf

    def rec(prefix: np.ndarray, parts_left: int, budget_left: int) -> None:
        nonlocal acc
        if parts_left == 0:
            acc = max(acc, float(np.max(np.diagonal(prefix))))
            return
        if exact and parts_left == 1:
            rec(_mm(prefix, ab[budget_left]), 0, 0)
            return
        for i in range(budget_left + 1):
            rec(_mm(prefix, ab[i]), parts_left - 1, budget_left - i)

    rec(identity_matrix(n), k, budget)
    return acc


def theta_enumeration_oracle(
    A, B, sf: Semifield = MAX_PLUS, *, cap: int = THETA_ENUMERATION_CAP
) -> float:
    """The paper's closed form for the constrained minimum, term by term.

    Enumerates, for each k = 1..n, every k-tuple of nonnegative integer
    exponents with sum at most n - k, and takes the idempotent sum of the
    k-th roots of ``tr(A B**i1 ... A B**ik)``.  Powers of ``B`` are cached;
    the term count is ``2**n - 1``, so ``n`` beyond ``cap`` raises
    :class:`ResourceError` instead of hanging.  Equals
    :func:`tropsolve.solver.compute_theta` whenever ``Tr(B) <= 1``.
    """
    instance = ProblemInstance(A, B, sf)
    (A, B), n = instance._pair, instance.n
    if n > cap:
        raise ResourceError(
            f"theta enumeration has 2**{n} - 1 trace terms; n = {n} exceeds the cap of {cap}"
        )
    b_powers = [identity_matrix(n)]
    for _ in range(n - 1):
        b_powers.append(_mm(b_powers[-1], B))
    theta = -np.inf
    for k in range(1, n + 1):
        s = _product_trace_sum(A, b_powers, k, n - k, exact=False)
        theta = max(theta, MAX_PLUS.rational_pow(s, Fraction(1, k)))
    return _flip(theta, sf)


def trace_binomial_rhs(A, B, m: int, sf: Semifield = MAX_PLUS) -> float:
    """Right-hand side of the binomial trace identity for ``tr (A (+) B)**m``.

    Evaluates ``tr B**m  (+)  sum over k = 1..m, over compositions
    i1 + ... + ik = m - k, of tr(A B**i1 ... A B**ik)``.  Exactly equal to
    ``trace(mat_pow(mat_add(A, B), m))``; the term count is ``2**(m-1)``
    plus one, so ``m`` beyond ``THETA_ENUMERATION_CAP`` raises
    :class:`ResourceError` instead of hanging.
    """
    A, B = ProblemInstance(A, B, sf)._pair
    if m < 1 or m != int(m):
        raise DomainError(f"the binomial identity wants an integer m >= 1, got {m!r}")
    m = int(m)
    if m > THETA_ENUMERATION_CAP:
        raise ResourceError(
            f"the binomial expansion has 2**{m - 1} + 1 trace terms; "
            f"m = {m} exceeds the cap of {THETA_ENUMERATION_CAP}"
        )
    b_powers = [identity_matrix(A.shape[0])]
    for _ in range(m):
        b_powers.append(_mm(b_powers[-1], B))
    _check_entries(b_powers[m], sf)
    acc = float(np.max(np.diagonal(b_powers[m])))
    for k in range(1, m + 1):
        acc = max(acc, _product_trace_sum(A, b_powers, k, m - k, exact=True))
    return _flip(acc, sf)


def sample_solution_family(
    instance: ProblemInstance,
    cone: SolutionCone,
    trials: int,
    seed: int,
    *,
    u_low: int = -10,
    u_high: int = 10,
) -> FamilyReport:
    """Check ``trials`` random members of a solution cone against the instance.

    Draws integer-valued regular ``u`` (integer so the feasibility and
    attainment checks are exact in float64), forms ``x = generators (x) u``
    and records a failure whenever ``B x <= x`` is violated, the objective
    differs from ``cone.theta``, or ``x`` is not regular.
    """
    sf = instance.semifield
    A, B = instance._pair
    rng = np.random.default_rng(seed)
    failures: list[FamilyFailure] = []
    # validated once: the trials run on trusted max-plus arrays
    G = _image(cone.generators, sf, "matrix")
    for t in range(trials):
        u = rng.integers(u_low, u_high + 1, size=G.shape[1]).astype(np.float64)
        x = _mv(G, _flip(u, sf))
        if (x == -np.inf).any():
            failures.append(FamilyFailure(t, tuple(u), "regularity", None))
            continue
        Bx = _mv(B, x)
        # u is an int64, so G u cannot overflow; B x can
        _check_entries(Bx, sf)
        if not (Bx <= x).all():
            failures.append(FamilyFailure(t, tuple(u), "constraint", None))
        value = _flip(_objective(A, x), sf)
        if value != cone.theta:
            failures.append(FamilyFailure(t, tuple(u), "objective", value))
    return FamilyReport(trials=trials, seed=seed, failures=tuple(failures))


def scalar_close(x: float | None, y: float | None, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Exact comparison for integer-aligned scalars, tolerance otherwise."""
    if x is None or y is None:
        return x is y
    if x == y:
        return True
    if float(x).is_integer() and float(y).is_integer():
        return False
    return abs(x - y) <= tolerance
