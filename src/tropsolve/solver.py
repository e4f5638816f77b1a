"""Closed-form minimization of ``x^- A x`` under the constraint ``B x <= x``.

Everything here works over regular (zero-free) vectors ``x``.  The
centerpiece is :func:`solve_constrained`.  The paper states the
constrained minimum as a sum of ``2**n - 1`` trace terms,

    theta = (+) over k = 1..n, over exponent tuples with i1+...+ik <= n-k,
            of tr(A B**i1 ... A B**ik) ** (1/k),

and the optimizers are exactly ``x = (theta**-1 A (+) B)* u`` for regular
``u``.  The solver evaluates the same value in ``O(n**3)`` time as

    theta = lambda(A B*),

the spectral radius of ``A`` times the bounded star of ``B``.  The two
agree whenever ``Tr(B) <= 1``, which the solver requires anyway: a term
of ``tr (A B*)**k`` is a closed walk with k A-edges; splitting it into
simple cycles, the cycles made of B-edges alone weigh at most the
identity, so dropping them does not lower the walk's weight per A-edge,
and every simple cycle with at least one A-edge is a term of the paper's
sum (Butkovic, *Max-linear Systems*, 2010, ch. 1).  The enumeration is
kept as :func:`tropsolve.oracle.theta_enumeration_oracle` for checking.
No iteration or refinement is involved; the supporting pieces are the
feasibility function ``Tr``, the bounded Kleene star, and the spectral
radius (which is the unconstrained minimum).  Both stars of a solve,
``B*`` and the closure, have no cycle above the identity, so each is one
Floyd-Warshall pass; with Karp's ``O(n**3)`` radius and one product, a
solve is ``O(n**3)`` time and ``O(n**2)`` memory.  The hypotheses are
evaluated in one place for :func:`check_hypotheses` and
:func:`solve_constrained`.  The irreducibility of ``A`` is a
breadth-first search of its zero pattern.  An n-by-n matrix is
irreducible exactly when its bounded star has no zero entry, so the
irreducibility of ``B`` is read from ``B*``, and ``Tr(B)`` from the same
star.  The spectral radius of ``A`` is nonzero exactly when the digraph
of ``A`` has a cycle, which an irreducible ``A`` on two or more nodes
has; otherwise it is read from the zero pattern of ``A``, with no weight
of ``A`` summed.  Public functions validate their inputs once and then
call the private kernels of the tensor and spectral layers on the
trusted arrays.  Validation includes the range guard of
:mod:`tropsolve.tensor`: a :class:`ProblemInstance` bounds ``A`` and
``B`` alike, ``solve_unconstrained`` and ``solve_linear_inequality``
their matrix, by ``|entry| <= 2**1000 / n**2``, and :func:`is_solution`
bounds ``|theta| <= 2**1000``.  Every sum a solve forms is a walk weight
of at most ``n**2`` edges, so none can leave the float range and no
kernel result is checked after the fact; only :func:`objective`, whose
contract allows any data, checks its value.  Those kernels are max-plus
only: a ``MIN_PLUS`` problem
is negated once where it is validated (a :class:`ProblemInstance` maps
its pair once) and every result is negated back once, which gives
bitwise the min-plus answer (see :mod:`tropsolve.tensor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, HypothesisError, ShapeError
from .semiring import MAX_PLUS, Semifield
from .spectral import _irreducible, _karp, _tr
from .tensor import _check_entries, _flip, _image, _in_range, _mm, _mv, _reduce, _star

__all__ = [
    "ProblemInstance",
    "FeasibilityVerdict",
    "InequalitySolution",
    "SolutionCone",
    "objective",
    "solve_linear_inequality",
    "compute_theta",
    "check_hypotheses",
    "solve_constrained",
    "solve_unconstrained",
    "is_solution",
]

@dataclass(frozen=True)
class ProblemInstance:
    """A pair of equal-size square matrices: objective ``A``, constraint ``B``.

    ``A`` and ``B`` are validated copies in the instance's semifield; the
    solver reads their max-plus image, formed once here.  A finite entry
    of either with ``|x| > 2**1000 / n**2`` raises :class:`DomainError`.
    """

    A: np.ndarray
    B: np.ndarray
    semifield: Semifield = MAX_PLUS

    def __post_init__(self):
        sf = self.semifield
        A, B = _image(self.A, sf, "matrix"), _image(self.B, sf, "matrix")
        if A.shape[0] != A.shape[1]:
            raise ShapeError(f"objective matrix must be square, got {A.shape}")
        if B.shape != A.shape:
            raise ShapeError(f"constraint matrix shape {B.shape} does not match {A.shape}")
        object.__setattr__(self, "_pair", (_in_range(A, len(A)), _in_range(B, len(A))))
        object.__setattr__(self, "A", _flip(A, sf))
        object.__setattr__(self, "B", _flip(B, sf))

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the ``Tr`` test: ``feasible`` iff ``tr_value <= 1``."""

    feasible: bool
    tr_value: float


@dataclass(frozen=True)
class InequalitySolution:
    """Solution of ``A x <= x``: a verdict plus, when feasible, the star
    matrix whose regular combinations enumerate the solutions."""

    verdict: FeasibilityVerdict
    generators: np.ndarray | None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SolutionCone:
    """The complete optimizer set ``{generators (x) u : u regular}``.

    ``closure_matrix`` is the full star matrix before collinear columns
    are dropped.  ``degenerate`` flags generator columns containing zero
    elements (possible only for reducible inputs under an override);
    combinations must then still use regular ``u``.  ``hypotheses``
    records each solver hypothesis as evaluated during the solve, keyed
    as in :func:`check_hypotheses`.
    """

    theta: float
    generators: np.ndarray
    closure_matrix: np.ndarray
    degenerate: bool = False
    warnings: tuple[str, ...] = ()
    hypotheses: dict[str, bool] = field(default_factory=dict)


def _objective(A: np.ndarray, x: np.ndarray) -> float:
    # the conjugate of a regular x is -x (+ 0.0 turns -0.0 into 0.0)
    value = np.max((-x + 0.0) + _mv(A, x))
    _check_entries(value)
    return float(value)


def _strongly_connected(star: np.ndarray) -> bool:
    # an n-by-n matrix is irreducible iff its bounded star has no zero entry
    return bool((star != -np.inf).all())


def objective(A, x, sf: Semifield = MAX_PLUS) -> float:
    """Value ``x^- (x) A (x) x`` of the objective at a regular vector.

    A value that overflows to the wrong-sign infinity raises
    :class:`DomainError`.
    """
    A, x = _image(A, sf, "matrix"), _image(x, sf, "vector")
    if bool(np.any(x == -np.inf)):
        raise DomainError("objective is defined for regular vectors only")
    if A.shape[0] != A.shape[1] or A.shape[1] != x.shape[0]:
        raise ShapeError(f"dimension mismatch {A.shape} vs {x.shape}")
    return _flip(_objective(A, x), sf)


def solve_linear_inequality(A, sf: Semifield = MAX_PLUS) -> InequalitySolution:
    """All regular solutions of ``A x <= x``, or a proof there are none.

    If ``Tr(A) <= 1`` the solutions are ``x = A* u`` over regular ``u``
    and the star matrix is returned; otherwise some cycle weight exceeds
    the identity, which rules out any regular solution.  Completeness of
    the star family is guaranteed for irreducible ``A``; for reducible
    ``A`` the family is still sound and the result carries a warning.
    """
    A = _image(A, sf, "walks")
    star = _star(A)
    tr_value = _tr(A, star)
    verdict = FeasibilityVerdict(feasible=tr_value <= 0.0, tr_value=_flip(tr_value, sf))
    if not verdict.feasible:
        return InequalitySolution(verdict=verdict, generators=None)
    warnings = ()
    if not _strongly_connected(star):
        warnings = (
            "completeness unverified: matrix is reducible, the star family may omit solutions",
        )
    return InequalitySolution(verdict=verdict, generators=_flip(star, sf), warnings=warnings)


def _theta(A: np.ndarray, b_star: np.ndarray, tr_b: float, sf: Semifield) -> float:
    # one star of B gives both Tr(B) = tr(B B*), read once by the caller as
    # tr_b, and theta = lambda(A B*)
    if tr_b > 0.0:
        raise HypothesisError(
            f"Tr(B) = {sf.format_scalar(_flip(tr_b, sf))} exceeds the identity: "
            "constraint set has no regular point",
            hypothesis="constraint feasibility",
        )
    return _karp(_mm(A, b_star))


def _combined(theta: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # theta**-1 A (+) B
    return np.maximum((0.0 - theta) + A, B)


def compute_theta(A, B, sf: Semifield = MAX_PLUS) -> float:
    """Constrained minimum of ``x^- A x`` subject to ``B x <= x``.

    Computed as ``lambda(A B*)`` from one bounded star ``B*`` (one
    Floyd-Warshall pass when ``Tr(B) <= 1``), one product and one
    spectral radius (Karp's algorithm), in ``O(n**3)`` time.  ``Tr(B)``
    is read from the same star as ``tr(B B*)``; it must be at most the
    identity, since otherwise no regular point satisfies the constraint
    and the paper's trace sum is not the minimum of anything, so
    :class:`HypothesisError` is raised.  Under ``Tr(B) <= 1`` the value
    equals the paper's ``2**n - 1``-term trace sum (see the module
    docstring), which :func:`tropsolve.oracle.theta_enumeration_oracle`
    evaluates directly.
    """
    A, B = ProblemInstance(A, B, sf)._pair
    b_star = _star(B)
    return _flip(_theta(A, b_star, _tr(B, b_star), sf), sf)


def _hypotheses(A: np.ndarray, b_star: np.ndarray, tr_b: float) -> dict[str, bool]:
    # lambda(A) is the zero element iff the digraph of A has no cycle; an
    # irreducible A on two or more nodes has one, and any other A is searched
    # for one on its 0/-inf pattern, so that no weight of A is summed
    irreducible_a = _irreducible(A)
    return {
        "irreducible_A": irreducible_a,
        "irreducible_B": _strongly_connected(b_star),
        "spectral_radius_positive": (irreducible_a and A.shape[0] > 1)
        or _karp(np.where(A == -np.inf, -np.inf, 0.0)) == 0.0,
        "constraint_feasible": tr_b <= 0.0,
    }


def check_hypotheses(A, B, sf: Semifield = MAX_PLUS) -> dict[str, bool]:
    """Evaluate the hypotheses under which the closed form is complete.

    The irreducibility of ``A`` is read from its zero pattern by
    breadth-first search, that of ``B`` from ``B*`` (no zero entry), and
    ``Tr(B) <= 1`` from the same star as ``tr(B B*)``.  The spectral
    radius of ``A`` is nonzero exactly when the digraph of ``A`` has a
    cycle: always for an irreducible ``A`` on two or more nodes, and
    otherwise read from the zero pattern of ``A``, so no weight of ``A``
    is summed.
    :func:`solve_constrained` evaluates the same dictionary and records
    it on its cone.
    """
    A, B = ProblemInstance(A, B, sf)._pair
    b_star = _star(B)
    return _hypotheses(A, b_star, _tr(B, b_star))


def _cone(
    theta: float, combined: np.ndarray, sf: Semifield, warnings: list[str], hypotheses: dict
) -> SolutionCone:
    # the optimizers at minimum theta are (combined)* u over regular u
    closure = _star(combined)
    generators = _reduce(closure)
    # the closure has a zero entry exactly when the combined matrix is
    # reducible, and the reduction keeps a column of each zero pattern, so
    # both warnings are read from the generators
    degenerate = bool((generators == -np.inf).any())
    if degenerate:
        warnings += [
            "combined matrix theta**-1 A (+) B is reducible; completeness unverified",
            "some generator columns are not regular; use regular u only",
        ]
    return SolutionCone(
        theta=_flip(theta, sf),
        generators=_flip(generators, sf),
        closure_matrix=_flip(closure, sf),
        degenerate=degenerate,
        warnings=tuple(warnings),
        hypotheses=hypotheses,
    )


def solve_constrained(
    instance: ProblemInstance, *, override_irreducibility: bool = False
) -> SolutionCone:
    """Solve ``min x^- A x`` subject to ``B x <= x`` in closed form.

    Hypotheses: at least one of ``A``, ``B`` irreducible, the spectral
    radius of ``A`` nonzero, and ``Tr(B) <= 1``.  The irreducibility
    hypothesis (which backs completeness of the answer) can be overridden
    with ``override_irreducibility``, in which case the returned cone
    carries a warning; the other two cannot, since a zero spectral radius
    makes the minimum non-invertible and ``Tr(B) > 1`` leaves no regular
    feasible point at all.

    Returns the minimum ``theta``, the closure ``(theta**-1 A (+) B)*``,
    and its columns with collinear duplicates removed; every ``x =
    generators (x) u`` with regular ``u`` is feasible and attains
    ``theta``.  The hypotheses are evaluated as in
    :func:`check_hypotheses`, and that record is the cone's
    ``hypotheses``.
    """
    (A, B), sf = instance._pair, instance.semifield
    b_star = _star(B)
    tr_b = _tr(B, b_star)
    hypotheses = _hypotheses(A, b_star, tr_b)
    warnings: list[str] = []
    if not (hypotheses["irreducible_A"] or hypotheses["irreducible_B"]):
        if not override_irreducibility:
            raise HypothesisError("neither A nor B irreducible", hypothesis="irreducibility")
        warnings.append("completeness unverified: neither A nor B is irreducible")
    if not hypotheses["spectral_radius_positive"]:
        raise HypothesisError(
            f"spectral radius of A is {sf.format_scalar(sf.zero)}",
            hypothesis="spectral radius",
        )
    theta = _theta(A, b_star, tr_b, sf)
    return _cone(theta, _combined(theta, A, B), sf, warnings, hypotheses)


def solve_unconstrained(A, sf: Semifield = MAX_PLUS) -> SolutionCone:
    """Minimize ``x^- A x`` over all regular ``x`` (no constraints).

    The minimum is the spectral radius ``lam`` of the irreducible matrix
    ``A`` and the optimizers are ``x = (lam**-1 A)* u`` for regular ``u``:
    the constrained answer with ``B`` the zero matrix.
    """
    A = _image(A, sf, "walks")
    if not _irreducible(A):
        raise HypothesisError("matrix is not irreducible", hypothesis="irreducibility")
    lam = _karp(A)
    if lam == -np.inf:
        raise HypothesisError(
            f"spectral radius is {sf.format_scalar(sf.zero)}", hypothesis="spectral radius"
        )
    hypotheses = {"irreducible_A": True, "spectral_radius_positive": True}
    return _cone(lam, (0.0 - lam) + A, sf, [], hypotheses)


def is_solution(instance: ProblemInstance, theta: float, x) -> bool:
    """Membership test for the optimizer set at minimum value ``theta``.

    A regular ``x`` is an optimizer iff ``(theta**-1 A (+) B) x <= x``
    elementwise, equivalently iff the closure fixes it.  ``theta`` must be
    a finite scalar with ``|theta| <= 2**1000``: NaN, either infinity and a
    larger value raise :class:`DomainError`.
    """
    sf = instance.semifield
    x = _image(x, sf, "vector")
    if bool(np.any(x == -np.inf)):
        raise DomainError("optimizer membership is defined for regular vectors only")
    if x.shape[0] != instance.n:
        raise ShapeError(f"dimension mismatch {instance.A.shape} vs {x.shape}")
    # theta is caller data: DomainError on NaN, the wrong-sign infinity,
    # the zero element or a value outside the range guard
    sf.inv(sf.scalar(theta))
    combined = _combined(_in_range(np.float64(_flip(theta, sf)), 1), *instance._pair)
    return bool(np.all(np.maximum(_mv(combined, x), x) == x))
