"""Closed-form minimization of ``x^- A x`` under the constraint ``B x <= x``.

Everything here works over regular (zero-free) vectors ``x``.  The
centerpiece is :func:`solve_constrained`.  The paper states the
constrained minimum as a sum of ``2**n - 1`` trace terms,

    theta = (+) over k = 1..n, over exponent tuples with i1+...+ik <= n-k,
            of tr(A B**i1 ... A B**ik) ** (1/k),

and the optimizers are exactly ``x = (theta**-1 A (+) B)* u`` for regular
``u``.  The solver evaluates the same value in ``O(n**3 log n)`` time as

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
radius (which is the unconstrained minimum).  Public functions validate
their inputs once and then call the private kernels of the tensor and
spectral layers on the trusted arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, HypothesisError, ShapeError
from .semiring import MAX_PLUS, Semifield
from .spectral import _irreducible, _karp, _tr
from .tensor import (
    _as_square,
    _check_entries,
    _mm,
    _mv,
    _reduce,
    _star,
    as_matrix,
    as_vector,
)

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
    """A pair of equal-size square matrices: objective ``A``, constraint ``B``."""

    A: np.ndarray
    B: np.ndarray
    semifield: Semifield = MAX_PLUS

    def __post_init__(self):
        A = as_matrix(self.A, self.semifield)
        B = as_matrix(self.B, self.semifield)
        if A.shape[0] != A.shape[1]:
            raise ShapeError(f"objective matrix must be square, got {A.shape}")
        if B.shape != A.shape:
            raise ShapeError(f"constraint matrix shape {B.shape} does not match {A.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

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


def _regular_vector(x, sf: Semifield, what: str) -> np.ndarray:
    x = as_vector(x, sf)
    if bool(np.any(x == sf.zero)):
        raise DomainError(f"{what} is defined for regular vectors only")
    return x


def objective(A, x, sf: Semifield = MAX_PLUS) -> float:
    """Value ``x^- (x) A (x) x`` of the objective at a regular vector."""
    A = as_matrix(A, sf)
    x = _regular_vector(x, sf, "objective")
    if A.shape[0] != A.shape[1] or A.shape[1] != x.shape[0]:
        raise ShapeError(f"dimension mismatch {A.shape} vs {x.shape}")
    # the conjugate of a regular x is -x (+ 0.0 turns -0.0 into 0.0)
    return float(sf.np_reduce_add((-x + 0.0) + _mv(A, x, sf)))


def solve_linear_inequality(A, sf: Semifield = MAX_PLUS) -> InequalitySolution:
    """All regular solutions of ``A x <= x``, or a proof there are none.

    If ``Tr(A) <= 1`` the solutions are ``x = A* u`` over regular ``u``
    and the star matrix is returned; otherwise some cycle weight exceeds
    the identity, which rules out any regular solution.  Completeness of
    the star family is guaranteed for irreducible ``A``; for reducible
    ``A`` the family is still sound and the result carries a warning.
    """
    A = _as_square(A, sf)
    star = _star(A, sf)
    tr_value = _tr(A, star, sf)
    feasible = sf.leq(tr_value, sf.one)
    verdict = FeasibilityVerdict(feasible=feasible, tr_value=tr_value)
    if not feasible:
        return InequalitySolution(verdict=verdict, generators=None)
    warnings = ()
    if not _irreducible(A, sf):
        warnings = (
            "completeness unverified: matrix is reducible, the star family may omit solutions",
        )
    return InequalitySolution(verdict=verdict, generators=star, warnings=warnings)


def _theta(A: np.ndarray, B: np.ndarray, sf: Semifield) -> float:
    # one star of B gives both Tr(B) = tr(B B*) and theta = lambda(A B*)
    b_star = _star(B, sf)
    tr_b = _tr(B, b_star, sf)
    if not sf.leq(tr_b, sf.one):
        raise HypothesisError(
            f"Tr(B) = {sf.format_scalar(tr_b)} exceeds the identity: "
            "constraint set has no regular point",
            hypothesis="constraint feasibility",
        )
    return _karp(_mm(A, b_star, sf), sf)


def _combined(theta: float, A: np.ndarray, B: np.ndarray, sf: Semifield) -> np.ndarray:
    # theta**-1 A (+) B, checked: an overflow raises DomainError
    combined = sf.np_add(sf.scalar(sf.inv(theta)) + A, B)
    _check_entries(combined, sf)
    return combined


def compute_theta(A, B, sf: Semifield = MAX_PLUS) -> float:
    """Constrained minimum of ``x^- A x`` subject to ``B x <= x``.

    Computed as ``lambda(A B*)`` from one bounded star ``B*``, one
    product and one spectral radius (Karp's algorithm), in
    ``O(n**3 log n)`` time.  ``Tr(B)`` is read from the same
    star as ``tr(B B*)``; it must be at most the identity, since
    otherwise no regular point satisfies the constraint and the paper's
    trace sum is not the minimum of anything, so :class:`HypothesisError`
    is raised.  Under ``Tr(B) <= 1`` the value equals the paper's
    ``2**n - 1``-term trace sum (see the module docstring), which
    :func:`tropsolve.oracle.theta_enumeration_oracle` evaluates directly.
    """
    instance = ProblemInstance(A, B, sf)
    return _theta(instance.A, instance.B, sf)


def check_hypotheses(A, B, sf: Semifield = MAX_PLUS) -> dict[str, bool]:
    """Evaluate the hypotheses under which the closed form is complete.

    :func:`solve_constrained` records the same dictionary on its cone.
    """
    instance = ProblemInstance(A, B, sf)
    A, B = instance.A, instance.B
    return {
        "irreducible_A": _irreducible(A, sf),
        "irreducible_B": _irreducible(B, sf),
        "spectral_radius_positive": _karp(A, sf) != sf.zero,
        "constraint_feasible": sf.leq(_tr(B, _star(B, sf), sf), sf.one),
    }


def _cone(
    theta: float, combined: np.ndarray, sf: Semifield, warnings: list[str], hypotheses: dict
) -> SolutionCone:
    # the optimizers at minimum theta are (combined)* u over regular u
    closure = _star(combined, sf)
    generators = _reduce(closure, sf)
    degenerate = bool((generators == sf.zero).any())
    if degenerate:
        warnings.append("some generator columns are not regular; use regular u only")
    return SolutionCone(
        theta=theta,
        generators=generators,
        closure_matrix=closure,
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
    ``theta``.  Each hypothesis is evaluated once and recorded on the
    cone's ``hypotheses``.
    """
    A, B, sf = instance.A, instance.B, instance.semifield
    warnings: list[str] = []
    irreducible_a, irreducible_b = _irreducible(A, sf), _irreducible(B, sf)
    if not (irreducible_a or irreducible_b):
        if not override_irreducibility:
            raise HypothesisError("neither A nor B irreducible", hypothesis="irreducibility")
        warnings.append("completeness unverified: neither A nor B is irreducible")
    if _karp(A, sf) == sf.zero:
        raise HypothesisError(
            f"spectral radius of A is {sf.format_scalar(sf.zero)}",
            hypothesis="spectral radius",
        )
    theta = _theta(A, B, sf)
    combined = _combined(theta, A, B, sf)
    # theta is finite, so the combined digraph is the union of those of A
    # and B, strongly connected as soon as one of them is
    if not (irreducible_a or irreducible_b or _irreducible(combined, sf)):
        warnings.append("combined matrix theta**-1 A (+) B is reducible; completeness unverified")
    hypotheses = {
        "irreducible_A": irreducible_a,
        "irreducible_B": irreducible_b,
        "spectral_radius_positive": True,
        "constraint_feasible": True,
    }
    return _cone(theta, combined, sf, warnings, hypotheses)


def solve_unconstrained(A, sf: Semifield = MAX_PLUS) -> SolutionCone:
    """Minimize ``x^- A x`` over all regular ``x`` (no constraints).

    The minimum is the spectral radius ``lam`` of the irreducible matrix
    ``A`` and the optimizers are ``x = (lam**-1 A)* u`` for regular ``u``:
    the constrained answer with ``B`` the zero matrix.
    """
    A = _as_square(A, sf)
    if not _irreducible(A, sf):
        raise HypothesisError("matrix is not irreducible", hypothesis="irreducibility")
    lam = _karp(A, sf)
    if lam == sf.zero:
        raise HypothesisError(
            f"spectral radius is {sf.format_scalar(sf.zero)}", hypothesis="spectral radius"
        )
    hypotheses = {"irreducible_A": True, "spectral_radius_positive": True}
    return _cone(lam, sf.inv(lam) + A, sf, [], hypotheses)


def is_solution(instance: ProblemInstance, theta: float, x) -> bool:
    """Membership test for the optimizer set at minimum value ``theta``.

    A regular ``x`` is an optimizer iff ``(theta**-1 A (+) B) x <= x``
    elementwise, equivalently iff the closure fixes it.
    """
    sf = instance.semifield
    x = _regular_vector(x, sf, "optimizer membership")
    if x.shape[0] != instance.n:
        raise ShapeError(f"dimension mismatch {instance.A.shape} vs {x.shape}")
    combined = _combined(theta, instance.A, instance.B, sf)
    return bool(np.all(sf.np_add(_mv(combined, x, sf), x) == x))
