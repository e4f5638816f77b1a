"""Tropical (idempotent) linear algebra over max-plus and min-plus.

The package provides semifield scalars, dense matrix algebra with the
bounded Kleene star, spectral radius machinery, a closed-form solver for
``min x^- A x`` subject to ``B x <= x``, and brute-force oracles for
cross-checking every closed-form answer.
"""

from .errors import (
    DomainError,
    HypothesisError,
    ParseError,
    ResourceError,
    ShapeError,
    TropicalError,
)
from .oracle import (
    CYCLE_ENUMERATION_CAP,
    DEFAULT_TOLERANCE,
    GRID_ELEMENT_CAP,
    THETA_ENUMERATION_CAP,
    FamilyFailure,
    FamilyReport,
    OracleReport,
    cycle_mean_oracle,
    grid_min,
    sample_solution_family,
    scalar_close,
    theta_enumeration_oracle,
    trace_binomial_rhs,
)
from .semiring import MAX_PLUS, MIN_PLUS, Semifield, semifield_by_name
from .solver import (
    FeasibilityVerdict,
    InequalitySolution,
    ProblemInstance,
    SolutionCone,
    check_hypotheses,
    compute_theta,
    is_solution,
    objective,
    solve_constrained,
    solve_linear_inequality,
    solve_unconstrained,
)
from .spectral import (
    SpectralSummary,
    big_tr,
    is_irreducible,
    spectral_radius,
    spectral_summary,
)
from .tensor import (
    as_matrix,
    as_vector,
    collinear,
    conjugate,
    entrywise_leq,
    identity_matrix,
    is_regular,
    kleene_star,
    mat_add,
    mat_mul,
    mat_pow,
    mat_vec,
    reduce_generators,
    scalar_mul,
    trace,
    zero_matrix,
)

__version__ = "0.1.0"
