"""Exact computation of resurgence numbers for graded families of monomial ideals.

The library computes, over exact rationals only: monomial-ideal arithmetic,
Newton polyhedra and integral closures, Rees valuations, symbolic powers,
skew Waldschmidt constants, the escape sequences beta/lambda and their
valuation versions, windowed and certified-exact resurgence numbers, and the
Rees-valuation formula for the asymptotic resurgence.
"""

from .errors import (
    CapabilityError,
    ConfigError,
    DimensionError,
    DomainError,
    FamilyRangeError,
    HypothesisError,
    ResurgenceError,
)
from .monomials import MonomialIdeal, format_monomial, minimize_monomials
from .polyhedra import HalfSpace, LinearProgram, LPResult, RationalPolyhedron, hull_with_recession, lp_minimize
from .closures import (
    EquivalenceConstant,
    ReesValuationSet,
    bequiv_constant,
    integral_closure,
    minimal_covers,
    newton_polyhedron,
    rees_valuations,
    symbolic_power,
)
from .valuations import MonomialValuation, WaldschmidtResult, degree_valuation, skew_waldschmidt
from .families import (
    Base,
    Environment,
    Expr,
    GradedFamily,
    IndexFunction,
    Power,
    Product,
    Ref,
    Sum,
    ValidationReport,
    affine,
    ceil_log2p1,
    ceil_mul,
    ceil_sqrt,
    ceiling,
    closure_of,
    closure_powers,
    constant,
    expression,
    find_standard_veronese,
    from_function,
    is_b_equivalent,
    is_standard_veronese,
    periodic,
    power_pattern,
    powers,
    symbolic,
    table,
    validate_filtration,
    validate_graded,
    veronese,
)
from .invariants import (
    LinearlyFinerResult,
    ResurgenceReport,
    SequenceValue,
    VeroneseScalingResult,
    beta,
    beta_sequence,
    beta_v,
    dual_sequences,
    lambda_,
    lambda_v,
    linearly_finer_check,
    noncontainment_table,
    rho_exact_certified,
    rho_hat_beta_limit,
    rho_hat_rees,
    rho_lim_estimate,
    rho_n,
    rho_window,
    veronese_scaling_check,
)
from .rationals import NEG_INFINITY, POS_INFINITY, ExtendedRational, finite

__version__ = "0.1.0"
