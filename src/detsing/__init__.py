"""detsing: a symbolic workbench for determinantal singularities.

Given a polynomial presentation matrix, the package computes rank-strata
ideals and their dimensions, transversality verdicts off the origin,
colengths of zero-dimensional strata, the triangular Euler-characteristic
system for polar multiplicities, the chain-rule check that the stratum
Jacobian factors through the deformation generators, hyperplane
sections, and family constancy reports.
"""

from .analysis import Analysis
from .detmodel import (
    ChainRuleResult,
    DeterminantalType,
    PresentationMatrix,
    StratumModel,
    chain_rule_check,
    dm_matrix,
    jacobian_generators,
    minors,
    n_generators,
    stratum,
)
from .errors import (
    DetsingError,
    DimensionMismatchError,
    InconsistentDataError,
    LimitError,
    ParseError,
    PreconditionError,
    UnknownVariableError,
    ValidationError,
    VariableSetMismatchError,
)
from .genericity import (
    Hyperplane,
    SectionInvariants,
    hyperplane_screen,
    section_invariant_compare,
    slice_model,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    colength,
    colength_at_origin,
    dimension,
    eliminate,
    ideal_intersection,
    ideal_quotient,
    ideal_sum,
    ideals_equal,
    in_ideal,
    is_unit_ideal,
    normal_form,
    s_polynomial,
    saturation,
    support_is_origin_only,
)
from .invariants import (
    ChiData,
    EulerSystem,
    build_euler_system,
    build_euler_system_for_type,
    m0_colength,
    md_consistency,
    mvector,
    nit_coefficient,
    polar_term_bound,
    solve_for_chi_diffs,
    solve_for_m,
    solve_from_lhs,
    whitney_report,
)
from .poly import (
    GREVLEX,
    LEX,
    MonomialOrdering,
    Polynomial,
    VariableSet,
    parse_polynomial,
    poly_to_str,
)
from .strata import (
    EidsVerdict,
    StratumCheck,
    conormal_fiber_gap,
    eids_check,
    good_family_scan,
    singular_locus_ideal,
    stably_isolated_check,
)

__version__ = "0.1.0"
