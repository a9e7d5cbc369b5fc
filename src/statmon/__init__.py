"""statmon: exchange-statistics simulation toolkit.

Models n distinguishable particles in n labeled boxes, computes pairwise
exchange expectations v_XY (the bunching/antibunching observables of
two-port interference), verifies and exports the tight three-box tradeoff
region for (v_AB, v_BC, v_AC), and solves extremal eigenvalue problems for
three- and four-box scenarios.
"""

from .eigh import SpectralDecomposition, symmetric_spectrum
from .errors import (
    CapacityError,
    ContractError,
    ConvergenceError,
    InfeasibleError,
    StatmonError,
    ValidationError,
)
from .extremal import (
    Constraint,
    ExtremalResult,
    Objective,
    constrained_extremal,
    constraint_projector,
    joint_eigenspace_basis,
    max_expectation,
    random_search_max,
    symmetric_ray_extreme,
)
from .group_core import (
    BasisOrdering,
    ExchangeOperator,
    Pair,
    PermutationOperator,
    all_exchange_operators,
    canonical_pairs,
    cyclic_operator,
    exchange_operator,
    relabel,
)
from .monogamy import (
    AuditReport,
    RegionCheck,
    SurfaceMesh,
    SurfacePoint,
    check_sqrt,
    check_theta,
    region_audit,
    surface_mesh,
    surface_state,
    theta_family_margin,
    write_mesh_csv,
)
from .npartite import ScenarioBound, ScenarioGraph, scenario_report, spectral_bound, triangle_bounds
from .observables import (
    WFrame,
    antibunching_probability,
    bunching_probability,
    chi_state,
    expectation,
    v_vector,
    w_frame,
    w_theta,
)
from .states import (
    MixedState,
    NAMED_STATES,
    PureState,
    apply,
    equal_up_to_global_phase,
    named_state,
    normalize,
    random_pure_state,
    state_from_jsonable,
    state_to_jsonable,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
