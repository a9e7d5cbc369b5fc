"""statmon: exchange-statistics simulation toolkit.

Models n distinguishable particles in n labeled boxes, computes pairwise
exchange expectations v_XY (the bunching/antibunching observables of
two-port interference), verifies and exports the tight three-box tradeoff
region for (v_AB, v_BC, v_AC), and solves extremal eigenvalue problems and
pair-constraint scenarios of up to seven boxes, within a constrained-space
dimension of 720.

`import statmon` runs none of the submodules: each public name below is
imported from its submodule on first access (PEP 562), so a script pays
only for the layers it touches.
"""

import sys

# Submodule -> the public names it exports at package level.
_EXPORTS = {
    "eigh": ("SpectralDecomposition", "symmetric_spectrum"),
    "errors": (
        "CapacityError", "ContractError", "ConvergenceError", "InfeasibleError", "StatmonError",
        "ValidationError",
    ),
    "extremal": (
        "Constraint", "ExtremalResult", "Objective", "constrained_extremal", "constraint_projector",
        "joint_eigenspace_basis", "max_expectation", "random_search_max", "symmetric_ray_extreme",
    ),
    "group_core": (
        "BasisOrdering", "ExchangeOperator", "Pair", "PermutationOperator", "all_exchange_operators",
        "canonical_pairs", "cyclic_operator", "exchange_operator", "relabel",
    ),
    "monogamy": (
        "AuditReport", "SurfaceMesh", "SurfacePoint", "region_audit", "surface_mesh", "surface_state",
        "write_mesh_csv",
    ),
    "npartite": ("ScenarioBound", "ScenarioGraph", "scenario_report", "spectral_bound", "triangle_bounds"),
    "observables": (
        "WFrame", "antibunching_probability", "bunching_probability", "chi_state", "expectation",
        "v_vector", "w_frame", "w_theta",
    ),
    "region": ("NAMED_STATES", "RegionCheck", "check_sqrt", "check_theta", "theta_family_margin"),
    "states": (
        "MixedState", "PureState", "apply", "equal_up_to_global_phase", "named_state", "normalize",
        "random_pure_state", "state_from_jsonable", "state_to_jsonable",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import statement's path, which `-X importtime` reports
    __import__(f"{__name__}.{module}")
    submodule = sys.modules[f"{__name__}.{module}"]
    value = globals()[name] = submodule if name == module else getattr(submodule, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
