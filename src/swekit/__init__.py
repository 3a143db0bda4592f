"""swekit: a well-balanced finite-volume shallow-water simulation kit.

1D and 2D solvers on uniform Cartesian grids with HLL or Rusanov
fluxes, MUSCL (minmod) plus hydrostatic reconstruction of the
topography, semi-implicit Manning / Darcy-Weisbach friction, uniform
time-varying rain, two-layer Green-Ampt infiltration, and a set of
analytic reference solutions used by the bundled validation harness.
"""

__version__ = "0.1.0"

import importlib

from .boundary import BoundaryCondition, BoundarySet
from .config import ConfigError, parse_parameter_file, parse_parameters
from .core import (
    G_DEFAULT,
    H_EPS,
    Grid,
    State,
    froude_number,
    total_volume,
    velocity,
)
from .fileio import DemGrid, read_dem, read_profile, write_dem, \
    write_profile_1d, write_profile_2d
from .fluxes import hll_flux, rusanov_flux
from .reconstruction import hydrostatic_reconstruct, minmod, muscl_slopes
from .sources import (
    FrictionParams,
    GreenAmptParams,
    GreenAmptState,
    Hyetograph,
    friction_semi_implicit,
    infiltration_capacity,
    infiltration_step,
)
from .timeloop import (
    NumericalFault,
    RunResult,
    SchemeConfig,
    SimulationConfig,
    compute_dt,
    run_simulation,
)

# Loaded on first access (PEP 562): a run needs neither the analytic
# solutions, nor the built-in cases, nor the validation harness.
_LAZY = {
    "analytic": ("extrapolated_front_position", "lake_at_rest_profile",
                 "macdonald_rain_profile", "macdonald_shock_profile",
                 "macdonald_topography", "ritter_front_position",
                 "ritter_profile", "thacker_planar_profile", "ThackerParams",
                 "wet_front_position"),
    "cases": ("CASE_NAMES", "get_case"),
    "validate": ("run_validation",),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items()
               for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY_NAMES[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "__version__",
    "BoundaryCondition",
    "BoundarySet",
    "CASE_NAMES",
    "ConfigError",
    "DemGrid",
    "FrictionParams",
    "G_DEFAULT",
    "GreenAmptParams",
    "GreenAmptState",
    "Grid",
    "H_EPS",
    "Hyetograph",
    "NumericalFault",
    "RunResult",
    "SchemeConfig",
    "SimulationConfig",
    "State",
    "ThackerParams",
    "compute_dt",
    "extrapolated_front_position",
    "friction_semi_implicit",
    "froude_number",
    "get_case",
    "hll_flux",
    "hydrostatic_reconstruct",
    "infiltration_capacity",
    "infiltration_step",
    "lake_at_rest_profile",
    "macdonald_rain_profile",
    "macdonald_shock_profile",
    "macdonald_topography",
    "minmod",
    "muscl_slopes",
    "parse_parameter_file",
    "parse_parameters",
    "read_dem",
    "read_profile",
    "ritter_front_position",
    "ritter_profile",
    "run_simulation",
    "run_validation",
    "rusanov_flux",
    "thacker_planar_profile",
    "total_volume",
    "velocity",
    "wet_front_position",
    "write_dem",
    "write_profile_1d",
    "write_profile_2d",
]
