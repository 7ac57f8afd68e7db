"""Exact-arithmetic solvers for colorful k-center and its fair variant."""

from .fair import (
    Distribution,
    FairSolution,
    coverage_probability,
    sample,
    solve_fair,
)
from .model import (
    CenterSet,
    ColorClass,
    CoverageReport,
    FairInstance,
    Instance,
    InstanceFormatError,
    ball,
    candidate_radii,
    check_feasible,
    load_instance,
    save_instance,
    validate_metric,
)
from .oracle import (
    OracleCapExceeded,
    brute_force_colorful,
    brute_force_fair,
)
from .solver import (
    ColorfulSolution,
    InternalError,
    solve_colorful,
    solve_fixed_radius,
)

__all__ = [
    "CenterSet",
    "ColorClass",
    "ColorfulSolution",
    "CoverageReport",
    "Distribution",
    "FairInstance",
    "FairSolution",
    "Instance",
    "InstanceFormatError",
    "InternalError",
    "OracleCapExceeded",
    "ball",
    "brute_force_colorful",
    "brute_force_fair",
    "candidate_radii",
    "check_feasible",
    "coverage_probability",
    "load_instance",
    "sample",
    "save_instance",
    "solve_colorful",
    "solve_fair",
    "solve_fixed_radius",
    "validate_metric",
]
