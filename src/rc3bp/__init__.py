"""Planar circular restricted charged three-body problem.

Parameter reduction, two-body orbit classification, equilibrium location
and counting, linear stability of the triangular points, and the region
geometry behind the published phase diagrams.

Each public name is imported from its submodule on first use, so that
`import rc3bp` loads numpy only when a name that needs it is used. The
parameter checks, the two-body and triangular closed forms, the
collinear counts and roots, `potential`, `hamiltonian`, `eom`,
`classify_triangular` and the spectrum behind `stability --point` run
without numpy; the rasters and datasets of `regions`, `integrate`,
`PhaseState.as_array` and `linearization` load it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AtPrimary", "AxisOutOfRange", "BelowCriticalMass", "CollisionSingularity",
        "DegenerateGamma", "InadmissibleParams", "NonpositiveMass",
        "NonpositiveRadius", "NoTriangularSolution", "NotOnLimitLocus",
        "NotOnTriangularLocus", "NotRepulsive", "NumericError", "Rc3bpError",
        "RootNotBracketed", "StepSizeUnderflow", "ValidationError",
        "WorkBudgetExceeded", "ZeroAngularMomentum", "ZeroThirdCharge",
    ),
    "params": (
        "PhysicalSystem", "SystemParams", "is_admissible", "reduce",
    ),
    "twobody": (
        "HyperbolicOrbit", "OrbitClass", "TwoBodyConfig", "classify",
        "effective_potential", "hyperbolic_orbit", "radial_momentum",
    ),
    "dynamics": (
        "PhaseState", "PotentialSample", "Trajectory", "eom",
        "equilibrium_state", "hamiltonian", "integrate", "omega",
        "omega_gradient", "potential", "primary_distances",
    ),
    "triangular": (
        "TriangularLocation", "TriangularPair", "classify_location",
        "triangular_exists", "triangular_points",
    ),
    "collinear": (
        "BetaRegion", "CollinearRoot", "Interval", "PredictedCount",
        "classify_region", "critical_roots", "critical_roots_series", "f_axis",
        "find_collinear", "find_in_interval", "limit_collinear",
        "predicted_root_count", "resolved_root_count",
    ),
    "stability": (
        "StabilityClass", "StabilityReport", "classify_triangular",
        "critical_mu", "f_stability", "gamma_mu", "gamma_of", "linearization",
        "quartic_eigenvalues",
    ),
    "regions": (
        "FigureDataset", "RegionRaster", "StableArc", "StableEllipse",
        "StableRegime", "StableRegionReport", "admissible_region_raster",
        "collinear_region_raster", "configuration_stability_raster",
        "figure_dataset", "parameter_stability_raster", "stability_map_raster",
        "stable_arcs", "stable_region_report", "triangular_region_raster",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
