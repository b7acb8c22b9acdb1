"""Error contract: every input check raises a ValidationError, which is also a ValueError."""

import math

import numpy as np
import pytest

from rc3bp import collinear, dynamics, params, regions, stability, twobody
from rc3bp.collinear import Interval
from rc3bp.errors import Rc3bpError, ValidationError


def test_validation_error_is_a_value_error_with_exit_code_two():
    assert issubclass(ValidationError, ValueError)
    assert issubclass(ValidationError, Rc3bpError)
    assert ValidationError.exit_code == 2


_CFG = twobody.TwoBodyConfig(1.0, 1.0, 2.0, 2.0)
_P = params.SystemParams(0.2, 1.0, 1.0)
_S0 = dynamics.PhaseState(0.3, 0.8, -0.8, 0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: params.force_regime(math.nan),
        lambda: params.SystemParams(1.0, 1.0, 1.0),
        lambda: params.SystemParams(0.2, math.inf, 1.0),
        lambda: params.PhysicalSystem(1.0, 1.0, 0.0, 0.0, 0.0, 1.0, G=0.0),
        lambda: twobody.TwoBodyConfig(0.0, 1.0, 1.0, 1.0),
        lambda: twobody.TwoBodyConfig(1.0, 1.0, 1.0, 1.0, k=-1.0),
        lambda: twobody.hyperbolic_orbit(_CFG, -1.0, 1.0),
        lambda: dynamics.integrate(_P, _S0, -1.0),
        lambda: dynamics.integrate(_P, _S0, math.nan),
        lambda: dynamics.integrate(_P, _S0, 1.0, tol=1.0),
        lambda: dynamics.integrate(_P, dynamics.PhaseState(math.nan, 0.0, 0.0, 0.0), 1.0),
        lambda: stability.f_stability(0.7, 1.0),
        lambda: stability.f_stability(0.2, 4.0),
        lambda: stability.gamma_mu(0.0),
        lambda: collinear.critical_roots(0.7),
        lambda: collinear.critical_roots_series(0.0),
        lambda: regions.RegionRaster((0, 1), (0, 1), (1, 4), np.zeros((4, 1)), ("a",), "p"),
        lambda: regions.RegionRaster((0, 1), (0, 1), (2, 2), np.zeros((3, 2)), ("a",), "p"),
        lambda: regions.triangular_region_raster("momentum"),
        lambda: regions.triangular_boundary_polylines("momentum"),
        lambda: regions.collinear_region_raster(Interval.I1, 0.7),
        lambda: regions.collinear_region_raster(Interval.I2, 0.2, resolution=-3),
        lambda: regions.stable_region_report(0.7),
        lambda: regions.figure_dataset(8),
        lambda: regions.figure_dataset(5, mu=0.2),
        lambda: regions.configuration_stability_raster(math.nan, resolution=8),
        lambda: regions.configuration_stability_raster(-1.0, resolution=8),
        lambda: regions.parameter_stability_raster(math.nan, resolution=8),
        lambda: regions.parameter_stability_raster(5.0, resolution=8),
    ],
)
def test_input_checks_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()
