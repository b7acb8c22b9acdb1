"""Linear stability of equilibria.

The linearized flow at an equilibrium is generated by

    A = [[0, 1, 1, 0], [-1, 0, 0, 1], [Vxx, Vxy, 0, 1], [Vxy, Vyy, -1, 0]],

whose characteristic polynomial is the biquadratic

    lam**4 + lam**2 (4 - Wxx - Wyy) + Wxx Wyy - Wxy**2,      W = Omega Hessian.

At a triangular point the polynomial collapses to
lam**4 + lam**2 + 9 mu (1-mu) sin(gamma)**2 with gamma the supplement of
the vertex angle at the equilibrium (cos gamma = (1 - rho1**2 - rho2**2) /
(2 rho1 rho2)), so the spectrum is governed by the single discriminant

    F(mu, gamma) = 1 - 36 mu (1-mu) sin(gamma)**2,

with the four-way classification: F < 0 spiral instability, F = 0 a
non-diagonalizable double pair +-(sqrt2/2) i, 0 < F < 1 four distinct
imaginary eigenvalues, F = 1 the axis-degenerate case 0, 0, +-i.

The classification and the spectrum at a point are closed-form
`math`/`cmath`. Only the matrix `linearization` needs numpy and the
potential from `dynamics`; it imports both when called, so the
classification loads neither.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import BelowCriticalMass, NotOnTriangularLocus, ValidationError
from .params import SystemParams, _require_folded_mu
from .triangular import _excesses, _on_limit_line

if TYPE_CHECKING:
    import numpy as np

# F = 0 / F = 1 are honored exactly within this absolute band.
_BOUNDARY_ATOL = 1e-12


class StabilityClass(enum.Enum):
    LYAPUNOV_UNSTABLE = "LyapunovUnstable"
    LINEARLY_UNSTABLE_F_ZERO = "LinearlyUnstable_Fzero"
    LINEARLY_STABLE = "LinearlyStable"
    LINEARLY_UNSTABLE_F_ONE = "LinearlyUnstable_Fone"


class StabilityReport(NamedTuple):
    eigenvalues: tuple[complex, complex, complex, complex]
    f_value: float
    gamma: float
    classification: StabilityClass

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "F": self.f_value,
            "gamma": self.gamma,
            "classification": self.classification.value,
        }


def linearization(params: SystemParams, x: float, y: float) -> np.ndarray:
    """The 4x4 matrix of the flow linearized at (x, y) with equilibrium momenta."""
    import numpy as np

    from .dynamics import potential

    s = potential(params, x, y)
    return np.array(
        [
            [0.0, 1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
            [s.Vxx, s.Vxy, 0.0, 1.0],
            [s.Vxy, s.Vyy, -1.0, 0.0],
        ]
    )


def quartic_eigenvalues(a: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Spectrum of a linearization matrix via the biquadratic closed form.

    Reads the Hessian entries back out of `a`, solves the quadratic in
    u = lam**2 and takes complex square roots; returned as
    (+sqrt(u+), -sqrt(u+), +sqrt(u-), -sqrt(u-)).
    """
    return _hessian_eigenvalues(float(a[2, 0]), float(a[2, 1]), float(a[3, 1]))


def _hessian_eigenvalues(vxx: float, vxy: float, vyy: float):
    """The spectrum of the linearization whose potential has these second
    derivatives; the CLI's `stability --point` takes it from `potential`."""
    wxx, wyy, wxy = 1.0 + vxx, 1.0 + vyy, vxy
    p = 4.0 - wxx - wyy
    q = wxx * wyy - wxy * wxy
    return _biquadratic_roots(p, p * p - 4.0 * q)


def _biquadratic_roots(p: float, d: float) -> tuple[complex, complex, complex, complex]:
    """The roots of lam**4 + p lam**2 + q, given d = p**2 - 4q: lam = +-sqrt(u+-),
    u+- = (-p +- sqrt(d))/2, with complex square roots."""
    disc = cmath.sqrt(complex(d))
    lp, lm = cmath.sqrt((-p + disc) / 2.0), cmath.sqrt((-p - disc) / 2.0)
    return (lp, -lp, lm, -lm)


def gamma_of(params: SystemParams) -> float:
    """The angle gamma in [0, pi] with cos gamma = (1 - rho1^2 - rho2^2)/(2 rho1 rho2).

    Defined at triangular points (rho_i = beta_i^(1/3)), where every excess of
    `triangular._excesses` is positive, and on the degenerate limit lines, where it
    evaluates to 0 or pi.
    """
    excesses = _excesses(params)
    if excesses is None or not (min(excesses) > 0.0 or _on_limit_line(excesses) is not None):
        raise NotOnTriangularLocus(
            f"(beta1, beta2) = ({params.beta1!r}, {params.beta2!r}) supports no "
            "triangular point and is not on a degenerate limit line"
        )
    r1, r2 = params.delta1, params.delta2
    return math.acos(min(1.0, max(-1.0, (1.0 - r1 * r1 - r2 * r2) / (2.0 * r1 * r2))))


def _discriminant(mu, sin2):
    """F = 1 - 36 mu (1-mu) sin2 for sin2 = sin(gamma)**2; scalars or numpy arrays."""
    return 1.0 - 36.0 * mu * (1.0 - mu) * sin2


def f_stability(mu: float, gamma: float) -> float:
    """F(mu, gamma) = 1 - 36 mu (1-mu) sin(gamma)**2."""
    _require_folded_mu(mu)
    if not (0.0 <= gamma <= math.pi):
        raise ValidationError(f"gamma must lie in [0, pi], got {gamma!r}")
    return _discriminant(mu, math.sin(gamma) ** 2)


def critical_mu() -> float:
    """The smallest mass ratio at which F can vanish: 1/2 - sqrt(2)/3."""
    return 0.5 - math.sqrt(2.0) / 3.0


def gamma_mu(mu: float) -> float:
    """The boundary angle arcsin(1/(6 sqrt(mu(1-mu)))) where gamma = pi/2 is unstable.

    F(mu, .) vanishes exactly at gamma_mu and pi - gamma_mu; both are pi/2 where the class
    of pi/2 is F = 0, within _BOUNDARY_ATOL of it: about 8,500 ulp either side of mu*.
    """
    _require_folded_mu(mu)
    index = _stability_index(_discriminant(mu, 1.0))
    if index >= 2:
        raise BelowCriticalMass(
            f"mu = {mu!r} is below the critical ratio {critical_mu()!r}; F never vanishes"
        )
    return math.pi / 2.0 if index == 1 else math.asin(1.0 / (6.0 * math.sqrt(mu * (1.0 - mu))))


def classify_triangular(params: SystemParams) -> StabilityReport:
    """Theorem-level classification of a triangular (or limit) equilibrium.

    The class is a function of (mu, gamma) alone; mu > 1/2 inputs are
    folded through the mu <-> 1-mu symmetry of F.
    """
    gamma = gamma_of(params)
    mu = params.mu if params.mu <= 0.5 else 1.0 - params.mu
    f_val = f_stability(mu, gamma)
    cls = list(StabilityClass)[_stability_index(f_val)]
    if cls is StabilityClass.LINEARLY_UNSTABLE_F_ZERO:
        lam = complex(0.0, math.sqrt(2.0) / 2.0)
        eig = (lam, -lam, lam, -lam)
    elif cls is StabilityClass.LINEARLY_UNSTABLE_F_ONE:
        eig = (0.0 + 0.0j, 0.0 + 0.0j, 1.0j, -1.0j)
    else:
        eig = _biquadratic_roots(1.0, f_val)     # p = 1 and d = 1 - 4q = F
    return StabilityReport(eig, f_val, gamma, cls)


def _stability_index(f, stable=2):
    """The position in StabilityClass of the class that F gives: 2 (stable),
    less 2 for F < 0, less 1 at F = 0, plus 1 at F = 1, the equalities within
    _BOUNDARY_ATOL. Floats or numpy arrays; the stability rasters label by it,
    passing `stable` = np.int8(3), the stable class's STABILITY_LEGEND label, so that
    an array's arithmetic stays in int8."""
    one = abs(f - 1.0) <= _BOUNDARY_ATOL
    # F <= the band's top: less 1 (F = 0); below its bottom too: less 2 (F < 0)
    return stable - (f <= _BOUNDARY_ATOL) - (f < -_BOUNDARY_ATOL) + one
