"""Two charged bodies: classification and the repulsive scattering solution.

The relative motion is governed by the single coupling constant
C = G m1 m2 - k q1 q2. For C > 0 the problem is Kepler's; C = 0 is free
motion; C < 0 is pure repulsion, where every orbit with angular momentum
l != 0 and energy k* > 0 is the hyperbola branch

    1/rho = c (-1 + e cos(theta - theta')),   e > 1,

with c = mu_red |C| / l**2 and e = sqrt(1 + 2 l**2 k* / (mu_red C**2)).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import NonpositiveRadius, NotRepulsive, NumericError, ValidationError
from .errors import ZeroAngularMomentum
from .params import _Checked, _require_fields

# Relative tolerance for treating the radial-momentum radicand as zero at
# the turning point; pure roundoff in k* - V_eff(rho*) must not flip the
# allowed region test.
_TURNING_POINT_RTOL = 1e-12


class OrbitClass(enum.Enum):
    KEPLERIAN = "keplerian"   # C > 0, gravity wins
    FREE = "free"             # C = 0, straight lines
    REPULSIVE = "repulsive"   # C < 0, scattering hyperbolae


class _TwoBodyConfigFields(NamedTuple):
    m1: float
    m2: float
    q1: float
    q2: float
    G: float = 1.0
    k: float = 1.0


class TwoBodyConfig(_Checked, _TwoBodyConfigFields):
    """Masses, charges and constants of an isolated pair."""

    __slots__ = ()
    _check = _require_fields

    @property
    def C(self) -> float:
        return self.G * self.m1 * self.m2 - self.k * self.q1 * self.q2

    @property
    def mu_red(self) -> float:
        """Reduced mass m1 m2 / (m1 + m2), formed on the masses' mantissas and scaled
        back by a power of two, so that it underflows or overflows only where the true
        value leaves the doubles; bitwise the plain quotient where m1 m2 and it are normal."""
        small, large = sorted((self.m1, self.m2))
        (a, e), (b, f) = math.frexp(large), math.frexp(small)
        return math.ldexp(a * b / (a + math.ldexp(small, -e)), f)


class HyperbolicOrbit(NamedTuple):
    """Geometry of one repulsive scattering orbit.

    theta_e = arccos(1/e) is the polar angle of the outgoing asymptote
    (theta' = 0 convention); the motion sweeps theta in (-theta_e, theta_e).
    r0 = |C|/k* is the Hill radius: no trajectory of energy k* enters
    rho < r0. rho_star >= r0 is the actual turning radius of this orbit.
    """

    c: float
    e: float
    theta_prime: float
    theta_e: float
    r0: float
    rho_star: float

    def radius_at(self, theta: float) -> float:
        """rho(theta) on the orbit; infinite at the asymptote angles."""
        denom = self.c * (-1.0 + self.e * math.cos(theta - self.theta_prime))
        if denom <= 0.0:
            return math.inf
        return 1.0 / denom

    def to_dict(self) -> dict:
        return self._asdict()


def classify(cfg: TwoBodyConfig) -> OrbitClass:
    """Orbit class from the sign of C. The comparison is exact."""
    if cfg.C > 0.0:
        return OrbitClass.KEPLERIAN
    if cfg.C == 0.0:
        return OrbitClass.FREE
    return OrbitClass.REPULSIVE


def effective_potential(rho: float, l: float, mu_red: float, C: float) -> float:
    """V_eff(rho) = l**2/(2 mu_red rho**2) + |C|/rho for the repulsive problem."""
    if rho <= 0.0:
        raise NonpositiveRadius(f"rho must be positive, got {rho!r}")
    return l * l / (2.0 * mu_red * rho * rho) + abs(C) / rho


def hyperbolic_orbit(cfg: TwoBodyConfig, k_star: float, l: float) -> HyperbolicOrbit:
    """Closed-form scattering orbit for C < 0, energy k* > 0, momentum l != 0.

    theta' is fixed to 0: the turning point sits on the positive x-axis.
    NumericError where r0 leaves the doubles, mu_red C**2 underflows to 0, or
    e rounds to 1, so that the orbit is no hyperbola in doubles.
    """
    if not (math.isfinite(k_star) and math.isfinite(l)):
        raise ValidationError(f"k_star and l must be finite, got {k_star!r} and {l!r}")
    C = cfg.C
    if C >= 0.0:
        raise NotRepulsive(f"C = {C!r} >= 0: hyperbolic repulsive orbit undefined")
    if l == 0.0:
        raise ZeroAngularMomentum("l = 0: radial scattering has no conic form")
    if k_star <= 0.0:
        raise ValidationError(f"k_star must be positive, got {k_star!r}")

    mu_red = cfg.mu_red
    r0 = abs(C) / k_star
    if not math.isfinite(r0):
        raise NumericError(f"r0 = |C|/k_star = {r0!r} is not a finite double")
    if mu_red * C * C == 0.0:
        raise NumericError(f"mu_red C**2 underflows to 0 at {cfg!r}")
    # e is exactly 1 where l**2 underflows, so c below never divides by zero
    e = math.sqrt(1.0 + 2.0 * l * l * k_star / (mu_red * C * C))
    if e == 1.0:
        raise NumericError(
            f"e rounds to 1 at k_star = {k_star!r}, l = {l!r}: 2 l**2 k*/(mu_red C**2) is "
            "below half an ulp of 1"
        )
    c = mu_red * abs(C) / (l * l)
    rho_star = (abs(C) / (2.0 * k_star)) * (1.0 + e)
    theta_e = math.acos(1.0 / e)
    return HyperbolicOrbit(c=c, e=e, theta_prime=0.0, theta_e=theta_e, r0=r0, rho_star=rho_star)


def radial_momentum(
    rho: float, k_star: float, l: float, mu_red: float, C: float
) -> tuple[float, float] | None:
    """The pair +/- sqrt(2 mu_red (k* - V_eff(rho))), or None in the forbidden region.

    Within a relative band of the turning point the radicand is clamped to
    zero, so rho = rho_star reports exactly (0.0, 0.0).
    """
    radicand = 2.0 * mu_red * (k_star - effective_potential(rho, l, mu_red, C))
    if radicand < 0.0:
        if radicand > -_TURNING_POINT_RTOL * max(1.0, 2.0 * mu_red * k_star):
            radicand = 0.0
        else:
            return None
    p = math.sqrt(radicand)
    return (p, -p)
