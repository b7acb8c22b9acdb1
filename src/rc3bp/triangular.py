"""Triangular equilibrium points.

A pair of off-axis equilibria exists exactly when beta1, beta2 > 0, the
cube roots delta_i = beta_i**(1/3) satisfy the strict triangle
inequalities with the unit primary separation (decided exactly by
`_triangle`, which figures 6, 7 and 16-21 share), and the admissibility
constraint holds. The points sit at distances rho_i = delta_i from the
primaries:

    xL = -mu + (beta1**(2/3) - beta2**(2/3) + 1) / 2
    yL = +/- rho1 rho2 sin(gamma),

sin(gamma)**2 being `_triangle`'s area form, which does not cancel on thin
triangles. Depending on the deltas the pair may lie left of body 1, between
the bodies, right of body 2, or exactly above/below either body.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import NoTriangularSolution
from .params import SystemParams

# Treat |xL - (-mu)| and |xL - (1-mu)| below this as exact: the
# above/below cases arise from cube/square root arithmetic (e.g.
# beta2 = 2**1.5) that lands within a few ulp of the boundary.
_LOCATION_ATOL = 1e-12


class TriangularLocation(enum.Enum):
    LEFT_OF_BODY1 = "left-of-body-1"
    ABOVE_BELOW_BODY1 = "above-below-body-1"
    BETWEEN = "between"
    ABOVE_BELOW_BODY2 = "above-below-body-2"
    RIGHT_OF_BODY2 = "right-of-body-2"


class TriangularPair(NamedTuple):
    """The L4 point (xL, +yL) and its reflection L5 = (xL, -yL), yL > 0."""

    xL: float
    yL: float
    rho1: float
    rho2: float
    location: TriangularLocation

    @property
    def l4(self) -> tuple[float, float]:
        return (self.xL, self.yL)

    @property
    def l5(self) -> tuple[float, float]:
        return (self.xL, -self.yL)


def triangular_exists(params: SystemParams) -> bool:
    """True iff the closed-form triangular pair exists (strict inequalities, decided exactly)."""
    return _pair(params) is not None


def _triangle(r1, r2, y=None, area=True):
    """(closed, flat, sin2 = sin(gamma)**2 if `area`) of the triangle with sides r1, r2 > 0 and 1,
    floats or arrays. With s = r1 + r2, t = r1 - r2, the signs of s - 1 and of (1 - t)(1 + t)
    are exact for sides up to 2**53: 1 - r is exact for r >= 1/2 (Sterbenz), and s - 1 is
    r1 - (1 - r2) less the rounding error of 1 - r2 (Fast2Sum, Dekker 1971). sin2 is the area
    form (s + 1)(s - 1)(1 - t)(1 + t)/(2 r1 r2)**2, bitwise symmetric on the closed domain.
    Given the height y of the point at distances r1, r2 from the primaries, the triangle is flat
    iff y == 0 and sin2 = (y / (r1 r2))**2."""
    if y is not None:
        return (r1 > 0.0) & (r2 > 0.0), y == 0.0, (y / (r1 * r2)) ** 2 if area else None
    u1, u2 = 1.0 - r1, 1.0 - r2
    short, wide = r1 - u2, r2 + u1                    # in place below: few block temporaries
    short -= (1.0 - u2) - r2                          # s - 1
    wide *= r1 + u2                                   # (1 - t)(1 + t), negative iff one is
    closed, flat = (short >= 0.0) & (wide >= 0.0), (short == 0.0) | (wide == 0.0)
    if not area:
        return closed, flat, None
    sin2 = short + 2.0
    sin2 *= short
    sin2 *= wide
    del short, wide
    sin2 /= (2.0 * r1 * r2) ** 2
    return closed, flat, sin2


def triangular_points(params: SystemParams) -> TriangularPair:
    """Compute the pair, or raise NoTriangularSolution."""
    pair = _pair(params)
    if pair is None:
        raise NoTriangularSolution(
            f"no triangular equilibria for beta1={params.beta1!r}, beta2={params.beta2!r}"
        )
    return pair


def classify_location(params: SystemParams) -> TriangularLocation:
    """Which side of the primaries the pair falls on.

    Equivalent to comparing xL against -mu and 1-mu; the above/below
    branches are equalities, detected within 1e-12.
    """
    return triangular_points(params).location


def _pair(params: SystemParams) -> TriangularPair | None:
    """The pair, or None where it does not exist. The kernel decides the triangle
    before it forms the area, which divides by (2 rho1 rho2)**2."""
    r1, r2 = params.delta1, params.delta2
    closed, flat, _ = _triangle(r1, r2, area=False)
    if not (r1 > 0.0 and r2 > 0.0 and params.admissible and closed and not flat):
        return None
    t = r1**2 - r2**2                   # xL + mu = (t + 1)/2, xL - (1 - mu) = (t - 1)/2
    yL = r1 * r2 * math.sqrt(_triangle(r1, r2)[2])
    return TriangularPair(-params.mu + 0.5 * (t + 1.0), yL, r1, r2, _location(t))


def _location(t: float) -> TriangularLocation:
    """Body 2's side (t > 0) is body 1's under the mirror t -> -t, and fl(-t - 1) = -fl(t + 1)."""
    side, edge = t > 0.0, abs(t) - 1.0
    if abs(edge) <= 2.0 * _LOCATION_ATOL:
        return (TriangularLocation.ABOVE_BELOW_BODY1, TriangularLocation.ABOVE_BELOW_BODY2)[side]
    if edge > 0.0:
        return (TriangularLocation.LEFT_OF_BODY1, TriangularLocation.RIGHT_OF_BODY2)[side]
    return TriangularLocation.BETWEEN
