"""Triangular equilibrium points.

A pair of off-axis equilibria exists exactly when beta1, beta2 > 0, the
admissibility constraint holds, and the cube roots delta_i = beta_i**(1/3)
satisfy the strict triangle inequalities with the unit primary separation:
three excesses of one mirrored kernel, `_excess`, decided exactly on the
betas. The points sit at distances rho_i = delta_i from the primaries:

    xL = -mu + (beta1**(2/3) - beta2**(2/3) + 1) / 2
    yL = +/- rho1 rho2 sin(gamma),

sin(gamma)**2 being `_triangle`'s area form, which does not cancel on thin
triangles (Heron's form on the excesses where the rounded deltas are flat).
Depending on the deltas the pair may lie left of body 1, between the
bodies, right of body 2, or exactly above/below either body.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import NoTriangularSolution
from .params import SystemParams, _cbrt

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


def _excess(b1: float, b2: float) -> float:
    """delta1 + delta2 - 1 for the real cube roots d1, d2 of nonzero b1, b2, not both
    negative, with an exact sign and bitwise symmetric in b1, b2. Where the rounded roots
    (`params._cbrt`) could reach the sign, it is the resultant (b1 + b2 - 1)**3 + 27 b1 b2
    on Fractions over the positive cofactor q (x**2 - 3px + 9p**2), x = b1 + b2 - 1,
    p = d1 d2, q = d1**2 + d2**2 + 1 - p + d1 + d2: a few ulp off (betas below 9 there)."""
    d1, d2 = _cbrt(b1), _cbrt(b2)
    if abs(excess := d1 + d2 - 1.0) > 2.0**-40 * (abs(d1) + abs(d2) + 1.0):
        return excess
    from fractions import Fraction

    x, p, f1, f2 = b1 + b2 - 1.0, d1 * d2, Fraction(b1), Fraction(b2)
    q = 0.5 * ((d1 - d2) ** 2 + ((d1 + 1.0) ** 2 + (d2 + 1.0) ** 2))     # sums of squares
    resultant = (f1 + f2 - 1) ** 3 + 27 * (f1 * f2)
    return float(resultant / Fraction(q * ((x - 1.5 * p) ** 2 + 6.75 * p * p)))


def _excesses(params: SystemParams) -> tuple[float, float, float] | None:
    """1 + delta1 - delta2, delta1 + delta2 - 1 and 1 + delta2 - delta1, zero on the limit
    lines in I1, I2 and I3, for positive admissible betas, else None. The mirror reverses them."""
    b1, b2 = params.beta1, params.beta2
    if not (b1 > 0.0 and b2 > 0.0 and params.admissible):
        return None
    return -_excess(-b1, b2), _excess(b1, b2), -_excess(b1, -b2)


def _on_limit_line(excesses: tuple[float, float, float]) -> int | None:
    """The Interval index of the limit line the pair collapses on: the first excess within 1e-12."""
    return next((i for i, e in enumerate(excesses) if abs(e) <= 1e-12), None)


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
    """The pair, or None where an excess is not positive. yL is the kernel's where the
    rounded deltas close a proper triangle, else Heron's sqrt((rho1 + rho2 + 1) e1 e2 e3)/2."""
    e = _excesses(params)
    if e is None or min(e) <= 0.0:
        return None
    r1, r2 = params.delta1, params.delta2
    closed, flat, sin2 = _triangle(r1, r2)
    if closed and not flat:
        yL = r1 * r2 * math.sqrt(sin2)
    else:
        yL = 0.5 * math.sqrt((r1 + r2 + 1.0) * e[1] * (e[0] * e[2]))
    t = r1**2 - r2**2                   # xL + mu = (t + 1)/2, xL - (1 - mu) = (t - 1)/2
    return TriangularPair(-params.mu + 0.5 * (t + 1.0), yL, r1, r2, _location(t))


def _location(t: float) -> TriangularLocation:
    """Body 2's side (t > 0) is body 1's under the mirror t -> -t, and fl(-t - 1) = -fl(t + 1)."""
    side, edge = t > 0.0, abs(t) - 1.0
    if abs(edge) <= 2.0 * _LOCATION_ATOL:
        return (TriangularLocation.ABOVE_BELOW_BODY1, TriangularLocation.ABOVE_BELOW_BODY2)[side]
    if edge > 0.0:
        return (TriangularLocation.LEFT_OF_BODY1, TriangularLocation.RIGHT_OF_BODY2)[side]
    return TriangularLocation.BETWEEN
