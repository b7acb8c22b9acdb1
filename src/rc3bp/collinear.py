"""Collinear equilibria: the axis function F, regions, and root counting.

On the axis the equilibrium condition reduces to F(x) = 0 with

    F(x) = x - beta1 (1-mu)(x+mu)/rho1**3 - beta2 mu (x+mu-1)/rho2**3,

rho_i the unsigned distances to the primaries. Per interval
I1 = (-inf, -mu), I2 = (-mu, 1-mu), I3 = (1-mu, inf) the absolute values
resolve to the reduced forms

    I1:  x + beta1(1-mu)/rho1**2 + beta2 mu/rho2**2
    I2:  x - beta1(1-mu)/rho1**2 + beta2 mu/rho2**2
    I3:  x - beta1(1-mu)/rho1**2 - beta2 mu/rho2**2,

all sharing F'(x) = 1 + 2 beta1(1-mu)/rho1**3 + 2 beta2 mu/rho2**3.

The admissible (beta1, beta2) plane splits into S-regions on which the
root count per interval is prescribed: exactly one root in the simple
regions, and zero/two/one-double in the concave regions, where the
boundary of existence is swept by the tangency curves beta1*(x*),
beta2*(x*) and terminated by the roots x_r1, x_r2 of the degree-8
polynomial Gtilde = 4 mu (1-mu)(beta1* beta2* - beta1* - beta2*).
"""

from __future__ import annotations

import enum
import math
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from . import _brent
from .errors import AtPrimary, AxisOutOfRange, InadmissibleParams, NotOnLimitLocus
from .errors import RootNotBracketed, ValidationError
from .params import SystemParams, _require_folded_mu, _require_mu, is_admissible

if TYPE_CHECKING:
    import numpy as np

# Equality detection against the tangency-curve values beta1*, beta2*;
# the only tolerance that decides a double root.
_BAND_EDGE_RTOL = 1e-12


class Interval(enum.Enum):
    I1 = "I1"   # x < -mu
    I2 = "I2"   # -mu < x < 1 - mu
    I3 = "I3"   # x > 1 - mu


class BetaRegion(enum.Enum):
    S11 = "S_{1,1}"          # 0 < beta1 <= 1, beta2 > 0
    S12 = "S_{1,2}"          # beta1 > 1, 0 < beta2 < beta1/(beta1-1)
    S2 = "S_2"               # beta1 < 0, beta2 > beta1/(beta1-1)
    S41 = "S_{4,1}"          # 0 < beta1 < 1, beta1/(beta1-1) < beta2 < 0
    S42 = "S_{4,2}"          # beta1 >= 1, beta2 < 0
    S5 = "S_5"               # beta1 = 0, beta2 > 0
    S6 = "S_6"               # beta1 > 0, beta2 = 0
    AXIS_ORIGIN = "axis-origin"      # beta1 = beta2 = 0 (inadmissible)
    INADMISSIBLE = "inadmissible"


class PredictedCount(enum.Enum):
    """Root-count prediction for one (region, interval) pair."""

    ZERO = "zero"
    EXACTLY_ONE = "exactly-one"
    ONE_CONDITIONAL = "one-conditional"   # granted by an axis-case side condition
    UP_TO_TWO = "up-to-two"
    UNSPECIFIED = "unspecified"           # beta exactly 1 on an axis region: no claim made


class CollinearRoot(NamedTuple):
    x: float
    interval: Interval
    multiplicity: int
    residual: float

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "interval": self.interval.value,
            "multiplicity": self.multiplicity,
            "F_residual": self.residual,
        }


class ResolvedCount(NamedTuple):
    """Exact root count of one interval: `count` roots, `double` if one
    of them has multiplicity 2 (then count == 1). The field `count`
    shadows the tuple method of that name."""

    count: int
    double: bool = False


def brentq(f, a: float, b: float, xtol: float) -> float:
    """`_brent.brentq`, with its non-convergence raised as RootNotBracketed."""
    try:
        return _brent.brentq(f, a, b, xtol)
    except RuntimeError as exc:
        raise RootNotBracketed(f"Brent's method stopped short of the root: {exc}") from None


# ---------------------------------------------------------------------------
# the axis function


def f_axis(params: SystemParams, x: float) -> float:
    """Piecewise-reduced F(x). Poles at the primaries raise AtPrimary, and
    points whose squared distance to a primary underflows AxisOutOfRange."""
    # each field is read once: this runs in every Brent step of the root solves
    mu, beta1, beta2 = params.mu, params.beta1, params.beta2
    d1, d2 = x + mu, x + mu - 1.0
    if d1 == 0.0 or d2 == 0.0:
        raise AtPrimary(f"F has a pole at x = {x!r}")
    # the beta == 0 guard keeps 0 * inf out of near-pole evaluations
    try:
        t1 = beta1 * (1.0 - mu) / (d1 * d1) if beta1 != 0.0 else 0.0
        t2 = beta2 * mu / (d2 * d2) if beta2 != 0.0 else 0.0
    except ZeroDivisionError:
        raise AxisOutOfRange(
            f"F is not representable at x = {x!r}: its squared distance to a primary underflows"
        ) from None
    if d1 > 0.0:
        t1 = -t1
    if d2 > 0.0:
        t2 = -t2
    return x + t1 + t2


def f_axis_prime(params: SystemParams, x: float) -> float:
    """F'(x) = 1 + 2 beta1(1-mu)/rho1**3 + 2 beta2 mu/rho2**3 (all intervals).

    AtPrimary at a pole; AxisOutOfRange where a rho_i**3 underflows or
    overflows.
    """
    mu, beta1, beta2 = params.mu, params.beta1, params.beta2
    r1, r2 = abs(x + mu), abs(x + mu - 1.0)
    if r1 == 0.0 or r2 == 0.0:
        raise AtPrimary(f"F' has a pole at x = {x!r}")
    try:
        t1 = 2.0 * beta1 * (1.0 - mu) / r1**3 if beta1 != 0.0 else 0.0
        t2 = 2.0 * beta2 * mu / r2**3 if beta2 != 0.0 else 0.0
    except (ZeroDivisionError, OverflowError):
        raise AxisOutOfRange(
            f"F' is not representable at x = {x!r}: a cubed distance to a primary "
            "leaves the doubles"
        ) from None
    return 1.0 + t1 + t2


def mirror(params: SystemParams, x: float) -> tuple[SystemParams, float]:
    """The body-swap symmetry (mu, b1, b2, x) -> (1-mu, b2, b1, -x).

    F changes sign under it, so roots map to roots.
    """
    return params.mirrored(), -x


# ---------------------------------------------------------------------------
# region classification


def classify_region(params: SystemParams) -> BetaRegion:
    """The unique S-region of (beta1, beta2), or the inadmissible labels."""
    b1, b2 = params.beta1, params.beta2
    if b1 == 0.0 and b2 == 0.0:
        return BetaRegion.AXIS_ORIGIN
    if not is_admissible(b1, b2):
        return BetaRegion.INADMISSIBLE
    if b1 == 0.0:
        return BetaRegion.S5       # admissibility forces beta2 > 0
    if b2 == 0.0:
        return BetaRegion.S6
    if b1 < 0.0:
        return BetaRegion.S2
    if b2 < 0.0:
        return BetaRegion.S41 if b1 < 1.0 else BetaRegion.S42
    return BetaRegion.S11 if b1 <= 1.0 else BetaRegion.S12


def predicted_root_count(params: SystemParams, interval: Interval) -> PredictedCount:
    """The theorem-prescribed count for (region, interval), decided on the
    (near, free) betas of `_near_free`: up to two roots where the near body
    repels, else one where `_one_root` says so (conditional where the near
    beta is 0, on S5 and S6), and no claim where the free beta is then 1."""
    if not params.admissible:
        raise InadmissibleParams(
            f"(beta1, beta2) = ({params.beta1!r}, {params.beta2!r}) is not admissible"
        )
    near, free = _near_free(params, interval)
    if near < 0.0:
        return PredictedCount.UP_TO_TWO
    if _one_root(near, free, interval is Interval.I2):
        return PredictedCount.EXACTLY_ONE if near > 0.0 else PredictedCount.ONE_CONDITIONAL
    return PredictedCount.UNSPECIFIED if free == 1.0 else PredictedCount.ZERO


def _near_free(params: SystemParams, interval: Interval) -> tuple[float, float]:
    """(near beta, free beta): the near body is the one next to an outer
    interval, and in I2 the one with the smaller beta."""
    b1, b2 = params.beta1, params.beta2
    if interval is Interval.I1:
        return b1, b2
    if interval is Interval.I3:
        return b2, b1
    return min(b1, b2), max(b1, b2)


def _one_root(near, free, middle: bool):
    """Whether an admissible pair has one root outside the concave bands: where
    the near beta is positive (in I2, `middle`, the free one too), or 0 with the
    free beta below 1 in I2 and above 1 beyond the near body. Floats or numpy
    arrays; `_root_label` labels by it."""
    if middle:
        return ((near > 0.0) & (free > 0.0)) | ((near == 0.0) & (free < 1.0))
    return (near > 0.0) | ((near == 0.0) & (free > 1.0))


# ---------------------------------------------------------------------------
# tangency curves and the critical roots


# The curves in the frame of the primary the tangency sits next to (the
# near body, mass m_near; the other is the far body, mass m_far), at the
# signed distance s outward from it: s > 0 beyond it, -1 < s < 0 toward
# the far body. Body 1 takes (m_near, m_far) = (1-mu, mu), s = -(x+mu);
# body 2 takes (mu, 1-mu), s = x+mu-1: the mirror is an exact swap of
# arguments, with no 1 - (1-mu). Beyond the near body its beta is -beta*.


def _near_star(s, m_near: float, m_far: float):
    """The near body's beta*: s^3 (3s + 2 m_far + 1) / (2 m_near)."""
    return s**3 * (3.0 * s + 2.0 * m_far + 1.0) / (2.0 * m_near)


def _far_star(s, m_far: float):
    """The far body's beta*: (3s + 2 m_far)(1 + s)^3 / (2 m_far)."""
    return (3.0 * s + 2.0 * m_far) * (1.0 + s) ** 3 / (2.0 * m_far)


def g_tilde(x_star: float | np.ndarray, mu: float):
    """4 mu (1-mu) G: polynomial in (x*, mu), pole-free at mu in {0, 1}."""
    p1 = (3.0 * x_star + mu - 1.0) * (x_star + mu) ** 3
    p2 = (3.0 * x_star + mu) * (x_star + mu - 1.0) ** 3
    return p1 * p2 - 2.0 * mu * p1 - 2.0 * (1.0 - mu) * p2


# At and below this mu, _xr1 is the series: its remainder (about 0.3 mu**5)
# is under one ulp of mu/3, while g_tilde(-mu/3) = 16 mu**4/27 sinks under
# the polynomial's rounding error from about 7e-6 down.
_XR1_SERIES_MU = 1e-4

# At and below this near mass, _critical_gap solves for the distance from the
# near body itself. Through x_r1(1 - mu) the rounding of 1 - mu moves the
# distance by up to 1.4e-17/mu relative, and at 1e-4 it is still 250 eps off
# the 200-bit oracle where the direct solve is within 2 eps (see
# tests/test_band_edge_oracle.py). Every mu of the figures and the CLI
# references lies above it, so their bytes keep the mirrored solve.
_GAP_SOLVE_MU = 1e-4

# the x_r2 series' coefficients of q, q**2, q**3 (q = mu**(1/4)) and mu
_XR2_C = ((4.0 / 27.0) ** 0.25, 11.0 / (36.0 * math.sqrt(3.0)),
          67.0 / (864.0 * 12.0**0.25), 497.0 / 486.0)


def _xr1(mu: float) -> float:
    """The root of g_tilde(., mu) in (-mu, -mu/3).

    g_tilde(-mu) = -4 mu (1-mu) < 0 and g_tilde(-mu/3) = 16 mu**4/27 > 0,
    so a sign change is guaranteed; it is the only one (the tests confirm
    that with a fine scan over mu).
    """
    _require_mu(mu)
    if mu <= _XR1_SERIES_MU:
        return critical_roots_series(mu)[0]
    a, b = -mu, -mu / 3.0
    if not g_tilde(a, mu) < 0.0 < g_tilde(b, mu):
        raise RootNotBracketed(f"g_tilde(., mu={mu!r}) does not change sign on ({a!r}, {b!r})")
    return brentq(lambda x: g_tilde(x, mu), a, b, xtol=1e-15)


def critical_roots(mu: float) -> tuple[float, float]:
    """(x_r1, x_r2): the band-terminating roots of G(., mu).

    x_r1 is Brent's root inside (-mu, -mu/3), or the series for mu <= 1e-4;
    x_r2 follows from the mirror identity x_r2(mu) = -x_r1(1-mu), or for
    mu <= 1e-4 from its distance to primary 2 (`_critical_gap`), and is
    confirmed to lie inside ((1-mu)/3, 1-mu). Where 1 - mu rounds to 1 the
    series is returned; its neglected terms are below one ulp there.
    """
    _require_folded_mu(mu)
    if 1.0 - mu == 1.0:
        return critical_roots_series(mu)
    xr1 = _xr1(mu)
    xr2 = 1.0 - mu - _critical_gap(mu, 1.0 - mu) if mu <= _GAP_SOLVE_MU else -_xr1(1.0 - mu)
    if not ((1.0 - mu) / 3.0 < xr2 < 1.0 - mu):
        raise RootNotBracketed(f"x_r2 = {xr2!r} fell outside (({1.0 - mu!r})/3, {1.0 - mu!r})")
    return xr1, xr2


def critical_roots_series(mu: float) -> tuple[float, float]:
    """Perturbation approximations of (x_r1, x_r2) for small mu.

    x_r1 = -mu/3 - (8/81) mu**4
    x_r2 = 1 - (4/27)**(1/4) mu**(1/4) + 11/(36 sqrt3) mu**(1/2)
             + 67/(864 * 12**(1/4)) mu**(3/4) - (497/486) mu
    """
    _require_folded_mu(mu)
    c1, c2, c3, c4 = _XR2_C
    q = mu**0.25
    return -mu / 3.0 - (8.0 / 81.0) * mu**4, 1.0 - c1 * q + c2 * q**2 + c3 * q**3 - c4 * mu


def _critical_gap(m_near: float, m_far: float) -> float:
    """Distance from the near body to the critical root between the primaries.

    In the near body's frame that root is x_r1 at the far mass. For a near
    mass up to _GAP_SOLVE_MU the distance d is solved for directly, so the
    rounded m_far = 1 - m_near never sets the mass ratio; where m_far
    rounds to 1 it is 1 - mu - x_r2 from the series in mu = m_near, so
    nothing is subtracted from 1.
    """
    if m_far == 1.0:
        c1, c2, c3, c4 = _XR2_C
        q = m_near**0.25
        return c1 * q - c2 * q**2 - c3 * q**3 + (c4 - 1.0) * m_near
    if m_near > _GAP_SOLVE_MU:
        return _xr1(m_far) + m_far

    def g(d: float) -> float:
        # g_tilde at the distance d, with the d**3 terms of p1 p2 - 2 m_far p2
        # that cancel near the near body taken out by hand:
        # d**4 (1 + 2 m_far - 3d)(2 m_far (3 - 3d + d**2) + 3 (1-d)**3)
        #   - 2 m_near (2 m_far - 3d)(1-d)**3
        e = (1.0 - d) ** 3
        far = 2.0 * m_far
        return (d**4 * (1.0 + far - 3.0 * d) * (far * (3.0 - 3.0 * d + d * d) + 3.0 * e)
                - 2.0 * m_near * (far - 3.0 * d) * e)

    # g(0) = -4 m_near m_far < 0 < g(2 m_far/3), the far end of the gap
    return _solve(g, *_bracket(g, (0.0, -1.0), (2.0 * m_far / 3.0, 1.0), 1))


# ---------------------------------------------------------------------------
# resolved counts for the concave pairs

# Each concave (region, interval) pair admits 0, 2, or one double root.
# The tangency curve (beta1*(x*), beta2*(x*)) over the relevant x* range
# is inverted in one beta (both beta*'s are strictly monotone there) by
# the roots' own `_bracket` and `_solve`, to relative precision at any
# scale; comparing the other beta against its curve value decides the count.
# Body 2's bands are body 1's with the masses swapped.

COLLINEAR_LEGEND = ("Inadmissible", "ZeroRoots", "OneRoot", "TwoRoots", "DoubleRoot")
# the count each label but Inadmissible stands for
_COUNT_OF_LABEL = (None, ResolvedCount(0), ResolvedCount(1), ResolvedCount(2), ResolvedCount(1, True))


def _outer_band_edge(m_near: float, m_far: float, beta_near: float, band: str) -> float:
    """The far beta closing the band beyond the near body (see band_edge_i1)."""
    # beta* takes each value in [0, inf) once; the search toward inf would overflow s**3
    if not -math.inf < beta_near <= 0.0:
        raise RootNotBracketed(f"the {band} tangency curve does not reach beta* = {-beta_near!r}")

    def g(s: float) -> float:
        return _near_star(s, m_near, m_far) + beta_near

    s_hat = _solve(g, *_bracket(g, (0.0, -1.0), (math.inf, 1.0), 1))
    return _far_star(s_hat, m_far)     # inf past the largest double


def _middle_band_edge(m_near: float, m_far: float, beta_near: float) -> float | None:
    """The far beta closing the band between the primaries, or None (see band_edge_i2_s2).

    The curve's own range, which ends at 2 m_far/3 past the critical gap,
    is tested first: it saves the gap's root solve on most empty bands.
    """

    def g(t: float) -> float:
        return beta_near - _near_star(-t, m_near, m_far)

    if not beta_near <= 0.0 < g(2.0 * m_far / 3.0):
        return None
    gap = _critical_gap(m_near, m_far)
    if not g(gap) > 0.0:
        return None
    t_hat = _solve(g, *_bracket(g, (0.0, -1.0), (gap, 1.0), 1))
    return _far_star(-t_hat, m_far)


def band_edge_i1(mu: float, beta1: float) -> float:
    """The beta2 value closing the S2/I1 double-root band at this beta1 < 0.

    Inverts beta1* = s^3 (3s + 2mu + 1)/(2(1-mu)) (s = -(x+mu), increasing
    0 -> inf) at -beta1 and evaluates beta2* there; two roots exist for
    beta2 strictly above the returned value, one double root on it. inf
    where the edge passes the largest double (beta1 near -1e308);
    RootNotBracketed where the inversion cannot be bracketed.
    """
    return _outer_band_edge(1.0 - mu, mu, beta1, "S2/I1")


def band_edge_i2_s2(mu: float, beta1: float) -> float | None:
    """The beta2 value closing the S2/I2 band, or None when the band is empty.

    beta1* on x in (-mu, -mu/3) spans (-4 mu^3/(27(1-mu)), 0); beta1 below
    that, or a tangency abscissa at or past x_r1 (where the tangency
    parameters stop being admissible), leaves no roots for any beta2.
    Otherwise two roots exist for beta2 strictly below the returned value.
    """
    return _middle_band_edge(1.0 - mu, mu, beta1)


def band_edge_i3(mu: float, beta2: float) -> float:
    """The beta1 value closing the R'4/I3 band at this beta2 < 0.

    Mirror of band_edge_i1: inverts beta2* = (3u + 3 - 2mu) u^3/(2mu)
    (u = x+mu-1) at -beta2; two roots exist for beta1 strictly above.
    """
    return _outer_band_edge(mu, 1.0 - mu, beta2, "R'4/I3")


def band_edge_i2_r4(mu: float, beta2: float) -> float | None:
    """The beta1 value closing the R'4/I2 band, or None when it is empty.

    Mirror of band_edge_i2_s2 with v = 1-mu-x and the x_r2 cutoff; two
    roots exist for beta1 strictly below the returned value.
    """
    return _middle_band_edge(mu, 1.0 - mu, beta2)


def _bands(interval: Interval, b1, b2) -> tuple:
    """The concave bands of `interval`, each as (near beta, free beta, edge), where
    edge(mu, near) is the free beta closing the band. Body 2's bands are body 1's
    with the betas swapped. The edges are looked up on the module at each call, so
    that a wrapper put on a band_edge_* function sees every edge."""
    if interval is Interval.I1:
        return ((b1, b2, band_edge_i1),)
    if interval is Interval.I2:
        return ((b1, b2, band_edge_i2_s2), (b2, b1, band_edge_i2_r4))
    if interval is Interval.I3:
        return ((b2, b1, band_edge_i3),)
    raise ValidationError(f"unknown interval {interval!r}")


def _root_label(near, free, edge, middle: bool):
    """The COLLINEAR_LEGEND index of an admissible pair on one band of `_bands`
    (floats or numpy arrays). `edge` closes the band at `near`: NaN where there
    is none, as at a near beta >= 0, and inf past the largest double. OneRoot
    where `_one_root` says so, TwoRoots strictly inside the band (below the edge
    in I2, `middle`, above it beyond the near body), DoubleRoot where the free
    beta is within _BAND_EDGE_RTOL * max(1, |edge|) of the edge, else ZeroRoots."""
    depth = edge - free if middle else free - edge
    tol = _BAND_EDGE_RTOL * abs(edge)
    inside = (depth > _BAND_EDGE_RTOL) & (depth > tol)
    off = abs(depth)
    on_edge = ((off <= _BAND_EDGE_RTOL) | (off <= tol)) & (tol < math.inf)
    return 1 + _one_root(near, free, middle) + 2 * inside + 3 * on_edge


def resolved_root_count(params: SystemParams, interval: Interval) -> ResolvedCount:
    """Exact expected root count, with tangencies resolved: `predicted_root_count`
    refined into {0, 1, 2, one-double} by `_root_label` on the concave pairs.
    `find_in_interval` solves for exactly this many roots."""
    prediction = predicted_root_count(params, interval)
    if prediction in (PredictedCount.EXACTLY_ONE, PredictedCount.ONE_CONDITIONAL):
        return ResolvedCount(1)
    if prediction is not PredictedCount.UP_TO_TWO:
        # ZERO, or UNSPECIFIED: beta = 1 on an axis region puts the would-be root
        # exactly on the excluded primary abscissa, so the open interval holds none
        return ResolvedCount(0)
    for near, free, edge_of in _bands(interval, params.beta1, params.beta2):
        if near < 0.0:     # on one band alone, where the near body repels
            edge = edge_of(params.mu, near)
            edge = math.nan if edge is None else edge
            return _COUNT_OF_LABEL[_root_label(near, free, edge, interval is Interval.I2)]


# ---------------------------------------------------------------------------
# numerical root finding
#
# The count comes from resolved_root_count; each root is then one Brent
# solve in a bracket whose end signs follow from the limits of F. F -> -inf
# as x -> -inf and F -> +inf as x -> +inf. Next to primary i, F follows its
# beta term, +-beta_i/rho_i**2 (+ on the left of the primary, - on its
# right), and F' follows sign(beta_i); where beta_i = 0 F tends to a
# finite value instead. On the six concave pairs F' changes sign exactly
# once (it is monotone in the distance to the primary, after multiplying
# by rho**3 on I1 and I3), at the extremum x*, which splits two roots.


def _end(params: SystemParams, k: int, right: bool) -> tuple[float, float, float]:
    """(abscissa, sign of F, sign of F') at an interval end: k = 0 is -inf,
    1 primary 1 at -mu, 2 primary 2 at 1-mu, 3 is +inf; `right` when the
    end closes the interval on the right, so that a primary is approached
    from its left."""
    if k in (0, 3):
        return (-math.inf, -1.0, 1.0) if k == 0 else (math.inf, 1.0, 1.0)
    if k == 1:   # F(-mu) = mu (beta2 - 1) where beta1 = 0
        pole, beta, value = -params.mu, params.beta1, params.beta2 - 1.0
    else:        # F(1-mu) = (1-mu)(1 - beta1) where beta2 = 0
        pole, beta, value = 1.0 - params.mu, params.beta2, 1.0 - params.beta1
    if beta == 0.0:
        return pole, math.copysign(1.0, value), 1.0
    sign = math.copysign(1.0, beta)
    return pole, sign if right else -sign, sign


def _reach(fn, start: float, end: float, other: float, sign: float, partner):
    """A bracket (x, y) of a sign change of fn met on the way from start to end.

    x is the first probe where fn has `sign` or vanishes, y the probe
    before it (where fn had the other sign), or `partner` when x is the
    first probe. Toward a primary (finite `end`) the distance to it is
    halved, starting at `start` itself; toward +-inf the distance from
    `other`, the interval's far end, is doubled. RootNotBracketed when the
    walk runs into `end` in doubles or fn cannot be evaluated there.
    """
    if math.isinf(end):
        origin, step, factor = start, start - other, 2.0
    else:
        origin, step, factor = end, start - end, 0.5
    while True:
        x = origin + step
        if x == end:
            break
        try:
            if sign * fn(x) >= 0.0:
                return x, partner
        except (AtPrimary, AxisOutOfRange):
            break
        partner = x
        step *= factor
    raise RootNotBracketed(
        f"cannot bracket a root between x = {start!r} and {end!r}: "
        f"no double there gives the sign {sign:+.0f}"
    )


def _bracket(fn, lo: tuple, hi: tuple, which: int) -> tuple[float, float]:
    """A bracket inside the interval (lo[0], hi[0]) of fn, whose limits
    at the ends have the opposite signs lo[which] and hi[which]."""
    (x_lo, s_lo), (x_hi, s_hi) = (lo[0], lo[which]), (hi[0], hi[which])
    if math.isinf(x_lo):
        b, a = _reach(fn, x_hi - 1.0, x_hi, x_lo, s_hi, None)
        return _reach(fn, b, x_lo, x_hi, s_lo, b) if a is None else (a, b)
    if math.isinf(x_hi):
        a, b = _reach(fn, x_lo + 1.0, x_lo, x_hi, s_lo, None)
        return _reach(fn, a, x_hi, x_lo, s_hi, a) if b is None else (a, b)
    mid = 0.5 * (x_lo + x_hi)
    a, b = _reach(fn, mid, x_lo, x_hi, s_lo, None)
    return _reach(fn, mid, x_hi, x_lo, s_hi, a) if b is None else (a, b)


def _solve(fn, a: float, b: float) -> float:
    """Brent on the bracket [a, b], converged to a few ulps of the root.

    Brent runs on x and fn scaled by powers of two that bring the larger
    end and the larger |fn| there to order one. Powers of two scale
    exactly, so the iterates are Brent's on fn itself, but its products of
    values and steps cannot underflow where x and F are tiny.
    """
    ex = math.frexp(max(abs(a), abs(b)))[1]
    ef = math.frexp(max(abs(fn(a)), abs(fn(b))))[1]    # 0 for an infinite end
    scale = math.ldexp(1.0, min(-ef, 1000))             # 2**1074 would overflow
    u = brentq(lambda u: fn(math.ldexp(u, ex)) * scale, math.ldexp(a, -ex), math.ldexp(b, -ex), xtol=0.0)
    return math.ldexp(u, ex)


def _root(f, interval: Interval, a: float, b: float) -> CollinearRoot:
    """The simple root of f in [a, b]: Brent, then the float neighbour with least |F|."""
    x = _solve(f, a, b)
    fx = f(x)
    for toward in (min(a, b), max(a, b)):
        while x != toward:
            y = math.nextafter(x, toward)
            fy = f(y)
            if not abs(fy) < abs(fx):
                break
            x, fx = y, fy
    return CollinearRoot(x, interval, 1, fx)


def find_in_interval(params: SystemParams, interval: Interval) -> list[CollinearRoot]:
    """The roots of F inside one interval, as many as `resolved_root_count` says.

    One root is solved between the two ends; on a concave pair the
    extremum x* is solved first and is the double root, or splits the two
    roots into [near end, x*] and [x*, far end]. RootNotBracketed when a
    bracket cannot be formed in doubles (a root within an ulp of a
    primary) or F(x*) contradicts the count.
    """
    want = resolved_root_count(params, interval)
    if want.count == 0:
        return []
    k = list(Interval).index(interval)
    lo, hi = _end(params, k, False), _end(params, k + 1, True)
    f = partial(f_axis, params)
    if want.count == 1 and not want.double:
        return [_root(f, interval, *_bracket(f, lo, hi, 1))]
    fp = partial(f_axis_prime, params)
    x_star = _solve(fp, *_bracket(fp, lo, hi, 2))
    f_star = f(x_star)
    if want.double:
        return [CollinearRoot(x_star, interval, 2, f_star)]
    s = lo[1]   # F has this sign at both ends and the other one at x*
    if not s * f_star < 0.0:
        raise RootNotBracketed(f"F(x*) = {f_star!r} at x* = {x_star!r} leaves no two roots")
    return [
        _root(f, interval, *_reach(f, x_star, lo[0], hi[0], s, x_star)),
        _root(f, interval, *_reach(f, x_star, hi[0], lo[0], s, x_star)),
    ]


def find_collinear(params: SystemParams) -> list[CollinearRoot]:
    """All roots of F across I1, I2, I3."""
    out: list[CollinearRoot] = []
    for interval in Interval:
        out.extend(find_in_interval(params, interval))
    return out


def limit_collinear(params: SystemParams) -> list[CollinearRoot]:
    """The closed-form axis equilibria on the triangle-degeneracy lines.

    Requires beta1, beta2 > 0 (admissible) and an excess of `triangular._excesses`
    within 1e-12 of 0 (`triangular._on_limit_line`), the first on delta2 - delta1 = 1,
    delta1 + delta2 = 1 or delta1 - delta2 = 1: the triangular points collapsed onto the axis.
    """
    from . import triangular

    excesses = triangular._excesses(params)
    line = None if excesses is None else triangular._on_limit_line(excesses)
    if line is None:
        raise NotOnLimitLocus(
            f"(beta1, beta2) = ({params.beta1!r}, {params.beta2!r}) is not on a "
            "delta_i +/- delta_j = 1 line in R'_1"
        )
    d1 = params.delta1
    x = -params.mu - d1 if line == 0 else -params.mu + d1
    interval = list(Interval)[line]
    return [CollinearRoot(x, interval, 1, f_axis(params, x))]
