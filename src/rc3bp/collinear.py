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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._brent import brentq
from .errors import AtPrimary, InadmissibleParams, NotOnLimitLocus, RootNotBracketed
from .params import SystemParams, is_admissible

# |F| and |F'| ceilings under which an interior extremum counts as a
# multiplicity-2 root; chosen to separate tangency from near-tangency at
# double precision.
_DOUBLE_F_TOL = 1e-9
_DOUBLE_FPRIME_TOL = 1e-6

# Equality detection against the tangency-curve values beta1*, beta2*.
_BAND_EDGE_RTOL = 1e-12

# Residual target for polished roots.
_ROOT_RESIDUAL = 1e-11

_SCAN_POINTS = 10_000


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


@dataclass(frozen=True)
class CollinearRoot:
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


@dataclass(frozen=True)
class ResolvedCount:
    """Exact expected outcome of the scan: `count` roots, `double` if one
    of them has multiplicity 2 (then count == 1)."""

    count: int
    double: bool = False


def interval_of(mu: float, x: float) -> Interval:
    if x == -mu or x == 1.0 - mu:
        raise AtPrimary(f"x = {x!r} is a primary abscissa")
    if x < -mu:
        return Interval.I1
    if x < 1.0 - mu:
        return Interval.I2
    return Interval.I3


# ---------------------------------------------------------------------------
# the axis function


def f_axis(params: SystemParams, x: float) -> float:
    """Piecewise-reduced F(x). Poles at the primaries raise AtPrimary."""
    mu = params.mu
    d1, d2 = x + mu, x + mu - 1.0
    if d1 == 0.0 or d2 == 0.0:
        raise AtPrimary(f"F has a pole at x = {x!r}")
    # the beta == 0 guard keeps 0 * inf out of near-pole evaluations
    t1 = params.beta1 * (1.0 - mu) / (d1 * d1) if params.beta1 != 0.0 else 0.0
    t2 = params.beta2 * mu / (d2 * d2) if params.beta2 != 0.0 else 0.0
    if d1 > 0.0:
        t1 = -t1
    if d2 > 0.0:
        t2 = -t2
    return x + t1 + t2


def f_axis_prime(params: SystemParams, x: float) -> float:
    """F'(x) = 1 + 2 beta1(1-mu)/rho1**3 + 2 beta2 mu/rho2**3 (all intervals)."""
    mu = params.mu
    r1, r2 = abs(x + mu), abs(x + mu - 1.0)
    if r1 == 0.0 or r2 == 0.0:
        raise AtPrimary(f"F' has a pole at x = {x!r}")
    t1 = 2.0 * params.beta1 * (1.0 - mu) / r1**3 if params.beta1 != 0.0 else 0.0
    t2 = 2.0 * params.beta2 * mu / r2**3 if params.beta2 != 0.0 else 0.0
    return 1.0 + t1 + t2


def f_axis_unreduced(params: SystemParams, x: float) -> float:
    """F(x) evaluated from the defining absolute-value form (test oracle)."""
    mu = params.mu
    r1, r2 = abs(x + mu), abs(x + mu - 1.0)
    if r1 == 0.0 or r2 == 0.0:
        raise AtPrimary(f"F has a pole at x = {x!r}")
    t1 = params.beta1 * (1.0 - mu) * (x + mu) / r1**3 if params.beta1 != 0.0 else 0.0
    t2 = params.beta2 * mu * (x + mu - 1.0) / r2**3 if params.beta2 != 0.0 else 0.0
    return x - t1 - t2


def _f_axis_array(params: SystemParams, xs: np.ndarray) -> np.ndarray:
    """Vectorized piecewise F over points away from the poles."""
    mu = params.mu
    d1, d2 = xs + mu, xs + mu - 1.0
    t1 = params.beta1 * (1.0 - mu) / (d1 * d1) if params.beta1 != 0.0 else np.zeros_like(xs)
    t2 = params.beta2 * mu / (d2 * d2) if params.beta2 != 0.0 else np.zeros_like(xs)
    return xs - np.sign(d1) * t1 - np.sign(d2) * t2


def _f_prime_array(params: SystemParams, xs: np.ndarray) -> np.ndarray:
    mu = params.mu
    r1, r2 = np.abs(xs + mu), np.abs(xs + mu - 1.0)
    t1 = 2.0 * params.beta1 * (1.0 - mu) / r1**3 if params.beta1 != 0.0 else np.zeros_like(xs)
    t2 = 2.0 * params.beta2 * mu / r2**3 if params.beta2 != 0.0 else np.zeros_like(xs)
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


# (region, interval) pairs with the concave two-root geometry
_CONCAVE_PAIRS = {
    (BetaRegion.S2, Interval.I1),
    (BetaRegion.S2, Interval.I2),
    (BetaRegion.S41, Interval.I2),
    (BetaRegion.S41, Interval.I3),
    (BetaRegion.S42, Interval.I2),
    (BetaRegion.S42, Interval.I3),
}


def predicted_root_count(params: SystemParams, interval: Interval) -> PredictedCount:
    """The theorem-prescribed count for (region, interval)."""
    region = classify_region(params)
    if region in (BetaRegion.INADMISSIBLE, BetaRegion.AXIS_ORIGIN):
        raise InadmissibleParams(
            f"(beta1, beta2) = ({params.beta1!r}, {params.beta2!r}) is not admissible"
        )
    if region in (BetaRegion.S11, BetaRegion.S12):
        return PredictedCount.EXACTLY_ONE
    if region is BetaRegion.S2:
        return PredictedCount.EXACTLY_ONE if interval is Interval.I3 else PredictedCount.UP_TO_TWO
    if region in (BetaRegion.S41, BetaRegion.S42):
        return PredictedCount.EXACTLY_ONE if interval is Interval.I1 else PredictedCount.UP_TO_TWO
    if region is BetaRegion.S5:
        return _axis_prediction(interval, params.beta2, one_interval=Interval.I1)
    return _axis_prediction(interval, params.beta1, one_interval=Interval.I3)


def _axis_prediction(interval: Interval, beta: float, one_interval: Interval) -> PredictedCount:
    """Shared S5/S6 logic; `one_interval` is where beta > 1 buys a root.

    S5 always has a root in I3 and S6 in I1 (the interval beyond the
    charged primary); the remaining outer interval needs beta > 1 and the
    middle interval needs beta < 1. The theorems make no claim at the
    exact value beta = 1.
    """
    always = Interval.I3 if one_interval is Interval.I1 else Interval.I1
    if interval is always:
        return PredictedCount.EXACTLY_ONE
    if beta == 1.0:
        return PredictedCount.UNSPECIFIED
    if interval is one_interval:
        return PredictedCount.ONE_CONDITIONAL if beta > 1.0 else PredictedCount.ZERO
    return PredictedCount.ONE_CONDITIONAL if beta < 1.0 else PredictedCount.ZERO


# ---------------------------------------------------------------------------
# tangency curves and the critical roots


def beta1_star(x_star: float | np.ndarray, mu: float):
    """(3x+mu-1)(x+mu)**3 / (2(1-mu))."""
    return (3.0 * x_star + mu - 1.0) * (x_star + mu) ** 3 / (2.0 * (1.0 - mu))


def beta2_star(x_star: float | np.ndarray, mu: float):
    """(3x+mu)(x+mu-1)**3 / (2 mu)."""
    return (3.0 * x_star + mu) * (x_star + mu - 1.0) ** 3 / (2.0 * mu)


def g_tilde(x_star: float | np.ndarray, mu: float):
    """4 mu (1-mu) G: polynomial in (x*, mu), pole-free at mu in {0, 1}."""
    p1 = (3.0 * x_star + mu - 1.0) * (x_star + mu) ** 3
    p2 = (3.0 * x_star + mu) * (x_star + mu - 1.0) ** 3
    return p1 * p2 - 2.0 * mu * p1 - 2.0 * (1.0 - mu) * p2


def g_tilde_zero_mu(x_star: float | np.ndarray):
    """The mu -> 0 limit of g_tilde: 3x(x-1)**4 (3x**3 + 2x**2 + 2x + 2)."""
    x = x_star
    return 3.0 * x * (x - 1.0) ** 4 * (3.0 * x**3 + 2.0 * x**2 + 2.0 * x + 2.0)


@lru_cache(maxsize=256)
def _xr1(mu: float) -> float:
    """The root of g_tilde(., mu) in (-mu, -mu/3).

    g_tilde(-mu) = -4 mu (1-mu) < 0 and g_tilde(-mu/3) = 16 mu**4/27 > 0,
    so a sign change is guaranteed; a fine scan confirms it is unique.
    """
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    a, b = -mu, -mu / 3.0
    xs = np.linspace(a, b, 513)
    vals = np.asarray(g_tilde(xs, mu))
    signs = np.sign(vals)
    nz = signs != 0
    flips = int(np.sum(np.abs(np.diff(signs[nz])) > 1))
    if vals[0] >= 0.0 or vals[-1] <= 0.0 or flips != 1:
        raise RootNotBracketed(
            f"g_tilde(., mu={mu!r}) does not change sign exactly once on ({a!r}, {b!r})"
        )
    return brentq(lambda x: g_tilde(x, mu), a, b, xtol=1e-15)


def critical_roots(mu: float) -> tuple[float, float]:
    """(x_r1, x_r2): the band-terminating roots of G(., mu).

    x_r1 is bisected inside (-mu, -mu/3); x_r2 follows from the mirror
    identity x_r2(mu) = -x_r1(1-mu) and is confirmed to be a root inside
    ((1-mu)/3, 1-mu). Where 1 - mu rounds to 1 the mirrored mass ratio
    is not representable, so the series is returned; its neglected terms
    are below one ulp there.
    """
    if not (0.0 < mu <= 0.5):
        raise ValueError(f"mu must lie in (0, 1/2], got {mu!r}")
    if 1.0 - mu == 1.0:
        return critical_roots_series(mu)
    xr1 = _xr1(mu)
    xr2 = -_xr1(1.0 - mu) if mu != 0.5 else -xr1
    if not ((1.0 - mu) / 3.0 < xr2 < 1.0 - mu):
        raise RootNotBracketed(f"x_r2 = {xr2!r} fell outside (({1.0 - mu!r})/3, {1.0 - mu!r})")
    return xr1, xr2


def critical_roots_series(mu: float) -> tuple[float, float]:
    """Perturbation approximations of (x_r1, x_r2) for small mu.

    x_r1 = -mu/3 - (8/81) mu**4
    x_r2 = 1 - (4/27)**(1/4) mu**(1/4) + 11/(36 sqrt3) mu**(1/2)
             + 67/(864 * 12**(1/4)) mu**(3/4) - (497/486) mu
    """
    if not (0.0 < mu <= 0.5):
        raise ValueError(f"mu must lie in (0, 1/2], got {mu!r}")
    xr1 = -mu / 3.0 - (8.0 / 81.0) * mu**4
    q = mu**0.25
    xr2 = (
        1.0
        - (4.0 / 27.0) ** 0.25 * q
        + 11.0 / (36.0 * math.sqrt(3.0)) * q**2
        + 67.0 / (864.0 * 12.0**0.25) * q**3
        - 497.0 / 486.0 * mu
    )
    return xr1, xr2


# ---------------------------------------------------------------------------
# resolved counts for the concave pairs

# Each concave (region, interval) pair admits 0, 2, or one double root.
# The tangency curve (beta1*(x*), beta2*(x*)) over the relevant x* range
# is inverted in one beta (both beta*'s are strictly monotone there);
# comparing the other beta against its curve value decides the count.


def _invert_increasing(fn, target: float, lo: float, hi: float | None) -> float | None:
    """Solve fn(s) = target for increasing fn on [lo, hi); doubling search if hi is None.

    None when the target is not bracketed, including a doubling search
    that runs out of finite doubles.
    """
    if hi is None:
        hi = max(1.0, lo * 2.0 + 1.0)
        while fn(hi) < target:
            hi *= 2.0
            if math.isinf(hi):
                return None
    flo, fhi = fn(lo) - target, fn(hi) - target
    if not (flo <= 0.0 <= fhi):     # also rejects inf - inf at an infinite target
        return None
    if flo == 0.0:
        return lo
    return brentq(lambda s: fn(s) - target, lo, hi, xtol=1e-15)


def band_edge_i1(mu: float, beta1: float) -> float:
    """The beta2 value closing the S2/I1 double-root band at this beta1 < 0.

    Inverts beta1* = s^3 (3s + 2mu + 1)/(2(1-mu)) (s = -(x+mu), increasing
    0 -> inf) at -beta1 and evaluates beta2* there; two roots exist for
    beta2 strictly above the returned value, one double root on it.
    RootNotBracketed when the inversion or the edge leaves the doubles.
    """
    s_hat = _invert_increasing(
        lambda s: s**3 * (3.0 * s + 2.0 * mu + 1.0) / (2.0 * (1.0 - mu)), -beta1, 0.0, None
    )
    if s_hat is None:
        raise RootNotBracketed(f"beta1* = {-beta1!r} not reached on the S2/I1 tangency curve")
    edge = (3.0 * s_hat + 2.0 * mu) * (1.0 + s_hat) ** 3 / (2.0 * mu)
    if not math.isfinite(edge):
        raise RootNotBracketed(f"S2/I1 band edge at beta1 = {beta1!r} overflows")
    return edge


def band_edge_i2_s2(mu: float, beta1: float) -> float | None:
    """The beta2 value closing the S2/I2 band, or None when the band is empty.

    beta1* on x in (-mu, -mu/3) spans (-4 mu^3/(27(1-mu)), 0); beta1 below
    that, or a tangency abscissa at or past x_r1 (where the tangency
    parameters stop being admissible), leaves no roots for any beta2.
    Otherwise two roots exist for beta2 strictly below the returned value.
    """
    t_hi = 2.0 * mu / 3.0
    t_hat = _invert_increasing(
        lambda t: -(3.0 * t - 2.0 * mu - 1.0) * t**3 / (2.0 * (1.0 - mu)), -beta1, 0.0, t_hi
    )
    if t_hat is None or t_hat >= _xr1(mu) + mu:
        return None
    return (3.0 * t_hat - 2.0 * mu) * (t_hat - 1.0) ** 3 / (2.0 * mu)


def band_edge_i3(mu: float, beta2: float) -> float:
    """The beta1 value closing the R'4/I3 band at this beta2 < 0.

    Mirror of band_edge_i1: inverts beta2* = (3u + 3 - 2mu) u^3/(2mu)
    (u = x+mu-1) at -beta2; two roots exist for beta1 strictly above.
    """
    u_hat = _invert_increasing(
        lambda u: (3.0 * u + 3.0 - 2.0 * mu) * u**3 / (2.0 * mu), -beta2, 0.0, None
    )
    if u_hat is None:
        raise RootNotBracketed(f"beta2* = {-beta2!r} not reached on the I3 tangency curve")
    edge = (3.0 * u_hat + 2.0 - 2.0 * mu) * (1.0 + u_hat) ** 3 / (2.0 * (1.0 - mu))
    if not math.isfinite(edge):
        raise RootNotBracketed(f"R'4/I3 band edge at beta2 = {beta2!r} overflows")
    return edge


def band_edge_i2_r4(mu: float, beta2: float) -> float | None:
    """The beta1 value closing the R'4/I2 band, or None when it is empty.

    Mirror of band_edge_i2_s2 with v = 1-mu-x and the x_r2 cutoff; two
    roots exist for beta1 strictly below the returned value.
    """
    v_hi = 2.0 * (1.0 - mu) / 3.0
    v_hat = _invert_increasing(
        lambda v: (3.0 - 2.0 * mu - 3.0 * v) * v**3 / (2.0 * mu), -beta2, 0.0, v_hi
    )
    if v_hat is None:
        return None
    xr2 = -_xr1(1.0 - mu)
    if v_hat >= 1.0 - mu - xr2:
        return None
    return (2.0 - 2.0 * mu - 3.0 * v_hat) * (1.0 - v_hat) ** 3 / (2.0 * (1.0 - mu))


def resolved_root_count(params: SystemParams, interval: Interval) -> ResolvedCount:
    """Exact expected root count, with tangencies resolved.

    Refines `predicted_root_count` into {0, 1, 2, one-double} by locating
    the tangency abscissa x^ for the concave pairs and comparing the free
    beta against the curve value there. Used as the theorem-side oracle
    for scans and rasters.
    """
    region = classify_region(params)
    if region in (BetaRegion.INADMISSIBLE, BetaRegion.AXIS_ORIGIN):
        raise InadmissibleParams(
            f"(beta1, beta2) = ({params.beta1!r}, {params.beta2!r}) is not admissible"
        )
    prediction = predicted_root_count(params, interval)
    if prediction in (PredictedCount.EXACTLY_ONE, PredictedCount.ONE_CONDITIONAL):
        return ResolvedCount(1)
    if prediction is PredictedCount.ZERO:
        return ResolvedCount(0)
    if prediction is PredictedCount.UNSPECIFIED:
        # beta = 1 on an axis region: the would-be root sits exactly on the
        # excluded primary abscissa, so the open interval holds none.
        return ResolvedCount(0)

    mu, b1, b2 = params.mu, params.beta1, params.beta2
    if region is BetaRegion.S2 and interval is Interval.I1:
        edge = band_edge_i1(mu, b1)
        return _band_compare(b2 - edge, abs(edge), above_exists=True)
    if region is BetaRegion.S2 and interval is Interval.I2:
        edge = band_edge_i2_s2(mu, b1)
        if edge is None:
            return ResolvedCount(0)
        return _band_compare(b2 - edge, abs(edge), above_exists=False)
    if interval is Interval.I3:
        edge = band_edge_i3(mu, b2)
        return _band_compare(b1 - edge, abs(edge), above_exists=True)
    edge = band_edge_i2_r4(mu, b2)
    if edge is None:
        return ResolvedCount(0)
    return _band_compare(b1 - edge, abs(edge), above_exists=False)


def _band_compare(diff: float, scale: float, above_exists: bool) -> ResolvedCount:
    """Two roots strictly inside the band, a double on its edge, zero outside."""
    if abs(diff) <= _BAND_EDGE_RTOL * max(1.0, scale):
        return ResolvedCount(1, double=True)
    inside = diff > 0.0 if above_exists else diff < 0.0
    return ResolvedCount(2) if inside else ResolvedCount(0)


# ---------------------------------------------------------------------------
# numerical root finding


def _scan_grid(a: float, b: float, pole_a: bool, pole_b: bool, n: int) -> np.ndarray:
    """Strictly interior scan points with log clustering toward pole endpoints."""
    span = b - a
    pts = [np.linspace(a, b, n)[1:-1]]
    offsets = span * np.logspace(-13.0, -0.5, 120)
    if pole_a:
        pts.append(a + offsets)
    if pole_b:
        pts.append(b - offsets)
    xs = np.unique(np.concatenate(pts))
    return xs[(xs > a) & (xs < b)]


def _bracket_roots(params: SystemParams, xs: np.ndarray, vals: np.ndarray) -> list[float]:
    """brentq every sign change of `vals` along `xs`, then polish with Newton."""
    roots: list[float] = []
    finite = np.isfinite(vals)
    xs, vals = xs[finite], vals[finite]
    sign = np.sign(vals)
    hits = np.nonzero(sign == 0.0)[0]
    for i in hits:
        roots.append(float(xs[i]))
    flips = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    for i in flips:
        r = brentq(lambda x: f_axis(params, x), xs[i], xs[i + 1], xtol=1e-15)
        for _ in range(3):
            fp = f_axis_prime(params, r)
            if fp == 0.0:
                break
            step = f_axis(params, r) / fp
            if not math.isfinite(step) or abs(step) > abs(xs[i + 1] - xs[i]):
                break
            r -= step
            if abs(step) < 1e-16 * max(1.0, abs(r)):
                break
        roots.append(r)
    return sorted(roots)


def _interval_domain(params: SystemParams, interval: Interval) -> tuple[float, float, bool, bool]:
    """(a, b, pole_a, pole_b) for the finite scan window of an interval.

    All roots obey |F| >= |x| - |beta1| - |beta2| - 2 far out, so the
    unbounded intervals are cut at L = 2 + |beta1| + |beta2|.
    """
    mu = params.mu
    L = 2.0 + abs(params.beta1) + abs(params.beta2)
    if interval is Interval.I1:
        return -L, -mu, False, True
    if interval is Interval.I2:
        return -mu, 1.0 - mu, True, True
    return 1.0 - mu, L, True, False


def _extrema(params: SystemParams, interval: Interval) -> list[float]:
    """Interior critical points of F, from a sign scan of F'."""
    a, b, pa, pb = _interval_domain(params, interval)
    xs = _scan_grid(a, b, pa, pb, 2000)
    dv = _f_prime_array(params, xs)
    finite = np.isfinite(dv)
    xs, dv = xs[finite], dv[finite]
    sign = np.sign(dv)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    return [
        brentq(lambda x: f_axis_prime(params, x), xs[i], xs[i + 1], xtol=1e-15)
        for i in flips
    ]


def find_in_interval(
    params: SystemParams, interval: Interval, n_scan: int = _SCAN_POINTS
) -> list[CollinearRoot]:
    """Roots of F inside one interval by sign-scan bracketing.

    The concave (region, interval) pairs get an extra extremum probe: a
    flat-enough extremum is a tangent double root, reported once with
    multiplicity 2, and any other extremum joins the scan grid so that
    nearly coincident root pairs cannot slip between grid points.
    """
    region = classify_region(params)
    if region in (BetaRegion.INADMISSIBLE, BetaRegion.AXIS_ORIGIN):
        raise InadmissibleParams(
            f"(beta1, beta2) = ({params.beta1!r}, {params.beta2!r}) is not admissible"
        )
    extrema: list[float] = []
    if (region, interval) in _CONCAVE_PAIRS:
        extrema = _extrema(params, interval)
        for x_star in extrema:
            f_star = f_axis(params, x_star)
            if abs(f_star) < _DOUBLE_F_TOL and abs(f_axis_prime(params, x_star)) < _DOUBLE_FPRIME_TOL:
                return [CollinearRoot(x_star, interval, 2, f_star)]
    a, b, pa, pb = _interval_domain(params, interval)
    xs = _scan_grid(a, b, pa, pb, n_scan)
    if extrema:
        xs = np.unique(np.concatenate([xs, np.asarray(extrema, dtype=float)]))
        xs = xs[(xs > a) & (xs < b)]
    vals = _f_axis_array(params, xs)
    return [CollinearRoot(r, interval, 1, f_axis(params, r)) for r in _bracket_roots(params, xs, vals)]


def find_collinear(params: SystemParams, n_scan: int = _SCAN_POINTS) -> list[CollinearRoot]:
    """All roots of F across I1, I2, I3 by sign-scan bracketing."""
    out: list[CollinearRoot] = []
    for interval in Interval:
        out.extend(find_in_interval(params, interval, n_scan))
    return out


def limit_collinear(params: SystemParams) -> list[CollinearRoot]:
    """The closed-form axis equilibria on the triangle-degeneracy lines.

    Requires beta1, beta2 > 0 (admissible) and one of delta2 - delta1 = 1,
    delta1 + delta2 = 1, delta1 - delta2 = 1 within 1e-12; these are the
    triangular points collapsed onto the axis.
    """
    region = classify_region(params)
    if region not in (BetaRegion.S11, BetaRegion.S12):
        raise NotOnLimitLocus(
            f"(beta1, beta2) = ({params.beta1!r}, {params.beta2!r}) must lie in R'_1"
        )
    d1, d2 = params.delta1, params.delta2
    mu = params.mu
    if abs(d2 - d1 - 1.0) <= 1e-12:
        x = -mu - d1
        interval = Interval.I1
    elif abs(d1 + d2 - 1.0) <= 1e-12:
        x = -mu + d1
        interval = Interval.I2
    elif abs(d1 - d2 - 1.0) <= 1e-12:
        x = -mu + d1
        interval = Interval.I3
    else:
        raise NotOnLimitLocus(
            f"deltas ({d1!r}, {d2!r}) are not on any delta_i +/- delta_j = 1 line"
        )
    return [CollinearRoot(x, interval, 1, f_axis(params, x))]
