"""The dense sign-scan root finder, kept as an independent test oracle.

This is the collinear finder the library used before it solved in
theorem-certified brackets: a 10k-point sign scan over a fixed window,
log-clustered at the poles, plus a 2k-point scan of F' that reports a
flat enough extremum as a double root. It shares only `f_axis`,
`f_axis_prime` and the Brent kernel with the library, and none of the
counting logic, so tests can check `find_in_interval` and
`resolved_root_count` against it without being circular.
"""

import math

import numpy as np

from rc3bp._brent import brentq
from rc3bp.collinear import (
    BetaRegion,
    CollinearRoot,
    Interval,
    classify_region,
    f_axis,
    f_axis_prime,
)
from rc3bp.errors import InadmissibleParams
from rc3bp.params import SystemParams

# |F| and |F'| ceilings under which an interior extremum counts as a
# multiplicity-2 root; chosen to separate tangency from near-tangency at
# double precision.
_DOUBLE_F_TOL = 1e-9
_DOUBLE_FPRIME_TOL = 1e-6

_SCAN_POINTS = 10_000

# (region, interval) pairs with the concave two-root geometry
_CONCAVE_PAIRS = {
    (BetaRegion.S2, Interval.I1),
    (BetaRegion.S2, Interval.I2),
    (BetaRegion.S41, Interval.I2),
    (BetaRegion.S41, Interval.I3),
    (BetaRegion.S42, Interval.I2),
    (BetaRegion.S42, Interval.I3),
}


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


def scan_in_interval(
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
