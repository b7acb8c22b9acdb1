"""Region rasters and boundary geometry behind the figure datasets.

Each raster labels the centers of a rectangular cell grid with the
outcome of one predicate family (admissibility, triangular existence,
collinear root count, stability class), and each figure carries the
closed-form boundary curves separately as sampled polylines so the exact
loci are preserved next to the rasterized fill.

Stable-region geometry: a fixed angle gamma traces two circular arcs
through the primaries (radius 1/(2 sin gamma), centers offset by
-+ cos gamma/(2 sin gamma)) in configuration space and a rotated ellipse
delta1**2 + delta2**2 + 2 cos gamma delta1 delta2 = 1 in parameter space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import collinear
from ._brent import brentq
from .collinear import Interval
from .errors import DegenerateGamma
from .stability import _BOUNDARY_ATOL, StabilityClass, critical_mu, gamma_mu

_DEFAULT_RESOLUTION = 512
_POLYLINE_POINTS = 1024

ADMISSIBLE_LEGEND = ("Inadmissible", "Admissible")
TRIANGULAR_LEGEND = ("NoTriangle", "Inadmissible", "Exists")
COLLINEAR_LEGEND = ("Inadmissible", "ZeroRoots", "OneRoot", "TwoRoots", "DoubleRoot")
STABILITY_LEGEND = (
    "OutsideDomain",
    StabilityClass.LYAPUNOV_UNSTABLE.value,
    StabilityClass.LINEARLY_UNSTABLE_F_ZERO.value,
    StabilityClass.LINEARLY_STABLE.value,
    StabilityClass.LINEARLY_UNSTABLE_F_ONE.value,
)

# figure number -> default mass ratio, where one applies
FIGURE_DEFAULT_MU = {
    7: 0.3,
    11: 0.2,
    12: 0.2,
    13: 0.2,
    16: 0.01,
    17: critical_mu(),
    18: 0.25,
    19: 0.01,
    20: critical_mu(),
    21: 0.25,
}
FIGURES = (5, 6, 7, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21)


@dataclass(frozen=True, eq=False)
class RegionRaster:
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: tuple[int, int]        # (nx, ny)
    labels: np.ndarray                 # (ny, nx) indices into legend
    legend: tuple[str, ...]
    predicate: str                     # which predicate produced the labels

    def __post_init__(self) -> None:
        nx, ny = self.resolution
        if nx < 2 or ny < 2:
            raise ValueError(f"resolution must be >= 2 per axis, got {self.resolution!r}")
        if self.labels.shape != (ny, nx):
            raise ValueError(f"labels shape {self.labels.shape!r} != {(ny, nx)!r}")

    def x_centers(self) -> np.ndarray:
        return _centers(self.x_range, self.resolution[0])

    def y_centers(self) -> np.ndarray:
        return _centers(self.y_range, self.resolution[1])


def _centers(rng: tuple[float, float], n: int) -> np.ndarray:
    lo, hi = rng
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _resolution(resolution) -> tuple[int, int]:
    if resolution is None:
        return (_DEFAULT_RESOLUTION, _DEFAULT_RESOLUTION)
    if isinstance(resolution, int):
        return (resolution, resolution)
    nx, ny = resolution
    return (int(nx), int(ny))


def _clip_window(points: np.ndarray, x_range, y_range) -> np.ndarray:
    keep = (
        (points[:, 0] >= x_range[0])
        & (points[:, 0] <= x_range[1])
        & (points[:, 1] >= y_range[0])
        & (points[:, 1] <= y_range[1])
        & np.all(np.isfinite(points), axis=1)
    )
    return points[keep]


# ---------------------------------------------------------------------------
# admissibility (figure 5)


def admissible_region_raster(
    x_range=(-5.0, 5.0), y_range=(-5.0, 5.0), resolution=None
) -> RegionRaster:
    """(beta1, beta2) cells labeled by the strict constraint (b1-1)(b2-1) < 1."""
    nx, ny = _resolution(resolution)
    b1 = _centers(x_range, nx)[None, :]
    b2 = _centers(y_range, ny)[:, None]
    labels = ((b1 - 1.0) * (b2 - 1.0) < 1.0).astype(np.int8)
    return RegionRaster(
        tuple(x_range), tuple(y_range), (nx, ny), labels, ADMISSIBLE_LEGEND, "is_admissible"
    )


def _admissibility_branch(x_range, y_range, n: int, upper: bool) -> np.ndarray:
    """One branch of (b1-1)(b2-1) = 1, window-clipped; b2 = 1 + 1/(b1-1)."""
    if upper:
        lo = 1.0 + 1.0 / (y_range[1] - 1.0) if y_range[1] > 1.0 else x_range[1]
        b1 = np.linspace(max(lo, np.nextafter(1.0, 2.0)), x_range[1], n)
    else:
        hi = 1.0 - 1.0 / (1.0 - y_range[0]) if y_range[0] < 1.0 else x_range[0]
        b1 = np.linspace(x_range[0], min(hi, np.nextafter(1.0, 0.0)), n)
    pts = np.column_stack([b1, 1.0 + 1.0 / (b1 - 1.0)])
    return _clip_window(pts, x_range, y_range)


def admissible_boundary_polylines(
    x_range=(-5.0, 5.0), y_range=(-5.0, 5.0), n: int = _POLYLINE_POINTS
) -> dict[str, np.ndarray]:
    return {
        "boundary_upper": _admissibility_branch(x_range, y_range, n, upper=True),
        "boundary_lower": _admissibility_branch(x_range, y_range, n, upper=False),
    }


# ---------------------------------------------------------------------------
# triangular existence (figures 6 and 7)


def triangular_region_raster(
    space: str, mu: float | None = None, x_range=None, y_range=None, resolution=None
) -> RegionRaster:
    """Existence of the off-axis pair, in (delta1, delta2) or (x, y) cells.

    Parameter space needs no mu; configuration space maps each (x, y) to
    (rho1, rho2) and labels by the induced betas. `NoTriangle` marks a
    failed strict triangle inequality, `Inadmissible` a sound triangle
    whose betas violate admissibility.
    """
    nx, ny = _resolution(resolution)
    if space == "parameter":
        x_range = x_range or (0.0, 3.0)
        y_range = y_range or (0.0, 3.0)
        d1 = _centers(x_range, nx)[None, :]
        d2 = _centers(y_range, ny)[:, None]
        d1, d2 = np.broadcast_arrays(d1, d2)
        predicate = "triangular_exists(delta)"
    elif space == "configuration":
        mu = 0.3 if mu is None else mu
        x_range = x_range or (-2.5, 2.5)
        y_range = y_range or (-2.5, 2.5)
        x = _centers(x_range, nx)[None, :]
        y = _centers(y_range, ny)[:, None]
        d1 = np.hypot(x + mu, y)
        d2 = np.hypot(x + mu - 1.0, y)
        predicate = f"triangular_exists(rho; mu={mu!r})"
    else:
        raise ValueError(f"space must be 'parameter' or 'configuration', got {space!r}")

    positive = (d1 > 0.0) & (d2 > 0.0)
    strict = (d1 + d2 > 1.0) & (np.abs(d1 - d2) < 1.0) & positive
    admissible = (d1**3 - 1.0) * (d2**3 - 1.0) < 1.0
    labels = np.zeros((ny, nx), np.int8)                    # NoTriangle
    labels[strict & ~admissible] = 1                        # Inadmissible
    labels[strict & admissible] = 2                         # Exists
    return RegionRaster(
        tuple(x_range), tuple(y_range), (nx, ny), labels, TRIANGULAR_LEGEND, predicate
    )


def _config_lens_bounds() -> tuple[float, float]:
    """rho1 range of the admissibility oval inside |rho1 - rho2| <= 1."""
    lo = brentq(
        lambda r: (r**3 - 1.0) * ((r + 1.0) ** 3 - 1.0) - 1.0,
        np.nextafter(1.0, 2.0),
        2.0 ** (1.0 / 3.0),
        xtol=1e-15,
    )
    return lo, lo + 1.0


def triangular_boundary_polylines(
    space: str,
    mu: float | None = None,
    x_range=None,
    y_range=None,
    n: int = _POLYLINE_POINTS,
) -> dict[str, np.ndarray]:
    if space == "parameter":
        x_range = x_range or (0.0, 3.0)
        y_range = y_range or (0.0, 3.0)
        t = np.linspace(x_range[0], x_range[1], n)
        d1 = np.linspace(np.nextafter(1.0, 2.0), x_range[1], n)
        adm = np.column_stack([d1, np.cbrt(1.0 + 1.0 / (d1**3 - 1.0))])
        curves = {
            "delta2_eq_delta1_plus_1": np.column_stack([t, t + 1.0]),
            "delta2_eq_delta1_minus_1": np.column_stack([t, t - 1.0]),
            "delta2_eq_1_minus_delta1": np.column_stack([t, 1.0 - t]),
            "admissibility": adm,
        }
        return {k: _clip_window(v, x_range, y_range) for k, v in curves.items()}
    if space == "configuration":
        mu = 0.3 if mu is None else mu
        x_range = x_range or (-2.5, 2.5)
        y_range = y_range or (-2.5, 2.5)
        r_lo, r_hi = _config_lens_bounds()
        r1 = np.linspace(r_lo, r_hi, n)
        r2 = np.cbrt(1.0 + 1.0 / (r1**3 - 1.0))
        x = (r1**2 - r2**2 + 1.0) / 2.0 - mu
        y = np.sqrt(np.maximum(r1**2 - (x + mu) ** 2, 0.0))
        upper = np.column_stack([x, y])
        lower = np.column_stack([x, -y])
        return {
            "admissibility_upper": _clip_window(upper, x_range, y_range),
            "admissibility_lower": _clip_window(lower, x_range, y_range),
        }
    raise ValueError(f"space must be 'parameter' or 'configuration', got {space!r}")


# ---------------------------------------------------------------------------
# collinear root counts (figures 11-13)


def collinear_region_raster(
    interval: Interval, mu: float, x_range=(-5.0, 5.0), y_range=(-5.0, 5.0), resolution=None
) -> RegionRaster:
    """(beta1, beta2) cells labeled by the theorem-resolved root count.

    The simple regions are labeled directly; the concave (region,
    interval) pairs compare the free beta against the band edge, computed
    once per grid line since each edge depends on a single beta.
    """
    if not (0.0 < mu <= 0.5):
        raise ValueError(f"mu must lie in (0, 1/2], got {mu!r}")
    nx, ny = _resolution(resolution)
    bx = _centers(x_range, nx)
    by = _centers(y_range, ny)
    b1 = bx[None, :]
    b2 = by[:, None]
    adm = (b1 - 1.0) * (b2 - 1.0) < 1.0
    labels = np.zeros((ny, nx), np.int8)
    labels[adm] = 1                                        # ZeroRoots until shown otherwise
    rtol = collinear._BAND_EDGE_RTOL

    def band(mask, free, edge, above):
        """TwoRoots strictly inside the band, DoubleRoot on its edge."""
        d = free - edge
        double = mask & (np.abs(d) <= rtol * np.maximum(1.0, np.abs(edge)))
        two = mask & ((d > 0.0) if above else (d < 0.0)) & ~double
        labels[two] = 3
        labels[double] = 4

    if interval is Interval.I1:
        labels[adm & (b1 > 0.0)] = 2                       # R'1, R'4, S6: exactly one
        labels[adm & (b1 == 0.0) & (b2 > 1.0)] = 2         # S5 conditional
        s2 = adm & (b1 < 0.0)
        edges = np.full(nx, np.nan)
        for j in np.nonzero(bx < 0.0)[0]:
            edges[j] = collinear.band_edge_i1(mu, float(bx[j]))
        band(s2, b2, edges[None, :], above=True)
    elif interval is Interval.I3:
        labels[adm & (b2 > 0.0)] = 2                       # R'1, S2, S5: exactly one
        labels[adm & (b2 == 0.0) & (b1 > 1.0)] = 2         # S6 conditional
        r4 = adm & (b2 < 0.0) & (b1 > 0.0)
        edges = np.full(ny, np.nan)
        for j in np.nonzero(by < 0.0)[0]:
            edges[j] = collinear.band_edge_i3(mu, float(by[j]))
        band(r4, b1, edges[:, None], above=True)
    elif interval is Interval.I2:
        labels[adm & (b1 > 0.0) & (b2 > 0.0)] = 2          # R'1: exactly one
        labels[adm & (b1 == 0.0) & (b2 < 1.0)] = 2         # S5 conditional
        labels[adm & (b2 == 0.0) & (b1 > 0.0) & (b1 < 1.0)] = 2  # S6 conditional
        s2 = adm & (b1 < 0.0)
        edges = np.full(nx, np.nan)
        for j in np.nonzero(bx < 0.0)[0]:
            e = collinear.band_edge_i2_s2(mu, float(bx[j]))
            edges[j] = np.nan if e is None else e
        band(s2 & np.isfinite(edges)[None, :], b2, edges[None, :], above=False)
        r4 = adm & (b1 > 0.0) & (b2 < 0.0)
        redges = np.full(ny, np.nan)
        for j in np.nonzero(by < 0.0)[0]:
            e = collinear.band_edge_i2_r4(mu, float(by[j]))
            redges[j] = np.nan if e is None else e
        band(r4 & np.isfinite(redges)[:, None], b1, redges[:, None], above=False)
    else:
        raise ValueError(f"unknown interval {interval!r}")
    return RegionRaster(
        tuple(x_range),
        tuple(y_range),
        (nx, ny),
        labels,
        COLLINEAR_LEGEND,
        f"resolved_root_count[{interval.value}; mu={mu!r}]",
    )


def collinear_boundary_polylines(
    interval: Interval,
    mu: float,
    x_range=(-5.0, 5.0),
    y_range=(-5.0, 5.0),
    n: int = _POLYLINE_POINTS,
) -> dict[str, np.ndarray]:
    """Tangency curves (band edges, parameterized by x*) and the admissibility branch."""
    out = {"admissibility": _admissibility_branch(x_range, y_range, n, upper=False)}
    if interval is Interval.I1:
        s = np.geomspace(1e-6, 10.0, n)
        pts = np.column_stack(
            [
                -(s**3) * (3.0 * s + 2.0 * mu + 1.0) / (2.0 * (1.0 - mu)),
                (3.0 * s + 2.0 * mu) * (1.0 + s) ** 3 / (2.0 * mu),
            ]
        )
        out["tangency"] = _clip_window(pts, x_range, y_range)
    elif interval is Interval.I3:
        u = np.geomspace(1e-6, 10.0, n)
        pts = np.column_stack(
            [
                (3.0 * u + 2.0 - 2.0 * mu) * (1.0 + u) ** 3 / (2.0 * (1.0 - mu)),
                -(3.0 * u + 3.0 - 2.0 * mu) * u**3 / (2.0 * mu),
            ]
        )
        out["tangency"] = _clip_window(pts, x_range, y_range)
    else:
        xr1, xr2 = collinear.critical_roots(mu)
        t = np.linspace(0.0, xr1 + mu, n)[1:]
        pts1 = np.column_stack(
            [
                (3.0 * t - 2.0 * mu - 1.0) * t**3 / (2.0 * (1.0 - mu)),
                (3.0 * t - 2.0 * mu) * (t - 1.0) ** 3 / (2.0 * mu),
            ]
        )
        v = np.linspace(0.0, 1.0 - mu - xr2, n)[1:][::-1]
        pts2 = np.column_stack(
            [
                (2.0 - 2.0 * mu - 3.0 * v) * (1.0 - v) ** 3 / (2.0 * (1.0 - mu)),
                -(3.0 - 2.0 * mu - 3.0 * v) * v**3 / (2.0 * mu),
            ]
        )
        out["tangency_body1"] = _clip_window(pts1, x_range, y_range)
        out["tangency_body2"] = _clip_window(pts2, x_range, y_range)
    return out


# ---------------------------------------------------------------------------
# stability classification rasters (figures 15-21)


def _classify_f_grid(domain: np.ndarray, f: np.ndarray) -> np.ndarray:
    labels = np.zeros(domain.shape, np.int8)
    labels[domain] = 3                                     # LinearlyStable
    labels[domain & (f < -_BOUNDARY_ATOL)] = 1             # LyapunovUnstable
    labels[domain & (np.abs(f) <= _BOUNDARY_ATOL)] = 2     # F = 0
    labels[domain & (np.abs(f - 1.0) <= _BOUNDARY_ATOL)] = 4  # F = 1
    return labels


def stability_map_raster(
    x_range=(0.0, 0.5), y_range=(0.0, math.pi), resolution=None
) -> RegionRaster:
    """(mu, gamma) cells labeled by the sign pattern of F (figure 15)."""
    nx, ny = _resolution(resolution)
    mu = _centers(x_range, nx)[None, :]
    gam = _centers(y_range, ny)[:, None]
    f = 1.0 - 36.0 * mu * (1.0 - mu) * np.sin(gam) ** 2
    domain = np.broadcast_to((mu > 0.0) & (mu <= 0.5), f.shape)
    return RegionRaster(
        tuple(x_range),
        tuple(y_range),
        (nx, ny),
        _classify_f_grid(domain, f),
        STABILITY_LEGEND,
        "sign(F(mu, gamma))",
    )


def stability_map_polylines(
    x_range=(0.0, 0.5), y_range=(0.0, math.pi), n: int = _POLYLINE_POINTS
) -> dict[str, np.ndarray]:
    """The two branches of the F = 0 curve, mu in (mu*, 1/2]."""
    mu_c = critical_mu()
    mu = np.linspace(mu_c, min(0.5, x_range[1]), n)[1:]
    low = np.array([[m, gamma_mu(float(m))] for m in mu])
    high = np.column_stack([low[:, 0], math.pi - low[:, 1]])
    return {
        "F_zero_lower": _clip_window(low, x_range, y_range),
        "F_zero_upper": _clip_window(high, x_range, y_range),
    }


def configuration_stability_raster(
    mu: float, x_range=(-2.5, 2.5), y_range=(-2.5, 2.5), resolution=None
) -> RegionRaster:
    """Restricted configuration space labeled by the stability class (figures 16-18).

    Out-of-domain cells are those violating the closed triangle
    inequalities on (rho1, rho2, 1) or the induced admissibility
    (rho1^3-1)(rho2^3-1) < 1.
    """
    nx, ny = _resolution(resolution)
    x = _centers(x_range, nx)[None, :]
    y = _centers(y_range, ny)[:, None]
    r1 = np.hypot(x + mu, y)
    r2 = np.hypot(x + mu - 1.0, y)
    positive = (r1 > 0.0) & (r2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(positive, (1.0 - r1**2 - r2**2) / (2.0 * r1 * r2), np.nan)
    domain = positive & (np.abs(c) <= 1.0) & ((r1**3 - 1.0) * (r2**3 - 1.0) < 1.0)
    f = 1.0 - 36.0 * mu * (1.0 - mu) * (1.0 - c**2)       # sin^2 = 1 - cos^2
    return RegionRaster(
        tuple(x_range),
        tuple(y_range),
        (nx, ny),
        _classify_f_grid(domain, f),
        STABILITY_LEGEND,
        f"classify_triangular(rho; mu={mu!r})",
    )


def parameter_stability_raster(
    mu: float, x_range=(0.0, 2.0), y_range=(0.0, 2.0), resolution=None
) -> RegionRaster:
    """(delta1, delta2) cells labeled by the stability class (figures 19-21)."""
    nx, ny = _resolution(resolution)
    d1 = _centers(x_range, nx)[None, :]
    d2 = _centers(y_range, ny)[:, None]
    positive = (d1 > 0.0) & (d2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(positive, (1.0 - d1**2 - d2**2) / (2.0 * d1 * d2), np.nan)
    domain = positive & (np.abs(c) <= 1.0) & ((d1**3 - 1.0) * (d2**3 - 1.0) < 1.0)
    f = 1.0 - 36.0 * mu * (1.0 - mu) * (1.0 - c**2)
    return RegionRaster(
        tuple(x_range),
        tuple(y_range),
        (nx, ny),
        _classify_f_grid(domain, f),
        STABILITY_LEGEND,
        f"classify_triangular(delta; mu={mu!r})",
    )


# ---------------------------------------------------------------------------
# stable-region geometry


@dataclass(frozen=True)
class StableArc:
    """One of the two constant-gamma circular arcs through the primaries."""

    center: tuple[float, float]
    radius: float
    branch: str                       # "upper" | "lower"
    gamma: float

    def points(self, n: int = 257) -> np.ndarray:
        """Sampled arc, endpoints at the primaries."""
        half = self.gamma
        mid = math.pi / 2.0 if self.branch == "upper" else -math.pi / 2.0
        theta = np.linspace(mid - half, mid + half, n)
        return np.column_stack(
            [
                self.center[0] + self.radius * np.cos(theta),
                self.center[1] + self.radius * np.sin(theta),
            ]
        )

    def to_dict(self) -> dict:
        return {
            "center": list(self.center),
            "radius": self.radius,
            "branch": self.branch,
            "gamma": self.gamma,
        }


def stable_arcs(mu: float, gamma: float) -> tuple[StableArc, StableArc]:
    """The (upper, lower) arcs of constant gamma for this mass ratio.

    Circle: (x - 1/2 + mu)^2 + (y +- cos(gamma)/(2 sin(gamma)))^2
    = 1/(4 sin(gamma)^2); plus sign <-> upper arc.
    """
    if not (0.0 < gamma < math.pi) or math.sin(gamma) == 0.0:
        raise DegenerateGamma(f"gamma = {gamma!r} degenerates the arcs; need gamma in (0, pi)")
    xc = 0.5 - mu
    offset = math.cos(gamma) / (2.0 * math.sin(gamma))
    radius = 1.0 / (2.0 * math.sin(gamma))
    return (
        StableArc((xc, -offset), radius, "upper", gamma),
        StableArc((xc, offset), radius, "lower", gamma),
    )


@dataclass(frozen=True)
class StableEllipse:
    """The constant-gamma ellipse delta1^2 + delta2^2 + 2 cos(gamma) d1 d2 = 1.

    Semi-axis 1/sqrt(1 - cos gamma) lies along (1, -1)/sqrt2 (rotation
    -pi/4) and 1/sqrt(1 + cos gamma) along (1, 1)/sqrt2 (+pi/4).
    """

    gamma: float
    rotation: float = field(default=-math.pi / 4.0)

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < math.pi):
            raise DegenerateGamma(
                f"gamma = {self.gamma!r} degenerates the ellipse; need gamma in (0, pi)"
            )

    @property
    def semi_axes(self) -> tuple[float, float]:
        c = math.cos(self.gamma)
        return (1.0 / math.sqrt(1.0 - c), 1.0 / math.sqrt(1.0 + c))

    def point(self, t: float) -> tuple[float, float]:
        a, b = self.semi_axes
        ca, sb = a * math.cos(t) / math.sqrt(2.0), b * math.sin(t) / math.sqrt(2.0)
        return (ca + sb, -ca + sb)

    def points(self, n: int = 257) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * math.pi, n)
        a, b = self.semi_axes
        ca, sb = a * np.cos(t) / math.sqrt(2.0), b * np.sin(t) / math.sqrt(2.0)
        return np.column_stack([ca + sb, -ca + sb])

    def to_dict(self) -> dict:
        return {
            "semi_axes": list(self.semi_axes),
            "rotation": self.rotation,
            "gamma": self.gamma,
        }


class StableRegime(enum.Enum):
    FULL_BAND = "full-band"            # mu < mu*: stable for every gamma in (0, pi)
    CRITICAL = "critical"              # mu = mu*: single excluded angle pi/2
    TWO_INTERVALS = "two-intervals"    # mu > mu*: stable only near the axis angles


@dataclass(frozen=True)
class StableRegionReport:
    """Which gamma values are stable at this mu, with boundary geometry."""

    mu: float
    regime: StableRegime
    gamma_intervals: tuple[tuple[float, float], ...]
    boundary_gammas: tuple[float, ...]
    arcs: tuple[StableArc, ...]
    ellipses: tuple[StableEllipse, ...]

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "regime": self.regime.value,
            "stable_gamma_intervals": [list(iv) for iv in self.gamma_intervals],
            "boundary_gammas": list(self.boundary_gammas),
            "arcs": [a.to_dict() for a in self.arcs],
            "ellipses": [e.to_dict() for e in self.ellipses],
        }


def stable_region_report(mu: float) -> StableRegionReport:
    """Stable gamma set and its boundary arcs/ellipses for a mass ratio."""
    if not (0.0 < mu <= 0.5):
        raise ValueError(f"mu must lie in (0, 1/2], got {mu!r}")
    mu_c = critical_mu()
    if mu < mu_c:
        regime = StableRegime.FULL_BAND
        intervals = ((0.0, math.pi),)
        boundary: tuple[float, ...] = ()
    elif mu == mu_c:
        regime = StableRegime.CRITICAL
        half = math.pi / 2.0
        intervals = ((0.0, half), (half, math.pi))
        boundary = (half,)
    else:
        regime = StableRegime.TWO_INTERVALS
        gm = gamma_mu(mu)
        intervals = ((0.0, gm), (math.pi - gm, math.pi))
        boundary = (gm, math.pi - gm)
    arcs: list[StableArc] = []
    ellipses: list[StableEllipse] = []
    for g in boundary:
        arcs.extend(stable_arcs(mu, g))
        ellipses.append(StableEllipse(g))
    return StableRegionReport(mu, regime, intervals, boundary, tuple(arcs), tuple(ellipses))


# ---------------------------------------------------------------------------
# figure composition


@dataclass(frozen=True, eq=False)
class FigureDataset:
    figure: int
    raster: RegionRaster
    curves: dict                       # polylines / arcs / ellipses, JSON-shaped
    parameters: dict                   # the inputs that produced the dataset


def figure_dataset(figure: int, mu: float | None = None, resolution=None) -> FigureDataset:
    """Raster plus boundary curves for one figure number.

    Figures 5, 6 and 15 take no mass ratio; the others fall back to their
    documented defaults when `mu` is omitted.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURES}")
    if figure in (5, 6, 15):
        if mu is not None:
            raise ValueError(f"figure {figure} takes no mu")
    else:
        mu = FIGURE_DEFAULT_MU[figure] if mu is None else mu
    nx, ny = _resolution(resolution)
    curves: dict = {}

    if figure == 5:
        raster = admissible_region_raster(resolution=(nx, ny))
        curves["polylines"] = admissible_boundary_polylines()
    elif figure == 6:
        raster = triangular_region_raster("parameter", resolution=(nx, ny))
        curves["polylines"] = triangular_boundary_polylines("parameter")
    elif figure == 7:
        raster = triangular_region_raster("configuration", mu=mu, resolution=(nx, ny))
        curves["polylines"] = triangular_boundary_polylines("configuration", mu=mu)
    elif figure in (11, 12, 13):
        interval = {11: Interval.I1, 12: Interval.I2, 13: Interval.I3}[figure]
        raster = collinear_region_raster(interval, mu, resolution=(nx, ny))
        curves["polylines"] = collinear_boundary_polylines(interval, mu)
        xr1, xr2 = collinear.critical_roots(mu)
        curves["critical_roots"] = {"x_r1": xr1, "x_r2": xr2}
    elif figure == 15:
        raster = stability_map_raster(resolution=(nx, ny))
        curves["polylines"] = stability_map_polylines()
        curves["critical_mu"] = critical_mu()
    elif figure in (16, 17, 18):
        raster = configuration_stability_raster(mu, resolution=(nx, ny))
        report = stable_region_report(mu)
        curves["stable_region"] = report.to_dict()
        curves["polylines"] = {
            f"arc_{a.branch}_{i}": a.points() for i, a in enumerate(report.arcs)
        }
    else:
        raster = parameter_stability_raster(mu, resolution=(nx, ny))
        report = stable_region_report(mu)
        curves["stable_region"] = report.to_dict()
        curves["polylines"] = {f"ellipse_{i}": e.points() for i, e in enumerate(report.ellipses)}

    parameters = {
        "figure": figure,
        "mu": mu,
        "x_range": list(raster.x_range),
        "y_range": list(raster.y_range),
        "resolution": list(raster.resolution),
        "predicate": raster.predicate,
    }
    return FigureDataset(figure, raster, curves, parameters)
