"""Region rasters and boundary geometry behind the figure datasets.

Each raster labels the centers of a rectangular cell grid with the
outcome of one predicate family (admissibility, triangular existence,
collinear root count, stability class), and each figure carries the
closed-form boundary curves separately as sampled polylines so the exact
loci are preserved next to the rasterized fill. Rasters are labelled in
row blocks of 2**13 cells, so a build holds the int8 label array plus a
constant at any resolution: at most 0.8 MiB at 512 and 4.6 MiB at 2048
(tracemalloc). A block's float64 temporaries then take 64 KiB each, and
each block reuses the heap that the block before it freed: a warm build of
the 13 figures at 512 takes under 10 minor page faults. Blocks of 2**14
cells (128 KiB temporaries, glibc's mmap threshold) took 18,726, and blocks
of 31 rows (124 KiB) 17,978: glibc handed their freed temporaries back to
the OS, and the next block faulted them in again.

Stable-region geometry: a fixed angle gamma traces two circular arcs
through the primaries (radius 1/(2 sin gamma), centers offset by
-+ cos gamma/(2 sin gamma)) in configuration space and a rotated ellipse
delta1**2 + delta2**2 + 2 cos gamma delta1 delta2 = 1 in parameter space.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from . import collinear
from .collinear import COLLINEAR_LEGEND, Interval
from .dynamics import _distances
from .errors import DegenerateGamma, ValidationError
from .params import MAX_CSV_ROWS, _Checked, _require_folded_mu, _require_mu, is_admissible
from .stability import StabilityClass, _discriminant, _stability_index, critical_mu, gamma_mu
from .triangular import _triangle

_DEFAULT_RESOLUTION = 512
_POLYLINE_POINTS = 1024
_BLOCK_CELLS = 2**13           # cells labelled per row block: 16 rows at 512

# Each figure family's window, (x range, y range), shared by its raster and its curves.
_BETA_WINDOW = ((-5.0, 5.0), (-5.0, 5.0))              # figures 5, 11-13: (beta1, beta2)
_DELTA_WINDOW = ((0.0, 3.0), (0.0, 3.0))               # figure 6: (delta1, delta2)
_CONFIGURATION_WINDOW = ((-2.5, 2.5), (-2.5, 2.5))     # figures 7, 16-18: (x, y)
_STABILITY_MAP_WINDOW = ((0.0, 0.5), (0.0, math.pi))   # figure 15: (mu, gamma)
_STABILITY_DELTA_WINDOW = ((0.0, 2.0), (0.0, 2.0))     # figures 19-21: (delta1, delta2)

ADMISSIBLE_LEGEND = ("Inadmissible", "Admissible")
TRIANGULAR_LEGEND = ("NoTriangle", "Inadmissible", "Exists")
STABILITY_LEGEND = ("OutsideDomain", *(c.value for c in StabilityClass))

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


class _RegionRasterFields(NamedTuple):
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: tuple[int, int]        # (nx, ny)
    labels: np.ndarray                 # (ny, nx) indices into legend
    legend: tuple[str, ...]
    predicate: str                     # which predicate produced the labels


class RegionRaster(_Checked, _RegionRasterFields):
    """A labelled cell grid. Equality and hash are by identity: `labels` is an array."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def _check(self) -> None:
        nx, ny = self.resolution
        if nx < 2 or ny < 2:
            raise ValidationError(f"resolution must be >= 2 per axis, got {self.resolution!r}")
        if self.labels.shape != (ny, nx):
            raise ValidationError(f"labels shape {self.labels.shape!r} != {(ny, nx)!r}")

    def x_centers(self) -> np.ndarray:
        return _centers(self.x_range, self.resolution[0])

    def y_centers(self) -> np.ndarray:
        return _centers(self.y_range, self.resolution[1])


def _centers(rng: tuple[float, float], n: int) -> np.ndarray:
    lo, hi = rng
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _label_blocks(x_range, y_range, resolution, label, legend, predicate: str) -> RegionRaster:
    """The raster whose (ny, nx) int8 labels `label(x, y, rows)` fills one row block at a time:
    x is the (1, nx) row of cell centers, y the (rows, 1) column of the block's centers and
    `rows` its slice of the grid. A block holds about _BLOCK_CELLS cells, so no temporary
    of a kernel outgrows one block, whatever the resolution."""
    nx, ny = _resolution(resolution)
    x, y = _centers(x_range, nx)[None, :], _centers(y_range, ny)[:, None]
    labels = np.empty((ny, nx), np.int8)
    step = max(1, _BLOCK_CELLS // nx)    # 64 KiB float64 temporaries: no page faults
    for start in range(0, ny, step):
        rows = slice(start, start + step)
        labels[rows] = label(x, y[rows], rows)
    return RegionRaster(tuple(x_range), tuple(y_range), (nx, ny), labels, legend, predicate)


def _resolution(resolution) -> tuple[int, int]:
    if resolution is None:
        return (_DEFAULT_RESOLUTION, _DEFAULT_RESOLUTION)
    nx, ny = (resolution, resolution) if isinstance(resolution, int) else resolution
    nx, ny = int(nx), int(ny)
    if nx < 2 or ny < 2:
        raise ValidationError(f"resolution must be >= 2 per axis, got {resolution!r}")
    if nx * ny > MAX_CSV_ROWS:
        raise ValidationError(
            f"resolution {resolution!r} gives {nx * ny} cells, more than MAX_CSV_ROWS = {MAX_CSV_ROWS}"
        )
    return (nx, ny)


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
    x_range=_BETA_WINDOW[0], y_range=_BETA_WINDOW[1], resolution=None
) -> RegionRaster:
    """(beta1, beta2) cells labeled by the strict constraint (b1-1)(b2-1) < 1."""
    return _label_blocks(
        x_range, y_range, resolution, lambda b1, b2, _: is_admissible(b1, b2),
        ADMISSIBLE_LEGEND, "is_admissible",
    )


def _admissibility_branch(upper: bool) -> np.ndarray:
    """One branch of b2 = 1 + 1/(b1-1), from the beta window's b2 edge to its b1 edge."""
    (x_lo, x_hi), (y_lo, y_hi) = _BETA_WINDOW
    if upper:
        b1 = np.linspace(1.0 + 1.0 / (y_hi - 1.0), x_hi, _POLYLINE_POINTS)
    else:
        b1 = np.linspace(x_lo, 1.0 - 1.0 / (1.0 - y_lo), _POLYLINE_POINTS)
    pts = np.column_stack([b1, 1.0 + 1.0 / (b1 - 1.0)])
    return _clip_window(pts, *_BETA_WINDOW)    # the lower end rounds to b2 = -5 - ulp


def admissible_boundary_polylines() -> dict[str, np.ndarray]:
    return {
        "boundary_upper": _admissibility_branch(upper=True),
        "boundary_lower": _admissibility_branch(upper=False),
    }


# ---------------------------------------------------------------------------
# triangular existence (figures 6 and 7)


def _triangular_space(space: str, mu: float | None):
    """(mu, window) of figure 6 (parameter space, mu None) or figure 7
    (configuration space, mu defaulted)."""
    if space == "parameter":
        return None, _DELTA_WINDOW
    if space == "configuration":
        mu = FIGURE_DEFAULT_MU[7] if mu is None else mu
        _require_mu(mu)
        return mu, _CONFIGURATION_WINDOW
    raise ValidationError(f"space must be 'parameter' or 'configuration', got {space!r}")


def triangular_region_raster(
    space: str, mu: float | None = None, resolution=None
) -> RegionRaster:
    """Existence of the off-axis pair, in (delta1, delta2) or (x, y) cells.

    Parameter space needs no mu; configuration space maps each (x, y) to
    (rho1, rho2) and labels by the induced betas. `NoTriangle` marks sides
    that fail the strict triangle inequalities, decided exactly (a point on
    the axis is flat), `Inadmissible` a proper triangle whose betas violate
    admissibility.
    """
    mu, window = _triangular_space(space, mu)
    predicate = "triangular_exists(delta)" if mu is None else f"triangular_exists(rho; mu={mu!r})"
    return _label_blocks(
        *window, resolution, lambda x, y, _: _triangle_labels(x, y, mu), TRIANGULAR_LEGEND, predicate
    )


def _config_lens_bounds() -> tuple[float, float]:
    """rho1 range of the admissibility oval inside |rho1 - rho2| <= 1."""
    lo = collinear._solve(
        lambda r: (r**3 - 1.0) * ((r + 1.0) ** 3 - 1.0) - 1.0,
        math.nextafter(1.0, 2.0),
        2.0 ** (1.0 / 3.0),
    )
    return lo, lo + 1.0


def triangular_boundary_polylines(space: str, mu: float | None = None) -> dict[str, np.ndarray]:
    mu, window = _triangular_space(space, mu)
    n = _POLYLINE_POINTS
    if space == "parameter":
        (lo, hi), _ = window
        t = np.linspace(lo, hi, n)
        d1 = np.linspace(np.nextafter(1.0, 2.0), hi, n)
        curves = {
            "delta2_eq_delta1_plus_1": np.column_stack([t, t + 1.0]),
            "delta2_eq_delta1_minus_1": np.column_stack([t, t - 1.0]),
            "delta2_eq_1_minus_delta1": np.column_stack([t, 1.0 - t]),
            "admissibility": np.column_stack([d1, np.cbrt(1.0 + 1.0 / (d1**3 - 1.0))]),
        }
    else:
        r1 = np.linspace(*_config_lens_bounds(), n)
        r2 = np.cbrt(1.0 + 1.0 / (r1**3 - 1.0))
        x = (r1**2 - r2**2 + 1.0) / 2.0 - mu
        y = np.sqrt(np.maximum(r1**2 - (x + mu) ** 2, 0.0))
        curves = {
            "admissibility_upper": np.column_stack([x, y]),
            "admissibility_lower": np.column_stack([x, -y]),
        }
    return {k: _clip_window(v, *window) for k, v in curves.items()}


# ---------------------------------------------------------------------------
# collinear root counts (figures 11-13)


def collinear_region_raster(
    interval: Interval, mu: float, x_range=_BETA_WINDOW[0], y_range=_BETA_WINDOW[1], resolution=None
) -> RegionRaster:
    """(beta1, beta2) cells labeled by the theorem-resolved root count.

    Each band of the interval labels its cells by `collinear._root_label`,
    with its edges solved once per grid line before the row blocks, since
    an edge depends on the near body's beta alone.
    """
    _require_folded_mu(mu)
    nx, ny = _resolution(resolution)
    band_edges = []                                            # per band, viewed as (ny, nx)
    axes = _centers(x_range, nx)[None, :], _centers(y_range, ny)[:, None]
    for near, _, edge_of in collinear._bands(interval, *axes):
        edges = np.full(near.shape, np.nan)                    # NaN: no band
        for j in np.flatnonzero(near < 0.0):
            e = edge_of(mu, float(near.flat[j]))
            edges.flat[j] = np.nan if e is None else e
        band_edges.append(np.broadcast_to(edges, (ny, nx)))

    def label(b1, b2, rows):
        labels = 1                                             # ZeroRoots
        for (near, free, _), edges in zip(collinear._bands(interval, b1, b2), band_edges):
            # a cell's count is its largest band label: where admissible, labels above ZeroRoots agree
            band = collinear._root_label(near, free, edges[rows], interval is Interval.I2)
            labels = np.maximum(labels, band)
        return np.where(is_admissible(b1, b2), labels, 0)

    predicate = f"resolved_root_count[{interval.value}; mu={mu!r}]"
    return _label_blocks(x_range, y_range, resolution, label, COLLINEAR_LEGEND, predicate)


def _tangency_curve(m_near: float, m_far: float, middle: bool) -> np.ndarray:
    """(near beta, far beta) on the tangency curve of the band at the near body: toward
    the far body up to the critical root if `middle` (I2), else outward (near beta -beta*)."""
    if middle:
        s = -np.linspace(0.0, collinear._critical_gap(m_near, m_far), _POLYLINE_POINTS)[1:]
    else:
        s = np.geomspace(1e-6, 10.0, _POLYLINE_POINTS)
    with np.errstate(over="ignore"):    # beta* / subnormal mass: inf, clipped off the window
        near = collinear._near_star(s, m_near, m_far)
        far = collinear._far_star(s, m_far)
    return np.column_stack([near if middle else -near, far])


def collinear_boundary_polylines(interval: Interval, mu: float) -> dict[str, np.ndarray]:
    """Tangency curves (band edges, parameterized by x*) and the admissibility branch."""
    _require_mu(mu)
    # body 2's curve is body 1's with the masses swapped and the columns reversed
    if interval is Interval.I1:
        curves = {"tangency": _tangency_curve(1.0 - mu, mu, False)}
    elif interval is Interval.I2:
        curves = {
            "tangency_body1": _tangency_curve(1.0 - mu, mu, True),
            "tangency_body2": _tangency_curve(mu, 1.0 - mu, True)[::-1, ::-1],
        }
    elif interval is Interval.I3:
        curves = {"tangency": _tangency_curve(mu, 1.0 - mu, False)[:, ::-1]}
    else:
        raise ValidationError(f"unknown interval {interval!r}")
    out = {k: _clip_window(v, *_BETA_WINDOW) for k, v in curves.items()}
    out["admissibility"] = _admissibility_branch(upper=False)
    return out


# ---------------------------------------------------------------------------
# stability classification rasters (figures 15-21)


def _triangle_labels(x, y, mu=None, stability_mu=None) -> np.ndarray:
    """TRIANGULAR_LEGEND labels of the cells' triangles (`triangular._triangle`), with
    sides (x, y) or, given mu, the distances of the point (x, y) to the primaries; given
    stability_mu, STABILITY_LEGEND labels, OutsideDomain off the closed triangle
    inequalities or the induced admissibility (r1^3-1)(r2^3-1) < 1."""
    r1, r2 = (x, y) if mu is None else _distances(np.hypot, mu, x, y)
    admissible = is_admissible(r1**3, r2**3)
    with np.errstate(invalid="ignore"):                       # sin2 is 0/0 at a primary
        closed, flat, sin2 = _triangle(r1, r2, None if mu is None else y, stability_mu is not None)
    if stability_mu is None:
        proper = closed & ~flat                               # NoTriangle 0, Inadmissible 1,
        return proper.view(np.int8) + (proper & admissible)   # Exists 2
    labels = _stability_index(_discriminant(stability_mu, sin2), np.int8(3))
    labels *= closed & admissible
    return labels


def stability_map_raster(resolution=None) -> RegionRaster:
    """(mu, gamma) cells labeled by the sign pattern of F (figure 15); every
    cell center lies inside the domain 0 < mu <= 1/2."""
    return _label_blocks(
        *_STABILITY_MAP_WINDOW, resolution,
        lambda mu, gam, _: _stability_index(_discriminant(mu, np.sin(gam) ** 2), np.int8(3)),
        STABILITY_LEGEND, "sign(F(mu, gamma))",
    )


def stability_map_polylines() -> dict[str, np.ndarray]:
    """The two branches of the F = 0 curve, mu in (mu*, 1/2], gamma in (0, pi)."""
    mu = np.linspace(critical_mu(), 0.5, _POLYLINE_POINTS)[1:]
    low = np.array([[m, gamma_mu(float(m))] for m in mu])
    high = np.column_stack([low[:, 0], math.pi - low[:, 1]])
    return {"F_zero_lower": low, "F_zero_upper": high}


def configuration_stability_raster(mu: float, resolution=None) -> RegionRaster:
    """Restricted configuration space labeled by the stability class (figures 16-18)."""
    _require_mu(mu)
    return _label_blocks(
        *_CONFIGURATION_WINDOW, resolution,
        lambda x, y, _: _triangle_labels(x, y, mu, mu),
        STABILITY_LEGEND, f"classify_triangular(rho; mu={mu!r})",
    )


def parameter_stability_raster(mu: float, resolution=None) -> RegionRaster:
    """(delta1, delta2) cells labeled by the stability class (figures 19-21)."""
    _require_mu(mu)
    return _label_blocks(
        *_STABILITY_DELTA_WINDOW, resolution, lambda d1, d2, _: _triangle_labels(d1, d2, None, mu),
        STABILITY_LEGEND, f"classify_triangular(delta; mu={mu!r})",
    )


# ---------------------------------------------------------------------------
# stable-region geometry


class StableArc(NamedTuple):
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
        return self._asdict()


def stable_arcs(mu: float, gamma: float) -> tuple[StableArc, StableArc]:
    """The (upper, lower) arcs of constant gamma for this mass ratio.

    Circle: (x - 1/2 + mu)^2 + (y +- cos(gamma)/(2 sin(gamma)))^2
    = 1/(4 sin(gamma)^2); plus sign <-> upper arc.
    """
    if not (0.0 < gamma < math.pi):
        raise DegenerateGamma(f"gamma = {gamma!r} degenerates the arcs; need gamma in (0, pi)")
    xc = 0.5 - mu
    offset = math.cos(gamma) / (2.0 * math.sin(gamma))
    radius = 1.0 / (2.0 * math.sin(gamma))
    return (
        StableArc((xc, -offset), radius, "upper", gamma),
        StableArc((xc, offset), radius, "lower", gamma),
    )


class _StableEllipseFields(NamedTuple):
    gamma: float


class StableEllipse(_Checked, _StableEllipseFields):
    """The constant-gamma ellipse delta1^2 + delta2^2 + 2 cos(gamma) d1 d2 = 1.

    Semi-axis 1/sqrt(1 - cos gamma) lies along (1, -1)/sqrt2 (rotation
    -pi/4) and 1/sqrt(1 + cos gamma) along (1, 1)/sqrt2 (+pi/4).
    """

    __slots__ = ()

    def _check(self) -> None:
        if not (0.0 < self.gamma < math.pi):
            raise DegenerateGamma(
                f"gamma = {self.gamma!r} degenerates the ellipse; need gamma in (0, pi)"
            )

    @property
    def semi_axes(self) -> tuple[float, float]:
        c = math.cos(self.gamma)
        return (1.0 / math.sqrt(1.0 - c), 1.0 / math.sqrt(1.0 + c))

    def points(self, n: int = 257) -> np.ndarray:
        t = np.linspace(0.0, 2.0 * math.pi, n)
        a, b = self.semi_axes
        ca, sb = a * np.cos(t) / math.sqrt(2.0), b * np.sin(t) / math.sqrt(2.0)
        return np.column_stack([ca + sb, -ca + sb])

    def to_dict(self) -> dict:
        return {
            "semi_axes": list(self.semi_axes),
            "rotation": -math.pi / 4.0,
            "gamma": self.gamma,
        }


class StableRegime(enum.Enum):
    FULL_BAND = "full-band"            # F(mu, pi/2) > 0: stable for every gamma in (0, pi)
    CRITICAL = "critical"              # F(mu, pi/2) = 0: single excluded angle pi/2
    TWO_INTERVALS = "two-intervals"    # F(mu, pi/2) < 0: stable only near the axis angles


class StableRegionReport(NamedTuple):
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
    _require_folded_mu(mu)
    # the class of gamma = pi/2 decides: stable (or F = 1), F = 0, or unstable
    regime = list(StableRegime)[2 - min(_stability_index(_discriminant(mu, 1.0)), 2)]
    intervals, boundary = ((0.0, math.pi),), ()
    if regime is not StableRegime.FULL_BAND:
        gm = gamma_mu(mu)
        intervals = ((0.0, gm), (math.pi - gm, math.pi))
        boundary = (gm,) if regime is StableRegime.CRITICAL else (gm, math.pi - gm)
    arcs: list[StableArc] = []
    ellipses: list[StableEllipse] = []
    for g in boundary:
        arcs.extend(stable_arcs(mu, g))
        ellipses.append(StableEllipse(g))
    return StableRegionReport(mu, regime, intervals, boundary, tuple(arcs), tuple(ellipses))


# ---------------------------------------------------------------------------
# figure composition


class FigureDataset(NamedTuple):
    """One figure's raster and curves. Equality and hash are by identity."""

    figure: int
    raster: RegionRaster
    curves: dict                       # polylines / arcs / ellipses, JSON-shaped
    parameters: dict                   # the inputs that produced the dataset

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def figure_dataset(figure: int, mu: float | None = None, resolution=None) -> FigureDataset:
    """Raster plus boundary curves for one figure number.

    Figures without a FIGURE_DEFAULT_MU entry (5, 6 and 15) take no mass
    ratio; the others fall back to that default when `mu` is omitted.
    """
    if figure not in FIGURES:
        raise ValidationError(f"unknown figure {figure!r}; choose from {FIGURES}")
    if figure not in FIGURE_DEFAULT_MU:
        if mu is not None:
            raise ValidationError(f"figure {figure} takes no mu")
    elif mu is None:
        mu = FIGURE_DEFAULT_MU[figure]
    curves: dict = {}

    if figure == 5:
        raster = admissible_region_raster(resolution=resolution)
        curves["polylines"] = admissible_boundary_polylines()
    elif figure == 6:
        raster = triangular_region_raster("parameter", resolution=resolution)
        curves["polylines"] = triangular_boundary_polylines("parameter")
    elif figure == 7:
        raster = triangular_region_raster("configuration", mu=mu, resolution=resolution)
        curves["polylines"] = triangular_boundary_polylines("configuration", mu=mu)
    elif figure in (11, 12, 13):
        interval = {11: Interval.I1, 12: Interval.I2, 13: Interval.I3}[figure]
        raster = collinear_region_raster(interval, mu, resolution=resolution)
        curves["polylines"] = collinear_boundary_polylines(interval, mu)
        xr1, xr2 = collinear.critical_roots(mu)
        curves["critical_roots"] = {"x_r1": xr1, "x_r2": xr2}
    elif figure == 15:
        raster = stability_map_raster(resolution=resolution)
        curves["polylines"] = stability_map_polylines()
        curves["critical_mu"] = critical_mu()
    else:
        report = stable_region_report(mu)
        curves["stable_region"] = report.to_dict()
        if figure <= 18:
            raster = configuration_stability_raster(mu, resolution=resolution)
            polylines = {f"arc_{a.branch}_{i}": a.points() for i, a in enumerate(report.arcs)}
        else:
            raster = parameter_stability_raster(mu, resolution=resolution)
            polylines = {f"ellipse_{i}": e.points() for i, e in enumerate(report.ellipses)}
        curves["polylines"] = polylines

    parameters = {
        "figure": figure,
        "mu": mu,
        "x_range": list(raster.x_range),
        "y_range": list(raster.y_range),
        "resolution": list(raster.resolution),
        "predicate": raster.predicate,
    }
    return FigureDataset(figure, raster, curves, parameters)
