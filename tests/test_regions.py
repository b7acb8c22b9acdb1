"""Raster datasets, boundary polylines, stable arcs and ellipses."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from rc3bp import collinear, regions
from rc3bp.collinear import (
    Interval,
    band_edge_i3,
    f_axis,
    f_axis_prime,
    resolved_root_count,
)
from rc3bp.dynamics import primary_distances
from rc3bp.errors import DegenerateGamma, ValidationError
from rc3bp.params import SystemParams, is_admissible
from rc3bp.regions import (
    FIGURES,
    RegionRaster,
    StableEllipse,
    StableRegime,
    admissible_boundary_polylines,
    admissible_region_raster,
    collinear_boundary_polylines,
    collinear_region_raster,
    configuration_stability_raster,
    critical_mu,
    figure_dataset,
    parameter_stability_raster,
    stability_map_raster,
    stable_arcs,
    stable_region_report,
    triangular_boundary_polylines,
    triangular_region_raster,
)
from rc3bp.stability import _discriminant, _stability_index, f_stability
from rc3bp.triangular import triangular_points
from formula_oracles import ellipse_point
from scan_oracle import scan_in_interval


def test_raster_geometry_and_centers():
    r = admissible_region_raster(x_range=(-1.0, 3.0), y_range=(0.0, 2.0), resolution=(8, 4))
    assert r.labels.shape == (4, 8)
    xs, ys = r.x_centers(), r.y_centers()
    assert xs[0] == pytest.approx(-1.0 + 0.5 * 0.5)     # lo + half cell
    assert xs[-1] == pytest.approx(3.0 - 0.25)
    assert ys[0] == pytest.approx(0.25)
    assert len(xs) == 8 and len(ys) == 4


def test_raster_validates_resolution():
    with pytest.raises(ValueError):
        admissible_region_raster(resolution=(1, 8))
    with pytest.raises(ValueError):
        admissible_region_raster(resolution=0)


def test_admissible_raster_matches_predicate():
    r = admissible_region_raster(resolution=32)
    xs, ys = r.x_centers(), r.y_centers()
    for j, b2 in enumerate(ys):
        for i, b1 in enumerate(xs):
            assert r.labels[j, i] == int(is_admissible(b1, b2))


def test_admissible_boundary_on_the_hyperbola():
    curves = admissible_boundary_polylines()
    assert set(curves) == {"boundary_upper", "boundary_lower"}
    for pts in curves.values():
        pts = np.asarray(pts)
        resid = (pts[:, 0] - 1.0) * (pts[:, 1] - 1.0) - 1.0
        assert np.max(np.abs(resid)) < 1e-9


def test_triangular_raster_labels():
    r = triangular_region_raster("parameter", resolution=64)
    assert r.legend[2] == "Exists"
    xs, ys = r.x_centers(), r.y_centers()
    # spot checks: equilateral-ish interior cell, a short-sides cell, a
    # sound triangle with inadmissible betas
    i = int(np.searchsorted(xs, 1.0))
    j = int(np.searchsorted(ys, 1.0))
    assert r.labels[j, i] == 2
    assert r.labels[0, 0] == 0
    i = int(np.searchsorted(xs, 1.5))
    j = int(np.searchsorted(ys, 1.45))
    d1, d2 = xs[i], ys[j]
    assert not is_admissible(d1**3, d2**3)
    assert r.labels[j, i] == 1


def test_triangular_raster_configuration_against_points():
    mu = 0.3
    r = triangular_region_raster("configuration", mu=mu, resolution=64)
    # the computed triangular point itself must sit in an Exists cell
    pair = triangular_points(SystemParams(mu, 1.0, 1.0))
    xs, ys = r.x_centers(), r.y_centers()
    i = int(np.argmin(np.abs(xs - pair.l4[0])))
    j = int(np.argmin(np.abs(ys - pair.l4[1])))
    assert r.labels[j, i] == 2
    with pytest.raises(ValueError):
        triangular_region_raster("momentum")


def test_triangular_boundary_identities():
    curves = triangular_boundary_polylines("parameter")
    pts = np.asarray(curves["admissibility"])
    resid = (pts[:, 0] ** 3 - 1.0) * (pts[:, 1] ** 3 - 1.0) - 1.0
    assert np.max(np.abs(resid)) < 1e-9
    cfg = triangular_boundary_polylines("configuration", mu=0.3)
    for key in ("admissibility_upper", "admissibility_lower"):
        pts = np.asarray(cfg[key])
        r1 = np.hypot(pts[:, 0] + 0.3, pts[:, 1])
        r2 = np.hypot(pts[:, 0] - 0.7, pts[:, 1])
        resid = (r1**3 - 1.0) * (r2**3 - 1.0) - 1.0
        assert np.max(np.abs(resid)) < 1e-8


def test_collinear_raster_matches_scan_spot_checks():
    mu = 0.2
    r = collinear_region_raster(Interval.I3, mu, resolution=48)
    xs, ys = r.x_centers(), r.y_centers()
    rng = np.random.default_rng(22)
    for _ in range(60):
        i = int(rng.integers(0, 48))
        j = int(rng.integers(0, 48))
        b1, b2 = xs[i], ys[j]
        if not is_admissible(b1, b2):
            assert r.labels[j, i] == 0
            continue
        roots = scan_in_interval(SystemParams(mu, b1, b2), Interval.I3, n_scan=3000)
        dbl = any(rt.multiplicity == 2 for rt in roots)
        expect = 4 if dbl else {0: 1, 1: 2, 2: 3}[len(roots)]
        assert r.labels[j, i] == expect


def test_collinear_raster_band_cells():
    # a cell strictly inside the I3 two-root band must be labeled TwoRoots
    mu = 0.2
    edge = band_edge_i3(mu, -0.5)
    r = collinear_region_raster(
        Interval.I3, mu, x_range=(edge + 0.2, edge + 1.2), y_range=(-0.6, -0.4),
        resolution=(4, 4),
    )
    assert np.all(r.labels == 3)


def test_collinear_raster_mirror_is_the_transpose():
    # at mu = 1/2 the body swap (beta1, beta2) -> (beta2, beta1) maps I1 to
    # I3 and I2 to itself; on a square grid it transposes the labels
    i1 = collinear_region_raster(Interval.I1, 0.5, resolution=48).labels
    i3 = collinear_region_raster(Interval.I3, 0.5, resolution=48).labels
    assert 3 in i3 and np.array_equal(i3, i1.T)
    # the middle bands are narrow: beta1 > -4 mu^3/(27 (1-mu)) = -1/27
    window = (-0.1, 1.0)
    i2 = collinear_region_raster(Interval.I2, 0.5, window, window, resolution=64).labels
    assert 3 in i2 and np.array_equal(i2, i2.T)


@pytest.mark.parametrize(
    "interval, calls",
    [
        (Interval.I1, {"band_edge_i1": 8}),
        (Interval.I2, {"band_edge_i2_s2": 8, "band_edge_i2_r4": 4}),
        (Interval.I3, {"band_edge_i3": 4}),
    ],
)
def test_collinear_raster_calls_the_band_edges_through_the_module(interval, calls, monkeypatch):
    # one call per grid line with a negative near beta (8 of 16 columns
    # for body 1, 4 of 8 rows for body 2), each seen by a wrapper put on
    # the module after import
    seen = dict.fromkeys(calls, 0)
    for name in calls:
        def counted(mu, beta, name=name, edge=getattr(collinear, name)):
            seen[name] += 1
            return edge(mu, beta)

        monkeypatch.setattr(collinear, name, counted)
    collinear_region_raster(interval, 0.2, resolution=(16, 8))
    assert seen == calls


def test_collinear_polylines_body2_is_body1_mirrored():
    # 1/4 and 3/4 are exact complements, so the mass swap is exact: body 2's
    # curves at mu are body 1's at 1 - mu, reversed, bit for bit
    i2, i2_mirror = (collinear_boundary_polylines(Interval.I2, mu) for mu in (0.25, 0.75))
    body2 = i2["tangency_body2"]
    assert len(body2) > 20 and np.array_equal(body2, i2_mirror["tangency_body1"][::-1, ::-1])
    i3 = collinear_boundary_polylines(Interval.I3, 0.25)["tangency"]
    i1_mirror = collinear_boundary_polylines(Interval.I1, 0.75)["tangency"]
    assert len(i3) > 20 and np.array_equal(i3, i1_mirror[:, ::-1])


@pytest.mark.parametrize(
    "interval, mu, message",
    [
        ("I1", 0.2, "unknown interval 'I1'"),        # a name, not an Interval
        (None, 0.2, "unknown interval None"),
        (Interval.I1, 0.0, "mu must lie in"),         # would divide by zero
        (Interval.I2, 1.0, "mu must lie in"),
        (Interval.I3, math.nan, "mu must lie in"),
    ],
)
def test_collinear_polylines_reject_bad_interval_and_mu(interval, mu, message):
    # checked as collinear_region_raster checks them, before any curve is traced
    with np.errstate(all="raise"), pytest.raises(ValidationError, match=message):
        collinear_boundary_polylines(interval, mu)


def test_collinear_raster_on_the_axes_matches_the_theorems():
    # centers at exactly 0 and 1 exercise the axis regions S5/S6 and the
    # beta = 1 case, which a generic grid never hits
    window = (-2.25, 2.25)                                  # centers -2, -1.5, ..., 2
    for mu in (0.2, 0.5):
        for iv in Interval:
            r = collinear_region_raster(iv, mu, window, window, resolution=9)
            xs, ys = r.x_centers(), r.y_centers()
            assert 0.0 in xs and 1.0 in xs
            for j, b2 in enumerate(ys):
                for i, b1 in enumerate(xs):
                    if not is_admissible(b1, b2):
                        assert r.labels[j, i] == 0
                        continue
                    rc = resolved_root_count(SystemParams(mu, b1, b2), iv)
                    assert r.labels[j, i] == (4 if rc.double else rc.count + 1), (mu, iv, b1, b2)


@pytest.mark.parametrize(
    "interval, name, near_window",
    [
        (Interval.I1, "band_edge_i1", (-0.75, -0.25)),          # S2: beta1 near, beta2 free
        (Interval.I2, "band_edge_i2_s2", (-0.001, 0.0)),
        (Interval.I2, "band_edge_i2_r4", (-0.1, 0.0)),          # R'4: beta2 near, beta1 free
        (Interval.I3, "band_edge_i3", (-0.75, -0.25)),
    ],
)
def test_collinear_raster_matches_resolved_count_across_band_edges(interval, name, near_window):
    # two grid lines of near betas; along the first, free betas within 7 ulp
    # of its band edge and of the edge -+ the double-root tolerance, where
    # the label changes. Every cell, DoubleRoot included, is labeled as
    # resolved_root_count counts its center.
    mu = 0.2
    body1 = name in ("band_edge_i1", "band_edge_i2_s2")
    near = float(regions._centers(near_window, 2)[0])
    edge = getattr(collinear, name)(mu, near)
    tol = collinear._BAND_EDGE_RTOL * max(1.0, abs(edge))
    at_edge = set()
    for target in (edge - tol, edge, edge + tol):
        free_window = (target - 8.0 * math.ulp(target), target + 8.0 * math.ulp(target))
        if body1:
            r = collinear_region_raster(interval, mu, near_window, free_window, resolution=(2, 8))
        else:
            r = collinear_region_raster(interval, mu, free_window, near_window, resolution=(8, 2))
        xs, ys = r.x_centers(), r.y_centers()
        for j, b2 in enumerate(ys):
            for i, b1 in enumerate(xs):
                rc = resolved_root_count(SystemParams(mu, float(b1), float(b2)), interval)
                assert r.labels[j, i] == (4 if rc.double else rc.count + 1), (target, b1, b2)
                if (b1 if body1 else b2) == near:
                    at_edge.add(int(r.labels[j, i]))
    assert at_edge == {1, 3, 4}


def test_resolution_is_bounded_by_the_csv_rows():
    # the bound is on cells, nx * ny, whatever the shape
    assert regions._resolution(4096) == (4096, 4096)
    assert regions._resolution((2, 2**23)) == (2, 2**23)
    for resolution in (4097, (2, 2**23 + 1), (10**9, 10**9)):
        with pytest.raises(ValidationError, match="more than MAX_CSV_ROWS = 16777216"):
            regions._resolution(resolution)


def test_collinear_polylines_are_double_roots():
    # each tangency point gives F a double root: F vanishes at the single
    # extremum of F on the interval, bracketed independently of the curves
    mu = 0.2
    for iv, names in ((Interval.I1, ["tangency"]), (Interval.I3, ["tangency"]),
                      (Interval.I2, ["tangency_body1", "tangency_body2"])):
        lo, hi = {Interval.I1: (-12.0, -mu), Interval.I2: (-mu, 1.0 - mu),
                  Interval.I3: (1.0 - mu, 12.0)}[iv]
        curves = collinear_boundary_polylines(iv, mu)
        for name in names:
            pts = np.asarray(curves[name])
            assert len(pts) > 20
            for b1, b2 in pts[:: max(1, len(pts) // 15)]:
                p = SystemParams(mu, float(b1), float(b2))
                x_star = brentq(
                    lambda x: f_axis_prime(p, x), lo + 1e-9, hi - 1e-9, xtol=1e-15
                )
                scale = max(1.0, abs(b1), abs(b2))
                assert abs(f_axis(p, x_star)) < 1e-9 * scale, (iv, name, b1, b2)


@pytest.mark.parametrize("mu", [1e-320, 5e-324])
def test_collinear_polylines_at_a_subnormal_mu_are_finite_and_warn_nothing(mu):
    # beta* divides by the subnormal mass and overflows to inf; those points lie
    # off the window, and the curves drop them without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = {iv: collinear_boundary_polylines(iv, mu) for iv in Interval}
    for iv, named in curves.items():
        for name, pts in named.items():
            assert pts.shape[1] == 2 and np.all(np.isfinite(pts)), (iv, name)
    assert len(curves[Interval.I2]["tangency_body1"]) > 20


@pytest.mark.parametrize("figure", [5, 6, 7, 11, 12, 13, 15])
def test_figure_polylines_lie_inside_the_raster_window(figure):
    # a figure's raster and its boundary curves share one window
    d = figure_dataset(figure, resolution=8)
    (x_lo, x_hi), (y_lo, y_hi) = d.parameters["x_range"], d.parameters["y_range"]
    for name, pts in d.curves["polylines"].items():
        assert len(pts) > 20, name
        assert np.all((x_lo <= pts[:, 0]) & (pts[:, 0] <= x_hi)), name
        assert np.all((y_lo <= pts[:, 1]) & (pts[:, 1] <= y_hi)), name


@pytest.mark.parametrize("mu", [math.nan, math.inf, -1.0, 0.0, 1.0, 5.0])
def test_configuration_space_validates_mu(mu):
    with pytest.raises(ValidationError, match="mu must lie in"):
        triangular_region_raster("configuration", mu=mu, resolution=8)
    with pytest.raises(ValidationError, match="mu must lie in"):
        triangular_boundary_polylines("configuration", mu=mu)


def test_collinear_raster_validates_mu():
    with pytest.raises(ValueError):
        collinear_region_raster(Interval.I1, 0.0)
    with pytest.raises(ValueError):
        collinear_region_raster(Interval.I1, 0.7)


def test_stability_map_raster_splits_at_boundary():
    r = stability_map_raster(resolution=128)
    xs, ys = r.x_centers(), r.y_centers()
    mu_c = critical_mu()
    from rc3bp.stability import gamma_mu

    for mu_probe, g_probe, want in [
        (0.01, 1.5, "LinearlyStable"),           # below critical: always stable
        (0.45, 1.5, "LyapunovUnstable"),         # deep inside the F < 0 lobe
        (0.45, 0.05, "LinearlyStable"),          # small gamma stays stable
    ]:
        i = int(np.argmin(np.abs(xs - mu_probe)))
        j = int(np.argmin(np.abs(ys - g_probe)))
        assert r.legend[int(r.labels[j, i])] == want


def test_configuration_stability_raster_domain():
    mu = 0.25
    r = configuration_stability_raster(mu, resolution=64)
    xs, ys = r.x_centers(), r.y_centers()
    # outside the admissibility lens: label 0
    assert r.labels[0, 0] == 0
    # at the equilateral point: stable for this mu? F = 1 - 27 mu(1-mu) < 0
    pair = triangular_points(SystemParams(mu, 1.0, 1.0))
    i = int(np.argmin(np.abs(xs - pair.l4[0])))
    j = int(np.argmin(np.abs(ys - pair.l4[1])))
    f_val = 1.0 - 27.0 * mu * (1.0 - mu)
    want = "LyapunovUnstable" if f_val < 0 else "LinearlyStable"
    assert r.legend[int(r.labels[j, i])] == want


def test_parameter_stability_raster_spot_check():
    mu = 0.25
    r = parameter_stability_raster(mu, resolution=64)
    xs, ys = r.x_centers(), r.y_centers()
    i = int(np.argmin(np.abs(xs - 1.0)))
    j = int(np.argmin(np.abs(ys - 1.0)))
    # delta1 = delta2 = 1 is the equilateral config: F = 1 - 27/4 < 0 here
    assert r.legend[int(r.labels[j, i])] == "LyapunovUnstable"
    assert r.labels[0, 0] == 0          # tiny triangle: no valid configuration


def test_stable_arcs_pass_through_primaries():
    mu, g = 0.2, 1.1
    for arc in stable_arcs(mu, g):
        cx, cy = arc.center
        for px in (-mu, 1.0 - mu):
            assert math.hypot(cx - px, cy) == pytest.approx(arc.radius, rel=1e-12)
        pts = arc.points(65)[1:-1]      # endpoints sit on the primaries
        # every interior point subtends the inscribed angle gamma
        v1 = np.stack([-mu - pts[:, 0], -pts[:, 1]], axis=1)
        v2 = np.stack([1.0 - mu - pts[:, 0], -pts[:, 1]], axis=1)
        dots = np.sum(v1 * v2, axis=1)
        norms = np.linalg.norm(v1, axis=1) * np.linalg.norm(v2, axis=1)
        apex = np.arccos(np.clip(dots / norms, -1.0, 1.0))
        assert np.max(np.abs(apex - (math.pi - g))) < 1e-12


def test_stable_arcs_circle_equation():
    mu, g = 0.3, 0.8
    upper, lower = stable_arcs(mu, g)
    assert upper.branch == "upper" and lower.branch == "lower"
    assert upper.radius == pytest.approx(1.0 / (2.0 * math.sin(g)), rel=1e-15)
    off = math.cos(g) / (2.0 * math.sin(g))
    assert upper.center == pytest.approx((0.5 - mu, -off), rel=1e-15)
    assert lower.center == pytest.approx((0.5 - mu, off), rel=1e-15)
    with pytest.raises(DegenerateGamma):
        stable_arcs(mu, 0.0)
    with pytest.raises(DegenerateGamma):
        stable_arcs(mu, math.pi)


def test_stable_ellipse_identity_and_axes():
    for g in (0.5, 1.2, math.pi / 2.0, 2.4):
        ell = StableEllipse(gamma=g)
        pts = ell.points(256)
        d1, d2 = pts[:, 0], pts[:, 1]
        resid = d1**2 + d2**2 + 2.0 * math.cos(g) * d1 * d2 - 1.0
        assert np.max(np.abs(resid)) < 1e-12
        a, b = ell.semi_axes
        assert a == pytest.approx(1.0 / math.sqrt(1.0 - math.cos(g)), rel=1e-15)
        assert b == pytest.approx(1.0 / math.sqrt(1.0 + math.cos(g)), rel=1e-15)
    with pytest.raises(DegenerateGamma):
        StableEllipse(gamma=0.0)


def test_raster_and_dataset_compare_by_identity():
    # their fields hold arrays and dicts, so tuple equality and hashing would fail
    a, b = (figure_dataset(5, resolution=4) for _ in range(2))
    assert a == a and a != b and a.raster == a.raster and a.raster != b.raster
    assert len({a, b, a.raster, b.raster}) == 4
    with pytest.raises(DegenerateGamma):
        StableEllipse(1.0)._replace(gamma=math.pi)


def test_supplementary_ellipses_are_quarter_turns():
    g = 0.7
    e1 = StableEllipse(gamma=g)
    e2 = StableEllipse(gamma=math.pi - g)
    p = np.asarray(ellipse_point(e1, 0.3))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]]) @ p
    q = np.asarray(ellipse_point(e2, 0.3 + math.pi / 2.0))
    assert np.allclose(rot, q, atol=1e-12)


def test_stable_region_report_regimes():
    rep = stable_region_report(0.01)
    assert rep.regime is StableRegime.FULL_BAND
    assert rep.gamma_intervals == ((0.0, math.pi),)

    rep = stable_region_report(critical_mu())
    assert rep.regime is StableRegime.CRITICAL
    assert rep.boundary_gammas == (math.pi / 2.0,)

    rep = stable_region_report(0.25)
    assert rep.regime is StableRegime.TWO_INTERVALS
    (a1, b1), (a2, b2) = rep.gamma_intervals
    assert a1 == 0.0 and b2 == math.pi
    assert b1 == pytest.approx(math.pi - a2, rel=1e-12)
    from rc3bp.stability import f_stability

    assert f_stability(0.25, b1) == pytest.approx(0.0, abs=1e-12)
    # arcs and ellipses are attached for interior angles
    assert len(rep.arcs) > 0 and len(rep.ellipses) > 0


def test_figure_dataset_defaults_and_validation():
    assert FIGURES == (5, 6, 7, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21)
    ds = figure_dataset(11, resolution=16)
    assert ds.parameters["mu"] == 0.2
    assert ds.raster.resolution == (16, 16)
    assert "critical_roots" in ds.curves
    with pytest.raises(ValueError):
        figure_dataset(4)
    with pytest.raises(ValueError):
        figure_dataset(5, mu=0.3)      # parameter-plane figures take no mu
    ds = figure_dataset(18, mu=0.3, resolution=16)
    assert ds.parameters["mu"] == 0.3
    assert "stable_region" in ds.curves


# ---------------------------------------------------------------------------
# row blocks


def _squared_sides(x, y, mu=None):
    """The exact squared sides of a cell's triangle: the center (x, y) itself, or, given
    mu, the distances of the point (x, y) to the primaries at -mu and 1 - mu."""
    if mu is None:
        return Fraction(x) ** 2, Fraction(y) ** 2
    x, y, mu = Fraction(x), Fraction(y), Fraction(mu)
    return (x + mu) ** 2 + y * y, (x + mu - 1) ** 2 + y * y


def _heron(p, q):
    """(closed, flat, sin(gamma)**2) of the triangle with squared sides p, q and 1, from
    16 area**2 = 4pq - (p + q - 1)**2 in exact rationals, sin2 rounded once at the end."""
    if not (p > 0 and q > 0):
        return False, False, math.nan
    h = 4 * p * q - (p + q - 1) ** 2
    return h >= 0, h == 0, float(h / (4 * p * q))


def _raster_sides(x, y, mu=None):
    """The sides the raster cubes for admissibility: (x, y), or the point's distances."""
    return (x, y) if mu is None else primary_distances(mu, x, y)


def _triangle_label(x, y, mu=None):
    """TRIANGULAR_LEGEND index of one cell: the triangle decided exactly."""
    closed, flat, _ = _heron(*_squared_sides(x, y, mu))
    if not closed or flat:
        return 0
    r1, r2 = _raster_sides(x, y, mu)
    return 2 if is_admissible(r1**3, r2**3) else 1


def _triangle_stability_label(mu, x, y, points=False):
    """STABILITY_LEGEND index of one cell: the domain decided exactly, F from the exact sin2."""
    closed, _, sin2 = _heron(*_squared_sides(x, y, mu if points else None))
    r1, r2 = _raster_sides(x, y, mu if points else None)
    if not (closed and is_admissible(r1**3, r2**3)):
        return 0
    return 1 + _stability_index(_discriminant(mu, sin2))


def _collinear_label(interval, b1, b2):
    if not is_admissible(b1, b2):
        return 0
    rc = resolved_root_count(SystemParams(0.2, b1, b2), interval)
    return 4 if rc.double else rc.count + 1


# each raster builder, as (build(resolution), label of the cell centered at (x, y))
_BUILDERS = {
    "admissible": (
        lambda res: admissible_region_raster(resolution=res),
        lambda b1, b2: int(is_admissible(b1, b2)),
    ),
    "triangular-parameter": (
        lambda res: triangular_region_raster("parameter", resolution=res),
        _triangle_label,
    ),
    "triangular-configuration": (
        lambda res: triangular_region_raster("configuration", mu=0.3, resolution=res),
        lambda x, y: _triangle_label(x, y, 0.3),
    ),
    **{
        f"collinear-{iv.value}": (
            lambda res, iv=iv: collinear_region_raster(iv, 0.2, resolution=res),
            lambda b1, b2, iv=iv: _collinear_label(iv, b1, b2),
        )
        for iv in Interval
    },
    "stability-map": (
        lambda res: stability_map_raster(resolution=res),
        lambda mu, gamma: 1 + _stability_index(f_stability(mu, gamma)),
    ),
    "configuration-stability": (
        lambda res: configuration_stability_raster(0.25, resolution=res),
        lambda x, y: _triangle_stability_label(0.25, x, y, points=True),
    ),
    "parameter-stability": (
        lambda res: parameter_stability_raster(0.25, resolution=res),
        lambda d1, d2: _triangle_stability_label(0.25, d1, d2),
    ),
}


@pytest.mark.parametrize(
    "resolution, blocks",
    [
        ((7, 5), [5]),                                   # fewer rows than one block
        ((64, 33), [33]),
        ((512, 37), [16, 16, 5]),                        # ny not a multiple of the block rows
        ((100, 500), [81] * 6 + [14]),
        ((20000, 3), [1, 1, 1]),                         # nx above the cell budget: one row a block
        ((3, 20000), [2730] * 7 + [890]),
    ],
    ids=["7x5", "64x33", "512x37", "100x500", "20000x3", "3x20000"],
)
@pytest.mark.parametrize("name", list(_BUILDERS))
def test_row_blocks_label_as_the_whole_grid_and_the_scalar_api(name, resolution, blocks, monkeypatch):
    build, cell_label = _BUILDERS[name]
    nx, ny = resolution
    rows = []
    label_blocks = regions._label_blocks

    def spy(x_range, y_range, res, label, *rest):
        def counted(x, y, block):
            rows.append(len(y))
            return label(x, y, block)

        return label_blocks(x_range, y_range, res, counted, *rest)

    monkeypatch.setattr(regions, "_label_blocks", spy)
    blocked = build(resolution)
    assert rows == blocks
    monkeypatch.setattr(regions, "_BLOCK_CELLS", nx * ny)      # the whole grid in one block
    whole = build(resolution)
    assert rows[len(blocks):] == [ny]
    assert blocked.labels.dtype == np.int8 and blocked.labels.shape == (ny, nx)
    assert np.array_equal(blocked.labels, whole.labels)

    xs, ys = blocked.x_centers(), blocked.y_centers()
    rng = np.random.default_rng(resolution)
    for j, i in zip(rng.integers(ny, size=40), rng.integers(nx, size=40)):
        want = cell_label(float(xs[i]), float(ys[j]))
        assert blocked.labels[j, i] == want, (name, resolution, i, j)


def test_figure_build_memory_is_the_labels_plus_a_constant():
    # every raster is labelled in row blocks, so no float temporary spans the grid
    res = 1024
    figure_dataset(12, resolution=8)                           # first-call set-up, unmeasured
    tracemalloc.start()
    try:
        for figure in (5, 7, 12, 15, 16, 19):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dataset = figure_dataset(figure, resolution=res)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= res * res + 2 * 2**20, (figure, peak)
            del dataset
    finally:
        tracemalloc.stop()


_WARM_BUILD_FAULTS = """
import resource
from rc3bp import regions

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

counts = [faults()]
for _ in range(2):
    for figure in regions.FIGURES:
        regions.figure_dataset(figure, resolution=512)
    counts.append(faults())
print(counts[1] - counts[0], counts[2] - counts[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_a_warm_build_of_the_figures_does_not_page_fault():
    # a block's float64 temporaries (64 KiB at 2**13 cells) reuse the heap the block before
    # freed; at 2**14 cells (128 KiB) each block faulted them in anew: 18,726 minor faults
    # per warm build of the 13 figures at 512
    src = str(Path(regions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_BUILD_FAULTS], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    cold, warm = map(int, proc.stdout.split())
    if cold == 0:
        pytest.skip("ru_minflt is not counted here")
    assert warm <= 200, (cold, warm)
