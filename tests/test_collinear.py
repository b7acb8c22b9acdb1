"""Axis function, S-regions, root counting, and the critical roots."""

import math
import re
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from rc3bp import _brent, collinear
from rc3bp.collinear import (
    BetaRegion,
    Interval,
    PredictedCount,
    ResolvedCount,
    band_edge_i1,
    band_edge_i2_r4,
    band_edge_i2_s2,
    band_edge_i3,
    classify_region,
    critical_roots,
    critical_roots_series,
    f_axis,
    f_axis_prime,
    find_collinear,
    find_in_interval,
    g_tilde,
    limit_collinear,
    mirror,
    predicted_root_count,
    resolved_root_count,
)
from rc3bp.errors import AtPrimary, AxisOutOfRange, InadmissibleParams, NotOnLimitLocus
from rc3bp.errors import RootNotBracketed
from rc3bp.params import SystemParams
from formula_oracles import (
    beta1_star,
    beta2_star,
    f_axis_unreduced,
    g_tilde_zero_mu,
    interval_of,
)
from scan_oracle import scan_in_interval


def _draw_in_region(rng, region, mu=None):
    """Rejection-sample admissible params classified into `region`."""
    while True:
        m = rng.uniform(0.02, 0.5) if mu is None else mu
        if region is BetaRegion.S11:
            b1, b2 = rng.uniform(0.0, 1.0), rng.uniform(0.0, 5.0)
        elif region is BetaRegion.S12:
            b1 = rng.uniform(1.0, 5.0)
            b2 = rng.uniform(0.0, min(b1 / (b1 - 1.0) if b1 > 1.0 else 5.0, 5.0))
        elif region is BetaRegion.S2:
            b1 = rng.uniform(-5.0, 0.0)
            b2 = rng.uniform(b1 / (b1 - 1.0), 5.0)
        elif region is BetaRegion.S41:
            b1 = rng.uniform(0.0, 1.0)
            b2 = rng.uniform(max(b1 / (b1 - 1.0), -5.0), 0.0)
        elif region is BetaRegion.S42:
            b1, b2 = rng.uniform(1.0, 5.0), rng.uniform(-5.0, 0.0)
        elif region is BetaRegion.S5:
            b1, b2 = 0.0, rng.uniform(0.0, 5.0)
        else:
            b1, b2 = rng.uniform(0.0, 5.0), 0.0
        p = SystemParams(m, b1, b2)
        if p.admissible and classify_region(p) is region:
            return p


def test_interval_of():
    assert interval_of(0.3, -1.0) is Interval.I1
    assert interval_of(0.3, 0.0) is Interval.I2
    assert interval_of(0.3, 2.0) is Interval.I3
    with pytest.raises(AtPrimary):
        interval_of(0.3, -0.3)
    with pytest.raises(AtPrimary):
        interval_of(0.3, 0.7)


def test_piecewise_matches_unreduced_form():
    rng = np.random.default_rng(14)
    for _ in range(500):
        mu = rng.uniform(0.02, 0.98)
        p = SystemParams(mu, rng.uniform(-4, 4), rng.uniform(-4, 4))
        x = rng.uniform(-4.0, 4.0)
        if min(abs(x + mu), abs(x + mu - 1.0)) < 1e-6:
            continue
        assert f_axis(p, x) == pytest.approx(f_axis_unreduced(p, x), rel=1e-12, abs=1e-12)


def test_axis_derivative_matches_finite_differences():
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(200):
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(-3, 3), rng.uniform(-3, 3))
        x = rng.uniform(-3.0, 3.0)
        if min(abs(x + mu), abs(x + mu - 1.0)) < 0.05:
            continue
        fd = (f_axis(p, x + h) - f_axis(p, x - h)) / (2.0 * h)
        assert f_axis_prime(p, x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize(
    "fn, x", [(f_axis, 1e-170), (f_axis_prime, 1e-170), (f_axis_prime, 1e103), (f_axis_prime, -1e103)]
)
def test_axis_field_outside_the_doubles_is_a_typed_error(fn, x):
    # at mu = 1e-200, x = 1e-170 squares and cubes its distance to primary 1
    # below the smallest double; 1e103 cubes past the largest
    with pytest.raises(AxisOutOfRange, match=re.escape(f"x = {x!r}")) as exc:
        fn(SystemParams(1e-200, 1.0, 1.0), x)
    assert exc.value.exit_code == 3


def test_classify_region_table():
    cases = [
        ((0.5, 2.0), BetaRegion.S11),
        ((1.0, 0.1), BetaRegion.S11),      # boundary beta1 = 1 belongs to S11
        ((2.0, 1.5), BetaRegion.S12),
        ((-1.0, 1.0), BetaRegion.S2),
        ((0.5, -0.5), BetaRegion.S41),
        ((1.0, -0.5), BetaRegion.S42),     # beta1 = 1 with beta2 < 0
        ((3.0, -2.0), BetaRegion.S42),
        ((0.0, 2.0), BetaRegion.S5),
        ((2.0, 0.0), BetaRegion.S6),
        ((0.0, 0.0), BetaRegion.AXIS_ORIGIN),
        ((3.0, 2.0), BetaRegion.INADMISSIBLE),
        ((-2.0, 0.1), BetaRegion.INADMISSIBLE),   # below the S2 hyperbola branch
    ]
    for (b1, b2), region in cases:
        assert classify_region(SystemParams(0.3, b1, b2)) is region, (b1, b2)


def test_predicted_count_table():
    p = SystemParams(0.3, 0.5, 2.0)   # S11
    assert all(predicted_root_count(p, iv) is PredictedCount.EXACTLY_ONE for iv in Interval)
    p = SystemParams(0.3, -1.0, 1.0)  # S2
    assert predicted_root_count(p, Interval.I3) is PredictedCount.EXACTLY_ONE
    assert predicted_root_count(p, Interval.I1) is PredictedCount.UP_TO_TWO
    assert predicted_root_count(p, Interval.I2) is PredictedCount.UP_TO_TWO
    p = SystemParams(0.3, 2.0, -1.0)  # S42
    assert predicted_root_count(p, Interval.I1) is PredictedCount.EXACTLY_ONE
    assert predicted_root_count(p, Interval.I2) is PredictedCount.UP_TO_TWO
    # S5: the interval beyond the uncharged primary needs beta2 > 1
    p = SystemParams(0.3, 0.0, 2.0)
    assert predicted_root_count(p, Interval.I3) is PredictedCount.EXACTLY_ONE
    assert predicted_root_count(p, Interval.I1) is PredictedCount.ONE_CONDITIONAL
    assert predicted_root_count(p, Interval.I2) is PredictedCount.ZERO
    p = SystemParams(0.3, 0.0, 0.5)
    assert predicted_root_count(p, Interval.I1) is PredictedCount.ZERO
    assert predicted_root_count(p, Interval.I2) is PredictedCount.ONE_CONDITIONAL
    # no claim at beta exactly 1
    p = SystemParams(0.3, 0.0, 1.0)
    assert predicted_root_count(p, Interval.I1) is PredictedCount.UNSPECIFIED
    # S6 mirrors S5
    p = SystemParams(0.3, 2.0, 0.0)
    assert predicted_root_count(p, Interval.I1) is PredictedCount.EXACTLY_ONE
    assert predicted_root_count(p, Interval.I3) is PredictedCount.ONE_CONDITIONAL
    with pytest.raises(InadmissibleParams):
        predicted_root_count(SystemParams(0.3, 3.0, 2.0), Interval.I1)


_ONE, _COND, _UP, _ZERO, _UNSPEC = (
    PredictedCount.EXACTLY_ONE, PredictedCount.ONE_CONDITIONAL, PredictedCount.UP_TO_TWO,
    PredictedCount.ZERO, PredictedCount.UNSPECIFIED,
)
# the paper's (I1, I2, I3) counts per S-region
_COUNT_TABLE = {
    BetaRegion.S11: (_ONE, _ONE, _ONE),
    BetaRegion.S12: (_ONE, _ONE, _ONE),
    BetaRegion.S2: (_UP, _UP, _ONE),
    BetaRegion.S41: (_ONE, _UP, _UP),
    BetaRegion.S42: (_ONE, _UP, _UP),
}


def _table_count(p, interval):
    """The count from classify_region and the table; on the axis regions S5
    (beta1 = 0) and S6 (beta2 = 0, its mirror) the other beta decides: above 1
    a root beyond the uncharged body, below 1 one between the bodies, and no
    claim at exactly 1."""
    region = classify_region(p)
    if region in _COUNT_TABLE:
        row = _COUNT_TABLE[region]
    else:
        beta = p.beta2 if region is BetaRegion.S5 else p.beta1
        if beta == 1.0:
            row = (_UNSPEC, _UNSPEC, _ONE)
        else:
            row = (_COND, _ZERO, _ONE) if beta > 1.0 else (_ZERO, _COND, _ONE)
        if region is BetaRegion.S6:
            row = row[::-1]
    return row[list(Interval).index(interval)]


_SPECIAL_BETAS = [0.0, -0.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 1.5, 1e16] + [
    s * b
    for b in (5e-324, 1e-300, 1e-16, 0.5, 1.0, 2.0, 3.0, 1e300, sys.float_info.max)
    for s in (1.0, -1.0)
]


def test_predicted_count_matches_the_written_out_table():
    # every (beta1, beta2) pair of the special values, -0.0 and 1 +- ulp included
    checked = 0
    for b1 in _SPECIAL_BETAS:
        for b2 in _SPECIAL_BETAS:
            p = SystemParams(0.3, b1, b2)
            for iv in Interval:
                if classify_region(p) in (BetaRegion.INADMISSIBLE, BetaRegion.AXIS_ORIGIN):
                    with pytest.raises(InadmissibleParams):
                        predicted_root_count(p, iv)
                    continue
                assert predicted_root_count(p, iv) is _table_count(p, iv), (b1, b2, iv)
                checked += 1
    assert checked > 500


def test_axis_case_beta_one_has_no_interior_root():
    # S5 with beta2 = 1: the would-be roots coincide with the primary
    # abscissae, so the open intervals I1 and I2 hold nothing
    p = SystemParams(0.3, 0.0, 1.0)
    assert find_in_interval(p, Interval.I1) == []
    assert find_in_interval(p, Interval.I2) == []
    assert len(find_in_interval(p, Interval.I3)) == 1
    assert resolved_root_count(p, Interval.I1).count == 0
    q = SystemParams(0.3, 1.0, 0.0)
    assert find_in_interval(q, Interval.I2) == []
    assert find_in_interval(q, Interval.I3) == []
    assert len(find_in_interval(q, Interval.I1)) == 1


def test_found_roots_have_small_residual_and_right_interval():
    rng = np.random.default_rng(16)
    regions = [BetaRegion.S11, BetaRegion.S12, BetaRegion.S2,
               BetaRegion.S41, BetaRegion.S42, BetaRegion.S5, BetaRegion.S6]
    for region in regions:
        for _ in range(20):
            p = _draw_in_region(rng, region)
            for root in find_collinear(p):
                assert interval_of(p.mu, root.x) is root.interval
                assert abs(f_axis(p, root.x)) < 1e-10
                assert root.multiplicity in (1, 2)


def test_scan_matches_resolved_count_all_regions():
    rng = np.random.default_rng(17)
    regions = [BetaRegion.S11, BetaRegion.S12, BetaRegion.S2,
               BetaRegion.S41, BetaRegion.S42, BetaRegion.S5, BetaRegion.S6]
    for region in regions:
        for _ in range(60):
            p = _draw_in_region(rng, region)
            for iv in Interval:
                rc = resolved_root_count(p, iv)
                scanned = scan_in_interval(p, iv)
                assert len(scanned) == rc.count, (region, iv, p)
                assert any(r.multiplicity == 2 for r in scanned) == rc.double
                roots = find_in_interval(p, iv)
                assert [r.multiplicity for r in roots] == [r.multiplicity for r in scanned]
                for r, s in zip(roots, scanned):
                    assert abs(r.x - s.x) <= 1e-9, (region, iv, p)


def test_band_edges_bound_the_two_root_regions():
    # crossing each band edge flips the count 0 <-> 2 with a double root on it
    mu = 0.2
    cases = [
        (Interval.I1, lambda e: SystemParams(mu, -0.5, e), band_edge_i1(mu, -0.5), 1e-4),
        (Interval.I3, lambda e: SystemParams(mu, e, -0.5), band_edge_i3(mu, -0.5), 1e-4),
        (Interval.I2, lambda e: SystemParams(mu, -0.001, e), band_edge_i2_s2(mu, -0.001), -1e-5),
        (Interval.I2, lambda e: SystemParams(mu, e, -0.05), band_edge_i2_r4(mu, -0.05), -1e-5),
    ]
    for iv, make, edge, step in cases:
        assert edge is not None
        on = resolved_root_count(make(edge), iv)
        assert (on.count, on.double) == (1, True)
        inside = resolved_root_count(make(edge + step), iv)
        outside = resolved_root_count(make(edge - step), iv)
        assert (inside.count, outside.count) == (2, 0)


def _unreduced_scale(p, x):
    """|x| + |t1| + |t2|, the size of the terms of the unreduced F at x."""
    return abs(x) + abs(p.beta1) * (1.0 - p.mu) / (x + p.mu) ** 2 + abs(p.beta2) * p.mu / (
        x + p.mu - 1.0
    ) ** 2


def test_finder_follows_resolved_count_at_band_edge_offsets():
    # the free beta at relative offsets +-1e-6 .. +-1e-13 from the four
    # concave band edges that lie inside their regions, at several mu
    covered = {}
    for mu in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        cases = [
            (BetaRegion.S2, Interval.I1, -0.5, band_edge_i1, True),
            (BetaRegion.S2, Interval.I2, -2.0 * mu**3 / (27.0 * (1.0 - mu)), band_edge_i2_s2, True),
            (BetaRegion.S41, Interval.I2, -2.0 * (1.0 - mu) ** 3 / (27.0 * mu), band_edge_i2_r4, False),
            (BetaRegion.S42, Interval.I3, -0.5, band_edge_i3, False),
        ]
        for region, iv, near, band_edge, body1 in cases:
            edge = band_edge(mu, near)
            if edge is None:
                continue
            for k in range(6, 14):
                for sign in (1.0, -1.0):
                    free = edge * (1.0 + sign * 10.0**-k)
                    p = SystemParams(mu, near, free) if body1 else SystemParams(mu, free, near)
                    assert classify_region(p) is region, p
                    want = resolved_root_count(p, iv)
                    roots = find_in_interval(p, iv)
                    got = (len(roots), any(r.multiplicity == 2 for r in roots))
                    assert got == (want.count, want.double), (p, iv, k, sign)
                    for r in roots:
                        tol = 1e-6 if r.multiplicity == 2 else 1e-9
                        assert interval_of(mu, r.x) is iv
                        assert abs(f_axis_unreduced(p, r.x)) <= tol * _unreduced_scale(p, r.x)
            covered[region, iv] = covered.get((region, iv), 0) + 1
    assert len(covered) == 4 and min(covered.values()) >= 3, covered


@pytest.mark.parametrize("mu", [1e-200, 1e-310])
def test_roots_at_tiny_scales(mu):
    # S5 at tiny mu: rho2 rounds to 1 near primary 1, so F = x + 3 mu there
    # and its I1 root is -3 mu exactly; Brent's products of F values and
    # steps at this scale would underflow without rescaling
    (root,) = find_in_interval(SystemParams(mu, 0.0, 3.0), Interval.I1)
    assert (root.x, root.residual) == (-3.0 * mu, 0.0)


def test_root_far_below_the_bracket_start():
    # S_{1,1} at mu = 1e-200: F = x - 1e-100/x**2 + 1e100 on I2 next to
    # primary 1, so the root is 1e-100, about 330 halvings from the
    # midpoint; Brent converges on the last two probes, not on [root, 1/2]
    (root,) = find_in_interval(SystemParams(1e-200, 1e-100, 1e300), Interval.I2)
    assert root.x == pytest.approx(1e-100, rel=1e-15)


def test_simple_roots_are_the_least_residual_float_around_them():
    rng = np.random.default_rng(23)
    for region in list(BetaRegion)[:7]:
        for _ in range(40):
            p = _draw_in_region(rng, region)
            for root in find_collinear(p):
                if root.multiplicity == 1:
                    for toward in (-math.inf, math.inf):
                        y = math.nextafter(root.x, toward)
                        assert abs(root.residual) <= abs(f_axis(p, y)), (p, root)


def test_finder_errors_where_the_root_is_closer_than_an_ulp_to_a_primary():
    # the S2/I3 root at beta1 = -1e300 lies about 5e-151 from primary 2,
    # and the second S_{4,1}/I2 root at mu = 1e-80 about 1e-40 from it
    with pytest.raises(RootNotBracketed):
        find_in_interval(SystemParams(0.2, -1e300, 1.0), Interval.I3)
    assert resolved_root_count(SystemParams(1e-80, 0.5, -0.5), Interval.I2).count == 2
    with pytest.raises(RootNotBracketed):
        find_in_interval(SystemParams(1e-80, 0.5, -0.5), Interval.I2)


@pytest.mark.parametrize("edge", [0.25, -0.5, 1.0, -1.0, 3.0, -1e10])
def test_on_band_edge_boundary_matches_the_max_form(edge):
    # the tolerance is relative to max(1, |edge|): of the free betas within
    # a few ulp of edge -+ tol, exactly those up to tol from the edge are a
    # double root; the others are two roots inside the band, none outside
    tol = collinear._BAND_EDGE_RTOL * max(1.0, abs(edge))
    frees = []
    for end in (edge - tol, edge + tol):
        lo = end
        for _ in range(4):
            lo = math.nextafter(lo, -math.inf)
        for _ in range(9):
            frees.append(lo)
            lo = math.nextafter(lo, math.inf)
    for middle in (False, True):
        expected = []
        for free in frees:
            depth = edge - free if middle else free - edge      # exact: free is next to edge
            expected.append(4 if abs(depth) <= tol else 3 if depth > 0.0 else 1)
        assert expected.count(4) > 2 and expected.count(3) > 2 and expected.count(1) > 2
        assert [collinear._root_label(-1.0, f, edge, middle) for f in frees] == expected
        got = collinear._root_label(-1.0, np.array(frees), np.full(len(frees), edge), middle)
        assert got.tolist() == expected


@pytest.mark.parametrize("edge", [math.nan, math.inf])
def test_root_label_without_a_finite_edge(edge):
    # NaN is no band and inf an outer edge past the largest double: zero
    # roots at a negative near beta, and one at a positive one
    assert collinear._root_label(-1.0, 3.0, edge, False) == 1
    assert collinear._root_label(0.5, 3.0, edge, False) == 2
    got = collinear._root_label(np.array([-1.0, 0.5]), 3.0, np.full(2, edge), False)
    assert got.tolist() == [1, 2]


def test_band_edge_none_when_band_is_empty():
    # middle-interval bands die out once the tangency leaves (x_r, boundary)
    assert band_edge_i2_s2(0.2, -0.5) is None
    assert band_edge_i2_r4(0.2, -0.5) is None


@pytest.mark.parametrize("mu", [0.01, 0.125, 0.2, 0.3, 0.5])
def test_band_edge_none_at_the_end_of_the_tangency_curve(mu):
    # the curve's last value, 2 m_far/3 from the near body, lies past the
    # critical root, where the band is already empty
    end = collinear._near_star(-2.0 * mu / 3.0, 1.0 - mu, mu)
    assert band_edge_i2_s2(mu, end) is None
    end = collinear._near_star(-2.0 * (1.0 - mu) / 3.0, mu, 1.0 - mu)
    assert band_edge_i2_r4(mu, end) is None


def test_band_edges_need_few_brent_iterations(monkeypatch):
    # an absolute xtol took 97-99 of Brent's 100 iterations on this draw's
    # I2 band; the solves in relative precision fit in 20
    monkeypatch.setattr(_brent, "_MAXITER", 20)
    p = SystemParams(6.39e-174, 6.87e220, -4.03e132)
    counts = [resolved_root_count(p, iv) for iv in Interval]
    assert counts == [ResolvedCount(1), ResolvedCount(0), ResolvedCount(2)]


@pytest.mark.parametrize(
    "params, interval, expected",
    [
        # the edge grows like |beta| (4e300 on I1, 2.5e299 on I3 at mu = 0.2),
        # so a free beta of 1 or 1e300 lies below it and 1e301 above it
        (SystemParams(0.2, -1e300, 1.0), Interval.I1, ResolvedCount(0)),
        (SystemParams(0.2, -1e300, 1e301), Interval.I1, ResolvedCount(2)),
        (SystemParams(0.2, 1.0, -1e300), Interval.I3, ResolvedCount(0)),
        (SystemParams(0.2, 1e301, -1e300), Interval.I3, ResolvedCount(2)),
    ],
)
def test_band_edges_at_beta_1e300(params, interval, expected):
    # the doubling search for the tangency abscissa runs past 2**200 here
    assert resolved_root_count(params, interval) == expected
    mirrored = Interval.I3 if interval is Interval.I1 else Interval.I1
    assert resolved_root_count(params.mirrored(), mirrored) == expected


@pytest.mark.parametrize(
    "params, interval",
    [
        (SystemParams(0.2, -1e308, 1.0), Interval.I1),
        (SystemParams(0.2, -1e308, 1e308), Interval.I1),
        (SystemParams(0.8, 1.0, -1e308), Interval.I3),
        (SystemParams(0.8, 1e308, -1e308), Interval.I3),
    ],
)
def test_band_edge_past_the_largest_double_has_no_roots(params, interval):
    # the edge (about 4e308) overflows to inf: no finite free beta lies above
    # it, so the band holds no root, as the collinear raster labels it
    assert resolved_root_count(params, interval) == ResolvedCount(0)
    near = params.beta1 if interval is Interval.I1 else params.beta2
    band_edge = band_edge_i1 if interval is Interval.I1 else band_edge_i3
    assert band_edge(params.mu, near) == math.inf


def test_unreachable_band_edge_is_a_typed_error():
    for band_edge in (band_edge_i1, band_edge_i3):
        with pytest.raises(RootNotBracketed):
            band_edge(0.2, -math.inf)


def test_tangency_curves_produce_double_roots():
    # solving F(x*) = F'(x*) = 0 for (beta1, beta2) yields the curve values
    # up to an interval-dependent sign: the |.| factors in the axis field
    # flip the near-side coefficient on the outer intervals, so the curves
    # equal the tangency parameters directly only between the primaries
    mu = 0.3
    signs = {
        Interval.I1: (-1.0, 1.0),
        Interval.I2: (1.0, 1.0),
        Interval.I3: (1.0, -1.0),
    }
    for x_star in (-0.5, -0.45, 0.5, 0.55, 1.2, 1.4):
        s1, s2 = signs[interval_of(mu, x_star)]
        b1 = s1 * float(beta1_star(x_star, mu))
        b2 = s2 * float(beta2_star(x_star, mu))
        p = SystemParams(mu, b1, b2)
        assert abs(f_axis(p, x_star)) < 1e-12
        assert abs(f_axis_prime(p, x_star)) < 1e-12


def test_critical_roots_bracket_and_mirror():
    for mu in (0.1, 0.25, 0.5):
        x1, x2 = critical_roots(mu)
        assert -mu < x1 < -mu / 3.0
        assert abs(g_tilde(x1, mu)) < 1e-12
        assert abs(g_tilde(x2, mu)) < 1e-10
        # body-swap symmetry sends x_r2 to -x_r1 of the mirrored mass ratio;
        # bracket the mirrored root independently since critical_roots only
        # accepts mu <= 1/2
        m = 1.0 - mu
        y1 = brentq(lambda x: g_tilde(x, m), -m, -m / 3.0, xtol=1e-15)
        assert x2 == pytest.approx(-y1, abs=1e-12)


@pytest.mark.parametrize("mu", [1e-17, 1e-80, 5e-324])
def test_critical_roots_fall_back_to_series_where_one_minus_mu_rounds(mu):
    # x_r1(1 - mu) is out of reach once 1 - mu == 1; the series' neglected
    # terms are below one ulp there
    assert 1.0 - mu == 1.0
    assert critical_roots(mu) == critical_roots_series(mu)


def test_critical_roots_answer_across_the_mass_ratios():
    # g_tilde(-mu/3) = 16 mu**4/27 sinks under rounding noise for small mu,
    # where a sign-checked bracket would fail; every mu must get an answer
    for mu in np.logspace(-16.0, math.log10(0.5), 400):
        mu = float(mu)
        x1, _ = critical_roots(mu)
        assert -mu < x1 <= -mu / 3.0, mu


def test_band_edge_r4_where_one_minus_mu_rounds_to_one():
    # the x_r2 cutoff comes from the series for the distance 1 - mu - x_r2
    # itself; the edge tends to 1 as mu -> 0
    assert resolved_root_count(SystemParams(1e-80, 0.5, -0.5), Interval.I2) == ResolvedCount(2)
    assert resolved_root_count(SystemParams(1e-80, 2.0, -1.0), Interval.I2) == ResolvedCount(0)
    assert band_edge_i2_r4(1e-80, -1.0) == pytest.approx(1.0, abs=1e-12)
    assert 0.99 < band_edge_i2_r4(1e-17, -1.0) < band_edge_i2_r4(1e-20, -1.0) < 1.0


def test_critical_gap_series_matches_the_solved_root():
    # above the switch the distance is solved from g_tilde in the
    # distance itself; the series for it must agree, its next term being
    # about mu relative
    mu = 2.0**-40
    solved = collinear._critical_gap(mu, 1.0 - mu)
    assert collinear._critical_gap(mu, 1.0) == pytest.approx(solved, rel=1e-9)


@pytest.mark.parametrize("mu", [0.125, 0.25, 0.5, 2.0**-20])
def test_body2_band_edges_are_body1_edges_of_the_mirror(mu):
    # for dyadic mu, 1 - (1 - mu) == mu, so the mirrored call is exact
    assert 1.0 - (1.0 - mu) == mu
    for beta in (-0.01, -0.5, -3.0, -40.0):
        assert band_edge_i3(mu, beta) == band_edge_i1(1.0 - mu, beta)
    extent = 4.0 * (1.0 - mu) ** 3 / (27.0 * mu)      # beta2 span of the R'4/I2 tangency
    found = 0
    for beta in [-f * extent for f in (1e-5, 0.02, 0.3, 0.9)] + [-0.01, -0.1, -1.0, -5.0]:
        r4 = band_edge_i2_r4(mu, beta)
        s2 = band_edge_i2_s2(1.0 - mu, beta)
        assert (r4 is None) == (s2 is None)
        if r4 is not None:
            found += 1
            assert abs(r4 - s2) <= 4.0 * math.ulp(s2)
    assert found


@pytest.mark.parametrize("mu", [1e-10, 1e-6])
def test_i3_band_edge_is_a_tangency_at_tiny_mu(mu):
    # F vanishes at the single extremum of F on I3, bracketed independently.
    # F'' is about 3e4 there at mu = 1e-10, so F' moves by more than 1e-12
    # per ulp of x: require its sign change within one ulp instead
    for beta2 in (-0.5, -3.0):
        p = SystemParams(mu, band_edge_i3(mu, beta2), beta2)
        x_star = brentq(
            lambda x: f_axis_prime(p, x), 1.0 - mu + 1e-12, 1.0 - mu + 10.0, xtol=1e-16
        )
        assert abs(f_axis(p, x_star)) < 1e-12
        below = f_axis_prime(p, math.nextafter(x_star, 0.0))
        above = f_axis_prime(p, math.nextafter(x_star, 2.0))
        assert below <= 0.0 <= above or abs(f_axis_prime(p, x_star)) < 1e-12


def test_gtilde_endpoint_values():
    for mu in (0.1, 0.3, 0.5):
        assert g_tilde(-mu, mu) == pytest.approx(-4.0 * mu * (1.0 - mu), rel=1e-13)
        assert g_tilde(-mu / 3.0, mu) == pytest.approx(16.0 * mu**4 / 27.0, rel=1e-10)


def test_gtilde_changes_sign_once_where_xr1_solves_it():
    # _xr1 solves g_tilde on (-mu, -mu/3) from its end signs alone; a fine
    # scan confirms the sign change is unique for every mass ratio it sees
    # (mu above the series cutoff, and 1 - mu for x_r2)
    mus = np.concatenate([np.geomspace(1e-4, 0.5, 300), 1.0 - np.geomspace(1.2e-16, 0.5, 300)])
    for mu in mus:
        signs = np.sign(g_tilde(np.linspace(-mu, -mu / 3.0, 4097), mu))
        assert signs[0] < 0.0 < signs[-1]
        assert int(np.sum(signs[1:] != signs[:-1])) == 1, mu


def test_gtilde_small_mu_limit():
    # absolute agreement with the mu -> 0 factorization, floored so zeros of
    # the limit polynomial do not blow up the relative measure
    rng = np.random.default_rng(13)
    xs = rng.uniform(-2.0, 2.0, 2000)
    a = np.asarray(g_tilde(xs, 1e-8))
    b = np.asarray(g_tilde_zero_mu(xs))
    assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)) < 1e-6


def test_series_tracks_numeric_roots():
    for mu in (0.005, 0.01, 0.02):
        x1, x2 = critical_roots(mu)
        s1, s2 = critical_roots_series(mu)
        assert abs(s1 - x1) <= 10.0 * mu**5
        assert abs(s2 - x2) <= 10.0 * mu**1.25


def test_series_leading_terms():
    mu = 1e-3
    s1, s2 = critical_roots_series(mu)
    assert s1 == pytest.approx(-mu / 3.0 - (8.0 / 81.0) * mu**4, rel=1e-14)
    c1 = (4.0 / 27.0) ** 0.25
    c2 = 11.0 / (36.0 * math.sqrt(3.0))
    c3 = 67.0 / (864.0 * 12.0**0.25)
    c4 = -497.0 / 486.0
    assert s2 == pytest.approx(
        1.0 - c1 * mu**0.25 + c2 * mu**0.5 + c3 * mu**0.75 + c4 * mu, rel=1e-14
    )


def test_series_coefficients_match_numeric_roots():
    # extract each fractional-power coefficient from brentq roots of
    # g_tilde at small mu; a sign or factor error would miss by >100%
    c1 = (4.0 / 27.0) ** 0.25
    c2 = 11.0 / (36.0 * math.sqrt(3.0))
    c3 = 67.0 / (864.0 * 12.0**0.25)
    c4 = -497.0 / 486.0

    def second_root(mu):
        lo = 1.0 - 2.0 * c1 * mu**0.25
        return brentq(lambda x: g_tilde(x, mu), lo, 1.0 - 1e-13, xtol=1e-16)

    mu = 1e-6
    r = second_root(mu)
    assert (1.0 - r) / mu**0.25 == pytest.approx(c1, rel=0.05)
    assert (r - 1.0 + c1 * mu**0.25) / mu**0.5 == pytest.approx(c2, rel=0.05)

    # c3 and c4 ride on the same remainder: fit both from two mass ratios
    mu_a, mu_b = 1e-8, 1e-6
    rem_a = second_root(mu_a) - (1.0 - c1 * mu_a**0.25 + c2 * mu_a**0.5)
    rem_b = second_root(mu_b) - (1.0 - c1 * mu_b**0.25 + c2 * mu_b**0.5)
    det = mu_a**0.75 * mu_b - mu_a * mu_b**0.75
    c3_est = (rem_a * mu_b - mu_a * rem_b) / det
    c4_est = (mu_a**0.75 * rem_b - rem_a * mu_b**0.75) / det
    assert c3_est == pytest.approx(c3, rel=0.05)
    assert c4_est == pytest.approx(c4, rel=0.05)


def test_mirror_antisymmetry_of_axis_function():
    rng = np.random.default_rng(18)
    for _ in range(500):
        mu = rng.uniform(0.05, 0.95)
        p = SystemParams(mu, rng.uniform(-3, 3), rng.uniform(-3, 3))
        x = rng.uniform(-4.0, 4.0)
        if min(abs(x + mu), abs(x + mu - 1.0)) < 1e-3:
            continue
        q, xm = mirror(p, x)
        s = f_axis_unreduced(q, xm) + f_axis_unreduced(p, x)
        assert abs(s) <= 1e-12 * max(1.0, abs(f_axis_unreduced(p, x)))


def test_mirror_maps_root_sets():
    rng = np.random.default_rng(19)
    for _ in range(25):
        mu = rng.uniform(0.1, 0.5)
        p = _draw_in_region(rng, BetaRegion.S12, mu=mu)
        roots = sorted(r.x for r in find_collinear(p))
        q = p.mirrored()
        mirrored = sorted(-r.x for r in find_collinear(q))
        assert len(roots) == len(mirrored)
        for a, b in zip(roots, mirrored):
            assert a == pytest.approx(b, abs=1e-9)


def test_limit_collinear_three_loci():
    mu = 0.3
    d1 = 0.4
    # delta1 + delta2 = 1: root between the bodies at -mu + delta1
    p = SystemParams(mu, d1**3, (1.0 - d1) ** 3)
    roots = limit_collinear(p)
    assert len(roots) == 1 and roots[0].interval is Interval.I2
    assert roots[0].x == pytest.approx(-mu + d1, abs=1e-12)
    assert abs(f_axis(p, roots[0].x)) < 1e-12

    # delta2 - delta1 = 1: root left of body 1 at -mu - delta1
    d1 = 0.25
    p = SystemParams(mu, d1**3, (1.0 + d1) ** 3)
    roots = limit_collinear(p)
    assert len(roots) == 1 and roots[0].interval is Interval.I1
    assert roots[0].x == pytest.approx(-mu - d1, abs=1e-12)

    # delta1 - delta2 = 1: root right of body 2 at -mu + delta1
    d2 = 0.25
    p = SystemParams(mu, (1.0 + d2) ** 3, d2**3)
    roots = limit_collinear(p)
    assert len(roots) == 1 and roots[0].interval is Interval.I3
    assert roots[0].x == pytest.approx(-mu + 1.0 + d2, abs=1e-12)


def test_limit_collinear_rejects_off_locus():
    with pytest.raises(NotOnLimitLocus):
        limit_collinear(SystemParams(0.3, 1.0, 1.0))
    with pytest.raises(NotOnLimitLocus):
        limit_collinear(SystemParams(0.3, -1.0, 1.0))
