"""Axis function, S-regions, root counting, and the critical roots."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rc3bp.collinear import (
    BetaRegion,
    Interval,
    PredictedCount,
    ResolvedCount,
    band_edge_i1,
    band_edge_i2_r4,
    band_edge_i2_s2,
    band_edge_i3,
    beta1_star,
    beta2_star,
    classify_region,
    critical_roots,
    critical_roots_series,
    f_axis,
    f_axis_prime,
    f_axis_unreduced,
    find_collinear,
    find_in_interval,
    g_tilde,
    g_tilde_zero_mu,
    interval_of,
    limit_collinear,
    mirror,
    predicted_root_count,
    resolved_root_count,
)
from rc3bp.errors import AtPrimary, InadmissibleParams, NotOnLimitLocus, RootNotBracketed
from rc3bp.params import SystemParams


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
                roots = find_in_interval(p, iv)
                assert len(roots) == rc.count, (region, iv, p)
                assert any(r.multiplicity == 2 for r in roots) == rc.double


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


def test_band_edge_none_when_band_is_empty():
    # middle-interval bands die out once the tangency leaves (x_r, boundary)
    assert band_edge_i2_s2(0.2, -0.5) is None
    assert band_edge_i2_r4(0.2, -0.5) is None


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
def test_band_edge_past_the_largest_double_is_a_typed_error(params, interval):
    # the edge (about 4e308) overflows to inf; comparing against it would
    # take every finite free beta for a point on the edge
    with pytest.raises(RootNotBracketed, match="overflows"):
        resolved_root_count(params, interval)


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


def test_gtilde_endpoint_values():
    for mu in (0.1, 0.3, 0.5):
        assert g_tilde(-mu, mu) == pytest.approx(-4.0 * mu * (1.0 - mu), rel=1e-13)
        assert g_tilde(-mu / 3.0, mu) == pytest.approx(16.0 * mu**4 / 27.0, rel=1e-10)


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
