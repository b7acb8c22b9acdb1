"""Band edges against the 200-bit oracle in `mp_oracle`, down to tiny scales."""

import math
import random
from functools import lru_cache

import pytest
from mpmath import mpf

import mp_oracle
from rc3bp import collinear
from rc3bp.collinear import BetaRegion, Interval, classify_region, resolved_root_count
from rc3bp.params import SystemParams

# band -> (library edge, interval, whether beta1 is the fixed beta, whether
# two roots lie above the edge)
_BANDS = {
    "I1": (collinear.band_edge_i1, Interval.I1, True, True),
    "I2/S2": (collinear.band_edge_i2_s2, Interval.I2, True, False),
    "I3": (collinear.band_edge_i3, Interval.I3, False, True),
    "I2/R'4": (collinear.band_edge_i2_r4, Interval.I2, False, False),
}
_DRAWS = 60


@lru_cache(maxsize=None)
def _draws(band: str) -> list:
    """(mu, fixed beta, library edge, oracle edge) on seeded draws: mu
    log-uniform in 1e-12..0.5 or uniform in 1e-3..0.5; on the outer bands
    |beta| log-uniform in 1e-200..1e200 or the tangency 0.1 to 10 times the
    far mass from the near body, on the middle bands the tangency up to 1.5
    times the distance to the critical root, so some bands are empty."""
    rng = random.Random(f"band-edge-oracle {band}")
    out = []
    for _ in range(_DRAWS):
        if rng.random() < 0.5:
            mu = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        else:
            mu = rng.uniform(1e-3, 0.5)
        if band in ("I1", "I3"):
            if rng.random() < 0.5:
                beta = -(10.0 ** rng.uniform(-200.0, 200.0))
            else:
                beta = mp_oracle.fixed_beta(band, mu, 10.0 ** rng.uniform(-1.0, 1.0))
        else:
            frac = 10.0 ** rng.uniform(-6.0, 0.0) if rng.random() < 0.5 else rng.uniform(0.0, 1.5)
            beta = mp_oracle.fixed_beta(band, mu, frac)
        out.append((mu, beta, _BANDS[band][0](mu, beta), mp_oracle.band_edge(band, mu, beta)))
    return out


@pytest.mark.parametrize("band", ["I1", "I3"])
def test_outer_band_edges_within_16_ulp_of_the_oracle(band):
    for mu, beta, got, want in _draws(band):
        assert abs(mpf(got) - want) <= 16 * math.ulp(float(want)), (mu, beta)


@pytest.mark.parametrize("band", ["I2/S2", "I2/R'4"])
def test_middle_band_edges_match_the_oracle(band):
    # the S2 edge loses up to a few hundred ulp to cancellation in
    # 2 mu - 3t near the critical root; a tenth of the double-root
    # tolerance still separates it from the decision
    nonempty = 0
    for mu, beta, got, want in _draws(band):
        assert (got is None) == (want is None), (mu, beta)
        if want is not None:
            nonempty += 1
            assert abs(mpf(got) - want) <= 0.1 * collinear._BAND_EDGE_RTOL * abs(want), (mu, beta)
    assert _DRAWS // 2 <= nonempty < _DRAWS


@pytest.mark.parametrize("band", list(_BANDS))
def test_resolved_count_next_to_the_oracle_edge(band):
    # a free beta 1e-9 of max(1, |edge|) either side of the true edge, a
    # thousand times the double-root tolerance, has the oracle's count
    _, interval, body1, two_above = _BANDS[band]
    regions = {BetaRegion.S2} if body1 else {BetaRegion.S41, BetaRegion.S42}
    checked = 0
    for mu, beta, _, edge in _draws(band):
        if edge is None:
            continue
        for side in (1.0, -1.0):
            free = float(edge) + side * 1e-9 * max(1.0, abs(float(edge)))
            p = SystemParams(mu, beta, free) if body1 else SystemParams(mu, free, beta)
            if classify_region(p) not in regions:
                continue
            want = 2 if (side > 0.0) == two_above else 0
            assert resolved_root_count(p, interval).count == want, (p, band)
            checked += 1
    assert checked >= _DRAWS // 2


def test_critical_roots_and_gap_match_the_oracle():
    # up to collinear._GAP_SOLVE_MU the distance from primary 2 is solved
    # for itself; through x_r1 at the rounded 1 - mu it was 5.5e-6 relative
    # off at mu = 1e-12 and 2e-4 at 1e-14. Brent stops within 4 eps of the
    # distance; the roots are within 2 ulp
    rng = random.Random("critical-roots-oracle")
    mus = [10.0 ** rng.uniform(-16.0, -4.0) for _ in range(_DRAWS)]
    for mu in [*mus, 1e-4, 2.0**-40]:
        gap = mp_oracle.critical_distance("I2/R'4", mu)
        want = mp_oracle.critical_roots(mu)
        got_gap = collinear._critical_gap(mu, 1.0 - mu)
        assert abs(mpf(got_gap) - gap) <= 8.0 * 2.0**-53 * gap, mu
        for got, w in zip(collinear.critical_roots(mu), want):
            assert abs(mpf(got) - w) <= 2.0 * math.ulp(float(w)), mu


@pytest.mark.parametrize("mu", [1e-14, 1e-12, 1e-10])
def test_r4_band_closes_at_the_oracle_critical_root(mu):
    # a tangency 1e-7 of the critical distance inside it leaves the band
    # open, 1e-7 outside it empty, as the oracle says
    for frac, empty in ((1.0 - 1e-7, False), (1.0 + 1e-7, True)):
        beta = mp_oracle.fixed_beta("I2/R'4", mu, frac)
        assert (mp_oracle.band_edge("I2/R'4", mu, beta) is None) == empty
        assert (collinear.band_edge_i2_r4(mu, beta) is None) == empty, frac
