"""Off-axis equilibrium pair: existence, coordinates, classification."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from rc3bp.dynamics import omega_gradient
from rc3bp.errors import NoTriangularSolution
from rc3bp.params import SystemParams, is_admissible
from rc3bp.triangular import (
    TriangularLocation,
    _triangle,
    classify_location,
    triangular_exists,
    triangular_points,
)
from formula_oracles import admissible_exactly, pair_exists_exactly


def test_classical_equilateral_case():
    # beta1 = beta2 = 1 puts the pair at the equilateral points
    for mu in (0.1, 0.25, 0.5):
        pair = triangular_points(SystemParams(mu, 1.0, 1.0))
        assert pair.l4[0] == pytest.approx(0.5 - mu, abs=1e-15)
        assert pair.l4[1] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert pair.rho1 == pytest.approx(1.0, rel=1e-15)
        assert pair.rho2 == pytest.approx(1.0, rel=1e-15)


def test_distances_are_cube_roots_of_betas():
    rng = np.random.default_rng(8)
    n = 0
    while n < 200:
        mu = rng.uniform(0.05, 0.5)
        b1, b2 = rng.uniform(0.0, 6.0, 2)
        p = SystemParams(mu, b1, b2)
        if not (p.admissible and triangular_exists(p)):
            continue
        pair = triangular_points(p)
        x, y = pair.l4
        r1 = math.hypot(x + mu, y)
        r2 = math.hypot(x + mu - 1.0, y)
        assert r1 == pytest.approx(b1 ** (1.0 / 3.0), rel=1e-12)
        assert r2 == pytest.approx(b2 ** (1.0 / 3.0), rel=1e-12)
        assert pair.rho1 == pytest.approx(r1, rel=1e-12)
        assert pair.rho2 == pytest.approx(r2, rel=1e-12)
        n += 1


def test_pair_is_critical_point_of_omega():
    rng = np.random.default_rng(9)
    n = 0
    while n < 200:
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
        if not (p.admissible and triangular_exists(p)):
            continue
        for pt in (triangular_points(p).l4, triangular_points(p).l5):
            gx, gy = omega_gradient(p, *pt)
            assert math.hypot(gx, gy) < 1e-12
        n += 1


def test_l5_is_reflection_of_l4():
    p = SystemParams(0.3, 2.0, 0.9)
    pair = triangular_points(p)
    assert pair.l5[0] == pair.l4[0]
    assert pair.l5[1] == -pair.l4[1]
    assert pair.l4[1] > 0.0


def test_existence_requires_triangle_inequalities():
    # delta1 + delta2 must exceed 1 and |delta1 - delta2| stay below 1
    assert not triangular_exists(SystemParams(0.3, 0.001, 0.001))    # too short
    assert not triangular_exists(SystemParams(0.3, 8.0, 0.001))     # too lopsided
    assert triangular_exists(SystemParams(0.3, 1.0, 1.0))
    # flat (collinear) triangles are excluded: here delta1 = delta2 = 1/2 exactly
    assert not triangular_exists(SystemParams(0.3, 0.125, 0.125))
    # the cube roots of 0.4**3 and 0.6**3 sum to 1 + 2**-54: a proper triangle,
    # whose height of about 5.2e-9 the area form keeps to a few ulp
    p = SystemParams(0.3, 0.4**3, 0.6**3)
    assert Fraction(p.delta1) + Fraction(p.delta2) - 1 == Fraction(1, 2**54)
    assert triangular_exists(p)
    assert _height_error_ulps(p) <= 3.0
    # nonpositive strengths never give an off-axis point
    assert not triangular_exists(SystemParams(0.3, -1.0, 2.0))
    assert not triangular_exists(SystemParams(0.3, 2.0, 0.0))


def test_existence_requires_admissibility():
    # valid triangle, but (b1-1)(b2-1) >= 1
    p = SystemParams(0.3, 3.0, 2.0)
    assert abs(p.delta1 - p.delta2) < 1.0 < p.delta1 + p.delta2
    assert not triangular_exists(p)
    with pytest.raises(NoTriangularSolution):
        triangular_points(p)


def test_triangular_points_raises_when_absent():
    with pytest.raises(NoTriangularSolution):
        triangular_points(SystemParams(0.3, 0.001, 0.001))


def test_classify_location_five_cases():
    mu = 0.25
    # d1^2 - d2^2 decides the abscissa relative to the primaries
    assert classify_location(SystemParams(mu, 1.0, 1.0)) is TriangularLocation.BETWEEN

    p = SystemParams(mu, 1.5**3, 0.9**3)          # t = 1.44 > 1
    assert classify_location(p) is TriangularLocation.RIGHT_OF_BODY2
    assert triangular_points(p).xL > 1.0 - mu

    q = SystemParams(mu, 0.9**3, 1.5**3)          # mirrored: t < -1
    assert classify_location(q) is TriangularLocation.LEFT_OF_BODY1
    assert triangular_points(q).xL < -mu

    d2 = 1.3
    d1 = math.sqrt(d2**2 - 1.0)                    # t = -1 exactly (to rounding)
    r = SystemParams(mu, d1**3, d2**3)
    assert classify_location(r) is TriangularLocation.ABOVE_BELOW_BODY1
    assert triangular_points(r).xL == pytest.approx(-mu, abs=1e-12)

    s = SystemParams(mu, d2**3, d1**3)             # t = +1: above body 2
    assert classify_location(s) is TriangularLocation.ABOVE_BELOW_BODY2
    assert triangular_points(s).xL == pytest.approx(1.0 - mu, abs=1e-12)


def test_location_matches_coordinates_random():
    rng = np.random.default_rng(12)
    n = 0
    while n < 200:
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0))
        if not triangular_exists(p):
            continue
        pair = triangular_points(p)
        loc = classify_location(p)
        if loc is TriangularLocation.LEFT_OF_BODY1:
            assert pair.xL < -mu
        elif loc is TriangularLocation.RIGHT_OF_BODY2:
            assert pair.xL > 1.0 - mu
        elif loc is TriangularLocation.BETWEEN:
            assert -mu < pair.xL < 1.0 - mu
        n += 1


def _on_a_line(rng):
    """(line, b_free, delta) for delta2 = delta1 + 1 (line 0), delta1 = delta2 + 1
    (line 1) or delta1 + delta2 = 1 (line 2): the free beta is drawn in (0, 1),
    where all three lines are admissible, and delta puts the other side on the line."""
    line, b_free = rng.randrange(3), rng.uniform(1e-3, 1.0)
    free = SystemParams(0.3, b_free, 1.0).delta1
    return line, b_free, 1.0 - free if line == 2 else free + 1.0


def _params_off(line, b_free, b):
    """The params with the free beta and beta b on the side that `line` fixes."""
    return SystemParams(0.3, b, b_free) if line == 1 else SystemParams(0.3, b_free, b)


def _near_degeneracy_lines(rng, draws):
    """Params whose deltas lie within 4 ulp of a degeneracy line (see `_on_a_line`):
    the fixed side's beta is stepped by ulps across the cube of the line's delta."""
    out = []
    for _ in range(draws):
        line, b_free, t = _on_a_line(rng)
        b = t**3
        for _ in range(12):
            b = math.nextafter(b, 0.0)
        for _ in range(25):
            p = _params_off(line, b_free, b)
            if abs((p.delta1 if line == 1 else p.delta2) - t) <= 4.0 * math.ulp(t):
                out.append(p)
            b = math.nextafter(b, math.inf)
    return out


def _height_error_ulps(p, true_roots=False):
    """|yL - h| in ulp of h, the height of the triangle with the sides delta1, delta2 and 1:
    h = sqrt((s + 1)(s - 1)(1 - t)(1 + t))/2, s = delta1 + delta2 and t = delta1 - delta2, at
    60 digits, for the rounded deltas or, if `true_roots`, the true cube roots of the betas."""
    with mp.workdps(60):
        if true_roots:
            d1, d2 = mp.cbrt(mpf(p.beta1)), mp.cbrt(mpf(p.beta2))
        else:
            d1, d2 = mpf(p.delta1), mpf(p.delta2)
        s, t = d1 + d2, d1 - d2
        h = mp.sqrt((s + 1) * (s - 1) * (1 - t) * (1 + t)) / 2
        return float(abs(triangular_points(p).yL - h)) / math.ulp(float(h))


def _rounded_proper(p):
    """Whether the rounded deltas close a proper triangle, on exact rationals."""
    d1, d2 = Fraction(p.delta1), Fraction(p.delta2)
    return d1 + d2 > 1 and abs(d1 - d2) < 1


def test_triangular_exists_matches_the_array_kernel_near_the_lines():
    # within a few ulp of the degeneracy lines the scalar answer is the pair's existence
    # on the betas, the signs of the resultants on exact rationals; the raster's numpy
    # evaluation of the kernel on the rounded deltas agrees, cell for cell, with the
    # strict triangle of those deltas in exact rationals
    ps = _near_degeneracy_lines(random.Random(20), 600)
    exact = [pair_exists_exactly(p.beta1, p.beta2) for p in ps]
    assert [triangular_exists(p) for p in ps] == exact
    on_deltas = [admissible_exactly(p.beta1, p.beta2) and _rounded_proper(p) for p in ps]
    assert on_deltas != exact                          # the rounded deltas do differ here
    d1, d2, b1, b2 = (
        np.array([getattr(p, k) for p in ps]) for k in ("delta1", "delta2", "beta1", "beta2")
    )
    closed, flat, _ = _triangle(d1, d2)
    assert (closed & ~flat & is_admissible(b1, b2)).tolist() == on_deltas
    assert 0.1 * len(ps) < sum(exact) < 0.9 * len(ps)   # both sides drawn


def test_the_pair_and_its_mirror_wherever_the_pair_exists():
    # a few ulp, 1e-16 to 1e-3 (relative) and far off the degeneracy lines, and at
    # the above/below cases t = +-1: the area form neither raises nor cancels on a
    # proper triangle, however thin, and relabelling the bodies (rho1 <-> rho2,
    # t -> -t) gives the same yL bit for bit and the reflected location. Where the
    # rounded deltas close no proper triangle, yL is Heron's form on the excesses, within
    # 64 ulp of the height on the true cube roots (the rounded ones are up to 7 ulp off)
    rng = random.Random(33)
    ps = _near_degeneracy_lines(rng, 200)
    for _ in range(3000):
        line, b_free, t = _on_a_line(rng)
        t *= 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -3.0)
        ps.append(_params_off(line, b_free, t**3))
    for _ in range(500):
        d2 = rng.uniform(1.0, 2.0)
        betas = [(d2 * d2 - 1.0) ** 1.5, d2**3]
        rng.shuffle(betas)
        ps.append(SystemParams(0.3, *betas))
    ps += [SystemParams(0.3, rng.uniform(0.0, 12.0), rng.uniform(0.0, 2.0)) for _ in range(2000)]
    reflected = dict(zip(TriangularLocation, reversed(TriangularLocation)))
    pairs = [p for p in ps if triangular_exists(p)]
    assert len(pairs) > len(ps) // 3
    kernel = [p for p in pairs if _rounded_proper(p)]
    heron = [p for p in pairs if not _rounded_proper(p)]
    assert len(heron) > 20
    assert max(_height_error_ulps(p) for p in kernel) <= 3.0
    assert max(_height_error_ulps(p, true_roots=True) for p in heron) <= 64.0
    for p in pairs:
        pair, twin = triangular_points(p), triangular_points(p.mirrored())
        assert (twin.yL, twin.location) == (pair.yL, reflected[pair.location]), p
    assert {triangular_points(p).location for p in pairs} == set(TriangularLocation)
