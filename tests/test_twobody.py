"""Charged two-body classification and the repulsive scattering orbit."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from rc3bp.errors import NonpositiveRadius, NotRepulsive, NumericError, ValidationError
from rc3bp.errors import ZeroAngularMomentum
from rc3bp.twobody import (
    OrbitClass,
    TwoBodyConfig,
    classify,
    effective_potential,
    hyperbolic_orbit,
    radial_momentum,
)


def test_reduced_mass_at_any_scale():
    # three roundings on the masses' mantissas, scaled back by a power of two: within
    # 3 ulp of the exact quotient, and the plain m1 m2 / (m1 + m2) bit for bit wherever
    # m1 m2 and the result are normal
    rng = random.Random(41)
    for _ in range(20000):
        m1, m2 = (10.0 ** rng.uniform(-323.0, 308.0) for _ in range(2))
        if not (m1 > 0.0 and m2 > 0.0):
            continue
        mu_red = TwoBodyConfig(m1, m2, 0.0, 0.0).mu_red
        exact = Fraction(m1) * Fraction(m2) / (Fraction(m1) + Fraction(m2))
        assert abs(Fraction(mu_red) - exact) <= 3 * Fraction(math.ulp(float(exact))), (m1, m2)
        if sys.float_info.min <= min(m1 * m2, mu_red) and m1 * m2 < math.inf:
            assert mu_red == m1 * m2 / (m1 + m2), (m1, m2)
    # where m1 m2 underflows or m1 + m2 overflows
    assert TwoBodyConfig(1e-200, 1e-200, 0.0, 0.0).mu_red == 5e-201
    assert TwoBodyConfig(1e308, 1e308, 0.0, 0.0).mu_red == 5e307


def test_classification_by_coupling_sign():
    assert classify(TwoBodyConfig(1.0, 1.0, 0.5, 0.5)) is OrbitClass.KEPLERIAN
    assert classify(TwoBodyConfig(1.0, 1.0, 1.0, 1.0)) is OrbitClass.FREE
    assert classify(TwoBodyConfig(1.0, 1.0, 2.0, 1.0)) is OrbitClass.REPULSIVE


def test_orbit_parameters_closed_form():
    cfg = TwoBodyConfig(1.0, 2.0, 3.0, 2.0)      # C = 2 - 6 = -4, mu_red = 2/3
    orb = hyperbolic_orbit(cfg, 4.0, 1.5)
    mu, C, ks, l = 2.0 / 3.0, -4.0, 4.0, 1.5
    assert orb.c == pytest.approx(mu * abs(C) / l**2, rel=1e-15)
    assert orb.e == pytest.approx(math.sqrt(1.0 + 2.0 * l**2 * ks / (mu * C**2)), rel=1e-15)
    assert orb.r0 == pytest.approx(abs(C) / ks, rel=1e-15)
    assert orb.rho_star == pytest.approx(abs(C) / (2.0 * ks) * (1.0 + orb.e), rel=1e-15)
    assert orb.theta_e == pytest.approx(math.acos(1.0 / orb.e), rel=1e-15)
    assert orb.theta_prime == 0.0


def test_orbit_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m1, m2 = rng.uniform(0.2, 4.0, 2)
        q1 = rng.uniform(0.5, 3.0)
        q2 = (m1 * m2 + rng.uniform(0.2, 5.0)) / q1      # force C < 0
        cfg = TwoBodyConfig(m1, m2, q1, q2)
        ks = rng.uniform(0.2, 5.0)
        l = rng.uniform(0.1, 3.0)
        orb = hyperbolic_orbit(cfg, ks, l)
        assert orb.e > 1.0                                # always hyperbolic
        assert orb.rho_star >= orb.r0                     # turning point outside Hill radius
        assert 0.0 < orb.theta_e < math.pi / 2.0
        # pericenter radius from the conic matches rho_star
        assert orb.radius_at(0.0) == pytest.approx(orb.rho_star, rel=1e-12)
        # energy balance at the turning point: V_eff(rho*) = k*
        ve = effective_potential(orb.rho_star, l, cfg.mu_red, cfg.C)
        assert ve == pytest.approx(ks, rel=1e-12)


def test_radius_at_asymptote_is_infinite():
    cfg = TwoBodyConfig(1.0, 1.0, 2.0, 1.0)
    orb = hyperbolic_orbit(cfg, 1.0, 1.0)
    # at theta_e itself the denominator is zero only up to rounding, so
    # probe the divergence and the forbidden sector just past it
    assert orb.radius_at(orb.theta_e) > 1e12
    assert math.isinf(orb.radius_at(orb.theta_e + 1e-9))
    assert math.isinf(orb.radius_at(-orb.theta_e - 0.3))
    assert orb.radius_at(orb.theta_e * 0.5) < math.inf


def test_hill_radius_excludes_interior():
    # V_eff(rho) > k* for every rho < r0, independent of l
    cfg = TwoBodyConfig(1.0, 1.0, 3.0, 1.0)    # C = -2
    ks = 0.8
    r0 = abs(cfg.C) / ks
    for l in (0.0, 0.3, 2.0):
        for frac in (0.1, 0.5, 0.99):
            rho = frac * r0
            veff = l * l / (2.0 * cfg.mu_red * rho * rho) + abs(cfg.C) / rho
            assert veff > ks
            assert radial_momentum(rho, ks, l, cfg.mu_red, cfg.C) is None


def test_radial_momentum_turning_point_and_signs():
    cfg = TwoBodyConfig(2.0, 1.0, 2.0, 2.0)    # C = -2
    ks, l = 1.3, 0.9
    orb = hyperbolic_orbit(cfg, ks, l)
    pm = radial_momentum(orb.rho_star, ks, l, cfg.mu_red, cfg.C)
    assert pm == (0.0, 0.0)                    # clamped exactly at the turning point
    pm = radial_momentum(2.0 * orb.rho_star, ks, l, cfg.mu_red, cfg.C)
    assert pm is not None
    p_plus, p_minus = pm
    assert p_plus > 0.0 and p_minus == -p_plus
    # consistency with the energy relation p^2/(2 mu) + V_eff = k*
    rho = 2.0 * orb.rho_star
    assert p_plus**2 / (2.0 * cfg.mu_red) + effective_potential(
        rho, l, cfg.mu_red, cfg.C
    ) == pytest.approx(ks, rel=1e-12)


def test_radial_momentum_clamps_just_inside_the_turning_point():
    # a few ulp inside rho_star the radicand is negative by rounding alone:
    # it is clamped to zero, while deep inside the forbidden region is None
    cfg = TwoBodyConfig(2.0, 1.0, 2.0, 2.0)    # C = -2
    ks, l = 1.3, 0.9
    rho = hyperbolic_orbit(cfg, ks, l).rho_star
    for _ in range(64):
        if effective_potential(rho, l, cfg.mu_red, cfg.C) > ks:
            break
        rho = math.nextafter(rho, 0.0)
    assert 2.0 * cfg.mu_red * (ks - effective_potential(rho, l, cfg.mu_red, cfg.C)) < 0.0
    assert radial_momentum(rho, ks, l, cfg.mu_red, cfg.C) == (0.0, 0.0)
    assert radial_momentum(0.99 * rho, ks, l, cfg.mu_red, cfg.C) is None


def test_orbit_rejects_bad_inputs():
    attractive = TwoBodyConfig(1.0, 1.0, 0.1, 0.1)
    with pytest.raises(NotRepulsive):
        hyperbolic_orbit(attractive, 1.0, 1.0)
    repulsive = TwoBodyConfig(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ZeroAngularMomentum):
        hyperbolic_orbit(repulsive, 1.0, 0.0)
    with pytest.raises(ValueError):
        hyperbolic_orbit(repulsive, -1.0, 1.0)
    with pytest.raises(NonpositiveRadius):
        effective_potential(0.0, 1.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        TwoBodyConfig(0.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "fields", [(math.nan, 1.0, 1.0, 1.0), (1.0, 1.0, math.inf, 1.0), (1.0, 1.0, 1.0, 1.0, math.nan)]
)
def test_config_rejects_non_finite_fields(fields):
    with pytest.raises(ValidationError, match="must be finite"):
        TwoBodyConfig(*fields)


def test_orbit_rejects_non_finite_arguments():
    repulsive = TwoBodyConfig(1.0, 1.0, 2.0, 1.0)
    for k_star, l in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValidationError, match="must be finite"):
            hyperbolic_orbit(repulsive, k_star, l)


def test_orbit_that_is_no_hyperbola_in_doubles_is_a_numeric_error():
    # 2 l**2 k*/(mu_red C**2) = 4.4e-21 leaves e = 1; 3/1e-320 leaves r0 = inf
    repulsive = TwoBodyConfig(1.0, 1.0, 2.0, 2.0)
    with pytest.raises(NumericError, match="e rounds to 1"):
        hyperbolic_orbit(repulsive, 1e-20, 1.0)
    with pytest.raises(NumericError, match="r0"):
        hyperbolic_orbit(repulsive, 1e-320, 1.0)
    # l**2 underflows to 0, so e is exactly 1 and c = mu_red |C| / l**2 is never formed
    with pytest.raises(NumericError, match="e rounds to 1 at k_star = 3.0, l = 1e-170"):
        hyperbolic_orbit(repulsive, 3.0, 1e-170)
    # mu_red = 5e-201 and C = -1e-160, so mu_red C**2 = 5e-521 underflows to 0
    tiny = TwoBodyConfig(1e-200, 1e-200, 1e-80, 1e-80)
    with pytest.raises(NumericError, match=r"mu_red C\*\*2 underflows to 0 at TwoBodyConfig\("):
        hyperbolic_orbit(tiny, 3.0, 1.0)
