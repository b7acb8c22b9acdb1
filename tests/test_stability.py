"""Linearization, the quartic spectrum, and triangular-point classification."""

import math

import numpy as np
import pytest

from rc3bp.dynamics import potential
from rc3bp.errors import BelowCriticalMass, NotOnTriangularLocus
from rc3bp.params import SystemParams
from rc3bp.stability import (
    StabilityClass,
    classify_triangular,
    critical_mu,
    f_stability,
    gamma_mu,
    gamma_of,
    linearization,
    quartic_eigenvalues,
)
from rc3bp.triangular import triangular_exists, triangular_points
from formula_oracles import f_zero_eigenvector


def _params_with_gamma(gamma, mu=0.3):
    """Isosceles family rho1 = rho2 hitting a prescribed apex-sum angle."""
    rho = 1.0 / math.sqrt(2.0 * (1.0 + math.cos(gamma)))
    return SystemParams(mu, rho**3, rho**3)


def test_linearization_block_structure():
    p = SystemParams(0.2, 1.1, 0.8)
    pair = triangular_points(p)
    a = linearization(p, *pair.l4)
    s = potential(p, *pair.l4)
    expected = np.array(
        [
            [0.0, 1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
            [s.Vxx, s.Vxy, 0.0, 1.0],
            [s.Vxy, s.Vyy, -1.0, 0.0],
        ]
    )
    assert np.array_equal(a, expected)


def test_quartic_matches_dense_eigensolver():
    rng = np.random.default_rng(20)
    n = 0
    while n < 300:
        mu = rng.uniform(0.02, 0.5)
        p = SystemParams(mu, rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
        if not triangular_exists(p):
            continue
        a = linearization(p, *triangular_points(p).l4)
        mine = sorted(quartic_eigenvalues(a), key=lambda z: (round(z.real, 9), z.imag))
        dense = sorted(np.linalg.eigvals(a), key=lambda z: (round(z.real, 9), z.imag))
        for u, v in zip(mine, dense):
            assert abs(u - complex(v)) < 1e-10
        n += 1


def test_eigenvalues_come_in_quadruples():
    # spectrum of the Hamiltonian linearization is symmetric under negation
    p = SystemParams(0.3, 1.2, 0.5)
    a = linearization(p, 0.4, 0.7)
    lams = quartic_eigenvalues(a)
    assert lams[1] == -lams[0]
    assert lams[3] == -lams[2]


def test_gamma_equilateral_is_two_thirds_pi():
    # unit-distance pair: base angles sum to 2 pi / 3
    for mu in (0.1, 0.3, 0.5):
        assert gamma_of(SystemParams(mu, 1.0, 1.0)) == pytest.approx(
            2.0 * math.pi / 3.0, abs=1e-14
        )


def test_gamma_of_law_of_cosines():
    rng = np.random.default_rng(21)
    n = 0
    while n < 200:
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
        if not triangular_exists(p):
            continue
        g = gamma_of(p)
        r1, r2 = p.delta1, p.delta2
        # separation 1 between the primaries closes the triangle
        assert r1**2 + r2**2 + 2.0 * r1 * r2 * math.cos(g) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < g < math.pi
        n += 1


def test_gamma_of_limit_locus_degenerates():
    # collapsed triangles: gamma -> pi on the difference loci, 0 on the sum locus
    d1 = 0.4
    assert gamma_of(SystemParams(0.3, d1**3, (1.0 - d1) ** 3)) == pytest.approx(0.0, abs=1e-6)
    assert gamma_of(SystemParams(0.3, d1**3, (1.0 + d1) ** 3)) == pytest.approx(
        math.pi, abs=1e-6
    )
    with pytest.raises(NotOnTriangularLocus):
        gamma_of(SystemParams(0.3, -1.0, 1.0))
    with pytest.raises(NotOnTriangularLocus):
        gamma_of(SystemParams(0.3, 0.1**3, 0.2**3))


def test_f_stability_constants():
    mu_c = critical_mu()
    assert mu_c == pytest.approx(0.5 - math.sqrt(2.0) / 3.0, rel=1e-16)
    assert abs(f_stability(mu_c, math.pi / 2.0)) < 1e-14
    assert gamma_mu(0.5) == pytest.approx(math.asin(1.0 / 3.0), abs=1e-15)
    assert f_stability(0.5, math.pi / 2.0) == pytest.approx(-8.0, rel=1e-15)
    assert f_stability(0.25, 0.0) == 1.0
    with pytest.raises(ValueError):
        f_stability(0.7, 1.0)
    with pytest.raises(ValueError):
        f_stability(0.25, -0.1)


def test_f_range_on_grid():
    mus = np.linspace(1e-4, 0.5, 100)
    gammas = np.linspace(0.0, math.pi, 100)
    vals = 1.0 - 36.0 * np.outer(mus * (1.0 - mus), np.sin(gammas) ** 2)
    assert vals.min() >= -8.0 - 1e-12 and vals.max() <= 1.0 + 1e-12
    for mu in mus[::9]:
        for g in gammas[::9]:
            assert -8.0 <= f_stability(float(mu), float(g)) <= 1.0


def test_gamma_mu_marks_the_zero_of_f():
    for mu in (0.05, 0.1, 0.3, 0.5):
        g = gamma_mu(mu)
        assert abs(f_stability(mu, g)) < 1e-12
        assert abs(f_stability(mu, math.pi - g)) < 1e-12
    with pytest.raises(BelowCriticalMass):
        gamma_mu(critical_mu() * 0.5)
    assert gamma_mu(critical_mu()) == math.pi / 2.0     # at mu*, F = cos(gamma)**2 vanishes at pi/2


def test_gamma_mu_at_and_just_above_the_critical_ratio():
    # the class of gamma = pi/2 decides the domain: gamma_mu is pi/2 wherever
    # F(mu, pi/2) = 0 within _BOUNDARY_ATOL, about 8,500 ulp either side of mu*, so
    # also 1 ulp below it; 10,000 ulp below F never vanishes, and 10,000 above
    # gamma_mu lies below pi/2
    mu = critical_mu()
    walk, below, above = [mu], mu, mu
    for _ in range(16):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
        walk += [below, above]
    assert [gamma_mu(m) for m in walk] == [math.pi / 2.0] * len(walk)
    with pytest.raises(BelowCriticalMass, match="is below the critical ratio"):
        gamma_mu(mu - 10_000 * math.ulp(mu))
    assert gamma_mu(mu + 10_000 * math.ulp(mu)) < math.pi / 2.0
    assert gamma_mu(mu + 1e-9) < math.pi / 2.0


def test_classification_stable_branch():
    # positive F away from 0 and 1: two imaginary pairs, linearly stable
    p = _params_with_gamma(0.3, mu=0.2)
    rep = classify_triangular(p)
    assert rep.classification is StabilityClass.LINEARLY_STABLE
    assert 0.0 < rep.f_value < 1.0
    assert all(abs(z.real) < 1e-14 for z in rep.eigenvalues)
    # biquadratic lambda^2 = (-1 +- sqrt(F)) / 2: frequencies sqrt((1 -+ sqrt(F))/2)
    root_f = math.sqrt(rep.f_value)
    w_slow = math.sqrt((1.0 - root_f) / 2.0)
    w_fast = math.sqrt((1.0 + root_f) / 2.0)
    imags = sorted(z.imag for z in rep.eigenvalues)
    for got, want in zip(imags, (-w_fast, -w_slow, w_slow, w_fast)):
        assert abs(got - want) < 1e-12


def test_classification_unstable_branch():
    p = _params_with_gamma(1.5, mu=0.45)      # F < 0: complex quadruple
    rep = classify_triangular(p)
    assert rep.classification is StabilityClass.LYAPUNOV_UNSTABLE
    assert rep.f_value < 0.0
    assert any(z.real > 1e-6 for z in rep.eigenvalues)


def test_classification_f_zero_branch():
    mu = 0.1
    g = gamma_mu(mu)
    p = _params_with_gamma(g, mu=mu)
    rep = classify_triangular(p)
    assert rep.classification is StabilityClass.LINEARLY_UNSTABLE_F_ZERO
    assert abs(rep.f_value) < 1e-12
    vals = sorted(z.imag for z in rep.eigenvalues)
    s = math.sqrt(2.0) / 2.0
    assert vals == pytest.approx([-s, -s, s, s], abs=1e-12)


def test_classification_f_one_branch():
    d1 = 0.4
    p = SystemParams(0.3, d1**3, (1.0 - d1) ** 3)   # collapsed triangle
    rep = classify_triangular(p)
    assert rep.classification is StabilityClass.LINEARLY_UNSTABLE_F_ONE
    assert rep.f_value == pytest.approx(1.0, abs=1e-12)
    imags = sorted(z.imag for z in rep.eigenvalues)
    assert imags == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_f_zero_matrix_is_defective():
    # at F = 0 the repeated eigenvalue has a one-dimensional eigenspace
    mu = 0.2
    g = gamma_mu(mu)
    p = _params_with_gamma(g, mu=mu)
    a = linearization(p, *triangular_points(p).l4).astype(complex)
    lam = complex(0.0, math.sqrt(2.0) / 2.0)
    sv = np.linalg.svd(a - lam * np.eye(4), compute_uv=False)
    assert sv[3] < 1e-10      # rank drops by exactly one
    assert sv[2] > 1e-6


def test_f_zero_eigenvector_formula():
    mu = 0.2
    g = gamma_mu(mu)
    p = _params_with_gamma(g, mu=mu)
    pt = triangular_points(p).l4
    s = potential(p, *pt)
    a = linearization(p, *pt).astype(complex)
    lam = complex(0.0, math.sqrt(2.0) / 2.0)
    v = np.asarray(f_zero_eigenvector(s.Vxx, s.Vxy, lam), dtype=complex)
    resid = np.linalg.norm(a @ v - lam * v) / np.linalg.norm(v)
    assert resid < 1e-12


def test_mu_fold_at_half():
    # classification folds mu and 1-mu onto the same F
    p = SystemParams(0.7, 1.0, 1.0)
    rep = classify_triangular(p)
    q = SystemParams(0.3, 1.0, 1.0)
    assert rep.f_value == pytest.approx(classify_triangular(q).f_value, rel=1e-14)
