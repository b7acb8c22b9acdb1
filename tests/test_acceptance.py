"""Acceptance suite: ten numbered end-to-end checks with pinned tolerances.

Each test draws with a fixed seed, reports one summary line through the
`criterion` fixture, and asserts the pinned bound. Expected values come
from closed forms or from independent oracles built inline (dense
eigensolver, bisection on published polynomials, direct ODE integration),
never from the code path under test.
"""

import hashlib
import math
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from rc3bp import collinear, regions, stability, twobody
from rc3bp.cli import reproduce_all
from rc3bp.collinear import BetaRegion, Interval
from rc3bp.dynamics import PhaseState, equilibrium_state, integrate, omega_gradient
from rc3bp.params import SystemParams, is_admissible
from rc3bp.triangular import triangular_exists, triangular_points
from formula_oracles import f_axis_unreduced
from scan_oracle import scan_in_interval

_ALL_REGIONS = (
    BetaRegion.S11,
    BetaRegion.S12,
    BetaRegion.S2,
    BetaRegion.S41,
    BetaRegion.S42,
    BetaRegion.S5,
    BetaRegion.S6,
)


def _draw_region(rng, region):
    while True:
        mu = rng.uniform(0.02, 0.5)
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
        p = SystemParams(mu, b1, b2)
        if p.admissible and collinear.classify_region(p) is region:
            return p


def test_criterion_01_equilibrium_residuals(criterion):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    while n < 1000:
        mu = rng.uniform(0.01, 0.5)
        p = SystemParams(mu, rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0))
        if not (p.admissible and triangular_exists(p)):
            continue
        pair = triangular_points(p)
        for pt in (pair.l4, pair.l5):
            worst = max(worst, math.hypot(*omega_gradient(p, *pt)))
        n += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-11 and dt < 5.0
    criterion(
        f"criterion 1 equilibrium residuals: {'PASS' if ok else 'FAIL'} "
        f"(max |grad Omega| = {worst:.3e}, tol 1e-11; runtime {dt:.2f}s < 5s)"
    )
    assert ok


def test_criterion_02_root_count_conformance(criterion):
    # the theorem's counts against the dense sign scan (tests/scan_oracle.py),
    # and the library's roots against the scan's roots
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    mismatches = 0
    root_mismatches = 0
    for region in _ALL_REGIONS:
        for _ in range(1000):
            p = _draw_region(rng, region)
            for iv in Interval:
                want = collinear.resolved_root_count(p, iv)
                scanned = scan_in_interval(p, iv)
                double = any(r.multiplicity == 2 for r in scanned)
                if len(scanned) != want.count or double != want.double:
                    mismatches += 1
                roots = collinear.find_in_interval(p, iv)
                if len(roots) != len(scanned) or any(
                    r.multiplicity != s.multiplicity or abs(r.x - s.x) > 1e-9
                    for r, s in zip(roots, scanned)
                ):
                    root_mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and root_mismatches == 0 and dt < 60.0
    criterion(
        f"criterion 2 root-count conformance: {'PASS' if ok else 'FAIL'} "
        f"({mismatches} scan-count and {root_mismatches} finder-root mismatches over "
        f"7000 draws x 3 intervals; runtime {dt:.1f}s < 60s)"
    )
    assert ok


def test_criterion_03_eigenvalue_cross_check(criterion):
    rng = np.random.default_rng(103)
    worst = 0.0
    n = 0
    while n < 1000:
        mu = rng.uniform(0.01, 0.5)
        p = SystemParams(mu, rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
        if not triangular_exists(p):
            continue
        a = stability.linearization(p, *triangular_points(p).l4)
        mine = sorted(stability.quartic_eigenvalues(a), key=lambda z: (round(z.real, 8), z.imag))
        dense = sorted(
            (complex(z) for z in np.linalg.eigvals(a)), key=lambda z: (round(z.real, 8), z.imag)
        )
        worst = max(worst, max(abs(u - v) for u, v in zip(mine, dense)))
        n += 1

    # F = 0 members of the isosceles family: defective double eigenvalue
    sv4_max, sv3_min = 0.0, math.inf
    lam = complex(0.0, math.sqrt(2.0) / 2.0)
    for mu in (0.05, 0.1, 0.2, 0.35, 0.5):
        g = stability.gamma_mu(mu)
        rho = 1.0 / math.sqrt(2.0 * (1.0 + math.cos(g)))
        p = SystemParams(mu, rho**3, rho**3)
        a = stability.linearization(p, *triangular_points(p).l4).astype(complex)
        sv = np.linalg.svd(a - lam * np.eye(4), compute_uv=False)
        sv4_max = max(sv4_max, sv[3])
        sv3_min = min(sv3_min, sv[2])

    ok = worst <= 1e-10 and sv4_max < 1e-10 and sv3_min > 1e-6
    criterion(
        f"criterion 3 eigenvalue cross-check: {'PASS' if ok else 'FAIL'} "
        f"(max |closed - dense| = {worst:.3e}, tol 1e-10; "
        f"F=0 gap sv4 = {sv4_max:.1e} < 1e-10, sv3 = {sv3_min:.1e} > 1e-6)"
    )
    assert ok


def test_criterion_04_critical_constants(criterion):
    mu_c = stability.critical_mu()
    f_at_crit = abs(stability.f_stability(mu_c, math.pi / 2.0))
    g_half = abs(stability.gamma_mu(0.5) - math.asin(1.0 / 3.0))
    grid_ok = True
    for mu in np.linspace(1e-6, 0.5, 100):
        for g in np.linspace(0.0, math.pi, 100):
            v = stability.f_stability(float(mu), float(g))
            if not (-8.0 - 1e-12 <= v <= 1.0 + 1e-12):
                grid_ok = False
    ok = f_at_crit <= 1e-14 and g_half <= 1e-15 and grid_ok
    criterion(
        f"criterion 4 critical constants: {'PASS' if ok else 'FAIL'} "
        f"(|F(mu*, pi/2)| = {f_at_crit:.1e} <= 1e-14; "
        f"|gamma_mu(1/2) - asin(1/3)| = {g_half:.1e} <= 1e-15; "
        f"F within [-8, 1] on 10^4 grid: {grid_ok})"
    )
    assert ok


def test_criterion_05_series_and_mirror_identity(criterion):
    def gtilde(x, mu):
        p1 = (3.0 * x + mu - 1.0) * (x + mu) ** 3
        p2 = (3.0 * x + mu) * (x + mu - 1.0) ** 3
        return p1 * p2 - 2.0 * mu * p1 - 2.0 * (1.0 - mu) * p2

    series_ok = True
    details = []
    for mu in (0.005, 0.01, 0.02):
        x1, x2 = collinear.critical_roots(mu)
        s1, s2 = collinear.critical_roots_series(mu)
        d1, d2 = abs(s1 - x1), abs(s2 - x2)
        series_ok = series_ok and d1 <= 10.0 * mu**5 and d2 <= 10.0 * mu**1.25
        details.append(f"mu={mu}: |d1|={d1:.1e}, |d2|={d2:.1e}")

    mirror_worst = 0.0
    for mu in (0.1, 0.25, 0.5):
        _, x2 = collinear.critical_roots(mu)
        m = 1.0 - mu
        x1m = brentq(lambda x: gtilde(x, m), -m, -m / 3.0, xtol=1e-15)
        mirror_worst = max(mirror_worst, abs(x2 + x1m))

    ok = series_ok and mirror_worst <= 1e-12
    criterion(
        f"criterion 5 critical-root series: {'PASS' if ok else 'FAIL'} "
        f"({'; '.join(details)}; mirror identity |x_r2(mu) + x_r1(1-mu)| = "
        f"{mirror_worst:.1e} <= 1e-12)"
    )
    assert ok


def test_criterion_06_axis_mirror_antisymmetry(criterion):
    rng = np.random.default_rng(106)
    worst = 0.0
    n = 0
    while n < 10_000:
        mu = rng.uniform(0.02, 0.98)
        p = SystemParams(mu, rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        x = rng.uniform(-5.0, 5.0)
        if min(abs(x + mu), abs(x + mu - 1.0)) < 1e-3:
            continue
        q, xm = collinear.mirror(p, x)
        f = f_axis_unreduced(p, x)
        s = f_axis_unreduced(q, xm) + f
        worst = max(worst, abs(s) / max(1.0, abs(f)))
        n += 1

    sets_ok = True
    m = 0
    while m < 100:
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if not p.admissible:
            continue
        if collinear.classify_region(p) in (BetaRegion.AXIS_ORIGIN, BetaRegion.INADMISSIBLE):
            continue
        roots = sorted(r.x for r in collinear.find_collinear(p))
        mirrored = sorted(-r.x for r in collinear.find_collinear(p.mirrored()))
        if len(roots) != len(mirrored) or any(
            abs(a - b) > 1e-9 for a, b in zip(roots, mirrored)
        ):
            sets_ok = False
        m += 1

    ok = worst <= 1e-12 and sets_ok
    criterion(
        f"criterion 6 mirror antisymmetry: {'PASS' if ok else 'FAIL'} "
        f"(max relative defect {worst:.2e} <= 1e-12 on 10^4 samples; "
        f"root sets mirror on 100 draws: {sets_ok})"
    )
    assert ok


def test_criterion_07_integrator_conservation(criterion):
    rng = np.random.default_rng(107)
    worst_h = 0.0
    kept = 0
    while kept < 10:
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(0.3, 1.8), rng.uniform(0.3, 1.8))
        if not p.admissible:
            continue
        x, y = rng.uniform(-1.5, 1.5, 2)
        if min(math.hypot(x + mu, y), math.hypot(x + mu - 1.0, y)) < 0.3:
            continue
        s0 = PhaseState(x, y, -y + rng.normal(0.0, 0.05), x + rng.normal(0.0, 0.05))
        traj = integrate(p, s0, 100.0, tol=1e-12, collision_radius=0.05)
        if traj.reason != "completed":
            continue
        d1 = np.hypot(traj.states[:, 0] + mu, traj.states[:, 1])
        d2 = np.hypot(traj.states[:, 0] + mu - 1.0, traj.states[:, 1])
        if min(d1.min(), d2.min()) < 0.1:
            continue     # grazing passes are near-singular; redraw
        worst_h = max(worst_h, float(np.max(np.abs(traj.energy - traj.energy[0]))))
        kept += 1

    worst_drift = 0.0
    for mu, b1, b2 in ((0.2, 1.1, 0.7), (0.35, 0.9, 1.4), (0.1, 1.0, 1.0)):
        p = SystemParams(mu, b1, b2)
        starts = [equilibrium_state(p, *triangular_points(p).l4)]
        root = collinear.find_in_interval(p, Interval.I3)[0]
        starts.append(equilibrium_state(p, root.x, 0.0))
        for s0 in starts:
            traj = integrate(p, s0, 10.0, tol=1e-12)
            drift = float(np.max(np.abs(traj.states - traj.states[0])))
            worst_drift = max(worst_drift, drift)

    ok = worst_h <= 1e-9 and worst_drift < 1e-9
    criterion(
        f"criterion 7 integrator conservation: {'PASS' if ok else 'FAIL'} "
        f"(max |H(t) - H(0)| = {worst_h:.2e} <= 1e-9 over t=100 at tol 1e-12; "
        f"equilibrium drift {worst_drift:.2e} < 1e-9 over t=10)"
    )
    assert ok


def test_criterion_08_two_body_hyperbola(criterion):
    rng = np.random.default_rng(108)
    worst_path, worst_angle = 0.0, 0.0
    for _ in range(10):
        m1, m2 = rng.uniform(0.5, 3.0, 2)
        q1 = rng.uniform(0.5, 2.0)
        c_mag = rng.uniform(0.5, 4.0)
        q2 = (m1 * m2 + c_mag) / q1                 # forces C = -c_mag
        cfg = twobody.TwoBodyConfig(m1, m2, q1, q2)
        k_star = rng.uniform(0.5, 3.0)
        l = rng.uniform(0.3, 2.0)
        orb = twobody.hyperbolic_orbit(cfg, k_star, l)
        mu_red = cfg.mu_red

        # independent Cartesian integration of mu_red r'' = |C| r / rho^3
        def rhs(t, s):
            x, y, vx, vy = s
            rho3 = (x * x + y * y) ** 1.5
            return [vx, vy, c_mag * x / (mu_red * rho3), c_mag * y / (mu_red * rho3)]

        sin_e = math.sqrt(1.0 - 1.0 / orb.e**2)
        r_stop = max(1e4 * orb.r0, 1e6 / (orb.c * orb.e * sin_e))

        def far(t, s):
            return math.hypot(s[0], s[1]) - r_stop

        far.terminal = True
        v_perp = l / (mu_red * orb.rho_star)
        v_inf = math.sqrt(2.0 * k_star / mu_red)
        sol = solve_ivp(
            rhs,
            (0.0, 20.0 * r_stop / v_inf + 50.0),
            [orb.rho_star, 0.0, 0.0, v_perp],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            events=far,
        )
        assert sol.status == 1, sol.message
        rho = np.hypot(sol.y[0], sol.y[1])
        theta = np.arctan2(sol.y[1], sol.y[0])
        resid = np.abs(1.0 / rho - orb.c * (-1.0 + orb.e * np.cos(theta)))
        worst_path = max(worst_path, float(resid.max()))
        xe, ye = sol.y_events[0][0][:2]
        assert math.hypot(xe, ye) > 1e4 * orb.r0
        worst_angle = max(worst_angle, abs(math.atan2(ye, xe) - orb.theta_e))

    ok = worst_path <= 1e-8 and worst_angle <= 1e-5
    criterion(
        f"criterion 8 two-body hyperbola: {'PASS' if ok else 'FAIL'} "
        f"(max path residual {worst_path:.2e} <= 1e-8; "
        f"max asymptote angle error {worst_angle:.2e} <= 1e-5 at rho > 1e4 r0)"
    )
    assert ok


def test_criterion_09_region_consistency(criterion):
    res = 128
    bad = 0

    r = regions.figure_dataset(6, resolution=res).raster
    for j, d2 in enumerate(r.y_centers()):
        for i, d1 in enumerate(r.x_centers()):
            strict = d1 > 0.0 and d2 > 0.0 and d1 + d2 > 1.0 and abs(d1 - d2) < 1.0
            if not strict:
                want = 0
            elif not is_admissible(d1**3, d2**3):
                want = 1
            else:
                want = 2
            bad += int(r.labels[j, i] != want)

    ds = regions.figure_dataset(7, resolution=res)
    mu7 = ds.parameters["mu"]
    r = ds.raster
    for j, y in enumerate(r.y_centers()):
        for i, x in enumerate(r.x_centers()):
            r1, r2 = math.hypot(x + mu7, y), math.hypot(x + mu7 - 1.0, y)
            strict = r1 > 0.0 and r2 > 0.0 and r1 + r2 > 1.0 and abs(r1 - r2) < 1.0
            if not strict:
                want = 0
            elif not ((r1**3 - 1.0) * (r2**3 - 1.0) < 1.0):
                want = 1
            else:
                want = 2
            bad += int(r.labels[j, i] != want)

    for fig, iv in ((11, Interval.I1), (12, Interval.I2), (13, Interval.I3)):
        ds = regions.figure_dataset(fig, resolution=res)
        mu_c = ds.parameters["mu"]
        r = ds.raster
        xs, ys = r.x_centers(), r.y_centers()
        for j, b2 in enumerate(ys):
            for i, b1 in enumerate(xs):
                if not is_admissible(b1, b2):
                    want = 0
                else:
                    roots = scan_in_interval(SystemParams(mu_c, b1, b2), iv, n_scan=2000)
                    if any(rt.multiplicity == 2 for rt in roots):
                        want = 4
                    else:
                        want = {0: 1, 1: 2, 2: 3}[len(roots)]
                bad += int(r.labels[j, i] != want)

    arc_worst = 0.0
    ell_worst = 0.0
    for mu in (0.05, 0.2, 0.35):
        for g in (0.4, 1.0, math.pi / 2.0, 2.2):
            for arc in regions.stable_arcs(mu, g):
                pts = arc.points(129)
                # circle equation through both primaries
                lhs = (pts[:, 0] - 0.5 + mu) ** 2 + (
                    pts[:, 1] + (1.0 if arc.branch == "upper" else -1.0)
                    * math.cos(g) / (2.0 * math.sin(g))
                ) ** 2
                arc_worst = max(
                    arc_worst, float(np.max(np.abs(lhs - 1.0 / (4.0 * math.sin(g) ** 2))))
                )
            ell = regions.StableEllipse(gamma=g)
            pts = ell.points(257)
            resid = (
                pts[:, 0] ** 2 + pts[:, 1] ** 2
                + 2.0 * math.cos(g) * pts[:, 0] * pts[:, 1] - 1.0
            )
            ell_worst = max(ell_worst, float(np.max(np.abs(resid))))

    ok = bad == 0 and arc_worst <= 1e-12 and ell_worst <= 1e-12
    criterion(
        f"criterion 9 region consistency: {'PASS' if ok else 'FAIL'} "
        f"({bad} cell mismatches at {res}x{res} across 5 rasters; "
        f"arc identity {arc_worst:.1e} <= 1e-12; ellipse identity {ell_worst:.1e} <= 1e-12)"
    )
    assert ok


def test_criterion_10_reproduce_all_deterministic(criterion, tmp_path):
    def digest_tree(d):
        out = {}
        for p in sorted(d.iterdir()):
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    a, b = tmp_path / "a", tmp_path / "b"
    reproduce_all(str(a))
    reproduce_all(str(b))
    da, db = digest_tree(a), digest_tree(b)
    ok = da == db and len(da) == 27
    criterion(
        f"criterion 10 determinism: {'PASS' if ok else 'FAIL'} "
        f"(two reproduce-all runs, {len(da)} files, byte-identical: {da == db})"
    )
    assert ok
