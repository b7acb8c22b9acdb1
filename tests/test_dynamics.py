"""Potential derivatives, Hamiltonian structure, and the integrator."""

import json
import math
import re

import numpy as np
import pytest

from rc3bp import dynamics
from rc3bp.cli import main
from rc3bp.dynamics import (
    PhaseState,
    eom,
    equilibrium_state,
    hamiltonian,
    integrate,
    omega,
    omega_gradient,
    potential,
    primary_distances,
)
from rc3bp.errors import CollisionSingularity, NumericError, ValidationError, WorkBudgetExceeded
from rc3bp.params import SystemParams
from test_brent import _run_fresh


def _random_safe_point(rng, mu, min_dist=0.15):
    while True:
        x, y = rng.uniform(-3.0, 3.0, 2)
        r1, r2 = primary_distances(mu, x, y)
        if min(r1, r2) > min_dist:
            return x, y


def test_potential_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(100):
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(-2, 2), rng.uniform(-2, 2))
        x, y = _random_safe_point(rng, mu)
        s = potential(p, x, y)
        fx = (potential(p, x + h, y).V - potential(p, x - h, y).V) / (2 * h)
        fy = (potential(p, x, y + h).V - potential(p, x, y - h).V) / (2 * h)
        assert s.Vx == pytest.approx(fx, rel=1e-7, abs=1e-7)
        assert s.Vy == pytest.approx(fy, rel=1e-7, abs=1e-7)


def test_potential_hessian_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(100):
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(-2, 2), rng.uniform(-2, 2))
        x, y = _random_safe_point(rng, mu, min_dist=0.3)
        s = potential(p, x, y)
        fxx = (potential(p, x + h, y).Vx - potential(p, x - h, y).Vx) / (2 * h)
        fxy = (potential(p, x, y + h).Vx - potential(p, x, y - h).Vx) / (2 * h)
        fyx = (potential(p, x + h, y).Vy - potential(p, x - h, y).Vy) / (2 * h)
        fyy = (potential(p, x, y + h).Vy - potential(p, x, y - h).Vy) / (2 * h)
        assert s.Vxx == pytest.approx(fxx, rel=1e-6, abs=1e-6)
        assert s.Vxy == pytest.approx(fxy, rel=1e-6, abs=1e-6)
        assert s.Vxy == pytest.approx(fyx, rel=1e-6, abs=1e-6)
        assert s.Vyy == pytest.approx(fyy, rel=1e-6, abs=1e-6)


def test_potential_trace_identity():
    # Vxx + Vyy = k1/rho1^3 + k2/rho2^3 for the planar section of the 1/rho kernel
    rng = np.random.default_rng(6)
    for _ in range(100):
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(-2, 2), rng.uniform(-2, 2))
        x, y = _random_safe_point(rng, mu)
        s = potential(p, x, y)
        expected = p.beta1 * (1 - mu) / s.rho1**3 + p.beta2 * mu / s.rho2**3
        assert s.Vxx + s.Vyy == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_potential_raises_at_primary():
    # dyadic mu so both primary abscissae are exact floats
    p = SystemParams(0.25, 1.0, 1.0)
    with pytest.raises(CollisionSingularity):
        potential(p, -0.25, 0.0)
    with pytest.raises(CollisionSingularity):
        potential(p, 0.75, 0.0)


def test_omega_gradient_definition():
    p = SystemParams(0.2, 1.4, 0.6)
    x, y = 0.8, -0.9
    s = potential(p, x, y)
    gx, gy = omega_gradient(p, x, y)
    assert gx == x + s.Vx
    assert gy == y + s.Vy
    assert omega(p, x, y) == pytest.approx(0.5 * (x * x + y * y) + s.V, rel=1e-15)


def test_hamiltonian_is_conserved_along_eom_direction():
    # dH/dt = grad H . f vanishes identically for the canonical field
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(50):
        mu = rng.uniform(0.05, 0.5)
        p = SystemParams(mu, rng.uniform(-2, 2), rng.uniform(-2, 2))
        x, y = _random_safe_point(rng, mu, min_dist=0.3)
        st = PhaseState(x, y, rng.normal(), rng.normal())
        f = eom(p, st)
        grad = []
        for i in range(4):
            up = list(st.as_array())
            dn = list(st.as_array())
            up[i] += h
            dn[i] -= h
            grad.append(
                (hamiltonian(p, PhaseState(*up)) - hamiltonian(p, PhaseState(*dn))) / (2 * h)
            )
        dh = sum(g * fi for g, fi in zip(grad, f))
        scale = max(1.0, max(abs(g) for g in grad))
        assert abs(dh) / scale < 1e-6


def test_eom_matches_the_potential_gradient():
    # eom shares integrate's right-hand side; potential() is the hypot-based
    # reference, so they agree to rounding
    rng = np.random.default_rng(11)
    for _ in range(200):
        mu = rng.uniform(0.01, 0.99)
        p = SystemParams(mu, rng.uniform(-3, 3), rng.uniform(-3, 3))
        x, y = _random_safe_point(rng, mu, min_dist=0.05)
        st = PhaseState(x, y, rng.normal(), rng.normal())
        s = potential(p, x, y)
        want = (y + st.px, -x + st.py, s.Vx + st.py, s.Vy - st.px)
        assert eom(p, st) == pytest.approx(want, rel=1e-13, abs=1e-13)
    at_primary = (SystemParams(0.3, 1.0, 1.0), PhaseState(-0.3, 0.0, 0.0, 0.0))
    with pytest.raises(CollisionSingularity):
        eom(*at_primary)
    with pytest.raises(CollisionSingularity):
        hamiltonian(*at_primary)


def test_trajectory_energy_matches_the_per_sample_hamiltonian():
    # one energy kernel, vectorized with np.hypot and per sample with
    # math.hypot: they differ by at most a few ulp of V (positive here) and H
    p = SystemParams(0.3, 1.0, 1.0)
    traj = integrate(p, PhaseState(-0.1, 0.2, -0.2, 0.3), 20.0)
    ref = np.array([hamiltonian(p, traj.state(i)) for i in range(len(traj.t))])
    pot = np.array([potential(p, x, y).V for x, y in traj.states[:, :2]])
    assert np.all(np.abs(traj.energy - ref) <= 4.0 * np.finfo(float).eps * (pot + np.abs(ref)))


def test_equilibrium_state_is_fixed_point_of_eom():
    from rc3bp.triangular import triangular_points

    p = SystemParams(0.2, 1.3, 0.8)
    pair = triangular_points(p)
    st = equilibrium_state(p, *pair.l4)
    assert st.px == -pair.l4[1] and st.py == pair.l4[0]
    f = eom(p, st)
    assert max(abs(c) for c in f) < 1e-13


def test_integrate_conserves_energy_short_run():
    p = SystemParams(0.2, 1.0, 1.0)
    traj = integrate(p, PhaseState(0.3, 0.8, -0.8, 0.3), 20.0, tol=1e-12)
    assert traj.reason == "completed"
    assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-10


def test_integrate_sample_times_are_honored():
    p = SystemParams(0.2, 1.0, 1.0)
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    traj = integrate(p, PhaseState(0.3, 0.8, -0.8, 0.3), 2.0, sample_times=times)
    assert np.allclose(traj.t, times)
    assert traj.states.shape == (5, 4)
    assert traj.energy.shape == (5,)


def test_integrate_stops_near_collision():
    # released at rotating-frame rest 0.05 from a primary: free fall wins
    p = SystemParams(0.5, 1.0, 1.0)
    st = equilibrium_state(p, 0.45, 0.0)
    traj = integrate(p, st, 5.0, tol=1e-10, collision_radius=1e-3)
    assert traj.reason == "collision-approach"
    x, y = traj.states[-1, 0], traj.states[-1, 1]
    r1, r2 = primary_distances(0.5, x, y)
    assert min(r1, r2) == pytest.approx(1e-3, abs=1e-5)
    assert traj.t[-1] < 5.0


def test_integrate_sampled_run_ends_at_the_collision_event():
    # the samples the solver reached, then the event state: the trajectory
    # ends where the run stopped, not at the last sample before it
    p = SystemParams(0.5, 1.0, 1.0)
    times = [0.05 * i for i in range(101)]
    traj = integrate(p, equilibrium_state(p, 0.45, 0.0), 5.0, tol=1e-10,
                     sample_times=times, collision_radius=1e-3)
    assert traj.reason == "collision-approach"
    k = traj.t.size - 1
    assert 0 < k < len(times) and traj.t[:k].tolist() == times[:k]
    assert times[k - 1] < traj.t[-1] < times[k]
    r1, r2 = primary_distances(0.5, traj.states[-1, 0], traj.states[-1, 1])
    assert min(r1, r2) == pytest.approx(1e-3, abs=1e-5)
    assert traj.states.shape == (k + 1, 4) and traj.energy.shape == (k + 1,)


def test_integrate_with_no_sample_times_is_empty():
    traj = integrate(SystemParams(0.2, 1.0, 1.0), PhaseState(0.3, 0.8, -0.8, 0.3), 1.0,
                     sample_times=[])
    assert traj.t.size == 0 and traj.energy.size == 0


@pytest.mark.parametrize(
    "times, bad",
    [
        ([0.0, math.nan, 0.5], "sample_times[1] = nan"),       # once the row at t = 0 alone
        ([0.0, 0.5, 1.5], "sample_times[2] = 1.5"),            # past t_end
        ([-0.1, 0.5], "sample_times[0] = -0.1"),               # before t = 0
        ([0.0, 0.5, 0.25], "sample_times[2] = 0.25"),          # out of order
        ([0.0, 0.5, 0.5], "sample_times[2] = 0.5"),            # repeated
    ],
)
def test_integrate_names_the_first_bad_sample_time(times, bad):
    with pytest.raises(ValidationError, match=re.escape(bad)):
        integrate(SystemParams(0.2, 1.0, 1.0), PhaseState(0.3, 0.8, -0.8, 0.3), 1.0,
                  sample_times=times)


def test_integrate_validates_inputs():
    p = SystemParams(0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(p, PhaseState(0.3, 0.8, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        integrate(p, PhaseState(0.3, 0.8, 0.0, 0.0), 1.0, tol=1.0)


@pytest.mark.parametrize("radius", [0.0, -1e-6, math.inf, math.nan])
def test_integrate_names_a_collision_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(ValidationError, match="collision_radius must be positive and finite"):
        integrate(SystemParams(0.2, 1.0, 1.0), PhaseState(0.3, 0.8, 0.0, 0.0), 1.0,
                  collision_radius=radius)


def _integrate_in_a_fresh_process(state: str, tmp_path):
    """`rc3bp integrate` from `state` in a new interpreter, killed after 60 s."""
    main = "import sys\nfrom rc3bp.cli import main\nsys.exit(main(sys.argv[1:]))"
    return _run_fresh(main, "integrate", "--mu=0.2", "--beta1=1", "--beta2=1", f"--state={state}",
                      "--t-end=1e-3", f"--out={tmp_path / 'traj.csv'}")


@pytest.mark.parametrize(
    "state, rho",
    [
        ("0.8000001,0,0,0", 1e-7),        # inside the default collision radius 1e-6
        ("0.8,0,0,0", 5.551115123125783e-17),   # 0.8 - 1 + 0.2 is not 0 in doubles
    ],
)
def test_integrate_from_inside_the_collision_radius_is_the_start_alone(state, rho, tmp_path):
    # the close-approach event starts negative and never changes sign, so
    # the solver used to creep on with subnormal steps until killed
    proc = _integrate_in_a_fresh_process(state, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["reason"] == "collision-approach"
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    p, s0 = SystemParams(0.2, 1.0, 1.0), PhaseState(*map(float, state.split(",")))
    assert min(primary_distances(0.2, s0.x, s0.y)) == pytest.approx(rho, rel=1e-6)
    assert float(lines[1].split(",")[-1]) == hamiltonian(p, s0)


def test_integrate_from_a_primary_is_a_collision_singularity(tmp_path):
    proc = _integrate_in_a_fresh_process("-0.2,0,0,0", tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: point (-0.2, 0.0) coincides with a primary\n"
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize(
    "params, state",
    [
        # px**2 overflows
        (SystemParams(0.2, 1.0, 1.0), PhaseState(0.5, 0.5, 1e200, 0.0)),
        # inside the collision radius, where the start alone would be returned
        (SystemParams(1e-10, 2.0, 0.0),
         PhaseState(-8.685434092740774e-07, -1.033031011104279e-07, 1e300, -0.03080576118017928)),
        # V = 0.8 / 1e-320 overflows a subnormal distance from primary 1
        (SystemParams(0.2, 1.0, 1.0), PhaseState(-0.2, 1e-320, 0.0, 0.0)),
    ],
)
def test_h_outside_the_doubles_is_a_numeric_error_before_the_solve(params, state):
    with pytest.raises(NumericError, match=r"^H is not a finite double at PhaseState\(x="):
        hamiltonian(params, state)
    with pytest.raises(NumericError, match=r"^H is not a finite double"):
        integrate(params, state, 1e-3)


def test_repulsive_dynamics_pushes_outward():
    # both betas negative: the only force is radially outward, so rho grows
    p = SystemParams(0.5, -1.0, -1.0)
    st = PhaseState(0.0, 0.5, -0.5, 0.0)
    traj = integrate(p, st, 5.0, tol=1e-10)
    r_start = math.hypot(traj.states[0, 0], traj.states[0, 1])
    r_end = math.hypot(traj.states[-1, 0], traj.states[-1, 1])
    assert r_end > r_start


def test_integrate_stops_at_its_work_budget(monkeypatch, capsys):
    # past MAX_RHS_EVALUATIONS the run ends in a typed error naming the t it reached
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALUATIONS", 2000)
    p, s0 = SystemParams(0.2, 1.0, 1.0), PhaseState(0.5, 0.5, 0.0, 0.0)
    with pytest.raises(WorkBudgetExceeded, match=r"reached t = .* budget of 2000 ") as err:
        integrate(p, s0, 100.0)
    assert err.value.exit_code == 3
    assert len(integrate(p, s0, 1.0).t) > 1                    # a short run fits the budget
    argv = ["integrate", "--mu=0.2", "--beta1=1", "--beta2=1", "--state=0.5,0.5,0,0", "--t-end=100"]
    assert main(argv) == 3
    out, err_text = capsys.readouterr()
    assert out == "" and "try a shorter --t-end" in err_text
