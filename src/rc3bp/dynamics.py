"""Rotating-frame potential, Hamiltonian, equations of motion, integrator.

Units follow the problem's normalization: angular velocity 1, primary
separation 1, G(m1 + m2) = 1. The primaries sit at (-mu, 0) and
(1 - mu, 0). The force function is

    V = beta1 (1 - mu) / rho1 + beta2 mu / rho2,

and the canonical equations derived from
H = (px**2 + py**2)/2 + (y px - x py) - V are

    x'  = y + px          px' = Vx + py
    y'  = -x + py         py' = Vy - px.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CollisionSingularity, StepSizeUnderflow
from .params import SystemParams

# Integration stops (reported, not raised) once min(rho1, rho2) drops below
# this: close approaches drive the right-hand side toward overflow.
DEFAULT_COLLISION_RADIUS = 1e-6

# DOP853 rejects rtol below ~100*eps; floor quietly instead of warning.
_MIN_RTOL = 2.5e-14


@dataclass(frozen=True)
class PhaseState:
    """Canonical rotating-frame state (x, y, px, py)."""

    x: float
    y: float
    px: float
    py: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.px, self.py], dtype=float)

    @staticmethod
    def from_array(v: Sequence[float]) -> "PhaseState":
        x, y, px, py = (float(c) for c in v)
        return PhaseState(x, y, px, py)


@dataclass(frozen=True)
class PotentialSample:
    """V and its derivatives through second order at one point."""

    V: float
    Vx: float
    Vy: float
    Vxx: float
    Vxy: float
    Vyy: float
    rho1: float
    rho2: float


def primary_distances(mu: float, x: float, y: float) -> tuple[float, float]:
    """(rho1, rho2) from the point to the primaries at (-mu, 0), (1-mu, 0)."""
    return math.hypot(x + mu, y), math.hypot(x - 1.0 + mu, y)


def potential(params: SystemParams, x: float, y: float) -> PotentialSample:
    """Evaluate V, its gradient, and its Hessian at (x, y).

    Raises CollisionSingularity at a primary. Note the 2D section of the
    3D kernel is not harmonic: Vxx + Vyy = beta1(1-mu)/rho1**3
    + beta2 mu/rho2**3.
    """
    mu, b1, b2 = params.mu, params.beta1, params.beta2
    dx1, dx2 = x + mu, x - 1.0 + mu
    rho1, rho2 = math.hypot(dx1, y), math.hypot(dx2, y)
    if rho1 == 0.0 or rho2 == 0.0:
        raise CollisionSingularity(f"point ({x!r}, {y!r}) coincides with a primary")

    k1 = b1 * (1.0 - mu)   # numerator of the body-1 term
    k2 = b2 * mu
    r13, r23 = rho1**3, rho2**3
    r15, r25 = rho1**5, rho2**5

    V = k1 / rho1 + k2 / rho2
    Vx = -k1 * dx1 / r13 - k2 * dx2 / r23
    Vy = -k1 * y / r13 - k2 * y / r23
    Vxx = -k1 / r13 - k2 / r23 + 3.0 * k1 * dx1 * dx1 / r15 + 3.0 * k2 * dx2 * dx2 / r25
    Vxy = 3.0 * k1 * dx1 * y / r15 + 3.0 * k2 * dx2 * y / r25
    Vyy = -k1 / r13 - k2 / r23 + 3.0 * k1 * y * y / r15 + 3.0 * k2 * y * y / r25
    return PotentialSample(V=V, Vx=Vx, Vy=Vy, Vxx=Vxx, Vxy=Vxy, Vyy=Vyy, rho1=rho1, rho2=rho2)


def omega(params: SystemParams, x: float, y: float) -> float:
    """Effective potential Omega = (x**2 + y**2)/2 + V (equilibria are its critical points)."""
    return 0.5 * (x * x + y * y) + potential(params, x, y).V


def omega_gradient(params: SystemParams, x: float, y: float) -> tuple[float, float]:
    """(Omega_x, Omega_y) = (x + Vx, y + Vy)."""
    s = potential(params, x, y)
    return x + s.Vx, y + s.Vy


def hamiltonian(params: SystemParams, state: PhaseState) -> float:
    """H = (px**2 + py**2)/2 + (y px - x py) - V."""
    s = potential(params, state.x, state.y)
    return 0.5 * (state.px**2 + state.py**2) + state.y * state.px - state.x * state.py - s.V


def eom(params: SystemParams, state: PhaseState) -> tuple[float, float, float, float]:
    """Right-hand side (x', y', px', py') of the canonical equations."""
    s = potential(params, state.x, state.y)
    return (
        state.y + state.px,
        -state.x + state.py,
        s.Vx + state.py,
        s.Vy - state.px,
    )


def equilibrium_state(params: SystemParams, x: float, y: float) -> PhaseState:
    """Phase point with the momenta (px, py) = (-y, x) that freeze (x, y)."""
    return PhaseState(x, y, -y, x)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first integration.

    Only `integrate` needs scipy, so the rest of the package (and the
    CLI's start-up) does without it. It stays a module attribute, looked
    up at call time, so that perfbench's traced run can wrap it.
    """
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the canonical equations.

    reason is "completed" or "collision-approach"; in the latter case the
    arrays end at the event time and t[-1] < t_end.
    """

    t: np.ndarray
    states: np.ndarray          # shape (len(t), 4), columns x, y, px, py
    energy: np.ndarray          # H at each sample
    reason: str

    def state(self, i: int) -> PhaseState:
        return PhaseState.from_array(self.states[i])


def integrate(
    params: SystemParams,
    s0: PhaseState,
    t_end: float,
    tol: float = 1e-12,
    *,
    sample_times: Sequence[float] | None = None,
    collision_radius: float = DEFAULT_COLLISION_RADIUS,
) -> Trajectory:
    """Integrate the canonical equations with an adaptive RK (DOP853).

    tol drives both relative and absolute tolerance and must lie in
    [1e-14, 1e-3]. sample_times, if given, selects the dense-output
    times; otherwise the solver's natural steps are returned. Approaching
    a primary closer than collision_radius ends the run early with
    reason "collision-approach".
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if not (1e-14 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-14, 1e-3], got {tol!r}")

    mu, b1, b2 = params.mu, params.beta1, params.beta2
    k1, k2 = b1 * (1.0 - mu), b2 * mu

    def rhs(t: float, v: np.ndarray) -> list[float]:
        x, y, px, py = v
        dx1, dx2 = x + mu, x - 1.0 + mu
        r13 = (dx1 * dx1 + y * y) ** 1.5
        r23 = (dx2 * dx2 + y * y) ** 1.5
        vx = -k1 * dx1 / r13 - k2 * dx2 / r23
        vy = -k1 * y / r13 - k2 * y / r23
        return [y + px, -x + py, vx + py, vy - px]

    def close_approach(t: float, v: np.ndarray) -> float:
        x, y = v[0], v[1]
        r1, r2 = primary_distances(mu, x, y)
        return min(r1, r2) - collision_radius

    close_approach.terminal = True  # type: ignore[attr-defined]

    sol = solve_ivp(
        rhs,
        (0.0, float(t_end)),
        s0.as_array(),
        method="DOP853",
        rtol=max(tol, _MIN_RTOL),
        atol=tol,
        dense_output=sample_times is not None,
        t_eval=np.asarray(sample_times, dtype=float) if sample_times is not None else None,
        events=close_approach,
    )
    if sol.status == -1:
        raise StepSizeUnderflow(sol.message)

    t = np.asarray(sol.t, dtype=float)
    states = np.asarray(sol.y, dtype=float).T
    # terminal event: append the event state so the trajectory ends where it stopped
    if sol.status == 1 and sol.t_events[0].size:
        te = float(sol.t_events[0][0])
        if t.size == 0 or te > t[-1]:
            t = np.append(t, te)
            states = np.vstack([states, sol.y_events[0][0]])
        reason = "collision-approach"
    else:
        reason = "completed"

    energy = np.array([hamiltonian(params, PhaseState.from_array(v)) for v in states])
    return Trajectory(t=t, states=states, energy=energy, reason=reason)
