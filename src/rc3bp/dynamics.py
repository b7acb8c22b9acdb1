"""Rotating-frame potential, Hamiltonian, equations of motion, integrator.

Units follow the problem's normalization: angular velocity 1, primary
separation 1, G(m1 + m2) = 1. The primaries sit at (-mu, 0) and
(1 - mu, 0). The force function is

    V = beta1 (1 - mu) / rho1 + beta2 mu / rho2,

and the canonical equations derived from
H = (px**2 + py**2)/2 + (y px - x py) - V are

    x'  = y + px          px' = Vx + py
    y'  = -x + py         py' = Vy - px.

Only `PhaseState.as_array` and `integrate` use numpy, and they import it
when called: the potential, the Hamiltonian and the right-hand side are
plain `math`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import CollisionSingularity, NumericError, StepSizeUnderflow, ValidationError
from .errors import WorkBudgetExceeded
from .params import SystemParams

if TYPE_CHECKING:
    import numpy as np

# Integration stops (reported, not raised) once min(rho1, rho2) drops below
# this: close approaches drive the right-hand side toward overflow.
DEFAULT_COLLISION_RADIUS = 1e-6

# DOP853 rejects rtol below ~100*eps; floor quietly instead of warning.
_MIN_RTOL = 2.5e-14

# The most right-hand-side evaluations one `integrate` makes: the t = 100 orbit of the
# acceptance tests takes 349,946, and a tight orbit about a primary makes some 70,000 a
# second (2-vCPU Xeon), so it stops within about 8 s.
MAX_RHS_EVALUATIONS = 500_000


class PhaseState(NamedTuple):
    """Canonical rotating-frame state (x, y, px, py)."""

    x: float
    y: float
    px: float
    py: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.x, self.y, self.px, self.py], dtype=float)

    @staticmethod
    def from_array(v: Sequence[float]) -> "PhaseState":
        x, y, px, py = (float(c) for c in v)
        return PhaseState(x, y, px, py)


class PotentialSample(NamedTuple):
    """V and its derivatives through second order at one point."""

    V: float
    Vx: float
    Vy: float
    Vxx: float
    Vxy: float
    Vyy: float
    rho1: float
    rho2: float


def _distances(hypot, mu: float, x, y):
    """(rho1, rho2) to the primaries: at a point (math.hypot) or at arrays of points (np.hypot)."""
    return hypot(x + mu, y), hypot(x - 1.0 + mu, y)


def primary_distances(mu: float, x: float, y: float) -> tuple[float, float]:
    """(rho1, rho2) from the point to the primaries at (-mu, 0), (1-mu, 0)."""
    return _distances(math.hypot, mu, x, y)


def _charges(params: SystemParams) -> tuple[float, float, float]:
    """(mu, k1, k2) with V = k1/rho1 + k2/rho2: k1 = beta1 (1-mu), k2 = beta2 mu."""
    return params.mu, params.beta1 * (1.0 - params.mu), params.beta2 * params.mu


def potential(params: SystemParams, x: float, y: float) -> PotentialSample:
    """Evaluate V, its gradient, and its Hessian at (x, y).

    Raises ValidationError at a non-finite point, CollisionSingularity at
    a primary, and NumericError where a power of a distance to a primary
    overflows or underflows to zero. Note the 2D section of the 3D kernel
    is not harmonic: Vxx + Vyy = beta1(1-mu)/rho1**3 + beta2 mu/rho2**3.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"point ({x!r}, {y!r}) must be finite")
    mu, k1, k2 = _charges(params)
    dx1, dx2 = x + mu, x - 1.0 + mu
    rho1, rho2 = _require_off_primaries(mu, x, y)

    try:
        r13, r23 = rho1**3, rho2**3
        r15, r25 = rho1**5, rho2**5

        V = k1 / rho1 + k2 / rho2
        Vx = -k1 * dx1 / r13 - k2 * dx2 / r23
        Vy = -k1 * y / r13 - k2 * y / r23
        Vxx = -k1 / r13 - k2 / r23 + 3.0 * k1 * dx1 * dx1 / r15 + 3.0 * k2 * dx2 * dx2 / r25
        Vxy = 3.0 * k1 * dx1 * y / r15 + 3.0 * k2 * dx2 * y / r25
        Vyy = -k1 / r13 - k2 / r23 + 3.0 * k1 * y * y / r15 + 3.0 * k2 * y * y / r25
    except (OverflowError, ZeroDivisionError):
        # float ** raises on overflow; a power that underflows to 0 divides by zero
        raise NumericError(
            f"V is not representable at ({x!r}, {y!r}): a power of rho leaves the doubles"
        ) from None
    return PotentialSample(V=V, Vx=Vx, Vy=Vy, Vxx=Vxx, Vxy=Vxy, Vyy=Vyy, rho1=rho1, rho2=rho2)


def omega(params: SystemParams, x: float, y: float) -> float:
    """Effective potential Omega = (x**2 + y**2)/2 + V (equilibria are its critical points)."""
    return 0.5 * (x * x + y * y) + potential(params, x, y).V


def omega_gradient(params: SystemParams, x: float, y: float) -> tuple[float, float]:
    """(Omega_x, Omega_y) = (x + Vx, y + Vy)."""
    s = potential(params, x, y)
    return x + s.Vx, y + s.Vy


def _require_off_primaries(mu: float, x: float, y: float) -> tuple[float, float]:
    """(rho1, rho2), or CollisionSingularity at a primary."""
    rho = primary_distances(mu, x, y)
    if 0.0 in rho:
        raise CollisionSingularity(f"point ({x!r}, {y!r}) coincides with a primary")
    return rho


def _energy(hypot, mu: float, k1: float, k2: float, x, y, px, py):
    """H at one state (hypot=math.hypot) or at arrays of states (np.hypot)."""
    rho1, rho2 = _distances(hypot, mu, x, y)
    pot = k1 / rho1 + k2 / rho2
    return 0.5 * (px**2 + py**2) + y * px - x * py - pot


def hamiltonian(params: SystemParams, state: PhaseState) -> float:
    """H = (px**2 + py**2)/2 + (y px - x py) - V; raises CollisionSingularity at a
    primary and NumericError where H is not a finite double."""
    mu, k1, k2 = _charges(params)
    _require_off_primaries(mu, state.x, state.y)
    try:
        energy = _energy(math.hypot, mu, k1, k2, *state)
        if math.isfinite(energy):
            return energy
    except OverflowError:  # float ** raises where px**2 or py**2 overflows
        pass
    raise NumericError(f"H is not a finite double at {state!r}")


def _canonical_field(mu: float, k1: float, k2: float, budget: float = math.inf):
    """The canonical equations as solve_ivp's (t, v) -> (x', y', px', py'); the
    evaluation past `budget` raises _OverBudget(t) instead."""
    evaluations = 0

    def rhs(t: float, v) -> list[float]:
        nonlocal evaluations
        evaluations += 1
        if evaluations > budget:
            raise _OverBudget(t)
        x, y, px, py = v
        dx1, dx2 = x + mu, x - 1.0 + mu
        r13 = (dx1 * dx1 + y * y) ** 1.5
        r23 = (dx2 * dx2 + y * y) ** 1.5
        vx = -k1 * dx1 / r13 - k2 * dx2 / r23
        vy = -k1 * y / r13 - k2 * y / r23
        return [y + px, -x + py, vx + py, vy - px]

    return rhs


class _OverBudget(Exception):
    """Raised through solve_ivp by a right-hand side past its budget, at time args[0]."""


def eom(params: SystemParams, state: PhaseState) -> tuple[float, float, float, float]:
    """Right-hand side (x', y', px', py') of the canonical equations; raises at a primary."""
    _require_off_primaries(params.mu, state.x, state.y)
    rhs = _canonical_field(*_charges(params))
    return tuple(rhs(0.0, (state.x, state.y, state.px, state.py)))


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


class Trajectory(NamedTuple):
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
    times, which must be finite, strictly increasing and in [0, t_end];
    otherwise the solver's natural steps are returned. Approaching
    a primary closer than collision_radius ends the run early with
    reason "collision-approach"; a start that is already that close is
    the one sample at t = 0. A start on a primary raises
    CollisionSingularity, and one where H is not a finite double raises
    NumericError, as `hamiltonian` does. A run that needs more than
    MAX_RHS_EVALUATIONS evaluations of the right-hand side raises
    WorkBudgetExceeded.
    """
    import numpy as np

    if not (0.0 < t_end < math.inf):
        raise ValidationError(f"t_end must be positive and finite, got {t_end!r}")
    if not (1e-14 <= tol <= 1e-3):
        raise ValidationError(f"tol must lie in [1e-14, 1e-3], got {tol!r}")
    if not (0.0 < collision_radius < math.inf):
        raise ValidationError(
            f"collision_radius must be positive and finite, got {collision_radius!r}"
        )
    t_eval = None
    if sample_times is not None:
        t_eval = np.asarray(sample_times, dtype=float)
        bad = ~np.isfinite(t_eval) | (t_eval < 0.0) | (t_eval > t_end)
        bad[1:] |= t_eval[1:] <= t_eval[:-1]
        if bad.any():
            i = int(bad.argmax())
            raise ValidationError(
                f"sample_times must be finite, strictly increasing and in [0, t_end = {t_end!r}],"
                f" but sample_times[{i}] = {float(t_eval[i])!r}"
            )
    if not np.all(np.isfinite(s0.as_array())):
        raise ValidationError(f"the initial state must be finite, got {s0!r}")

    mu, k1, k2 = _charges(params)
    energy = hamiltonian(params, s0)  # a start where H leaves the doubles fails before the solve
    if min(primary_distances(mu, s0.x, s0.y)) <= collision_radius:
        # the close-approach event would start at or below zero and never change sign
        start = s0.as_array()[None, :]
        return Trajectory(np.zeros(1), start, np.array([energy]), "collision-approach")

    def close_approach(t: float, v: np.ndarray) -> float:
        x, y = v[0], v[1]
        r1, r2 = primary_distances(mu, x, y)
        return min(r1, r2) - collision_radius

    close_approach.terminal = True  # type: ignore[attr-defined]

    try:
        # a step that leaves the doubles raises here instead of warning once per step
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = solve_ivp(
                _canonical_field(mu, k1, k2, MAX_RHS_EVALUATIONS),
                (0.0, float(t_end)),
                s0.as_array(),
                method="DOP853",
                rtol=max(tol, _MIN_RTOL),
                atol=tol,
                t_eval=t_eval,
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
            energy = _energy(np.hypot, mu, k1, k2, *states.reshape(-1, 4).T)
    except _OverBudget as stop:
        raise WorkBudgetExceeded(
            f"integrate reached t = {float(stop.args[0])!r} of t_end = {t_end!r} in its budget of "
            f"{MAX_RHS_EVALUATIONS} right-hand-side evaluations; try a shorter --t-end"
        ) from None
    except FloatingPointError as exc:
        raise NumericError(f"the solution leaves the doubles from {s0!r}: {exc}") from None
    return Trajectory(t=t, states=states, energy=energy, reason=reason)
