"""Exception hierarchy.

Two families matter to the CLI: input-contract violations (exit code 2)
and numeric failures discovered mid-computation (exit code 3). Every
exception carries the appropriate exit code so the dispatcher never has
to enumerate types.
"""


class Rc3bpError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ValidationError(Rc3bpError, ValueError):
    """The inputs violate a documented precondition (also a ValueError, for old callers)."""

    exit_code = 2


class NumericError(Rc3bpError):
    """A numeric procedure could not complete reliably."""

    exit_code = 3


# parameter reduction
class ZeroThirdCharge(ValidationError):
    """q3 = 0: the reduction to beta-parameters requires a charged test particle."""


class NonpositiveMass(ValidationError):
    """A primary mass is zero or negative."""


class InadmissibleParams(ValidationError):
    """(beta1 - 1)(beta2 - 1) >= 1: the primaries admit no circular orbit."""


# two-body
class NotRepulsive(ValidationError):
    """Coupling constant C >= 0: the hyperbolic scattering solution does not apply."""


class ZeroAngularMomentum(ValidationError):
    """l = 0: the conic parameterization divides by l**2."""


class NonpositiveRadius(ValidationError):
    """rho <= 0 passed where a separation distance is required."""


# dynamics
class CollisionSingularity(ValidationError):
    """Evaluation requested at (or numerically on top of) a primary."""


class StepSizeUnderflow(NumericError):
    """The adaptive integrator could not meet the tolerance with a representable step."""


class WorkBudgetExceeded(NumericError):
    """The integrator spent its budget of right-hand-side evaluations before t_end."""


# equilibria
class NoTriangularSolution(ValidationError):
    """The parameters do not satisfy the triangular existence conditions."""


class AtPrimary(ValidationError):
    """x coincides with a primary abscissa, where F(x) has a pole."""


class NotOnLimitLocus(ValidationError):
    """The beta-parameters are not on any delta_i +/- delta_j = 1 degeneracy line."""


class RootNotBracketed(NumericError):
    """A guaranteed sign change was absent, or a spurious extra one appeared."""


class AxisOutOfRange(NumericError):
    """F(x) or F'(x) cannot be formed in doubles at x: a distance to a primary
    underflows when squared or cubed, or overflows when cubed."""


# stability
class NotOnTriangularLocus(ValidationError):
    """gamma is only defined where rho_i = beta_i**(1/3) describes an equilibrium."""


class BelowCriticalMass(ValidationError):
    """gamma_mu(mu) requested for mu < mu*, where F(mu, .) never vanishes."""


# region geometry
class DegenerateGamma(ValidationError):
    """gamma in {0, pi}: the subtended-angle circles degenerate to the axis."""
