"""Closed forms the tests check the library against, kept out of the package.

Each is written from the paper's defining formula, not from the reduced
or vectorized form the library evaluates.
"""

import math
from fractions import Fraction

import numpy as np

from rc3bp.collinear import Interval
from rc3bp.errors import AtPrimary


def interval_of(mu: float, x: float) -> Interval:
    """The axis interval holding x; AtPrimary at a primary abscissa."""
    if x == -mu or x == 1.0 - mu:
        raise AtPrimary(f"x = {x!r} is a primary abscissa")
    if x < -mu:
        return Interval.I1
    if x < 1.0 - mu:
        return Interval.I2
    return Interval.I3


def beta1_star(x_star, mu: float):
    """The tangency value of beta1: (3x+mu-1)(x+mu)**3 / (2(1-mu))."""
    return (3.0 * x_star + mu - 1.0) * (x_star + mu) ** 3 / (2.0 * (1.0 - mu))


def beta2_star(x_star, mu: float):
    """The tangency value of beta2: (3x+mu)(x+mu-1)**3 / (2 mu)."""
    return (3.0 * x_star + mu) * (x_star + mu - 1.0) ** 3 / (2.0 * mu)


def f_axis_unreduced(params, x: float) -> float:
    """F(x) evaluated from the defining absolute-value form."""
    mu = params.mu
    r1, r2 = abs(x + mu), abs(x + mu - 1.0)
    if r1 == 0.0 or r2 == 0.0:
        raise AtPrimary(f"F has a pole at x = {x!r}")
    t1 = params.beta1 * (1.0 - mu) * (x + mu) / r1**3 if params.beta1 != 0.0 else 0.0
    t2 = params.beta2 * mu * (x + mu - 1.0) / r2**3 if params.beta2 != 0.0 else 0.0
    return x - t1 - t2


def g_tilde_zero_mu(x):
    """The mu -> 0 limit of g_tilde: 3x(x-1)**4 (3x**3 + 2x**2 + 2x + 2)."""
    return 3.0 * x * (x - 1.0) ** 4 * (3.0 * x**3 + 2.0 * x**2 + 2.0 * x + 2.0)


def f_zero_eigenvector(vxx: float, vxy: float, lam: complex) -> np.ndarray:
    """The unique eigenvector direction at the F = 0 double eigenvalue.

    v = ((2 lam + Vxy)/D, (lam**2 - 1 - Vxx)/D, (lam**2 + 1 + Vxx + lam Vxy)/D, 1)
    with D = lam**3 + lam (1 - Vxx) + Vxy; one direction per lam is what
    makes the matrix non-diagonalizable.
    """
    d = lam**3 + lam * (1.0 - vxx) + vxy
    return np.array(
        [
            (2.0 * lam + vxy) / d,
            (lam * lam - 1.0 - vxx) / d,
            (lam * lam + 1.0 + vxx + lam * vxy) / d,
            1.0,
        ]
    )


def ellipse_point(ellipse, t: float) -> tuple[float, float]:
    """The point at parameter t on a `StableEllipse`: semi-axis a along
    (1, -1)/sqrt2 and b along (1, 1)/sqrt2."""
    a, b = ellipse.semi_axes
    ca, sb = a * math.cos(t) / math.sqrt(2.0), b * math.sin(t) / math.sqrt(2.0)
    return (ca + sb, -ca + sb)


def admissible_exactly(b1: float, b2: float) -> bool:
    """(beta1 - 1)(beta2 - 1) < 1 on the exact rationals of the doubles."""
    return (Fraction(b1) - 1) * (Fraction(b2) - 1) < 1


def delta_line_signs(b1: float, b2: float) -> tuple[int, int, int]:
    """The exact signs of delta2 - delta1 - 1, delta1 + delta2 - 1 and delta1 - delta2 - 1
    for the true cube roots delta_i of b1, b2 > 0: each is the sign of a resultant of
    z**3 - beta1 and a cubic in beta2, (b2 - b1 - 1)**3 - 27 b1 b2, (b1 + b2 - 1)**3 + 27 b1 b2
    and (b1 - b2 - 1)**3 - 27 b1 b2, on Fractions (the other conjugate factors pair into
    positive squared moduli)."""
    f1, f2 = Fraction(b1), Fraction(b2)
    prod = 27 * f1 * f2
    values = ((f2 - f1 - 1) ** 3 - prod, (f1 + f2 - 1) ** 3 + prod, (f1 - f2 - 1) ** 3 - prod)
    return tuple((v > 0) - (v < 0) for v in values)


def pair_exists_exactly(b1: float, b2: float) -> bool:
    """The triangular pair's existence on the betas: both positive, admissible, and the
    strict triangle inequalities on the true cube roots."""
    return b1 > 0.0 and b2 > 0.0 and admissible_exactly(b1, b2) and (
        delta_line_signs(b1, b2) == (-1, 1, -1)
    )
