"""Reduced parameterization of the restricted charged problem.

The physical inputs (masses, charges, G, k) collapse to three numbers:
the mass ratio mu and the force parameters beta1, beta2, where
beta_j = 1 - alpha~_j * alpha~_3 measures the net gravity-minus-Coulomb
pull of primary j on the test particle (beta = 1 means no Coulomb term).
The circular motion of the primaries exists only under the admissibility
constraint (beta1 - 1)(beta2 - 1) < 1, equivalently C12 > 0.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import NonpositiveMass, ValidationError, ZeroThirdCharge


# The most data rows one CSV may hold: the cells of a raster, or the samples of
# `integrate --every`. A larger request is refused before it is allocated.
MAX_CSV_ROWS = 4096 * 4096


def is_admissible(beta1, beta2):
    """Strict admissibility test (beta1 - 1)(beta2 - 1) < 1, exact for floats or arrays.

    The boundary itself is excluded: there the primaries' mutual coupling
    C12 vanishes and no circular relative orbit exists. The product takes three
    roundings, within 2**-51 relative; within 2**-50 of 1 it is decided on
    Fractions, for arrays in those cells only. NaN is inadmissible.
    """
    p = (beta1 - 1.0) * (beta2 - 1.0)
    if type(p) is float or p.ndim == 0:                  # numpy scalars too
        if not abs(p - 1.0) <= 2.0**-50:                 # NaN too
            return p < 1.0
        from fractions import Fraction

        return (Fraction(float(beta1)) - 1) * (Fraction(float(beta2)) - 1) < 1
    import numpy as np

    p -= 1.0                                             # in place: no second block temporary
    admissible = p < 0.0
    near = np.abs(p, out=p) <= 2.0**-50
    if near.any():
        b1, b2 = (np.broadcast_to(b, near.shape)[near].tolist() for b in (beta1, beta2))
        admissible[near] = [is_admissible(*b) for b in zip(b1, b2)]
    return admissible


def _require_mu(mu: float) -> None:
    """ValidationError unless mu is a mass ratio in (0, 1)."""
    if not (0.0 < mu < 1.0):
        raise ValidationError(f"mu must lie in (0, 1), got {mu!r}")


def _require_fields(system) -> None:
    """ValidationError naming the first non-finite field of the record `system`,
    then the first of m1, m2, G, k that is not positive (NonpositiveMass for a mass)."""
    for name, value in zip(system._fields, system):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
    for name in ("m1", "m2", "G", "k"):
        value = getattr(system, name)
        if not value > 0.0:
            error = NonpositiveMass if name.startswith("m") else ValidationError
            raise error(f"{name} must be positive, got {value!r}")


def _require_folded_mu(mu: float) -> None:
    """ValidationError unless mu is a folded mass ratio in (0, 1/2]."""
    if not (0.0 < mu <= 0.5):
        raise ValidationError(f"mu must lie in (0, 1/2], got {mu!r}")


def _cbrt(beta: float) -> float:
    """The real cube root, within 2**-45 relative: 1/3 rounds 2**-54/3 low, which moves
    the power by less than 2**-46 relative for |log |beta|| <= 745, and pow rounds once."""
    return math.copysign(abs(beta) ** (1.0 / 3.0), beta)


class ForceRegime(enum.Enum):
    """Sign regime of the net force a single beta describes."""

    COULOMB_DOMINATES_REPULSIVE = "coulomb-dominates-repulsive"  # beta < 0
    BALANCED_REPULSIVE = "balanced-repulsive"                    # beta = 0
    GRAVITY_DOMINATES = "gravity-dominates"                      # 0 < beta < 1
    NO_COULOMB = "no-coulomb"                                    # beta = 1
    COULOMB_ATTRACTIVE = "coulomb-attractive"                    # beta > 1


def force_regime(beta: float) -> ForceRegime:
    """Classify a beta value. Comparisons are exact; round first if needed."""
    if not math.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta!r}")
    if beta < 0.0:
        return ForceRegime.COULOMB_DOMINATES_REPULSIVE
    if beta == 0.0:
        return ForceRegime.BALANCED_REPULSIVE
    if beta < 1.0:
        return ForceRegime.GRAVITY_DOMINATES
    if beta == 1.0:
        return ForceRegime.NO_COULOMB
    return ForceRegime.COULOMB_ATTRACTIVE


class _Checked:
    """Listed before a record's NamedTuple of fields: every construction, `_replace`
    and unpickling included, runs the record's `_check`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _SystemParamsFields(NamedTuple):
    mu: float
    beta1: float
    beta2: float
    swapped: bool = False


class SystemParams(_Checked, _SystemParamsFields):
    """Reduced parameter triple (mu, beta1, beta2).

    mu may be anywhere in (0, 1); `reduce` always emits the folded
    representative in (0, 1/2], but the mirror map beta1 <-> beta2,
    mu <-> 1 - mu must be expressible, so the complement half is legal
    for direct construction.
    """

    __slots__ = ()

    def _check(self) -> None:
        _require_mu(self.mu)
        if not (math.isfinite(self.beta1) and math.isfinite(self.beta2)):
            raise ValidationError("beta parameters must be finite")

    @property
    def admissible(self) -> bool:
        return is_admissible(self.beta1, self.beta2)

    @property
    def delta1(self) -> float:
        """Real cube root of beta1 (sign-preserving)."""
        return _cbrt(self.beta1)

    @property
    def delta2(self) -> float:
        """Real cube root of beta2 (sign-preserving)."""
        return _cbrt(self.beta2)

    def mirrored(self) -> "SystemParams":
        """The body-relabeled twin (1 - mu, beta2, beta1)."""
        return SystemParams(1.0 - self.mu, self.beta2, self.beta1, swapped=not self.swapped)

    def to_dict(self) -> dict:
        return {**self._asdict(), "admissible": self.admissible}


class _PhysicalSystemFields(NamedTuple):
    m1: float
    m2: float
    m3: float
    q1: float
    q2: float
    q3: float
    G: float = 1.0
    k: float = 1.0


class PhysicalSystem(_Checked, _PhysicalSystemFields):
    """Raw masses and charges of the three bodies plus force constants.

    m3 >= 0 is allowed (the restricted problem is its m3 -> 0 limit). q3 = 0
    is representable but rejected by `reduce`, which needs the test
    particle's charge sign.
    """

    __slots__ = ()

    def _check(self) -> None:
        _require_fields(self)
        if self.m3 < 0.0:
            raise NonpositiveMass(f"test-particle mass must be nonnegative, got m3={self.m3!r}")

    @property
    def c12(self) -> float:
        """Coupling of the primaries: G m1 m2 - k q1 q2."""
        return self.G * self.m1 * self.m2 - self.k * self.q1 * self.q2


def reduce(sys: PhysicalSystem) -> SystemParams:
    """Collapse a physical system to (mu, beta1, beta2).

    beta_j = 1 - alpha~_j alpha~_3 where alpha~_j = (q_j/m_j) sqrt(k/G).
    The test particle enters only through the normalization |alpha~_3| = 1,
    i.e. through the sign of q3; its mass drops out in the m3 -> 0 limit.
    Bodies 1 and 2 are swapped when m2 > m1 so that mu lands in (0, 1/2],
    and the swap is recorded.

    Raises ZeroThirdCharge when q3 = 0 (no sign to normalize); the
    masses were checked when `sys` was constructed.
    """
    if sys.q3 == 0.0:
        raise ZeroThirdCharge("q3 = 0: beta-parameters need the test particle's charge sign")

    scale = math.sqrt(sys.k / sys.G)
    sign3 = math.copysign(1.0, sys.q3)
    beta1 = 1.0 - (sys.q1 / sys.m1) * scale * sign3
    beta2 = 1.0 - (sys.q2 / sys.m2) * scale * sign3

    m1, m2 = sys.m1, sys.m2
    swapped = m2 > m1
    if swapped:
        m1, m2 = m2, m1
        beta1, beta2 = beta2, beta1
    mu = m2 / (m1 + m2)
    return SystemParams(mu=mu, beta1=beta1, beta2=beta2, swapped=swapped)
