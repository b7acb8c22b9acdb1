"""Parameter reduction and admissibility."""

import json
import math
import pickle

import numpy as np
import pytest
from mpmath import mp, mpf

from rc3bp.collinear import Interval, limit_collinear
from rc3bp.errors import DegenerateGamma, NonpositiveMass, NotOnLimitLocus, ValidationError
from rc3bp.errors import ZeroThirdCharge
from rc3bp.params import (
    ForceRegime,
    PhysicalSystem,
    SystemParams,
    _Checked,
    force_regime,
    is_admissible,
    reduce,
)
from rc3bp.regions import RegionRaster, StableArc, StableEllipse
from rc3bp.twobody import HyperbolicOrbit, TwoBodyConfig
from formula_oracles import admissible_exactly


def test_admissibility_boundary_and_interior():
    assert is_admissible(1.0, 1.0)           # product is 0
    assert is_admissible(2.0, 1.5)           # 0.5 < 1
    assert not is_admissible(2.0, 2.0)       # exactly 1: boundary excluded
    assert not is_admissible(3.0, 2.0)
    assert is_admissible(-5.0, 1.5)          # opposite signs of (beta-1)
    assert not is_admissible(-1.0, -1.0)     # 4 > 1


def test_admissibility_matches_primary_coupling_sign():
    # (b1-1)(b2-1) < 1 must coincide with C12 > 0 for any generating system
    rng = np.random.default_rng(10)
    for _ in range(300):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        q1, q2 = rng.uniform(-4.0, 4.0, 2)
        q3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        sys = PhysicalSystem(m1, m2, 0.0, q1, q2, q3)
        p = reduce(sys)
        if sys.c12 == 0.0:
            continue
        assert p.admissible == (sys.c12 > 0.0)


def test_reduce_beta_formula():
    # beta_j = 1 - (q_j/m_j) sqrt(k/G) sign(q3), computed by hand
    sys = PhysicalSystem(2.0, 1.0, 0.0, 3.0, -0.5, 0.7, G=4.0, k=9.0)
    p = reduce(sys)
    scale = math.sqrt(9.0 / 4.0)
    assert p.beta1 == pytest.approx(1.0 - (3.0 / 2.0) * scale, rel=1e-15)
    assert p.beta2 == pytest.approx(1.0 - (-0.5 / 1.0) * scale, rel=1e-15)
    assert p.mu == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert not p.swapped


def test_reduce_depends_only_on_charge_sign_of_test_particle():
    a = reduce(PhysicalSystem(1.0, 2.0, 0.0, 1.0, 1.0, 0.25))
    b = reduce(PhysicalSystem(1.0, 2.0, 1e-9, 1.0, 1.0, 5.0))
    assert a.beta1 == b.beta1 and a.beta2 == b.beta2 and a.mu == b.mu


def test_reduce_swaps_heavier_second_body():
    p = reduce(PhysicalSystem(1.0, 3.0, 0.0, 0.5, -0.5, 1.0))
    assert p.swapped
    assert p.mu == pytest.approx(0.25, rel=1e-15)
    # swapped betas: body 1 of the reduced system is the heavier original body 2
    assert p.beta1 == pytest.approx(1.0 - (-0.5 / 3.0), rel=1e-15)
    assert p.beta2 == pytest.approx(1.0 - 0.5, rel=1e-15)
    assert 0.0 < p.mu <= 0.5


def test_reduce_rejects_zero_q3_and_bad_masses():
    with pytest.raises(ZeroThirdCharge):
        reduce(PhysicalSystem(1.0, 1.0, 0.0, 1.0, 1.0, 0.0))
    with pytest.raises(NonpositiveMass):
        PhysicalSystem(0.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(NonpositiveMass):
        PhysicalSystem(1.0, -2.0, 0.0, 1.0, 1.0, 1.0)


def test_negative_test_particle_mass_is_rejected():
    # m3 = 0 is the restricted limit; below it there is no particle
    message = r"^test-particle mass must be nonnegative, got m3=-1e-300$"
    with pytest.raises(NonpositiveMass, match=message):
        PhysicalSystem(1.0, 0.5, -1e-300, 0.2, 0.1, 1.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("G", math.inf, "G must be finite"),
        ("q3", math.nan, "q3 must be finite"),
        ("m3", math.nan, "m3 must be finite"),
        ("m2", math.inf, "m2 must be finite"),
        ("k", 0.0, "k must be positive"),
    ],
)
def test_physical_system_names_the_offending_field(field, value, message):
    fields = dict(m1=1.0, m2=0.5, m3=0.0, q1=0.2, q2=0.1, q3=1.0)
    fields[field] = value
    with pytest.raises(ValidationError, match=f"^{message}, got"):
        reduce(PhysicalSystem(**fields))


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(0.3, math.inf, 1.0)
    p = SystemParams(0.75, 1.0, 1.0)   # complement half is allowed directly
    assert p.mu == 0.75


def test_records_are_immutable_tuples_checked_on_every_construction():
    # NamedTuples: equal to the plain tuple of their values, with its hash
    p = SystemParams(0.2, 0.5, 1.5)
    assert p == SystemParams(mu=0.2, beta1=0.5, beta2=1.5) == (0.2, 0.5, 1.5, False)
    assert hash(p) == hash((0.2, 0.5, 1.5, False))
    assert repr(p) == "SystemParams(mu=0.2, beta1=0.5, beta2=1.5, swapped=False)"
    for name in ("mu", "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0.3)
    assert p._replace(beta2=2.0) == SystemParams(0.2, 0.5, 2.0)
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(ValidationError, match="mu must lie in"):
        p._replace(mu=1.5)
    with pytest.raises(ValidationError, match="q2 must be finite"):
        PhysicalSystem(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)._replace(q2=math.nan)


_RASTER = dict(x_range=(0.0, 1.0), y_range=(0.0, 1.0), resolution=(3, 2),
               labels=np.zeros((2, 3), dtype=np.int8), legend=("a",), predicate="p")


@pytest.mark.parametrize(
    "cls, fields, bad, error",
    [
        (SystemParams, dict(mu=0.2, beta1=0.5, beta2=1.5), dict(mu=1.5), ValidationError),
        (SystemParams, dict(mu=0.2, beta1=0.5, beta2=1.5), dict(beta2=math.inf), ValidationError),
        (PhysicalSystem, dict(m1=1.0, m2=1.0, m3=0.0, q1=1.0, q2=1.0, q3=1.0), dict(m3=-1.0),
         NonpositiveMass),
        (PhysicalSystem, dict(m1=1.0, m2=1.0, m3=0.0, q1=1.0, q2=1.0, q3=1.0), dict(G=0.0),
         ValidationError),
        (TwoBodyConfig, dict(m1=1.0, m2=1.0, q1=2.0, q2=2.0), dict(m2=0.0), NonpositiveMass),
        (TwoBodyConfig, dict(m1=1.0, m2=1.0, q1=2.0, q2=2.0), dict(q1=math.nan), ValidationError),
        (RegionRaster, _RASTER, dict(labels=np.zeros((3, 2), dtype=np.int8)), ValidationError),
        (RegionRaster, _RASTER, dict(resolution=(1, 2)), ValidationError),
        (StableEllipse, dict(gamma=1.0), dict(gamma=math.pi), DegenerateGamma),
    ],
)
def test_checked_records_check_every_construction(cls, fields, bad, error):
    # `_Checked` owns `__new__` and `_make`; each record defines only its `_check`
    assert cls.__mro__[1] is _Checked and "_check" in vars(cls)
    assert not {"__new__", "_make"} & set(vars(cls))
    good = cls(**fields)
    for same in (cls(*fields.values()), cls._make(good), good._replace(),
                 pickle.loads(pickle.dumps(good))):
        assert type(same) is cls and repr(same) == repr(good)
    values = {**fields, **bad}
    unchecked = tuple.__new__(cls, (*values.values(), *good[len(values):]))
    for build in (
        lambda: cls(*values.values()),
        lambda: cls(**values),
        lambda: cls._make(values.values()),
        lambda: good._replace(**bad),
        lambda: pickle.loads(pickle.dumps(unchecked)),
    ):
        with pytest.raises(error) as caught:
            build()
        assert caught.type is error


def test_mirrored_roundtrip():
    # dyadic mu so 1 - (1 - mu) is exact and the involution is bitwise
    p = SystemParams(0.25, 1.2, -0.5)
    m = p.mirrored()
    assert (m.mu, m.beta1, m.beta2) == (0.75, -0.5, 1.2)
    assert m.swapped != p.swapped
    back = m.mirrored()
    assert (back.mu, back.beta1, back.beta2) == (p.mu, p.beta1, p.beta2)


def test_delta_is_signed_cube_root():
    p = SystemParams(0.25, 8.0, -0.027)
    assert p.delta1 == pytest.approx(2.0, rel=1e-15)
    assert p.delta2 == pytest.approx(-0.3, rel=1e-15)


def test_limit_line_matches_the_three_written_out_tests():
    # points on, next to (within and beyond 1e-12) and off each line: the line that
    # limit_collinear collapses the pair onto is the first of the written-out tests on
    # the true cube roots of the betas (40 digits), and off R'_1 (a beta not positive,
    # or inadmissible) there is none
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(3000):
        d1 = rng.uniform(0.05, 2.0)
        d2 = rng.choice([d1 + 1.0, 1.0 - d1, d1 - 1.0, rng.uniform(0.05, 2.0)])
        d2 += rng.choice([0.0, 5e-13, -5e-13, 2e-12, -2e-12])
        p = SystemParams(0.3, d1**3, d2**3)
        want = None
        if p.beta1 > 0.0 and p.beta2 > 0.0 and admissible_exactly(p.beta1, p.beta2):
            with mp.workdps(40):
                e1, e2 = mp.cbrt(mpf(p.beta1)), mp.cbrt(mpf(p.beta2))
                for line, value in enumerate((e2 - e1, e1 + e2, e1 - e2)):
                    if abs(value - 1) <= mpf(1e-12):
                        want = line
                        break
        try:
            got = list(Interval).index(limit_collinear(p)[0].interval)
        except NotOnLimitLocus:
            got = None
        assert got == want, p
        seen.add(want)
    assert seen == {0, 1, 2, None}


def test_force_regime_five_cases():
    assert force_regime(-0.2) is ForceRegime.COULOMB_DOMINATES_REPULSIVE
    assert force_regime(0.0) is ForceRegime.BALANCED_REPULSIVE
    assert force_regime(0.7) is ForceRegime.GRAVITY_DOMINATES
    assert force_regime(1.0) is ForceRegime.NO_COULOMB
    assert force_regime(3.0) is ForceRegime.COULOMB_ATTRACTIVE
    with pytest.raises(ValueError):
        force_regime(math.nan)


def test_to_dict_fields():
    d = SystemParams(0.4, 2.0, 0.1).to_dict()
    assert d == {"mu": 0.4, "beta1": 2.0, "beta2": 0.1, "admissible": True, "swapped": False}
    assert d["admissible"] is True
    orbit = HyperbolicOrbit(c=1.0, e=2.0, theta_prime=0.0, theta_e=1.0, r0=0.5, rho_star=0.75)
    assert orbit.to_dict() == {
        "c": 1.0, "e": 2.0, "theta_prime": 0.0, "theta_e": 1.0, "r0": 0.5, "rho_star": 0.75
    }
    # a tuple center encodes as the same JSON list
    arc = StableArc((0.3, -0.2), 1.5, "upper", 0.7)
    old = {"center": [0.3, -0.2], "radius": 1.5, "branch": "upper", "gamma": 0.7}
    assert json.dumps(arc.to_dict(), sort_keys=True) == json.dumps(old, sort_keys=True)
