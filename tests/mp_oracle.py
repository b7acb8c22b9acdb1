"""Band edges of the collinear concave pairs at 200 bits, kept as a test oracle.

Written on mpmath from the paper's tangency curves

    beta1*(x) = (3x + mu - 1)(x + mu)**3 / (2 (1 - mu)),
    beta2*(x) = (3x + mu)(x + mu - 1)**3 / (2 mu),

and the critical roots of Gtilde = p1 p2 - 2 mu p1 - 2 (1 - mu) p2, with
p1 = (3x + mu - 1)(x + mu)**3 and p2 = (3x + mu)(x + mu - 1)**3, which end
the bands between the primaries. Each band substitutes x by its distance d
to the primary the tangency sits next to, so that 200 bits hold d to full
precision at any scale:

    band     fixed beta   x            tangency        compared beta
    I1       beta1 < 0    -mu - d      beta1* = -beta1  beta2 > beta2*: two roots
    I2/S2    beta1 < 0    -mu + d      beta1* = beta1   beta2 < beta2*: two roots
    I3       beta2 < 0    1 - mu + d   beta2* = -beta2  beta1 > beta1*: two roots
    I2/R'4   beta2 < 0    1 - mu - d   beta2* = beta2   beta1 < beta1*: two roots

The middle bands hold only tangencies nearer the primary than the
critical root. It calls no rc3bp function.
"""

from mpmath import mp, mpf

_PREC = 200
_RTOL = mpf(2) ** (8 - _PREC)

BANDS = ("I1", "I2/S2", "I3", "I2/R'4")


def _curves(band: str, mu):
    """(fixed beta*, compared beta*) as functions of the distance d."""
    nu = 1 - mu
    if band == "I1":
        return (lambda d: d**3 * (3 * d + 2 * mu + 1) / (2 * nu),
                lambda d: (3 * d + 2 * mu) * (1 + d) ** 3 / (2 * mu))
    if band == "I2/S2":
        return (lambda d: d**3 * (3 * d - 2 * mu - 1) / (2 * nu),
                lambda d: (3 * d - 2 * mu) * (d - 1) ** 3 / (2 * mu))
    if band == "I3":
        return (lambda d: d**3 * (3 * d + 3 - 2 * mu) / (2 * mu),
                lambda d: (3 * d + 2 - 2 * mu) * (1 + d) ** 3 / (2 * nu))
    if band == "I2/R'4":
        return (lambda d: -(d**3) * (3 - 2 * mu - 3 * d) / (2 * mu),
                lambda d: (2 - 2 * mu - 3 * d) * (1 - d) ** 3 / (2 * nu))
    raise ValueError(f"unknown band {band!r}")


def _g_tilde(band: str, mu, d):
    """Gtilde at the distance d of a middle band."""
    if band == "I2/S2":
        p1, p2 = (3 * d - 2 * mu - 1) * d**3, (3 * d - 2 * mu) * (d - 1) ** 3
    else:
        p1, p2 = (2 - 2 * mu - 3 * d) * (1 - d) ** 3, -(3 - 2 * mu - 3 * d) * d**3
    return p1 * p2 - 2 * mu * p1 - 2 * (1 - mu) * p2


def _root(f, d):
    """The root of f, with f(0+) < 0 and one sign change on (0, inf), from d > 0.

    Doubles or halves d to a bracket [lo, 2 lo], then runs regula falsi
    with the Illinois step until the bracket is a few bits wide.
    """
    if f(d) < 0:
        while f(2 * d) < 0:
            d *= 2
        lo, hi = d, 2 * d
    else:
        while f(d / 2) >= 0:
            d /= 2
        lo, hi = d / 2, d
    flo, fhi, side = f(lo), f(hi), 0
    while hi - lo > _RTOL * lo:
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = (lo + hi) / 2
        fx = f(x)
        if fx == 0:
            return x
        if fx < 0:
            lo, flo = x, fx
            if side < 0:
                fhi /= 2
            side = -1
        else:
            hi, fhi = x, fx
            if side > 0:
                flo /= 2
            side = 1
    return (lo + hi) / 2


def critical_distance(band: str, mu):
    """Distance from the near primary to the critical root of a middle band."""
    with mp.workprec(_PREC):
        mu = mpf(mu)
        top = 2 * mu / 3 if band == "I2/S2" else 2 * (1 - mu) / 3
        return _root(lambda d: _g_tilde(band, mu, d), top)


def critical_roots(mu: float):
    """(x_r1, x_r2) as mpf: the critical roots -mu + d1 and 1 - mu - d2,
    d1 and d2 their distances to primary 1 and primary 2."""
    with mp.workprec(_PREC):
        mu = mpf(mu)
        return -mu + critical_distance("I2/S2", mu), 1 - mu - critical_distance("I2/R'4", mu)


def band_edge(band: str, mu: float, beta: float):
    """The compared beta on the band's edge at this fixed beta < 0, as an
    mpf, or None where a middle band is empty."""
    with mp.workprec(_PREC):
        mu, beta = mpf(mu), mpf(beta)
        fixed, compared = _curves(band, mu)
        if band in ("I1", "I3"):
            return compared(_root(lambda d: fixed(d) + beta, mpf(1)))
        d_r = critical_distance(band, mu)
        if not fixed(d_r) < beta:
            return None
        return compared(_root(lambda d: beta - fixed(d), d_r))


def fixed_beta(band: str, mu: float, frac: float) -> float:
    """The fixed beta, rounded to a double, whose tangency lies `frac` of
    the band's scale from the near primary: the critical distance on a
    middle band, the far body's mass on an outer one (the edge turns on d
    where d is about that mass)."""
    with mp.workprec(_PREC):
        mu = mpf(mu)
        fixed, _ = _curves(band, mu)
        if band == "I1":
            return float(-fixed(frac * mu))
        if band == "I3":
            return float(-fixed(frac * (1 - mu)))
        return float(fixed(frac * critical_distance(band, mu)))

