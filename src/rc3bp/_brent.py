"""Brent's bracketing root finder (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4).

A line-for-line port of the C kernel behind ``scipy.optimize.brentq``:
the same step order, the same interpolate / extrapolate / bisect tests
and the same errors, so it returns the same float for the same inputs.
It lives in the package so that the root-finding paths (collinear
counts, critical roots, region bounds) do not import ``scipy.optimize``.
"""

from __future__ import annotations

import math
import sys

_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def brentq(f, a, b, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Converges once the bracket half-width falls below (xtol + _RTOL|x|)/2,
    with scipy's default rtol (4 eps) and maxiter (100). Raises ValueError
    when f returns NaN or f(a), f(b) share a sign, and RuntimeError when
    _MAXITER iterations do not converge.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # f values are nonzero and not NaN, so comparing against 0 is signbit
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gets inf or NaN from an underflowed divisor; either one
                # fails the short-step test below, so the step bisects
                stry = math.inf
            bound = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)

    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
