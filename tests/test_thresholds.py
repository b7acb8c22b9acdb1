"""The thresholds the paper defines exactly, walked ulp by ulp against exact oracles.

One table entry per threshold: admissibility (beta1 - 1)(beta2 - 1) < 1, the
three degeneracy lines of the triangle with sides delta_i = beta_i**(1/3) and 1,
walked in beta, the critical mass mu* = 1/2 - sqrt(2)/3, the edges of the F = 0
and F = 1 bands and the location lines, where the pair is above or below a body.
Each entry walks its inputs a few ulp either side of points on the threshold,
and the mirrored inputs (mu, beta1, beta2) -> (1 - mu, beta2, beta1) too. It
checks the library's decisions against an oracle that shares no code with the
package: the scalar API, the CLI, and a figure raster on one-row grids through
the walk. The location lines have no raster entry: no figure labels location.

A decision is a (name, value) pair. At each point every value of a name must
agree, and equal the oracle's, except where the oracle leaves the name open
(None): within a margin of a threshold that a tolerance defines.
"""

import contextlib
import functools
import io
import json
import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest
from mpmath import mp, mpf

from rc3bp import regions
from rc3bp.cli import main
from rc3bp.collinear import BetaRegion, Interval, classify_region, limit_collinear
from rc3bp.errors import BelowCriticalMass, NoTriangularSolution, NotOnTriangularLocus
from rc3bp.params import SystemParams, is_admissible
from rc3bp.stability import StabilityClass, classify_triangular, critical_mu, gamma_mu, gamma_of
from rc3bp.triangular import classify_location, triangular_exists, triangular_points
from formula_oracles import admissible_exactly, pair_exists_exactly


def _ulps(x: float, k: int) -> list[float]:
    """x and the k doubles either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _walk(mu: float, b1: float, b2: float, k: int) -> list[tuple[float, float, float]]:
    """(mu, beta1, beta2) stepped k ulp either side in each beta, then each mirrored."""
    points = [(mu, b, b2) for b in _ulps(b1, k)] + [(mu, b1, b) for b in _ulps(b2, k)[1:]]
    return points + [(1.0 - m, b, a) for m, a, b in points]


def _window(x: float, k: int) -> tuple[float, float]:
    """A raster range k ulp either side of x: its cells' centers step by about an ulp."""
    return (x - k * math.ulp(x), x + k * math.ulp(x))


def _cli(*argv: str) -> tuple[int, str]:
    """(exit code, stdout) of the CLI, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _params_args(mu: float, b1: float, b2: float) -> list[str]:
    return [f"--mu={mu!r}", f"--beta1={b1!r}", f"--beta2={b2!r}"]


class Threshold(NamedTuple):
    """One walked threshold: its points, the oracle's decisions at a point (a dict),
    and the library's as (name, value) pairs, from the scalar API and from the CLI
    (at every `cli_every`-th point), and from rasters as (oracle, decisions) per cell,
    where a figure labels the decision."""

    name: str
    points: list
    oracle: Callable
    scalar: Callable
    cli: Callable
    cli_every: int
    raster: Callable | None


def _disagreements(oracle: dict, decisions: list) -> bool:
    values: dict = {}
    for name, value in decisions:
        values.setdefault(name, set()).add(value)
    return any(
        len(got) != 1 or (oracle[name] is not None and got != {oracle[name]})
        for name, got in values.items()
    )


# ---------------------------------------------------------------------------
# admissibility: the hyperbola b2 = 1 + 1/(b1 - 1), walked 3 ulp in each beta


def _hyperbola_points() -> list:
    rng, points = random.Random(36), []
    for _ in range(200):
        b1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0) + 1.0     # keeps b2 in [-5, 6]
        points += _walk(0.2, b1, 1.0 + 1.0 / (b1 - 1.0), 3)
    return points


def _admissible_oracle(point) -> dict:
    _, b1, b2 = point
    return {"admissible": admissible_exactly(b1, b2)}


def _admissible_scalar(point) -> list:
    mu, b1, b2 = point
    p = SystemParams(mu, b1, b2)
    return [
        ("admissible", is_admissible(b1, b2)),
        ("admissible", bool(is_admissible(np.float64(b1), np.float64(b2)))),
        ("admissible", p.admissible),
        ("admissible", classify_region(p) is not BetaRegion.INADMISSIBLE),
    ]


def _admissible_cli(point) -> list:
    code, out = _cli("validate", *_params_args(*point))
    collinear_code, _ = _cli("equilibria", *_params_args(*point), "--kind=collinear")
    return [
        ("admissible", code == 0 and json.loads(out)["admissible"]),
        ("admissible", {0: True, 2: False}.get(collinear_code)),
    ]


def _admissible_raster(points, monkeypatch) -> list:
    """Figures 5 and 11 on 8 x 2 grids through the first walks' seeds, and their mirrors,
    plus the array path of `is_admissible` at every point."""
    cells = []
    for _, b1, b2 in points[:26 * 24:26]:
        for xr, yr in ((_window(b1, 4), _window(b2, 1)), (_window(b2, 1), _window(b1, 4))):
            fig5 = regions.admissible_region_raster(xr, yr, resolution=(8, 2))
            fig11 = regions.collinear_region_raster(Interval.I1, 0.2, xr, yr, resolution=(8, 2))
            for j, y in enumerate(fig5.y_centers()):
                for i, x in enumerate(fig5.x_centers()):
                    decisions = [
                        ("admissible", bool(fig5.labels[j, i] == 1)),
                        ("admissible", bool(fig11.labels[j, i] != 0)),
                    ]
                    cells.append(({"admissible": admissible_exactly(x, y)}, decisions))
    _, b1, b2 = (np.array(column) for column in zip(*points))
    for point, got in zip(points, is_admissible(b1, b2).tolist()):
        cells.append((_admissible_oracle(point), [("admissible", got)]))
    return cells


# ---------------------------------------------------------------------------
# the three delta lines, walked 4 ulp in each beta: delta2 = delta1 + 1 (the pair
# collapses in I1), delta1 + delta2 = 1 (I2) and delta1 = delta2 + 1 (I3)


def _line_seeds() -> list:
    """(line, delta1, delta2, beta1, beta2): one point per line and draw, its betas the
    doubles nearest the line, its free beta in (1e-3, 1)."""
    rng, seeds = random.Random(37), []
    for _ in range(40):
        for line in range(3):
            b_free = rng.uniform(1e-3, 1.0)
            with mp.workdps(60):
                d = mp.cbrt(mpf(b_free))
                other = 1 - d if line == 1 else 1 + d
                b_other = float(other**3)
            d_free, d_other = float(d), float(other)
            seeds.append(
                (line, d_other, d_free, b_other, b_free) if line == 2
                else (line, d_free, d_other, b_free, b_other)
            )
    return seeds


def _line_points() -> list:
    return [pt for _, _, _, b1, b2 in _line_seeds() for pt in _walk(0.2, b1, b2, 4)]


def _line_oracle(point) -> dict:
    """Existence from the resultants on Fractions; the limit line from the written-out
    excesses on 40-digit cube roots, within 1e-12."""
    _, b1, b2 = point
    with mp.workdps(40):
        d1, d2 = mp.cbrt(mpf(b1)), mp.cbrt(mpf(b2))
        excesses = (1 + d1 - d2, d1 + d2 - 1, 1 + d2 - d1)
        line = next((i for i, e in enumerate(excesses) if abs(e) <= mpf(1e-12)), None)
    exists = pair_exists_exactly(b1, b2)
    return {"exists": exists, "line": line, "on_locus": exists or line is not None}


def _line_scalar(point) -> list:
    p = SystemParams(*point)
    try:
        pair = triangular_points(p)
    except NoTriangularSolution:
        pair = None
    try:
        gamma_of(p)
        on_locus = True
    except NotOnTriangularLocus:
        on_locus = False
    return [
        ("exists", triangular_exists(p)),
        ("exists", pair is not None and pair.yL > 0.0),
        ("line", list(Interval).index(limit_collinear(p)[0].interval)),
        ("on_locus", on_locus),
    ]


def _line_cli(point) -> list:
    code, _ = _cli("equilibria", *_params_args(*point), "--kind=triangular")
    return [("exists", {0: True, 2: False}.get(code))]


def _line_raster(points, monkeypatch) -> list:
    """Figure 6 on 8 x 2 grids through the first lines' points, and their mirrors: there
    the cells are the sides, and a cell is labelled Exists iff its sides close a proper
    triangle (every cell here is admissible)."""
    cells = []
    for _, d1, d2, _, _ in _line_seeds()[:36]:
        for xr, yr in ((_window(d1, 4), _window(d2, 1)), (_window(d2, 1), _window(d1, 4))):
            monkeypatch.setattr(regions, "_DELTA_WINDOW", (xr, yr))
            fig6 = regions.triangular_region_raster("parameter", resolution=(8, 2))
            for j, y in enumerate(fig6.y_centers()):
                for i, x in enumerate(fig6.x_centers()):
                    c1, c2 = Fraction(float(x)), Fraction(float(y))
                    proper = c1 + c2 > 1 and abs(c1 - c2) < 1
                    cells.append(({"exists": proper}, [("exists", bool(fig6.labels[j, i] == 2))]))
    return cells


# ---------------------------------------------------------------------------
# the critical mass: 10,000 ulp either side of critical_mu(), where the class of
# gamma = pi/2 decides the regime: F(mu, pi/2) = 1 - 36 mu (1 - mu) against the
# stated tolerance 1e-12, left open within 1e-14 of it

_MU_STAR_ULPS = 10_000
_TOL, _MARGIN = Fraction(1e-12), Fraction(1e-14)
# betas whose rounded cube roots give gamma = pi/2 exactly, in either order
_RIGHT_ANGLE = (0.5057182744578866, 0.22073813660731584)
_REGIME_OF_CLASS = {
    StabilityClass.LYAPUNOV_UNSTABLE.value: "two-intervals",
    StabilityClass.LINEARLY_UNSTABLE_F_ZERO.value: "critical",
    StabilityClass.LINEARLY_STABLE.value: "full-band",
    StabilityClass.LINEARLY_UNSTABLE_F_ONE.value: "full-band",
}


def _mu_star_points() -> list:
    """(mu, beta1, beta2) with the right-angle betas, and the mirrors (1 - mu, beta2, beta1)."""
    mu_c, ulp = critical_mu(), math.ulp(critical_mu())
    steps = sorted(set(range(-_MU_STAR_ULPS, _MU_STAR_ULPS + 1, 3)) | set(range(-40, 41)))
    points = [(mu_c + k * ulp, *_RIGHT_ANGLE) for k in steps]
    return points + [(1.0 - m, b, a) for m, a, b in points]


def _mu_star_regime(mu: float):
    f = 1 - 36 * Fraction(mu) * (1 - Fraction(mu))
    if abs(abs(f) - _TOL) <= _MARGIN:
        return None
    return "full-band" if f > _TOL else "critical" if f >= -_TOL else "two-intervals"


def _mu_star_oracle(point) -> dict:
    return {"regime": _mu_star_regime(point[0])}


def _mu_star_scalar(point) -> list:
    mu, b1, b2 = point
    folded = mu if mu <= 0.5 else 1.0 - mu         # exact: Sterbenz
    try:
        g = gamma_mu(folded)
        domain = "critical" if g == math.pi / 2.0 else "two-intervals"
    except BelowCriticalMass:
        domain = "full-band"
    cls = classify_triangular(SystemParams(mu, b1, b2)).classification.value
    return [
        ("regime", regions.stable_region_report(folded).regime.value),
        ("regime", domain),
        ("regime", _REGIME_OF_CLASS[cls]),
    ]


def _mu_star_cli(point) -> list:
    """`stability` at the right-angle triangle, and below 1/2 the regime that
    `regions --figure 17` writes."""
    code, out = _cli("stability", *_params_args(*point))
    decisions = [("regime", code == 0 and _REGIME_OF_CLASS[json.loads(out)["classification"]])]
    if point[0] <= 0.5:
        code, _ = _cli("regions", "--figure=17", f"--mu={point[0]!r}", "--resolution=2", "--out=f")
        with open("f.json") as f:
            regime = json.load(f)["curves"]["stable_region"]["regime"]
        decisions.append(("regime", code == 0 and regime))
    return decisions


def _mu_star_raster(points, monkeypatch) -> list:
    """Figure 15 on a 4001 x 2 grid of (mu, gamma) cells across the walk, gamma within
    1e-9 of pi/2 (where sin(gamma)**2 rounds to 1), and across the mirrored walk."""
    cells = []
    half = math.pi / 2.0
    for xr in (_window(critical_mu(), _MU_STAR_ULPS), _window(1.0 - critical_mu(), 700)):
        monkeypatch.setattr(regions, "_STABILITY_MAP_WINDOW", (xr, (half - 1e-9, half + 1e-9)))
        fig15 = regions.stability_map_raster(resolution=(4001, 2))
        for j in range(2):
            for i, mu in enumerate(fig15.x_centers().tolist()):
                regime = _REGIME_OF_CLASS[fig15.legend[fig15.labels[j, i]]]
                cells.append(({"regime": _mu_star_regime(mu)}, [("regime", regime)]))
    return cells


# ---------------------------------------------------------------------------
# the F = 0 and F = 1 bands of the stability classes: F(mu, gamma) = 1 - 36 mu (1 - mu)
# sin(gamma)**2 within _BOUNDARY_ATOL of 0 or of 1, walked in gamma across each band
# edge (F = -tol, F = tol, F = 1 - tol), left open within the same 1e-14 of an edge

_BAND_EDGES = (-_TOL, _TOL, 1 - _TOL)


def _fraction(x) -> Fraction:
    man, exp = mpf(x).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _f_exact(mu: float, sin2: Fraction) -> Fraction:
    m = Fraction(mu) if mu <= 0.5 else 1 - Fraction(mu)
    return 1 - 36 * m * (1 - m) * sin2


def _sin2_of_sides(b1: float, b2: float) -> Fraction:
    """sin(gamma)**2 of the triangle with sides cbrt(b1), cbrt(b2) and 1, to 60 digits."""
    with mp.workdps(60):
        d1, d2 = mp.cbrt(mpf(b1)), mp.cbrt(mpf(b2))
        return _fraction(1 - ((1 - d1**2 - d2**2) / (2 * d1 * d2)) ** 2)


def _band_class(f: Fraction):
    if any(abs(f - edge) <= _MARGIN for edge in _BAND_EDGES):
        return None
    if f < -_TOL:
        return StabilityClass.LYAPUNOV_UNSTABLE.value
    if f <= _TOL:
        return StabilityClass.LINEARLY_UNSTABLE_F_ZERO.value
    if f < 1 - _TOL:
        return StabilityClass.LINEARLY_STABLE.value
    return StabilityClass.LINEARLY_UNSTABLE_F_ONE.value


def _band_seeds() -> list:
    """(mu, beta1, beta2) whose triangle puts F on a band edge, 12 per edge, each with
    its sin(gamma)**2 and the ulps of beta2 that move F by about 4e-14 (F = 1: a thin
    triangle, gamma near 0 or pi)."""
    rng, seeds = random.Random(38), []
    while len(seeds) < 12 * len(_BAND_EDGES):
        edge = _BAND_EDGES[len(seeds) // 12]
        mu = rng.uniform(1e-3, 0.5)
        with mp.workdps(60):
            sin2 = (1 - mpf(edge.numerator) / edge.denominator) / (36 * mpf(mu) * (1 - mpf(mu)))
            if sin2 > 1:                                      # F = 0 needs mu above mu*
                continue
            cos = rng.choice([-1, 1]) * mp.sqrt(1 - sin2)
            d1 = mpf(rng.uniform(0.3, 0.95))
            d2 = -d1 * cos + mp.sqrt(1 - d1**2 * sin2)
            b1, b2 = float(d1**3), float(d2**3)
        if not admissible_exactly(b1, b2):
            continue
        step = abs(_sin2_of_sides(b1, math.nextafter(b2, 3.0)) - _sin2_of_sides(b1, b2))
        slope = 36 * Fraction(mu) * (1 - Fraction(mu)) * step        # |dF| per ulp of beta2
        seeds.append((mu, b1, b2, float(sin2), math.ceil(4e-14 / float(slope))))
    return seeds


def _band_points() -> list:
    points = []
    for mu, b1, b2, _, k in _band_seeds():
        steps = sorted(set(range(-k, k + 1, max(1, k // 12))) | set(range(-2, 3)))
        points += [(mu, b1, b2 + i * math.ulp(b2)) for i in steps]
    return points + [(1.0 - m, b, a) for m, a, b in points]


def _band_oracle(point) -> dict:
    mu, b1, b2 = point
    return {"class": _band_class(_f_exact(mu, _sin2_of_sides(b1, b2)))}


def _band_scalar(point) -> list:
    return [("class", classify_triangular(SystemParams(*point)).classification.value)]


def _band_cli(point) -> list:
    code, out = _cli("stability", *_params_args(*point))
    return [("class", code == 0 and json.loads(out)["classification"])]


def _band_raster(points, monkeypatch) -> list:
    """Figure 15 on 2 x 41 grids of (mu, gamma) cells across each seed's band edge, at
    gamma and pi - gamma, and at the mirrored mass ratio 1 - mu."""
    cells = []
    for mu, _, _, sin2, _ in _band_seeds():
        gamma = math.asin(math.sqrt(sin2))
        slope = 36 * mu * (1 - mu) * math.sin(2 * gamma)                # |dF/dgamma|
        for m in (mu, 1.0 - mu):
            for g in (gamma, math.pi - gamma):
                window = (_window(m, 2), (g - 4e-14 / slope, g + 4e-14 / slope))
                monkeypatch.setattr(regions, "_STABILITY_MAP_WINDOW", window)
                fig15 = regions.stability_map_raster(resolution=(2, 41))
                for j, y in enumerate(fig15.y_centers().tolist()):
                    with mp.workdps(60):
                        s2 = _fraction(mp.sin(mpf(y)) ** 2)
                    for i, x in enumerate(fig15.x_centers().tolist()):
                        oracle = {"class": _band_class(_f_exact(x, s2))}
                        cells.append((oracle, [("class", fig15.legend[fig15.labels[j, i]])]))
    return cells


# ---------------------------------------------------------------------------
# the location lines: the pair is above or below body 1 (body 2) where |xL + mu|
# (|xL - (1 - mu)|) is within _LOCATION_ATOL = 1e-12, that is where |t| - 1 is within
# 2e-12 of 0, t = delta1**2 - delta2**2. Each walk, 40 ulp in each beta, starts on
# |t| - 1 = 0 or on either tolerance edge. The oracle leaves points within 1e-15 of an
# edge open, since the library forms t in floats from cube roots up to about 7 ulp off
# (ROADMAP item 9): at a 1e-16 margin 508 of 35,866 decided points disagree, 312 of
# them because of the rounded cube roots and the rest because of the rounding of t.
# Figure 7 draws the pair but does not label its location, so there is no raster entry.

_LOCATION_EDGE, _LOCATION_MARGIN = 2 * mpf(1e-12), mpf(1e-15)


def _location_points() -> list:
    """40 draws of the near side delta in (0.1, 0.95), each on |t| - 1 = 0 and +-2e-12 on
    body 2's side (t > 0) or body 1's, by turns; the mirror walks the other body."""
    rng, points = random.Random(39), []
    for i in range(40):
        d_near = mpf(rng.uniform(0.1, 0.95))
        for edge in (-_LOCATION_EDGE, 0, _LOCATION_EDGE):
            with mp.workdps(60):
                far, near = float(mp.sqrt(1 + d_near**2 + edge) ** 3), float(d_near**3)
            points += _walk(0.2, *((far, near) if i % 2 else (near, far)), 40)
    return points


@functools.lru_cache(maxsize=1024)
def _cbrt60(beta: float):
    """The cube root of beta to 60 digits, cached: a walk in one beta repeats the other, and
    its mirror both."""
    with mp.workdps(60):
        return mp.cbrt(mpf(beta))


def _location_oracle(point) -> dict:
    _, b1, b2 = point
    with mp.workdps(60):
        t = _cbrt60(b1) ** 2 - _cbrt60(b2) ** 2
        edge = abs(t) - 1
        if abs(abs(edge) - _LOCATION_EDGE) <= _LOCATION_MARGIN:
            return {"location": None}
        body = 2 if t > 0 else 1
        if abs(edge) <= _LOCATION_EDGE:
            return {"location": f"above-below-body-{body}"}
    if edge > 0:
        return {"location": "right-of-body-2" if body == 2 else "left-of-body-1"}
    return {"location": "between"}


def _location_scalar(point) -> list:
    return [("location", classify_location(SystemParams(*point)).value)]


def _location_cli(point) -> list:
    code, out = _cli("equilibria", *_params_args(*point), "--kind=triangular")
    return [("location", code == 0 and json.loads(out)["location"])]


THRESHOLDS = [
    Threshold(
        "admissibility", _hyperbola_points(), _admissible_oracle, _admissible_scalar,
        _admissible_cli, 40, _admissible_raster,
    ),
    Threshold(
        "delta-lines", _line_points(), _line_oracle, _line_scalar, _line_cli, 20, _line_raster
    ),
    Threshold(
        "mu-star", _mu_star_points(), _mu_star_oracle, _mu_star_scalar, _mu_star_cli, 80,
        _mu_star_raster,
    ),
    Threshold(
        "F-bands", _band_points(), _band_oracle, _band_scalar, _band_cli, 20, _band_raster
    ),
    Threshold(
        "location-lines", _location_points(), _location_oracle, _location_scalar,
        _location_cli, 80, None,
    ),
]
_IDS = [t.name for t in THRESHOLDS]


def _assert_none_disagree(threshold, checked):
    bad = [(point, oracle, got) for point, oracle, got in checked if _disagreements(oracle, got)]
    print(f"{threshold.name}: {len(bad)} disagreements of {len(checked)}")
    assert not bad, bad[:5]


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=_IDS)
def test_scalar_api_agrees_with_the_oracle(threshold):
    oracles = [threshold.oracle(p) for p in threshold.points]
    _assert_none_disagree(
        threshold,
        [(p, o, threshold.scalar(p)) for p, o in zip(threshold.points, oracles)],
    )
    # each walk reaches both sides of its threshold
    name = next(iter(oracles[0]))
    assert len({o[name] for o in oracles} - {None}) >= 2


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=_IDS)
def test_cli_agrees_with_the_oracle(threshold, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    points = threshold.points[:: threshold.cli_every]
    _assert_none_disagree(
        threshold, [(p, threshold.oracle(p), threshold.cli(p)) for p in points]
    )


@pytest.mark.parametrize("threshold", [t for t in THRESHOLDS if t.raster], ids=lambda t: t.name)
def test_raster_agrees_with_the_oracle(threshold, monkeypatch):
    cells = threshold.raster(threshold.points, monkeypatch)
    _assert_none_disagree(threshold, [(None, oracle, got) for oracle, got in cells])
    assert len({o for oracle, _ in cells for o in oracle.values()} - {None}) >= 2
