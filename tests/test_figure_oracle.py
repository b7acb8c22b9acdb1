"""Every cell of figures 5, 6, 7 and 15-21, labelled again from the paper's formulas.

Each label is decided at the cell center as the CSV prints it, a double and so a
dyadic rational; from rc3bp the test takes only the rasters under test. Most
cells are decided in doubles: each quantity compared against a threshold is
formed in numpy with a generous bound on its rounding error, and only the cells
that lie within that bound of a threshold are decided again exactly, in
`fractions.Fraction` where the quantity is rational in the center, or in
50-digit mpmath, with a margin, where it needs a square root or a sine.

The quantities, with d_i the sides of figures 6 and 19-21 and, in figures 7 and
16-18, P, Q the squared distances of (x, y) to the primaries at -mu and 1 - mu:

- admissibility: (b1 - 1)(b2 - 1) < 1, with b_i = d_i**3 or (P, Q)**(3/2);
- the triangle with sides (d1, d2, 1): d1 + d2 - 1 and 1 - |d1 - d2|, or for a
  point, Heron's 16 area**2 = 4PQ - (P + Q - 1)**2;
- F = 1 - 36 mu (1 - mu) sin(gamma)**2 against 0 and 1 within the library's
  documented band of 1e-12, with sin(gamma)**2 = 16 area**2 / (4 d1**2 d2**2).
"""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from rc3bp.regions import figure_dataset

U = 2.0**-53                         # unit roundoff
BAND = 1e-12                         # F = 0 and F = 1 are honoured within this band
F_THRESHOLDS = (-BAND, BAND, 1.0 - BAND, 1.0 + BAND)
RESOLUTIONS = (100, 101, 128)
FIGURES = (5, 6, 7, 15, 16, 17, 18, 19, 20, 21)

STABLE, UNSTABLE = "LinearlyStable", "LyapunovUnstable"
F_ZERO, F_ONE, OUTSIDE = "LinearlyUnstable_Fzero", "LinearlyUnstable_Fone", "OutsideDomain"


def _margin(value, bound, thresholds=(0.0,)):
    """(certain, margin): the distance of `value` to its nearest threshold, and
    whether it exceeds the rounding bound, so that the double decides."""
    margin = np.min([np.abs(value - t) for t in thresholds], axis=0)
    return margin > bound, margin


def _f_class(f):
    """The class of F from its value, exact (Fraction, mpf) or double."""
    band = Fraction(BAND) if isinstance(f, Fraction) else BAND
    if f < -band:
        return UNSTABLE
    if abs(f) <= band:
        return F_ZERO
    if abs(f - 1) <= band:
        return F_ONE
    return STABLE


def _f_classes(f):
    return np.select(
        [f < -BAND, np.abs(f) <= BAND, np.abs(f - 1.0) <= BAND], [UNSTABLE, F_ZERO, F_ONE], STABLE
    )


def _mp(q: Fraction):
    return mpf(q.numerator) / q.denominator


def _admissible_mp(p, q):
    """(P**1.5 - 1)(Q**1.5 - 1) < 1 at 50 digits, refusing a margin below 1e-40."""
    with mp.workdps(50):
        t = (_mp(p) ** mpf(1.5) - 1) * (_mp(q) ** mpf(1.5) - 1) - 1
        assert abs(t) > mpf(10) ** -40, f"admissibility undecided at P={p}, Q={q}"
        return t < 0


# ---------------------------------------------------------------------------
# figure by figure: (labels, uncertain, smallest margin) in doubles, and the exact label of a cell


def _float_admissibility(a, b):
    """(certain, margin, admissible) of (a - 1)(b - 1) < 1 for doubles a, b each
    within 16 ulp of the true value."""
    t = (a - 1.0) * (b - 1.0) - 1.0
    certain, margin = _margin(t, 64.0 * U * (np.abs(a) + 1.0) * (np.abs(b) + 1.0) + 4.0 * U)
    return certain, margin, t < 0.0


def _admissible_float(b1, b2, mu):
    certain, margin, adm = _float_admissibility(b1, b2)
    return np.where(adm, "Admissible", "Inadmissible"), ~certain, margin.min()


def _admissible_exact(b1, b2, mu):
    ok = (Fraction(b1) - 1) * (Fraction(b2) - 1) < 1
    return "Admissible" if ok else "Inadmissible"


def _sides_float(d1, d2):
    """Decisions shared by figures 6 and 19-21 on sides (d1, d2, 1)."""
    bound = 4.0 * U * (d1 + d2 + 1.0)
    short_ok, short_margin = _margin(d1 + d2 - 1.0, bound)
    wide_ok, wide_margin = _margin(1.0 - np.abs(d1 - d2), bound)
    adm_ok, adm_margin, adm = _float_admissibility(d1 * d1 * d1, d2 * d2 * d2)
    strict = (d1 + d2 - 1.0 > 0.0) & (1.0 - np.abs(d1 - d2) > 0.0)
    margin = np.minimum(np.minimum(short_margin, wide_margin), adm_margin)
    return strict, adm, short_ok & wide_ok & adm_ok, margin


def _sides_exact(d1, d2):
    """(short, wide, admissible, sin2) of the sides (d1, d2, 1) in exact rationals."""
    a, b = Fraction(d1), Fraction(d2)
    p, q = a * a, b * b
    heron = 4 * p * q - (p + q - 1) ** 2
    return a + b - 1, 1 - abs(a - b), (p * a - 1) * (q * b - 1) < 1, heron / (4 * p * q)


def _triangle_float(d1, d2, mu):
    strict, adm, certain, margin = _sides_float(d1, d2)
    labels = np.where(strict, np.where(adm, "Exists", "Inadmissible"), "NoTriangle")
    return labels, ~certain, margin.min()


def _triangle_exact(d1, d2, mu):
    short, wide, adm, _ = _sides_exact(d1, d2)
    if short <= 0 or wide <= 0:
        return "NoTriangle"
    return "Exists" if adm else "Inadmissible"


def _f_float(mu, sin2, sin2_bound):
    k = 36.0 * mu * (1.0 - mu)
    f = 1.0 - k * sin2
    certain, margin = _margin(f, k * sin2_bound + 16.0 * U * (k * np.abs(sin2) + 1.0), F_THRESHOLDS)
    return f, certain, margin


def _parameter_stability_float(d1, d2, mu):
    strict, adm, certain, margin = _sides_float(d1, d2)
    closed = (d1 + d2 - 1.0 >= 0.0) & (1.0 - np.abs(d1 - d2) >= 0.0)
    c = (1.0 - d1 * d1 - d2 * d2) / (2.0 * d1 * d2)
    c_bound = 8.0 * U * (1.0 + d1 * d1 + d2 * d2) / (2.0 * d1 * d2)
    f, f_ok, f_margin = _f_float(mu, 1.0 - c * c, 2.0 * np.abs(c) * c_bound + c_bound**2 + 4.0 * U)
    domain = closed & adm
    uncertain = ~certain | (domain & ~f_ok)
    labels = np.where(domain, _f_classes(f), OUTSIDE)
    return labels, uncertain, np.minimum(margin, np.where(domain, f_margin, np.inf)).min()


def _parameter_stability_exact(d1, d2, mu):
    short, wide, adm, sin2 = _sides_exact(d1, d2)
    if short < 0 or wide < 0 or not adm:
        return OUTSIDE
    m = Fraction(mu)
    return _f_class(1 - 36 * m * (1 - m) * sin2)


def _point_float(x, y, mu):
    """Decisions shared by figures 7 and 16-18 at the point (x, y)."""
    p, q = (x + mu) ** 2 + y * y, (x + mu - 1.0) ** 2 + y * y
    heron = 4.0 * p * q - (p + q - 1.0) ** 2
    heron_ok, heron_margin = _margin(heron, 64.0 * U * (4.0 * p * q + (p + q + 1.0) ** 2))
    r1, r2 = np.sqrt(p), np.sqrt(q)
    adm_ok, adm_margin, adm = _float_admissibility(r1 * r1 * r1, r2 * r2 * r2)
    return p, q, heron > 0.0, adm, heron_ok & adm_ok, np.minimum(heron_margin, adm_margin)


def _point_exact(x, y, mu):
    """(heron, admissible, sin2) at the point (x, y) in exact rationals and 50-digit mpmath."""
    x, y, m = Fraction(x), Fraction(y), Fraction(mu)
    p, q = (x + m) ** 2 + y * y, (x + m - 1) ** 2 + y * y
    heron = 4 * p * q - (p + q - 1) ** 2
    if p == 0 or q == 0:
        return heron, False, None
    return heron, _admissible_mp(p, q), heron / (4 * p * q)


def _configuration_float(x, y, mu):
    _, _, strict, adm, certain, margin = _point_float(x, y, mu)
    labels = np.where(strict, np.where(adm, "Exists", "Inadmissible"), "NoTriangle")
    return labels, ~certain, margin.min()


def _configuration_exact(x, y, mu):
    heron, adm, _ = _point_exact(x, y, mu)
    if heron <= 0:
        return "NoTriangle"
    return "Exists" if adm else "Inadmissible"


def _configuration_stability_float(x, y, mu):
    p, q, _, adm, certain, margin = _point_float(x, y, mu)
    sin2 = y * y / (p * q)                             # 16 area**2 = 4 y**2
    f, f_ok, f_margin = _f_float(mu, sin2, 16.0 * U * sin2)
    domain = (p > 0.0) & (q > 0.0) & adm
    uncertain = ~certain | (domain & ~f_ok)
    labels = np.where(domain, _f_classes(f), OUTSIDE)
    return labels, uncertain, np.minimum(margin, np.where(domain, f_margin, np.inf)).min()


def _configuration_stability_exact(x, y, mu):
    heron, adm, sin2 = _point_exact(x, y, mu)
    if heron < 0 or not adm:
        return OUTSIDE
    m = Fraction(mu)
    return _f_class(1 - 36 * m * (1 - m) * sin2)


def _map_float(mu, gamma, _):
    sin2 = np.sin(gamma) ** 2
    f, certain, margin = _f_float(mu, sin2, 64.0 * U * sin2)
    return _f_classes(f), ~certain, margin.min()


def _map_exact(mu, gamma, _):
    with mp.workdps(50):
        m = mpf(mu)
        f = 1 - 36 * m * (1 - m) * mp.sin(mpf(gamma)) ** 2
        assert min(abs(f - t) for t in F_THRESHOLDS) > mpf(10) ** -40, (mu, gamma)
        return _f_class(f)


_ORACLES = {
    5: (_admissible_float, _admissible_exact),
    6: (_triangle_float, _triangle_exact),
    7: (_configuration_float, _configuration_exact),
    15: (_map_float, _map_exact),
    **{fig: (_configuration_stability_float, _configuration_stability_exact) for fig in (16, 17, 18)},
    **{fig: (_parameter_stability_float, _parameter_stability_exact) for fig in (19, 20, 21)},
}


def _oracle_labels(figure, raster, mu):
    """(labels as legend names, cells decided exactly, smallest float margin)."""
    in_floats, exact = _ORACLES[figure]
    xs, ys = raster.x_centers(), raster.y_centers()
    x, y = np.meshgrid(xs, ys)
    with np.errstate(divide="ignore", invalid="ignore"):
        labels, uncertain, margin = in_floats(x, y, mu)
    labels = labels.astype(object)
    for j, i in zip(*np.nonzero(uncertain)):
        labels[j, i] = exact(float(xs[i]), float(ys[j]), mu)
    return labels, int(np.count_nonzero(uncertain)), margin


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_every_cell_matches_the_exact_oracle(resolution):
    report, differing = [], {}
    for figure in FIGURES:
        dataset = figure_dataset(figure, resolution=resolution)
        raster, mu = dataset.raster, dataset.parameters["mu"]
        want, exact_cells, margin = _oracle_labels(figure, raster, mu)
        got = np.array(raster.legend, dtype=object)[raster.labels]
        bad = np.argwhere(got != want)
        if bad.size:
            differing[figure] = [(float(raster.x_centers()[i]), float(raster.y_centers()[j]),
                                  got[j, i], want[j, i]) for j, i in bad[:5]]
        report.append(f"figure {figure}: {exact_cells} cells decided exactly, "
                      f"smallest float margin {margin:.3g}")
    print(f"resolution {resolution}:\n  " + "\n  ".join(report))
    assert differing == {}


def test_the_axis_row_of_figure_7_holds_no_triangle():
    # at an odd resolution the middle row sits on y = 0, where every triangle is flat
    raster = figure_dataset(7, resolution=101).raster
    assert raster.y_centers()[50] == 0.0
    assert set(raster.labels[50].tolist()) == {raster.legend.index("NoTriangle")}

