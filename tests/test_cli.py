"""CLI dispatch: output schemas, file formats, exit codes, manifest."""

import csv
import errno
import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from rc3bp import _brent, cli, collinear, regions
from rc3bp.cli import main
from rc3bp.errors import NumericError, ValidationError
from rc3bp.params import SystemParams

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_emits_params_json(capsys):
    code, out, _ = run(capsys, "validate", "--mu", "0.3", "--beta1", "1.2", "--beta2", "0.5")
    assert code == 0
    d = json.loads(out)
    assert d == {"mu": 0.3, "beta1": 1.2, "beta2": 0.5, "admissible": True, "swapped": False}


def test_validate_inadmissible_still_exits_zero(capsys):
    code, out, _ = run(capsys, "validate", "--mu", "0.3", "--beta1", "3", "--beta2", "2")
    assert code == 0
    assert json.loads(out)["admissible"] is False


def test_validate_bad_mu_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--mu", "1.2", "--beta1", "1", "--beta2", "1")
    assert code == 2
    assert "mu" in err


def test_usage_error_names_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--mu", "zebra", "--beta1", "1", "--beta2", "1"])
    assert exc.value.code == 2
    assert "--mu" in capsys.readouterr().err


def test_two_body_classification_and_orbit(capsys):
    code, out, _ = run(
        capsys, "two-body", "--m1", "1", "--m2", "2", "--q1", "3", "--q2", "2",
        "--kstar", "4", "--l", "1.5",
    )
    assert code == 0
    d = json.loads(out)
    assert d["C"] == -4.0
    assert d["class"] == "repulsive"
    assert d["orbit"]["e"] > 1.0
    assert d["orbit"]["r0"] == 1.0


def test_two_body_keplerian_without_orbit(capsys):
    code, out, _ = run(capsys, "two-body", "--m1", "1", "--m2", "1", "--q1", "0.1", "--q2", "0.1")
    d = json.loads(out)
    assert code == 0 and d["class"] == "keplerian" and "orbit" not in d


def test_two_body_orbit_flags_must_pair(capsys):
    code, _, err = run(
        capsys, "two-body", "--m1", "1", "--m2", "2", "--q1", "3", "--q2", "2", "--kstar", "4"
    )
    assert code == 2 and "--kstar" in err and "--l" in err


def test_two_body_not_repulsive_is_validation_error(capsys):
    code, _, _ = run(
        capsys, "two-body", "--m1", "1", "--m2", "1", "--q1", "0.1", "--q2", "0.1",
        "--kstar", "1", "--l", "1",
    )
    assert code == 2


def test_equilibria_triangular(capsys):
    code, out, _ = run(
        capsys, "equilibria", "--mu", "0.25", "--beta1", "1", "--beta2", "1",
        "--kind", "triangular",
    )
    assert code == 0
    d = json.loads(out)
    assert d["kind"] == "triangular"
    assert d["l4"][0] == pytest.approx(0.25)
    assert d["l4"][1] == pytest.approx(math.sqrt(3) / 2)
    assert d["l5"][1] == -d["l4"][1]
    assert d["location"] == "between"


@pytest.mark.parametrize(
    "mu, beta1, beta2, excess",
    [
        ("0.2", "6.018324002166726e-05", "0.8869815620321766", Fraction(17, 2**56)),
        ("0.3", "0.06400000000000002", "0.21599999999999997", Fraction(1, 2**54)),
    ],
)
def test_equilibria_triangular_on_a_thin_triangle(mu, beta1, beta2, excess, capsys):
    # rho1 + rho2 exceeds 1 by a few ulp: the pair exists, and yL is the height
    # of the triangle (rho1, rho2, 1) to a few ulp
    code, out, err = run(capsys, "equilibria", "--mu", mu, "--beta1", beta1, "--beta2", beta2,
                         "--kind", "triangular")
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert Fraction(d["rho1"]) + Fraction(d["rho2"]) - 1 == excess
    with mp.workdps(60):
        s, t = mpf(d["rho1"]) + mpf(d["rho2"]), mpf(d["rho1"]) - mpf(d["rho2"])
        height = float(mp.sqrt((s + 1) * (s - 1) * (1 - t) * (1 + t)) / 2)
    assert d["l4"][1] > 0.0
    assert abs(d["l4"][1] - height) <= 3.0 * math.ulp(height)
    assert d["l5"][1] == -d["l4"][1]


def test_equilibria_triangular_where_the_rounded_deltas_are_flat(capsys):
    # for the rounded cube roots rho1 - rho2 - 1 is exactly 0, for the true ones it
    # is -5.86e-18: the pair exists, and yL is the true triangle's height to 3 ulp
    code, out, err = run(capsys, "equilibria", "--mu", "0.2", "--beta1", "2.6103386557130905",
                         "--beta2", "0.0535353466561373", "--kind", "triangular")
    assert (code, err) == (0, "")
    d = json.loads(out)
    assert Fraction(d["rho1"]) - Fraction(d["rho2"]) - 1 == 0
    assert abs(d["l4"][1] - 2.4658235068602046e-9) <= 3.0 * math.ulp(2.4658235068602046e-9)
    assert d["location"] == "right-of-body-2"


def test_admissible_within_an_ulp_of_the_hyperbola(capsys):
    # (beta1 - 1)(beta2 - 1) rounds to 1 in floats, and is below 1 exactly
    args = ["--mu", "0.2", "--beta1", "1.2290169488970193", "--beta2", "5.366489051645099"]
    assert (Fraction(args[3]) - 1) * (Fraction(args[5]) - 1) < 1
    code, out, _ = run(capsys, "validate", *args)
    assert (code, json.loads(out)["admissible"]) == (0, True)
    for kind in ("triangular", "collinear"):
        code, out, err = run(capsys, "equilibria", *args, "--kind", kind)
        assert (code, err) == (0, ""), kind


def test_equilibria_triangular_missing_exits_two(capsys):
    code, _, _ = run(
        capsys, "equilibria", "--mu", "0.25", "--beta1", "-1", "--beta2", "1",
        "--kind", "triangular",
    )
    assert code == 2


def test_equilibria_collinear(capsys):
    code, out, _ = run(
        capsys, "equilibria", "--mu", "0.3", "--beta1", "1.2", "--beta2", "0.5",
        "--kind", "collinear",
    )
    assert code == 0
    d = json.loads(out)
    assert d["region"] == "S_{1,2}"
    assert [r["interval"] for r in d["roots"]] == ["I1", "I2", "I3"]
    assert all(abs(r["F_residual"]) < 1e-10 for r in d["roots"])
    assert d["predicted"] == {"I1": "exactly-one", "I2": "exactly-one", "I3": "exactly-one"}


def test_stability_triangular_report(capsys):
    code, out, _ = run(capsys, "stability", "--mu", "0.01", "--beta1", "1", "--beta2", "1")
    assert code == 0
    d = json.loads(out)
    assert d["classification"] == "LinearlyStable"
    assert d["F"] == pytest.approx(1.0 - 27.0 * 0.01 * 0.99)
    assert d["gamma"] == pytest.approx(2.0 * math.pi / 3.0)
    assert len(d["eigenvalues"]) == 4
    assert all(len(pair) == 2 for pair in d["eigenvalues"])


def test_stability_free_point_unclassified(capsys):
    code, out, _ = run(
        capsys, "stability", "--mu", "0.3", "--beta1", "1.2", "--beta2", "0.5",
        "--point", "0.4,0.7",
    )
    assert code == 0
    d = json.loads(out)
    assert d["classification"] is None and d["F"] is None and d["gamma"] is None
    assert len(d["eigenvalues"]) == 4


def run_collinear(capsys, *argv):
    """`equilibria --kind collinear` in-process, with RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run(capsys, "equilibria", "--kind", "collinear", *argv)


def test_collinear_equilibria_find_the_i3_root_next_to_primary_2(capsys):
    # S2 at beta1 = -1e10: the I3 root lies about 5e-6 beyond primary 2
    code, out, _ = run_collinear(capsys, "--mu", "0.2", "--beta1=-1e10", "--beta2", "1")
    assert code == 0
    d = json.loads(out)
    assert d["predicted"]["I3"] == "exactly-one"
    (root,) = d["roots"]
    assert root["interval"] == "I3" and 0.0 < root["x"] - 0.8 < 1e-5


def test_collinear_equilibria_exit_3_where_the_root_is_within_an_ulp_of_a_primary(capsys):
    # at beta1 = -1e300 the I3 root lies about 5e-151 beyond primary 2,
    # closer than one ulp of 0.8, so no bracket of it exists in doubles
    code, out, err = run_collinear(capsys, "--mu", "0.2", "--beta1=-1e300", "--beta2", "1")
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: cannot bracket a root")


def test_collinear_equilibria_past_the_largest_band_edge(capsys):
    # at beta1 = -1e308 the S2/I1 band edge passes the largest double, so I1
    # holds no root; beta2 = 1e300 puts the I3 root 5e-5 beyond primary 2
    code, out, _ = run_collinear(capsys, "--mu", "0.2", "--beta1=-1e308", "--beta2", "1e300")
    assert code == 0
    (root,) = json.loads(out)["roots"]
    assert root["interval"] == "I3" and 0.0 < root["x"] - 0.8 < 1e-4


@pytest.mark.parametrize("beta2, i1_roots", [("1.2", 0), ("1.5", 2)])
def test_collinear_equilibria_at_tiny_mu_and_beta(beta2, i1_roots, capsys):
    # the S2/I1 band edge is 1.389 here, its tangency 3e-16 beyond primary 1
    code, out, _ = run_collinear(
        capsys, "--mu", "1.1940565215701757e-15", "--beta1=-1.4825432021539882e-47",
        "--beta2", beta2,
    )
    assert code == 0
    intervals = [r["interval"] for r in json.loads(out)["roots"]]
    assert intervals == ["I1"] * i1_roots + ["I3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibria", "--mu=0.2", "--beta1=-0.5", "--beta2=2", "--kind=collinear"],
        ["critical-roots", "--mu=0.1234"],
        ["regions", "--figure=11", "--resolution=8", "--out=fig"],
    ],
)
def test_brent_non_convergence_exits_3(argv, capsys, tmp_path, monkeypatch):
    # one iteration converges on no bracket: the solver's RuntimeError must
    # reach the user as a numeric failure, not as a traceback
    monkeypatch.setattr(_brent, "_MAXITER", 1)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: ") and "Failed to converge" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        # rho**5 overflows at 1e100 and underflows to 0 at 1e-70 from primary 1
        (["stability", "--mu", "0.2", "--beta1", "1", "--beta2", "1", "--point", "1e100,0"],
         "V is not representable at (1e+100, 0.0)"),
        (["stability", "--mu", "0.2", "--beta1", "1", "--beta2", "1", "--point=-0.2,1e-70"],
         "V is not representable at (-0.2, 1e-70)"),
        # C = G m1 m2 overflows to inf; mu_red = 5e307 is finite
        (["two-body", "--m1", "1e308", "--m2", "1e308", "--q1", "0", "--q2", "0"],
         "not a finite double: C = inf\n"),
        # r0 = |C| / kstar overflows
        (["two-body", "--m1", "1", "--m2", "1", "--q1", "2", "--q2", "2",
          "--kstar", "1e-320", "--l", "1"], "not a finite double"),
        # e = sqrt(1 + 4.4e-21) rounds to 1: no hyperbola in doubles
        (["two-body", "--m1", "1", "--m2", "1", "--q1", "2", "--q2", "2",
          "--kstar", "1e-20", "--l", "1"], "e rounds to 1"),
        # l**2 underflows to 0, so e is exactly 1
        (["two-body", "--m1", "1", "--m2", "1", "--q1", "2", "--q2", "2", "--kstar", "3",
          "--l", "1e-170"], "e rounds to 1 at k_star = 3.0, l = 1e-170"),
        # mu_red = 5e-201 and C = -1e-160, so mu_red C**2 underflows to 0
        (["two-body", "--m1", "1e-200", "--m2", "1e-200", "--q1", "1e-80", "--q2", "1e-80",
          "--kstar", "3", "--l", "1"], "mu_red C**2 underflows to 0 at TwoBodyConfig(m1=1e-200"),
        # px**2 overflows at a start inside the collision radius
        (["integrate", "--mu=1e-10", "--beta1=2", "--beta2=0", "--state=-8.685434092740774e-07,"
          "-1.033031011104279e-07,1e300,-0.03080576118017928", "--t-end=0.001"],
         "H is not a finite double at PhaseState(x=-8.685434092740774e-07"),
        # V overflows a subnormal distance from primary 1, so H would be -inf
        (["integrate", "--mu=0.2", "--beta1=1", "--beta2=1", "--state=-0.2,1e-320,0,0",
          "--t-end=1e-3"], "H is not a finite double at PhaseState(x=-0.2, y=1e-320"),
        # px**2 overflows; the solver would warn on every step
        (["integrate", "--mu=0.2", "--beta1=1", "--beta2=1", "--state=0.5,0.5,1e300,0",
          "--t-end=1"], "H is not a finite double at PhaseState(x=0.5, y=0.5, px=1e+300"),
        # H is finite at the start, but the first step's error norm overflows
        (["integrate", "--mu=0.5", "--beta1=1", "--beta2=-1e300", "--state=0.9,-2.3,2.5,2.2",
          "--t-end=1e-6"], "the solution leaves the doubles from PhaseState(x=0.9, y=-2.3"),
    ],
)
def test_results_outside_the_doubles_exit_3_with_nothing_on_stdout(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # a leaked warning would be a traceback
        code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure: ") and err.count("\n") == 1 and message in err


def test_collinear_equilibria_never_contradict_the_resolved_count(capsys):
    # the second I2 root lies about 1e-40 from primary 2, below one ulp
    code, out, _ = run_collinear(capsys, "--mu", "1e-80", "--beta1", "0.5", "--beta2=-0.5")
    p = SystemParams(1e-80, 0.5, -0.5)
    assert collinear.resolved_root_count(p, collinear.Interval.I2).count == 2
    if code == 0:
        d = json.loads(out)
        assert [r["interval"] for r in d["roots"]] == ["I1", "I2", "I2"]
    else:
        assert (code, out) == (3, "")


def test_critical_roots_series_flag(capsys):
    code, out, _ = run(capsys, "critical-roots", "--mu", "0.01", "--series")
    assert code == 0
    d = json.loads(out)
    assert -0.01 < d["x_r1"] < -0.01 / 3.0
    assert abs(d["x_r1_series"] - d["x_r1"]) <= 10.0 * 0.01**5
    assert abs(d["x_r2_series"] - d["x_r2"]) <= 10.0 * 0.01**1.25


def test_critical_roots_tiny_mu_returns_series(capsys):
    code, out, _ = run(capsys, "critical-roots", "--mu", "1e-80", "--series")
    assert code == 0
    d = json.loads(out)
    assert (d["x_r1"], d["x_r2"]) == (d["x_r1_series"], d["x_r2_series"])
    assert d["x_r1"] == -1e-80 / 3.0


def test_critical_roots_validates_mu(capsys):
    code, _, _ = run(capsys, "critical-roots", "--mu", "0.9")
    assert code == 2


def test_critical_roots_where_the_bracket_sign_is_noise(capsys):
    # g_tilde(-mu/3) is below the polynomial's rounding error here
    code, out, _ = run(capsys, "critical-roots", "--mu", "6.608335874168511e-06")
    assert code == 0
    mu = 6.608335874168511e-06
    assert -mu < json.loads(out)["x_r1"] <= -mu / 3.0


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--mu", "1.2", "--beta1", "1", "--beta2", "1"],
        ["validate", "--mu", "0.2", "--beta1", "inf", "--beta2", "1"],
        ["stability", "--mu", "0", "--beta1", "1", "--beta2", "1"],
        ["stability", "--mu", "0.2", "--beta1", "1", "--beta2", "1", "--point", "nan,0"],
        ["stability", "--mu", "0.2", "--beta1", "1", "--beta2", "1", "--point", "inf,0"],
        ["two-body", "--m1", "0", "--m2", "1", "--q1", "1", "--q2", "1"],
        ["two-body", "--m1", "1", "--m2", "1", "--q1", "1", "--q2", "1", "--G", "0"],
        ["two-body", "--m1", "1", "--m2", "1", "--q1", "2", "--q2", "2",
         "--kstar", "-1", "--l", "1"],
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "0.3,0.8,-0.8,0.3", "--t-end", "0"],
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "0.3,0.8,-0.8,0.3", "--t-end", "1", "--tol", "0.1"],
        ["critical-roots", "--mu", "0.7"],
        ["regions", "--figure", "5", "--mu", "0.3", "--out", "unused"],
        ["regions", "--figure", "5", "--resolution", "1", "--out", "unused"],
        ["regions", "--figure", "11", "--resolution", "-3", "--out", "unused"],
        ["regions", "--figure", "11", "--mu", "0.7", "--out", "unused"],
        ["regions", "--figure", "16", "--mu", "0.7", "--out", "unused"],
        # inputs that would otherwise fail inside numpy, scipy or the sample-time loop
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "nan,0,0,0", "--t-end", "1"],
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "0.3,0.8,-0.8,0.3", "--t-end", "1", "--every", "nan"],
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "0.3,0.8,-0.8,0.3", "--t-end", "1", "--every", "inf"],
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "0.3,0.8,-0.8,0.3", "--t-end=-1", "--every", "0.1"],
        # non-finite two-body inputs and a figure-7 mass ratio outside (0, 1)
        ["two-body", "--m1", "nan", "--m2", "1", "--q1", "1", "--q2", "1"],
        ["two-body", "--m1", "1", "--m2", "1", "--q1", "nan", "--q2", "1"],
        ["two-body", "--m1", "1", "--m2", "1", "--q1", "1", "--q2", "1", "--G", "inf"],
        ["two-body", "--m1", "1", "--m2", "1", "--q1", "2", "--q2", "2",
         "--kstar", "nan", "--l", "1"],
        ["regions", "--figure", "7", "--mu", "nan", "--resolution", "8", "--out", "unused"],
        ["regions", "--figure", "7", "--mu", "inf", "--resolution", "8", "--out", "unused"],
        ["regions", "--figure", "7", "--mu=-1", "--resolution", "8", "--out", "unused"],
        ["regions", "--figure", "7", "--mu", "5", "--resolution", "8", "--out", "unused"],
        # a sample count t_end / every that overflows
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "0.5,0.5,0,0", "--t-end", "1e300", "--every", "1e-300"],
        ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
         "--state", "0.5,0.5,0,0", "--t-end", "1", "--every", "5e-324"],
    ],
)
def test_invalid_input_exits_two(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_foreign_value_error_is_not_a_usage_error(monkeypatch):
    # only the package's own ValidationError means exit 2
    def broken(mu):
        raise ValueError("not from rc3bp")

    monkeypatch.setattr(collinear, "critical_roots", broken)
    with pytest.raises(ValueError, match="not from rc3bp") as exc:
        main(["critical-roots", "--mu", "0.1"])
    assert not isinstance(exc.value, ValidationError)


def test_cli_reference_stdout_is_unchanged(tmp_path, monkeypatch, capsys):
    # the benchmark's recorded stdout of every cli_oneshot argument set
    reference = json.loads((REFERENCE_DIR / "cli_reference.json").read_text())
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".bench_work" / "cli").mkdir(parents=True)
    changed = []
    for key, expected in reference.items():
        code = main(key.split(" "))
        if code != 0 or capsys.readouterr().out != expected:
            changed.append(key)
    assert len(reference) == 32 and changed == []


def test_figure_csvs_match_the_recorded_digests():
    # the 13 figure CSVs at the default resolution 512, byte for byte
    expected = json.loads((REFERENCE_DIR / "figures_csv_sha256.json").read_text())
    got = {}
    for figure in regions.FIGURES:
        raster = regions.figure_dataset(figure, resolution=512).raster
        data = b"".join(cli._raster_csv_lines(raster))
        got[f"figure-{figure:02d}.csv"] = hashlib.sha256(data).hexdigest()
    assert got == expected


def test_reproduce_all_at_512_writes_the_pinned_bytes(tmp_path):
    # the default resolution through the writer itself: each CSV spans many write buffers
    expected = json.loads((REFERENCE_DIR / "figures_csv_sha256.json").read_text())
    manifest = cli.reproduce_all(str(tmp_path), resolution=512)
    digests = {e["file"]: e["sha256"] for e in manifest["files"]}
    assert {f: d for f, d in digests.items() if f.endswith(".csv")} == expected
    on_disk = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert len(on_disk) == 26 and on_disk == digests
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
    assert digest == "1a543c9b37b1a3ca6ca08faa89bb2e45d739820d01fc82dea406a12a22765d82"


def test_reproduce_all_manifest_digest_at_resolution_128(tmp_path):
    # pins every figure's JSON bytes too (polylines, critical roots,
    # stable-region geometry), which the CSV digests above do not cover
    manifest = cli.reproduce_all(str(tmp_path), resolution=128)
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest()
    assert digest == "e09191d174b5116eee4e3723b5556fe192f549237ed8159827af9d463b7eafdd"
    # the digests are taken from the bytes as written; the files read back agree
    on_disk = {
        e["file"]: hashlib.sha256((tmp_path / e["file"]).read_bytes()).hexdigest()
        for e in manifest["files"]
    }
    assert len(on_disk) == 26 and on_disk == {e["file"]: e["sha256"] for e in manifest["files"]}


def _tree(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


linux_fork = pytest.mark.skipif(sys.platform != "linux", reason="the figures split on Linux only")


@linux_fork
def test_reproduce_all_in_one_part_and_in_two_writes_the_same_bytes(tmp_path, monkeypatch):
    # in two parts a forked child builds and writes FIGURES[1::2] with the same code
    trees = {}
    for parts in (1, 2):
        monkeypatch.setattr(cli, "_part_count", lambda parts=parts: parts)
        cli.reproduce_all(str(tmp_path / str(parts)), resolution=128)
        trees[parts] = _tree(tmp_path / str(parts))
    assert len(trees[2]) == 27 and trees[1] == trees[2]
    digest = hashlib.sha256(trees[2]["manifest.json"]).hexdigest()
    assert digest == "e09191d174b5116eee4e3723b5556fe192f549237ed8159827af9d463b7eafdd"
    with pytest.raises(ChildProcessError):    # the child was reaped
        os.waitpid(-1, os.WNOHANG)


@linux_fork
@pytest.mark.parametrize(
    "message, ignored",
    [
        ("This process (pid={pid}) is multi-threaded, use of fork() may lead to deadlocks in the "
         "child.", True),
        ("use of fork() is deprecated", False),
    ],
    ids=["threads", "other"],
)
def test_only_the_fork_warning_of_a_multi_threaded_process_is_ignored(
    message, ignored, tmp_path, monkeypatch
):
    # Python 3.12+ warns in the parent at a fork with several OS threads (numpy's OpenBLAS
    # starts one); here the fork emits that warning, word for word, or another one. As with
    # os.fork, a warning raised as an error loses the child's pid, so the test reaps it.
    fork, children = os.fork, []

    def warning_fork():
        pid = fork()
        if pid:
            children.append(pid)
            warnings.warn(message.format(pid=os.getpid()), DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(cli, "_part_count", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if ignored:
            cli.reproduce_all(str(tmp_path), resolution=8)
        else:
            with pytest.raises(DeprecationWarning, match="^use of fork"):
                cli.reproduce_all(str(tmp_path), resolution=8)
            os.waitpid(children.pop(), 0)
    assert (tmp_path / "manifest.json").exists() == ignored
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_reproduce_all_writes_over_longer_files_without_a_stale_tail(tmp_path):
    # a reused output directory: each file is written over in place, then cut to length
    cli.reproduce_all(str(tmp_path / "fresh"), resolution=64)
    fresh = _tree(tmp_path / "fresh")
    reused = tmp_path / "reused"
    reused.mkdir()
    for name, data in fresh.items():
        (reused / name).write_bytes(bytes(reversed(data)) * 2)
    manifest = cli.reproduce_all(str(reused), resolution=64)
    assert _tree(reused) == fresh
    on_disk = {e["file"]: hashlib.sha256(fresh[e["file"]]).hexdigest() for e in manifest["files"]}
    assert len(on_disk) == 26 and on_disk == {e["file"]: e["sha256"] for e in manifest["files"]}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_write_to_a_pipe_or_a_device_does_not_truncate():
    assert cli._write(os.devnull, [b"abc"]) == hashlib.sha256(b"abc").hexdigest()
    read_end, write_end = os.pipe()
    try:
        assert cli._write(f"/dev/fd/{write_end}", [b"ab", b"c"]) == hashlib.sha256(b"abc").hexdigest()
        assert os.read(read_end, 8) == b"abc"
    finally:
        os.close(read_end)
        os.close(write_end)


@linux_fork
def test_figures_a_child_killed_by_a_signal_did_not_report_are_built_here(tmp_path, monkeypatch):
    # figure 11 is in the child's part, FIGURES[1::2] = (6, 11, 13, 16, 18, 20); the child
    # kills itself there, and this process builds 11 and the rest of the part after it
    def write_figure(dataset, base):
        if dataset.figure == 11 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return write(dataset, base)

    parent, write = os.getpid(), cli._write_figure
    monkeypatch.setattr(cli, "_part_count", lambda: 1)
    cli.reproduce_all(str(tmp_path / "1"), resolution=128)
    monkeypatch.setattr(cli, "_write_figure", write_figure)
    monkeypatch.setattr(cli, "_part_count", lambda: 2)
    cli.reproduce_all(str(tmp_path / "2"), resolution=128)
    tree = _tree(tmp_path / "2")
    assert len(tree) == 27 and tree == _tree(tmp_path / "1")
    digest = hashlib.sha256(tree["manifest.json"]).hexdigest()
    assert digest == "e09191d174b5116eee4e3723b5556fe192f549237ed8159827af9d463b7eafdd"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@linux_fork
def test_this_process_builds_only_its_own_part_while_the_child_works(tmp_path, monkeypatch):
    # the child's calls land in the child's copy of `built`, so this list is this process's
    def counted(figure, **kwargs):
        built.append(figure)
        return figure_dataset(figure, **kwargs)

    built, figure_dataset = [], regions.figure_dataset
    monkeypatch.setattr(regions, "figure_dataset", counted)
    monkeypatch.setattr(cli, "_part_count", lambda: 2)
    manifest = cli.reproduce_all(str(tmp_path), resolution=16)
    assert tuple(built) == regions.FIGURES[0::2] and len(manifest["files"]) == 26


@linux_fork
def test_a_failed_fork_leaves_every_figure_to_this_process(tmp_path, monkeypatch):
    def failing_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(cli, "_part_count", lambda: 1)
    cli.reproduce_all(str(tmp_path / "1"), resolution=16)
    monkeypatch.setattr(cli, "_part_count", lambda: 2)
    monkeypatch.setattr(os, "fork", failing_fork)
    fds = len(os.listdir("/proc/self/fd"))
    cli.reproduce_all(str(tmp_path / "2"), resolution=16)
    assert len(os.listdir("/proc/self/fd")) == fds    # the pipe's two ends were closed
    tree = _tree(tmp_path / "2")
    assert len(tree) == 27 and tree == _tree(tmp_path / "1")


@linux_fork
def test_a_child_error_is_raised_again_with_its_type_and_message(tmp_path, monkeypatch):
    def failing(figure, **kwargs):
        if figure == 13:
            raise NumericError("figure 13 could not be built")
        return figure_dataset(figure, **kwargs)

    figure_dataset = regions.figure_dataset
    monkeypatch.setattr(regions, "figure_dataset", failing)
    monkeypatch.setattr(cli, "_part_count", lambda: 2)
    with pytest.raises(NumericError, match="^figure 13 could not be built$"):
        cli.reproduce_all(str(tmp_path), resolution=16)
    assert not (tmp_path / "manifest.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@linux_fork
def test_a_child_error_marshal_cannot_carry_is_raised_here_as_itself(tmp_path, monkeypatch):
    # the child stops at figure 18 having written 6, 11, 13 and 16; this process builds 18
    # next and raises its own ValueError, as it would in one part
    def failing(figure, **kwargs):
        if figure == 18:
            raise ValueError(marker)
        return figure_dataset(figure, **kwargs)

    marker, figure_dataset = object(), regions.figure_dataset
    monkeypatch.setattr(regions, "figure_dataset", failing)
    monkeypatch.setattr(cli, "_part_count", lambda: 2)
    with pytest.raises(ValueError) as exc:
        cli.reproduce_all(str(tmp_path), resolution=16)
    assert type(exc.value) is ValueError and exc.value.args == (marker,)
    assert sorted(p.name for p in tmp_path.glob("figure-[12][068].*")) == [
        "figure-16.csv", "figure-16.json"
    ]
    assert not (tmp_path / "manifest.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FRESH_PARTS_MAIN = "\n".join(
    [
        "import os, sys",
        "from rc3bp import cli",
        "cli._part_count = lambda: int(sys.argv[1])",
        "code = cli.main(sys.argv[2:])",
        "try:",
        "    os.waitpid(-1, os.WNOHANG)",
        "    code = 99    # a child was left",
        "except ChildProcessError:",
        "    pass",
        "sys.exit(code)",
    ]
)


@linux_fork
@pytest.mark.parametrize("blocked", ["figure-06.csv", "figure-05.csv"], ids=["child", "parent"])
def test_an_io_failure_in_either_part_exits_3_naming_the_path(blocked, tmp_path):
    # a directory where a CSV should go: the child's part (figure 6) or the parent's (figure 5,
    # its first, so the child is still running and is killed)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for parts in ("2", "1"):
        out_dir = tmp_path / parts
        (out_dir / blocked).mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_PARTS_MAIN, parts, "reproduce-all", "--resolution=16",
             f"--out={out_dir}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith(f"io failure ({out_dir / blocked}): ")
        assert not (out_dir / "manifest.json").exists()
        results.append(proc.stderr.replace(str(out_dir), "OUT"))
    assert results[0] == results[1]


def test_a_failed_rerun_leaves_no_manifest_behind(tmp_path, capsys):
    # a directory holds a manifest.json only after a run that completed: the resolution-8
    # manifest would list digests that the files of the failed run no longer have
    assert run(capsys, "reproduce-all", "--resolution", "8", "--out", str(tmp_path))[0] == 0
    (tmp_path / "figure-13.csv").unlink()
    (tmp_path / "figure-13.csv").mkdir()
    code, out, err = run(capsys, "reproduce-all", "--resolution", "16", "--out", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith(f"io failure ({tmp_path / 'figure-13.csv'}): ")
    assert not (tmp_path / "manifest.json").exists()


def test_a_manifest_path_that_is_a_directory_fails_before_any_figure(tmp_path, capsys):
    (tmp_path / "manifest.json").mkdir()
    code, out, err = run(capsys, "reproduce-all", "--resolution", "8", "--out", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith(f"io failure ({tmp_path / 'manifest.json'}): ")
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_regions_writes_csv_and_json(tmp_path, capsys):
    base = tmp_path / "fig11"
    code, out, _ = run(
        capsys, "regions", "--figure", "11", "--mu", "0.2", "--resolution", "16",
        "--out", str(base),
    )
    assert code == 0
    with open(base.with_suffix(".csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "label"]
    assert len(rows) == 1 + 16 * 16
    labels = {r[2] for r in rows[1:]}
    assert labels <= {"Inadmissible", "ZeroRoots", "OneRoot", "TwoRoots", "DoubleRoot"}
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["figure"] == 11
    assert meta["parameters"]["mu"] == 0.2
    assert "polylines" in meta["curves"]
    assert meta["legend"][0] == "Inadmissible"
    raster = regions.figure_dataset(11, mu=0.2, resolution=16).raster
    assert base.with_suffix(".csv").read_bytes() == _reference_csv(raster).encode()


def _reference_csv(raster: regions.RegionRaster) -> str:
    """The per-cell encoder: two float formats per cell, row-major in y."""
    lines = ["x,y,label\n"]
    for j, yv in enumerate(raster.y_centers()):
        for i, xv in enumerate(raster.x_centers()):
            label = raster.legend[raster.labels[j][i]]
            lines.append(f"{format(float(xv), '.17g')},{format(float(yv), '.17g')},{label}\n")
    return "".join(lines)


@pytest.mark.parametrize("figure", regions.FIGURES)
def test_raster_csv_matches_per_cell_reference(figure):
    raster = regions.figure_dataset(figure, resolution=16).raster
    assert b"".join(cli._raster_csv_lines(raster)).decode() == _reference_csv(raster)


def test_raster_csv_rectangular_keeps_axes_apart():
    raster = regions.admissible_region_raster(resolution=(7, 5))
    assert raster.labels.shape == (5, 7)
    assert b"".join(cli._raster_csv_lines(raster)).decode() == _reference_csv(raster)


def _runs_apart(shape, n_labels=3, seed=7):
    """Seeded labels in which every cell differs from its left neighbour."""
    steps = np.random.default_rng(seed).integers(1, n_labels, shape)
    return np.cumsum(steps, axis=1) % n_labels


@pytest.mark.parametrize(
    "labels",
    [
        _runs_apart((9, 33)),                                   # every cell its own run
        np.random.default_rng(3).integers(0, 3, (8, 16)),       # runs of any length
        np.zeros((4, 6), int),                                  # one label everywhere
        np.tile([0, 2], (5, 6)),                                # alternating by column
        _runs_apart((5, 2)),                                    # nx = 2
        np.random.default_rng(5).integers(0, 3, (5, 7)),        # rectangular (7, 5)
    ],
)
def test_raster_csv_matches_per_cell_reference_on_label_runs(labels):
    # the encoder slices per-label pieces by label runs; these rasters put the
    # run boundaries everywhere, nowhere, and at both row ends
    labels = np.asarray(labels, np.int8)
    ny, nx = labels.shape
    raster = regions.RegionRaster(
        (-1.5, 2.0), (0.25, 3.0), (nx, ny), labels, ("A", "Bee", "Cccc"), "test"
    )
    assert b"".join(cli._raster_csv_lines(raster)).decode() == _reference_csv(raster)


def test_json_that_is_not_finite_names_its_keys_in_written_order():
    payload = {"z": np.full(6, math.nan), "a": {"l4": [1.0, -math.inf]}, "n": None, "k": 2}
    with pytest.raises(cli.NumericError) as info:
        cli._json_text(payload)
    assert str(info.value) == (
        "the result is not a finite double: a.l4[1] = -inf, z[0] = nan, z[1] = nan, "
        "z[2] = nan and 3 more"
    )
    # a NaN inside an (n, 2) polyline, whose rows the writer joins in one go
    points = np.ones((5, 2))
    points[3, 1] = math.nan
    with pytest.raises(cli.NumericError) as info:
        cli._json_text({"curves": {"polylines": {"p": points, "q": points[:2]}}})
    assert str(info.value) == "the result is not a finite double: curves.polylines.p[3][1] = nan"


def test_json_text_leaves_no_reference_cycle():
    # with the collector off, what only a collection can free is found by the next one
    payload = {"a": [0.5, {"b": np.ones((3, 2))}], "s": "é", "n": None}
    raised, found = [], []
    gc.collect()
    gc.disable()
    try:
        for value in (payload, {"x": math.inf}, {"x": object()}):
            try:
                cli._json_text(value)
                raised.append(None)
            except (NumericError, TypeError) as exc:
                raised.append(type(exc))
            found.append(gc.collect())
    finally:
        gc.enable()
    assert raised == [None, NumericError, TypeError] and found == [0, 0, 0]


def _json_dumps(payload) -> str:
    """The standard library's text for what `cli._json_text` writes."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=lambda a: a.tolist())


def test_json_text_matches_json_dumps_on_every_figure():
    for figure in regions.FIGURES:
        dataset = regions.figure_dataset(figure, resolution=16)
        payload = {
            "figure": dataset.figure,
            "parameters": dataset.parameters,
            "legend": list(dataset.raster.legend),
            "curves": dataset.curves,
        }
        assert cli._json_text(payload) == _json_dumps(payload), figure


# finite doubles, with the signed zero, subnormals, huge values and 17-digit values drawn often
_POLYLINE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.225073858507201e-308, 1e300, -1e300, 0.30000000000000004, 1 / 3, -2 / 3]
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(1, 3), st.data())
def test_json_polylines_through_the_row_template_match_json_dumps(n, k, data):
    values = data.draw(st.lists(_POLYLINE_FLOATS, min_size=n * k, max_size=n * k))
    points = np.array(values, dtype=float).reshape(n, k)
    payload = {"curves": {"polylines": {"p": points, "reversed": points[::-1]}}, "n": n}
    assert cli._json_text(payload) == _json_dumps(payload)


def test_json_arrays_that_are_not_float_polylines_take_the_general_path():
    # the row template's %r would print True, and float32 is no double: both stay general
    payload = {
        "ints": np.arange(6).reshape(3, 2),
        "bools": np.array([[True, False], [False, True]]),
        "singles": np.array([[0.1, 2.5]], dtype=np.float32),
        "row": np.array([0.1, -0.0, 1e300]),
        "columns": np.zeros((2, 0)),
        "empty": np.zeros((0, 2)),
    }
    assert cli._json_text(payload) == _json_dumps(payload)


# strings that need every kind of escape, and doubles and ints at their edges
_JSON_STRINGS = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\ta~ é\u2028\U0001f600') | st.characters())
_JSON_FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_JSON_LEAVES = st.one_of(
    _JSON_STRINGS, _JSON_FLOATS, st.integers() | st.sampled_from([2**63, -(2**64) - 1]),
    st.booleans(), st.none(),
    st.lists(_JSON_FLOATS, max_size=5).map(np.array),
    st.lists(st.tuples(_JSON_FLOATS, _JSON_FLOATS), max_size=4).map(
        lambda rows: np.array(rows, float).reshape(-1, 2)    # (0, 2) when empty
    ),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=8,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=75)
@given(st.dictionaries(_JSON_STRINGS, _JSON_VALUES, max_size=5))
def test_json_text_matches_json_dumps_on_json_shaped_payloads(payload):
    assert cli._json_text(payload) == _json_dumps(payload)


def test_regions_stdout_escapes_the_out_path_as_json_does(tmp_path, capsys):
    base = str(tmp_path / 'a "quoted" é')
    code, out, _ = run(capsys, "regions", "--figure", "5", "--resolution", "8", "--out", base)
    expected = {"figure": 5, "csv": base + ".csv", "json": base + ".json"}
    assert code == 0 and out == _json_dumps(expected) + "\n"


def test_figure_json_that_is_not_finite_exits_3_before_writing(tmp_path, monkeypatch, capsys):
    # the figure JSON is encoded as strictly as stdout, before any file opens
    real = regions.figure_dataset

    def with_nan(*args, **kwargs):
        dataset = real(*args, **kwargs)
        dataset.curves["critical_mu"] = math.nan
        return dataset

    monkeypatch.setattr(regions, "figure_dataset", with_nan)
    code, out, err = run(
        capsys, "regions", "--figure", "5", "--resolution", "8", "--out", str(tmp_path / "f")
    )
    assert (code, out) == (3, "") and "not a finite double: curves.critical_mu = nan" in err
    assert not list(tmp_path.iterdir())


def test_regions_io_failure_exits_three(capsys):
    code, _, err = run(
        capsys, "regions", "--figure", "5", "--resolution", "8",
        "--out", "/nonexistent-dir/f",
    )
    assert code == 3
    assert "/nonexistent-dir/f.csv" in err


@pytest.mark.parametrize("out", ["", ".csv", "sub/", ".", "sub/.."])
def test_regions_out_without_a_file_name_exits_2(out, tmp_path, monkeypatch, capsys):
    # each would name hidden files such as ".csv" and ".json", or "..csv" and "..json"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, stdout, err = run(capsys, "regions", "--figure", "5", "--resolution", "8", "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: --out {out!r} has no file name to derive .csv and .json from\n"
    assert list(tmp_path.rglob("*")) == [tmp_path / "sub"]


def test_integrate_csv_schema_and_conservation(capsys):
    code, out, _ = run(
        capsys, "integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
        "--state", "0.3,0.8,-0.8,0.3", "--t-end", "2", "--every", "0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,px,py,H"
    assert len(lines) == 6
    h = [float(line.split(",")[5]) for line in lines[1:]]
    assert max(abs(v - h[0]) for v in h) < 1e-10
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_integrate_rejects_bad_state(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
              "--state", "1,2,3", "--t-end", "1"])
    assert exc.value.code == 2
    assert "--state" in capsys.readouterr().err


def test_integrate_out_writes_the_stdout_bytes(tmp_path, capsys):
    argv = ["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
            "--state", "0.3,0.8,-0.8,0.3", "--t-end", "1", "--every", "0.25"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "trajectory.csv"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and path.read_bytes() == stdout.encode()
    assert json.loads(out) == {"out": str(path), "samples": 5, "reason": "completed"}


def test_integrate_every_ends_with_a_sample_at_t_end(capsys):
    # 0.3 does not divide 1: the multiples of --every stop at 3 * 0.3, and
    # --t-end itself is the last sample
    code, out, _ = run(
        capsys, "integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
        "--state", "0.3,0.8,-0.8,0.3", "--t-end", "1", "--every", "0.3",
    )
    assert code == 0
    times = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert times == [0.0, 0.3, 2 * 0.3, 3 * 0.3, 1.0]


@pytest.mark.parametrize(
    "t_end, every, times",
    [
        # 3 * 0.1 = 0.30000000000000004 lies past --t-end: solve_ivp refused it
        ("0.3", "0.1", [0.0, 0.1, 0.2, 0.3]),
        ("0.6", "0.2", [0.0, 0.2, 0.4, 0.6]),
        ("0.7", "0.1", [0.0, 0.1, 0.2, 0.1 * 3, 0.4, 0.5, 0.1 * 6, 0.7]),
        ("0.42", "0.14", [0.0, 0.14, 0.28, 0.42]),
        # 3 * 0.7 = 2.0999999999999996 falls an ulp short of --t-end
        ("2.1", "0.7", [0.0, 0.7, 1.4, 2.1]),
    ],
)
def test_integrate_every_ends_at_t_end_where_a_multiple_rounds_past_it(t_end, every, times, capsys):
    code, out, err = run(
        capsys, "integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1",
        "--state", "0.5,0.5,0,0", "--t-end", t_end, "--every", every,
    )
    assert (code, err) == (0, "")
    assert [float(line.split(",")[0]) for line in out.splitlines()[1:]] == times


def test_point_of_the_wrong_length_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--mu", "0.2", "--beta1", "1", "--beta2", "1", "--point", "0.5,0.5,0"])
    assert exc.value.code == 2
    assert "expected x,y but got '0.5,0.5,0'" in capsys.readouterr().err


def _run_capped(cwd, *argv: str) -> subprocess.CompletedProcess:
    """`rc3bp *argv` in a fresh interpreter whose address space is capped at
    2 GiB, so that an unbounded allocation fails at once instead of growing."""
    code = "\n".join(
        [
            "import resource, sys",
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)",
            "cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(hard, 2 << 30)",
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))",
            "from rc3bp.cli import main",
            "sys.exit(main(sys.argv[1:]))",
        ]
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        # t_end / every = 1e299 is finite, but no list of that many samples fits
        (["integrate", "--mu", "0.2", "--beta1", "1", "--beta2", "1", "--state", "0.5,0.5,0,0",
          "--t-end", "0.1", "--every", "1e-300"],
         "--t-end / --every = 0.1 / 1e-300 asks for more than MAX_CSV_ROWS = 16777216 samples"),
        # 1e10 cells: a 74.5 GiB float raster
        (["regions", "--figure", "5", "--resolution", "100000", "--out", "fig"],
         "resolution 100000 gives 10000000000 cells, more than MAX_CSV_ROWS = 16777216"),
        (["reproduce-all", "--resolution", "100000", "--out", "."],
         "resolution 100000 gives 10000000000 cells, more than MAX_CSV_ROWS = 16777216"),
        (["regions", "--figure", "11", "--resolution", "4097", "--out", "fig"],
         "resolution 4097 gives 16785409 cells, more than MAX_CSV_ROWS = 16777216"),
    ],
)
def test_outputs_past_the_row_bound_exit_two_before_allocating(argv, message, tmp_path):
    proc = _run_capped(tmp_path, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "resolution, message",
    [
        ("1", "resolution must be >= 2 per axis, got 1"),
        ("100000", "resolution 100000 gives 10000000000 cells, more than MAX_CSV_ROWS = 16777216"),
    ],
)
def test_reproduce_all_with_a_bad_resolution_creates_no_directory(
    resolution, message, tmp_path, capsys
):
    out_dir = tmp_path / "figs"
    code, out, err = run(capsys, "reproduce-all", "--resolution", resolution, "--out", str(out_dir))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_dir.exists()


def test_reproduce_all_manifest_complete_and_checksummed(tmp_path, capsys):
    out_dir = tmp_path / "data"
    code, out, _ = run(
        capsys, "reproduce-all", "--out", str(out_dir), "--resolution", "12"
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    emitted = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    listed = [e["file"] for e in manifest["files"]]
    # every emitted file appears in exactly one manifest entry
    assert sorted(listed) == sorted(emitted)
    assert len(set(listed)) == len(listed)
    assert len(listed) >= 26
    for entry in manifest["files"]:
        digest = hashlib.sha256((out_dir / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
        assert entry["subject"].startswith("figure-")
        assert "parameters" in entry


def test_reproduce_all_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "reproduce-all", "--out", str(a), "--resolution", "12")[0] == 0
    assert run(capsys, "reproduce-all", "--out", str(b), "--resolution", "12")[0] == 0
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


def test_regions_writes_the_files_of_reproduce_all(tmp_path, capsys):
    # one writer: `regions` with each figure's default mu writes byte for byte the two files
    # that `reproduce-all` writes, and its manifest holds their digests
    code = run(capsys, "reproduce-all", "--resolution", "16", "--out", str(tmp_path / "all"))[0]
    assert code == 0
    written = _tree(tmp_path / "all")
    manifest = json.loads(written.pop("manifest.json"))
    (tmp_path / "one").mkdir()
    for figure in regions.FIGURES:
        base = str(tmp_path / "one" / f"figure-{figure:02d}")
        code, out, _ = run(
            capsys, "regions", "--figure", str(figure), "--resolution", "16", "--out", base
        )
        assert code == 0 and json.loads(out) == {
            "figure": figure, "csv": base + ".csv", "json": base + ".json"
        }
    one = _tree(tmp_path / "one")
    assert len(one) == 26 and one == written
    digests = {e["file"]: e["sha256"] for e in manifest["files"]}
    assert {f: hashlib.sha256(data).hexdigest() for f, data in one.items()} == digests
