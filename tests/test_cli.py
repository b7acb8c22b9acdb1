"""CLI dispatch: output schemas, file formats, exit codes, manifest."""

import csv
import hashlib
import json
import math

import pytest

from rc3bp import cli, regions
from rc3bp.cli import main


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
    assert "".join(cli._raster_csv_lines(raster)) == _reference_csv(raster)


def test_raster_csv_rectangular_keeps_axes_apart():
    raster = regions.admissible_region_raster(resolution=(7, 5))
    assert raster.labels.shape == (5, 7)
    assert "".join(cli._raster_csv_lines(raster)) == _reference_csv(raster)


def test_regions_io_failure_exits_three(capsys):
    code, _, err = run(
        capsys, "regions", "--figure", "5", "--resolution", "8",
        "--out", "/nonexistent-dir/f",
    )
    assert code == 3
    assert "/nonexistent-dir/f.csv" in err


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
