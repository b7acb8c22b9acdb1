"""Output checkers for the benchmark workloads.

Each checker takes plain data (numbers, strings, bytes, arrays) and
returns a list of problems; an empty list means the output passed. None
of them imports the rc3bp package: the formulas they need (region
inequalities, the axis function F, the Hamiltonian) are written out
again here from the paper, so a defect in the package cannot hide in a
shared helper.
"""

from __future__ import annotations

import hashlib
import math

# Region labels as the package prints them (BetaRegion values).
S11, S12, S2, S41, S42, S5, S6 = "S_{1,1}", "S_{1,2}", "S_2", "S_{4,1}", "S_{4,2}", "S_5", "S_6"
REGIONS = (S11, S12, S2, S41, S42, S5, S6)
INTERVALS = ("I1", "I2", "I3")

# (region, interval) pairs whose root count is 0, 2 or one double root.
CONCAVE_PAIRS = (
    (S2, "I1"), (S2, "I2"), (S41, "I2"), (S41, "I3"), (S42, "I2"), (S42, "I3"),
)

# |H - H0| ceiling on completed integrations at tol 1e-12.
ENERGY_TOL = 1e-9


def region_of(beta1: float, beta2: float) -> str | None:
    """The S-region of an admissible (beta1, beta2); None if inadmissible."""
    if (beta1 - 1.0) * (beta2 - 1.0) >= 1.0 or (beta1 == 0.0 and beta2 == 0.0):
        return None
    if beta1 == 0.0:
        return S5
    if beta2 == 0.0:
        return S6
    if beta1 < 0.0:
        return S2
    if beta2 < 0.0:
        return S41 if beta1 < 1.0 else S42
    return S11 if beta1 <= 1.0 else S12


def axis_f(mu: float, beta1: float, beta2: float, x: float) -> tuple[float, float]:
    """F(x) from its absolute-value definition, and the sum of its term sizes."""
    r1, r2 = abs(x + mu), abs(x + mu - 1.0)
    t1 = beta1 * (1.0 - mu) * (x + mu) / r1**3 if beta1 != 0.0 else 0.0
    t2 = beta2 * mu * (x + mu - 1.0) / r2**3 if beta2 != 0.0 else 0.0
    return x - t1 - t2, abs(x) + abs(t1) + abs(t2)


def interval_of(mu: float, x: float) -> str | None:
    if x < -mu:
        return "I1"
    if -mu < x < 1.0 - mu:
        return "I2"
    if x > 1.0 - mu:
        return "I3"
    return None


def check_collinear(query: dict, answer: dict, expected_counts: dict) -> list[str]:
    """Check one collinear query.

    query: {"mu", "beta1", "beta2"}. answer: {"region", "roots": [(x,
    interval, multiplicity)]} or {"error": "<type>: <message>"}.
    expected_counts: interval -> resolved root count (a double root
    counts as one), or {"error": ...} when the oracle itself failed.
    """
    mu, b1, b2 = query["mu"], query["beta1"], query["beta2"]
    if "error" in expected_counts:
        return [f"oracle failed: {expected_counts['error']}"]
    if "error" in answer:
        return [f"no answer where {expected_counts} roots are expected: {answer['error']}"]
    problems = []
    own_region = region_of(b1, b2)
    if answer["region"] != own_region:
        problems.append(f"region {answer['region']!r}, expected {own_region!r}")
    found = {iv: 0 for iv in INTERVALS}
    for x, iv, mult in answer["roots"]:
        found[iv] = found.get(iv, 0) + 1
        if interval_of(mu, x) != iv:
            problems.append(f"root {x!r} reported in {iv} lies in {interval_of(mu, x)}")
            continue
        f, scale = axis_f(mu, b1, b2, x)
        # a tangent double root is only located to sqrt(eps) in x
        tol = (1e-9 if mult == 1 else 1e-6) * max(1.0, scale)
        if not abs(f) <= tol:
            problems.append(f"|F({x!r})| = {abs(f):.3g} exceeds {tol:.3g}")
    for iv in INTERVALS:
        if found[iv] != expected_counts[iv]:
            problems.append(f"{iv}: {found[iv]} roots, expected {expected_counts[iv]}")
    return problems


def hamiltonian(mu: float, beta1: float, beta2: float, states):
    """H = (px^2 + py^2)/2 + y px - x py - V along rows (x, y, px, py)."""
    import numpy as np  # imported here so that cli_oneshot workers never load numpy

    states = np.asarray(states, dtype=float)
    x, y, px, py = states[:, 0], states[:, 1], states[:, 2], states[:, 3]
    rho1 = np.hypot(x + mu, y)
    rho2 = np.hypot(x - 1.0 + mu, y)
    v = beta1 * (1.0 - mu) / rho1 + beta2 * mu / rho2
    return 0.5 * (px * px + py * py) + y * px - x * py - v


def check_orbit(start: dict, t, states, reason: str) -> list[str]:
    """Energy conservation on completed runs; close approach on the others.

    start: {"mu", "beta1", "beta2", "state", "t_end", "collision_radius",
    "expect"} with expect "completed" or "collision-approach".
    """
    mu, b1, b2 = start["mu"], start["beta1"], start["beta2"]
    if reason != start["expect"]:
        return [f"ended by {reason!r}, expected {start['expect']!r}"]
    if reason == "completed":
        if not math.isclose(float(t[-1]), start["t_end"], rel_tol=1e-12):
            return [f"completed run ends at t = {t[-1]!r}, not {start['t_end']!r}"]
        h0 = hamiltonian(mu, b1, b2, [start["state"]])[0]
        drift = float(abs(hamiltonian(mu, b1, b2, states) - h0).max())
        if not drift <= ENERGY_TOL:
            return [f"energy drift {drift:.3g} exceeds {ENERGY_TOL}"]
        return []
    x, y = states[-1, 0], states[-1, 1]
    closest = min(math.hypot(x + mu, y), math.hypot(x - 1.0 + mu, y))
    if not closest <= start["collision_radius"] * (1.0 + 1e-6):
        return [f"close-approach run ends {closest:.3g} from a primary"]
    return []


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_figures(digests: dict, reference_csv: dict, first_op: dict | None) -> list[str]:
    """Check one reproduce_all output directory, given as file -> SHA-256.

    The label-raster CSVs must match the digests recorded at the seed
    commit. JSON files and the manifest may change only with the
    polylines, so they are compared with the first op of the same run.
    """
    problems = []
    expected_files = set(reference_csv) | {f[:-4] + ".json" for f in reference_csv} | {"manifest.json"}
    if set(digests) != expected_files:
        missing = sorted(expected_files - set(digests))
        extra = sorted(set(digests) - expected_files)
        problems.append(f"file set differs: missing {missing}, extra {extra}")
    for name, ref in sorted(reference_csv.items()):
        if digests.get(name) != ref:
            problems.append(f"{name}: sha256 {digests.get(name)} != reference {ref}")
    if first_op is not None:
        for name in sorted(digests):
            if not name.endswith(".csv") and digests[name] != first_op.get(name):
                problems.append(f"{name}: bytes differ from the run's first op")
    return problems


def check_cli(returncode: int, stdout: str, reference: str) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    if stdout != reference:
        return ["stdout differs from the reference"]
    return []
