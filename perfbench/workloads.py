"""Seeded inputs and one operation per workload.

Every input is a pure function of (seed, op index): `random.Random` is
seeded with a string, which hashes the same way in every process, so
the same seed gives the same inputs whatever the run length. The op
functions take only these generated inputs.

The rc3bp package is imported inside the runner factories, not at the
top, so that a `cli_oneshot` worker (whose ops are separate processes)
does not pay for importing it.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import checks

WORKLOADS = ("figures", "collinear_bulk", "collinear_sweep", "orbits", "cli_oneshot")


def rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{index}")


def log_uniform(r: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** r.uniform(math.log10(lo), math.log10(hi))


# ---------------------------------------------------------------------------
# collinear_sweep inputs
#
# Ops cycle through a 20-slot pattern: 18 bulk draws, one edge draw and
# one extreme draw, so the shares are exactly 90% / 5% / 5% on every
# whole cycle. Bulk draws cycle through the seven S-regions; edge draws
# cycle through the concave (region, interval) pairs that have a band edge; extreme draws
# cycle through the regions again. Bulk keeps the common case in the
# median, the two tails keep the known defects (band-edge double roots,
# the fixed scan window at |beta| >> 1) in p99 and in the failure count.
#
# collinear_bulk is the bulk draws alone, one per op, cycling through the
# seven regions. It is the collinear workload on which no op fails at
# the seed commit, so it can be gated; collinear_sweep keeps the tails
# and so fails about 6% of its ops until the collinear defects are fixed.

EDGE_SLOT, EXTREME_SLOT, CYCLE = 7, 17, 20

# Concave pairs whose band edge lies inside their region. On S_{4,1}/I3
# and S_{4,2}/I2 the tangency curve stays on the far side of beta1 = 1
# (the I3 edge is above 1, the I2 edge below it), so those two pairs
# always have zero roots and no edge to sample; bulk draws cover them.
EDGE_PAIRS = ((checks.S2, "I1"), (checks.S2, "I2"), (checks.S41, "I2"), (checks.S42, "I3"))


def query_kind(index: int) -> str:
    slot = index % CYCLE
    return "edge" if slot == EDGE_SLOT else "extreme" if slot == EXTREME_SLOT else "bulk"


def _bulk_betas(r: random.Random, region: str, mag) -> tuple[float, float]:
    """(beta1, beta2) strictly inside `region`; `mag` draws a positive size."""
    if region == checks.S11:
        return 1.0 - r.random(), mag()
    if region == checks.S12:
        b1 = 1.0 + mag()
        return b1, r.uniform(0.02, 0.98) * b1 / (b1 - 1.0)
    if region == checks.S2:
        b1 = -mag()
        return b1, b1 / (b1 - 1.0) + mag()
    if region == checks.S41:
        b1 = r.uniform(0.02, 0.98)
        return b1, r.uniform(0.02, 0.98) * b1 / (b1 - 1.0)
    if region == checks.S42:
        return 1.0 + mag(), -mag()
    if region == checks.S5:
        return 0.0, mag()
    return mag(), 0.0


def _edge_betas(r: random.Random, pair, mu: float, collinear) -> tuple[float, float] | None:
    """A point at a relative offset of 1e-13..1e-6 from the pair's band edge."""
    region, interval = pair
    offset = math.copysign(log_uniform(r, 1e-13, 1e-6), r.random() - 0.5)
    if region == checks.S2:
        b1 = -log_uniform(r, 0.01, 10.0) if interval == "I1" else (
            -r.uniform(0.05, 0.95) * 4.0 * mu**3 / (27.0 * (1.0 - mu)))
        edge = collinear.band_edge_i1(mu, b1) if interval == "I1" else collinear.band_edge_i2_s2(mu, b1)
        return None if edge is None else (b1, edge * (1.0 + offset))
    b2 = -log_uniform(r, 0.01, 10.0) if interval == "I3" else (
        -r.uniform(0.05, 0.95) * 4.0 * (1.0 - mu) ** 3 / (27.0 * mu))
    edge = collinear.band_edge_i3(mu, b2) if interval == "I3" else collinear.band_edge_i2_r4(mu, b2)
    return None if edge is None else (edge * (1.0 + offset), b2)


def collinear_query(seed: int, index: int, collinear, workload: str = "collinear_sweep") -> dict:
    """One admissible (mu, beta1, beta2) draw; `collinear` locates band edges."""
    r = rng(seed, workload, index)
    kind = query_kind(index) if workload == "collinear_sweep" else "bulk"
    cycle = index // CYCLE
    if kind == "bulk":
        region = checks.REGIONS[index % 7]
        mu = r.uniform(0.005, 0.995)
        b1, b2 = _bulk_betas(r, region, lambda: log_uniform(r, 0.01, 10.0))
        return {"kind": kind, "target": region, "mu": mu, "beta1": b1, "beta2": b2}
    if kind == "extreme":
        region = checks.REGIONS[cycle % 7]
        mu = log_uniform(r, 1e-15, 1e-2)
        b1, b2 = _bulk_betas(r, region, lambda: log_uniform(r, 1e3, 1e300))
        return {"kind": kind, "target": region, "mu": mu, "beta1": b1, "beta2": b2}
    pair = EDGE_PAIRS[cycle % len(EDGE_PAIRS)]
    for _ in range(1000):
        mu = r.uniform(0.01, 0.99)
        betas = _edge_betas(r, pair, mu, collinear)
        if betas is not None and checks.region_of(*betas) == pair[0]:
            return {"kind": kind, "target": "/".join(pair), "mu": mu, "beta1": betas[0], "beta2": betas[1]}
    raise RuntimeError(f"no edge draw for {pair} in 1000 tries (seed {seed}, op {index})")


def collinear_runner(workload: str = "collinear_sweep"):
    """(make_query, op, oracle): `workload`'s inputs, the `equilibria
    --kind collinear` query, and the expected root count per interval."""
    import warnings

    from rc3bp import collinear
    from rc3bp.collinear import Interval
    from rc3bp.errors import Rc3bpError
    from rc3bp.params import SystemParams

    # |beta| near 1e300 overflows inside the scan; the answer is still checked
    warnings.simplefilter("ignore", RuntimeWarning)

    def op(q: dict) -> dict:
        p = SystemParams(q["mu"], q["beta1"], q["beta2"])
        try:
            region = collinear.classify_region(p)
            predicted = {iv.value: collinear.predicted_root_count(p, iv).value for iv in Interval}
            roots = collinear.find_collinear(p)
        except Rc3bpError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # a raw exception is a failed op, not a harness crash
            return {"error": f"raw {type(exc).__name__}: {exc}"}
        return {
            "region": region.value,
            "predicted": predicted,
            "roots": [(r.x, r.interval.value, r.multiplicity) for r in roots],
        }

    def oracle(q: dict) -> dict:
        p = SystemParams(q["mu"], q["beta1"], q["beta2"])
        try:
            return {iv.value: collinear.resolved_root_count(p, iv).count for iv in Interval}
        except Exception as exc:  # the oracle's own defects count against the op
            return {"error": f"{type(exc).__name__}: {exc}"}

    def make_query(seed: int, index: int) -> dict:
        return collinear_query(seed, index, collinear, workload)

    return make_query, op, oracle


# ---------------------------------------------------------------------------
# orbits inputs
#
# Ops cycle through thirteen start kinds, in four cost groups: starts
# 1e-3 off L4/L5 (slots 0-2, two near-classical systems and one charged)
# and one start at rest next to primary 2 that ends by close approach
# (slot 3) are the cheapest; five wide orbits about both primaries
# (slots 4-8) come next, then one more wide orbit through dense output
# (slot 9); three orbits about primary 1 (slots 10-12) take the most
# steps. Slots 9 and 10 pass sample_times (the dense-output path that
# `integrate --every` uses); the others return the natural steps. The
# seed moves each start only a little within its kind, and the median
# op falls in the middle of the five natural wide orbits, not at the
# edge between two cost groups, so it hardly depends on the seed or on
# where a worker's share of the run ends.

T_END = 50.0
SAMPLE_STEP = 0.1
COLLISION_RADIUS = 1e-6
ORBIT_KINDS = (
    "l4", "l5", "l4-charged", "collision",
    "outer", "outer", "outer", "outer", "outer", "outer",
    "primary1", "primary1", "primary1",
)
DENSE_SLOTS = (9, 10)


def orbit_start(seed: int, index: int, params, triangular_points) -> dict:
    """One start; `params` builds SystemParams, `triangular_points` locates L4/L5."""
    r = rng(seed, "orbits", index)
    slot = index % len(ORBIT_KINDS)
    kind = ORBIT_KINDS[slot]
    expect = "completed"
    if kind in ("l4", "l5", "l4-charged"):
        mu = r.uniform(0.001, 0.03)
        lo, hi = (0.5, 1.5) if kind == "l4-charged" else (0.95, 1.05)
        b1, b2 = r.uniform(lo, hi), r.uniform(lo, hi)
        pair = triangular_points(params(mu, b1, b2))
        x, y = pair.l4 if kind != "l5" else pair.l5
        dx, dy = r.uniform(-1e-3, 1e-3), r.uniform(-1e-3, 1e-3)
        state = (x + dx, y + dy, -y, x)
    elif kind == "primary1":
        mu, b1, b2 = r.uniform(0.09, 0.11), 1.0, 1.0
        radius = r.uniform(0.19, 0.21)
        state = (-mu + radius, 0.0, 0.0, math.sqrt(b1 * (1.0 - mu) / radius) - mu)
    elif kind == "outer":
        mu, b1, b2 = r.uniform(0.15, 0.25), r.uniform(0.9, 1.1), r.uniform(0.9, 1.1)
        radius = r.uniform(2.9, 3.1)
        state = (radius, 0.0, 0.0, math.sqrt((b1 * (1.0 - mu) + b2 * mu) / radius))
    else:
        mu, b1, b2 = r.uniform(0.1, 0.3), 1.0, r.uniform(3.0, 10.0)
        x = 1.0 - mu + r.uniform(0.005, 0.015)
        state = (x, 0.0, 0.0, x)          # at rest in the rotating frame
        expect = "collision-approach"
    sample_times = None
    if slot in DENSE_SLOTS:
        n = int(round(T_END / SAMPLE_STEP))
        sample_times = [i * SAMPLE_STEP for i in range(n + 1)]
    return {
        "kind": kind, "mu": mu, "beta1": b1, "beta2": b2, "state": state, "t_end": T_END,
        "sample_times": sample_times, "collision_radius": COLLISION_RADIUS, "expect": expect,
    }


def orbits_runner():
    """(make_start, op): one `dynamics.integrate` at tol 1e-12 per op."""
    from rc3bp import dynamics
    from rc3bp.params import SystemParams
    from rc3bp.triangular import triangular_points

    def make_start(seed: int, index: int) -> dict:
        return orbit_start(seed, index, SystemParams, triangular_points)

    def op(s: dict):
        return dynamics.integrate(
            SystemParams(s["mu"], s["beta1"], s["beta2"]),
            dynamics.PhaseState(*s["state"]),
            s["t_end"],
            tol=1e-12,
            sample_times=s["sample_times"],
            collision_radius=s["collision_radius"],
        )

    return make_start, op


# ---------------------------------------------------------------------------
# cli_oneshot inputs
#
# One op is one fresh `python -m rc3bp.cli` process. Ops cycle through
# eight subcommands in a fixed order, so every run has the same mix; the
# seed picks one of four argument sets for each. Stdout must equal the
# reference captured for that argument set (data/cli_reference.json).

def _params_args(mu, b1, b2) -> list[str]:
    return [f"--mu={mu}", f"--beta1={b1}", f"--beta2={b2}"]


CLI_CASES = {
    "validate": [
        ["validate", *_params_args(m, a, b)]
        for m, a, b in ((0.2, 0.5, 1.5), (0.01, 1.0, 1.0), (0.3, -2.0, 3.0), (0.45, 2.0, -1.0))
    ],
    "two-body": [
        ["two-body", "--m1=1", "--m2=0.5", "--q1=0.2", "--q2=0.1"],
        ["two-body", "--m1=2", "--m2=1", "--q1=-1", "--q2=1"],
        ["two-body", "--m1=1", "--m2=1", "--q1=2", "--q2=2", "--kstar=3", "--l=0.5"],
        ["two-body", "--m1=3", "--m2=0.1", "--q1=1", "--q2=1", "--G=0.5", "--k=2"],
    ],
    "equilibria-triangular": [
        ["equilibria", *_params_args(m, a, b), "--kind=triangular"]
        for m, a, b in ((0.2, 1.0, 1.0), (0.1, 0.8, 1.2), (0.3, 1.5, 1.2), (0.01, 1.0, 0.9))
    ],
    "equilibria-collinear": [
        ["equilibria", *_params_args(m, a, b), "--kind=collinear"]
        for m, a, b in ((0.2, 1.0, 1.0), (0.2, -0.5, 2.0), (0.1, 0.5, -0.3), (0.3, 2.0, -1.0))
    ],
    "stability": [
        ["stability", *_params_args(0.01, 1.0, 1.0)],
        ["stability", *_params_args(0.2, 1.0, 1.0)],
        ["stability", *_params_args(0.03, 0.9, 1.1)],
        ["stability", *_params_args(0.2, 1.0, 1.0), "--point=0.5,0.5"],
    ],
    "critical-roots": [
        ["critical-roots", f"--mu={m}", "--series"] for m in (0.01, 0.1, 0.25, 0.5)
    ],
    "integrate": [
        ["integrate", *_params_args(m, 1.0, 1.0), f"--state={s}", "--t-end=2", "--every=0.25"]
        for m, s in ((0.01, "0.5,0.866,-0.866,0.5"), (0.1, "0.1,0,0,1.2"),
                     (0.2, "3,0,0,0.57"), (0.3, "-0.1,0.2,-0.2,0.3"))
    ],
    "regions": [
        ["regions", "--figure=15", f"--resolution={n}", f"--out=.bench_work/cli/figure-15-{n}"]
        for n in (16, 24, 32, 48)
    ],
}
CLI_SUBCOMMANDS = tuple(CLI_CASES)

# Length of each workload's input cycle; workers run whole cycles.
CYCLE_LENGTH = {
    "figures": 1,
    "collinear_bulk": len(checks.REGIONS),
    "collinear_sweep": CYCLE,
    "orbits": len(ORBIT_KINDS),
    "cli_oneshot": len(CLI_SUBCOMMANDS),
}


def cli_case(seed: int, index: int) -> tuple[str, list[str]]:
    name = CLI_SUBCOMMANDS[index % len(CLI_SUBCOMMANDS)]
    argv = rng(seed, "cli_oneshot", index).choice(CLI_CASES[name])
    return name, argv


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("RC3BP_THREADS", None)
    return env


def run_cli(root: str, argv: list[str]) -> tuple[int, str]:
    os.makedirs(os.path.join(root, ".bench_work", "cli"), exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "rc3bp.cli", *argv],
        cwd=root, env=cli_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, check=False,
    )
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------------------
# figures


def figures_runner(out_dir: str):
    """op(): `cli.reproduce_all` at the default resolution into out_dir."""
    from rc3bp import cli

    def op():
        return cli.reproduce_all(out_dir)

    return op


def output_digests(out_dir: str) -> tuple[dict, int]:
    """file -> SHA-256 for every file in out_dir, and their total size."""
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        digests[name] = checks.sha256_file(path)
        size += os.path.getsize(path)
    return digests, size
