"""Self-test of the benchmark's checkers.

    python3 perfbench/selftest.py

Run from the checkout root. For each checker it takes one real answer
from the package, shows that the checker passes it, then injects one
wrong answer (a wrong root count, a wrong CSV digest, a drifted energy,
a changed CLI stdout) and shows that the checker flags it. Exits 1 if
any case goes the wrong way.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import load_reference  # noqa: E402


def collinear_cases():
    make_query, run, oracle = workloads.collinear_runner()
    q = {"kind": "bulk", "target": checks.S11, "mu": 0.3, "beta1": 0.8, "beta2": 1.2}
    answer, expected = run(q), oracle(q)
    yield "collinear: real answer", checks.check_collinear(q, answer, expected), False
    wrong = dict(answer, roots=answer["roots"][1:])
    yield "collinear: one root dropped", checks.check_collinear(q, wrong, expected), True
    wrong = dict(answer, roots=answer["roots"] + [answer["roots"][0]])
    yield "collinear: one root doubled", checks.check_collinear(q, wrong, expected), True


def figures_cases():
    reference = load_reference("figures_csv_sha256.json")
    digests = dict(reference)
    for name in reference:
        digests[name[:-4] + ".json"] = "0" * 64
    digests["manifest.json"] = "1" * 64
    yield "figures: reference digests", checks.check_figures(digests, reference, dict(digests)), False
    name = sorted(reference)[0]
    wrong = dict(digests, **{name: "f" * 64})
    yield f"figures: wrong digest for {name}", checks.check_figures(wrong, reference, None), True
    wrong = dict(digests, **{"manifest.json": "2" * 64})
    yield "figures: manifest differs from first op", checks.check_figures(wrong, reference, digests), True


def orbit_cases():
    make_start, run = workloads.orbits_runner()
    # a wide orbit, not an L4 one: H is stationary at an equilibrium, so a
    # state error there would barely change it
    s = dict(make_start(0, workloads.ORBIT_KINDS.index("outer")), t_end=5.0, sample_times=None)
    traj = run(s)
    yield "orbits: real wide orbit", checks.check_orbit(s, traj.t, traj.states, traj.reason), False
    drifted = traj.states.copy()
    drifted[-1, 2] += 1e-6
    yield "orbits: momentum drifted by 1e-6", checks.check_orbit(s, traj.t, drifted, traj.reason), True
    yield "orbits: unexpected close approach", checks.check_orbit(s, traj.t, traj.states, "collision-approach"), True


def cli_cases():
    reference = load_reference("cli_reference.json")
    key, out = sorted(reference.items())[0]
    yield "cli: reference stdout", checks.check_cli(0, out, out), False
    yield "cli: one digit changed", checks.check_cli(0, out.replace("1", "2", 1), out), True
    yield "cli: nonzero exit", checks.check_cli(2, out, out), True


def main() -> int:
    bad = 0
    for cases in (collinear_cases, figures_cases, orbit_cases, cli_cases):
        for label, problems, should_flag in cases():
            ok = bool(problems) == should_flag
            bad += not ok
            verdict = "flagged" if problems else "passed"
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
