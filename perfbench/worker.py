"""One benchmark process. run.py starts it; it is not meant to be run by hand.

    worker.py e2e WORKLOAD SEED BUDGET_S FIRST_INDEX STRIDE
        Runs op FIRST_INDEX, prints "FIRST" (run.py times set-up up to that
        line), then runs ops FIRST_INDEX + STRIDE, + 2 STRIDE, ... for
        BUDGET_S seconds, rounded up to whole input cycles, and prints one
        JSON summary.
    worker.py trace WORKLOAD SEED SPANS_PATH
        The traced run: every layer on its home workload, printed as JSON.
    worker.py import-probe
        Import times of numpy, then scipy, then the package's own modules.
    worker.py import-cold
        Time to import rc3bp.cli alone, as a CLI cold start pays it.

The working directory is the checkout root, with src/ on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import checks
import workloads
from tracing import Tracer, self_times, union_length

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"


def load_reference(name: str) -> dict:
    with open(os.path.join(HERE, "data", name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one checked op per workload: op(index) -> (seconds, problems, extra)


def figures_op(tag: str):
    out_dir = os.path.join(WORK, f"figures-{tag}")
    run = workloads.figures_runner(out_dir)
    reference = load_reference("figures_csv_sha256.json")
    first: dict = {}

    def op(index: int):
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        start = time.perf_counter()
        run()
        seconds = time.perf_counter() - start
        digests, size = workloads.output_digests(out_dir)
        problems = checks.check_figures(digests, reference, first or None)
        if not first:
            first.update(digests)
        json_digests = {k: v for k, v in digests.items() if not k.endswith(".csv")}
        return seconds, problems, {"bytes": size, "json_digests": json_digests}

    return op


def collinear_op(workload: str, seed: int):
    make_query, run, oracle = workloads.collinear_runner(workload)

    def op(index: int):
        q = make_query(seed, index)
        start = time.perf_counter()
        answer = run(q)
        seconds = time.perf_counter() - start
        return seconds, checks.check_collinear(q, answer, oracle(q)), {"kind": q["kind"]}

    return op


def orbits_op(seed: int):
    make_start, run = workloads.orbits_runner()

    def op(index: int):
        s = make_start(seed, index)
        start = time.perf_counter()
        traj = run(s)
        seconds = time.perf_counter() - start
        problems = checks.check_orbit(s, traj.t, traj.states, traj.reason)
        return seconds, problems, {"kind": s["kind"], "sim_time": float(traj.t[-1])}

    return op


def cli_op(seed: int):
    reference = load_reference("cli_reference.json")
    root = os.getcwd()

    def op(index: int):
        name, argv = workloads.cli_case(seed, index)
        start = time.perf_counter()
        code, out = workloads.run_cli(root, argv)
        seconds = time.perf_counter() - start
        return seconds, checks.check_cli(code, out, reference[workloads.cli_key(argv)]), {"kind": name}

    return op


def e2e(workload: str, seed: int, budget: float, first_index: int, stride: int) -> dict:
    os.environ.pop("RC3BP_THREADS", None)
    if workload == "figures":
        op = figures_op(str(first_index))
    elif workload.startswith("collinear"):
        op = collinear_op(workload, seed)
    elif workload == "orbits":
        op = orbits_op(seed)
    else:
        op = cli_op(seed)
    results = [op(first_index)]
    print("FIRST", flush=True)
    deadline = time.perf_counter() + budget
    # Whole cycles keep every run's mix of inputs exactly as designed (the
    # stride is coprime with each cycle length, so a cycle of steady ops
    # visits every input kind once); a figures op, which outlasts the
    # budget, still runs once.
    cycle = workloads.CYCLE_LENGTH[workload]
    index = first_index + stride
    while time.perf_counter() < deadline or (len(results) - 1) % cycle or len(results) == 1:
        results.append(op(index))
        index += stride
    if workload == "figures":
        shutil.rmtree(os.path.join(WORK, f"figures-{first_index}"), ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    return {
        "latencies": [r[0] for r in results[1:]],
        "failed": sum(1 for r in results if r[1]),
        "attempted": len(results),
        "problems": [p for r in results for p in r[1]][:5],
        "extra": [r[2] for r in results[1:]],
        "first_extra": results[0][2],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }


# ---------------------------------------------------------------------------
# the traced run
#
# Each pass runs one workload's inputs untraced, then the same inputs
# with the layer's public functions wrapped, and returns its per-layer
# metrics, its tracer and its (failed, attempted) counts. The difference
# between the two walls is the tracing overhead. The collinear pass runs
# collinear_sweep's inputs when that workload is named, collinear_bulk's
# otherwise.

COLLINEAR_PASS_OPS = 1000
ORBIT_PASS_OPS = 26
CLI_PASS_REPEATS = 3


def _durations(spans, prefix: str) -> list[float]:
    return [end - start for _sid, name, start, end, _p in spans if name.startswith(prefix)]


def _covered_by_children(spans, parent_name: str, child_prefix: str) -> tuple[float, float]:
    """(duration, union of the spans named child_prefix* inside it) for the span parent_name."""
    root = next(s for s in spans if s[1] == parent_name)
    inner = [(s[2], s[3]) for s in spans
             if s is not root and s[1].startswith(child_prefix) and root[2] <= s[2] <= root[3]]
    return root[3] - root[2], union_length(inner)


def _traced_reproduce_all(serial: bool) -> tuple[Tracer, int, list[str]]:
    from rc3bp import cli, collinear, regions

    tracer = Tracer()
    for attr in [a for a in dir(regions) if a.endswith("_raster")]:
        tracer.wrap(regions, attr, f"regions.raster.{attr}")
    for attr in [a for a in dir(regions) if a.endswith("_polylines")]:
        tracer.wrap(regions, attr, f"regions.polylines.{attr}")
    tracer.wrap(regions, "figure_dataset", "regions.figure_dataset")
    for attr in [a for a in dir(collinear) if a.startswith("band_edge_")]:
        tracer.wrap(collinear, attr, "collinear.band_edge")
    tracer.wrap(collinear, "critical_roots", "collinear.critical_roots")
    # the encoder's own stages (private names, wrapped while they exist), so
    # that the uncovered share is only what no span explains
    for attr, name in (("_write_figure", "cli.encode.write_figure"), ("_sha256", "cli.encode.sha256")):
        if hasattr(cli, attr):
            tracer.wrap(cli, attr, name)
    tracer.wrap(cli, "reproduce_all", "cli.reproduce_all")
    if serial:
        os.environ["RC3BP_THREADS"] = "1"
    out_dir = os.path.join(WORK, "figures-trace")
    try:
        shutil.rmtree(out_dir, ignore_errors=True)
        with tracer.span("op.figures"):
            cli.reproduce_all(out_dir)
    finally:
        tracer.restore()
        os.environ.pop("RC3BP_THREADS", None)
    digests, size = workloads.output_digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    problems = checks.check_figures(digests, load_reference("figures_csv_sha256.json"), None)
    return tracer, size, problems


def trace_figures(_workload: str, seed: int):
    """One untraced op, one traced op with the default pool, one traced serial op."""
    wall, problems, _ = figures_op("trace-untraced")(0)
    shutil.rmtree(os.path.join(WORK, "figures-trace-untraced"), ignore_errors=True)
    tr, size, traced_problems = _traced_reproduce_all(serial=False)
    serial, _, serial_problems = _traced_reproduce_all(serial=True)
    sp = tr.spans
    op_s, fd_union = _covered_by_children(sp, "cli.reproduce_all", "regions.figure_dataset")
    _, any_union = _covered_by_children(sp, "cli.reproduce_all", "")
    fds = _durations(sp, "regions.figure_dataset")
    m = {
        "cli.reproduce_all_s": op_s,
        "cli.encode_write_s": op_s - fd_union,
        "cli.encode.write_figure_s": sum(_durations(sp, "cli.encode.write_figure")),
        "cli.encode.sha256_s": sum(_durations(sp, "cli.encode.sha256")),
        "cli.bytes_written": size,
        "cli.write_mb_per_s": size / 1e6 / (op_s - fd_union),
        "cli.reproduce_all_serial_s": _covered_by_children(serial.spans, "cli.reproduce_all", "")[0],
        "figures.uncovered_share": 1.0 - any_union / op_s,
        "regions.figure_dataset_s": sum(fds),
        "regions.figure_dataset_max_s": max(fds),
        "regions.raster_s": sum(_durations(sp, "regions.raster.")),
        "regions.polylines_s": sum(_durations(sp, "regions.polylines.")),
        "collinear.band_edge_calls": len(_durations(sp, "collinear.band_edge")),
        "collinear.band_edge_s": sum(_durations(sp, "collinear.band_edge")),
        "collinear.critical_roots_s": sum(_durations(sp, "collinear.critical_roots")),
        "trace.overhead_s.figures": sum(_durations(sp, "op.figures")) - wall,
    }
    failed = bool(problems) + bool(traced_problems) + bool(serial_problems)
    return m, {"figures": tr, "figures_serial": serial}, failed, 3


def trace_collinear(workload: str, seed: int):
    from rc3bp import collinear

    mix = workload if workload == "collinear_sweep" else "collinear_bulk"
    make_query, run, oracle = workloads.collinear_runner(mix)
    queries = [make_query(seed, i) for i in range(COLLINEAR_PASS_OPS)]
    expected = [oracle(q) for q in queries]
    start = time.perf_counter()
    for q in queries:
        run(q)
    untraced_s = time.perf_counter() - start

    tr = Tracer()
    concave = set(checks.CONCAVE_PAIRS)
    roots = [0]

    def interval_kind(params, interval, *args, **kwargs):
        pair = (checks.region_of(params.beta1, params.beta2), interval.value)
        return "collinear.find_in_interval." + ("concave" if pair in concave else "simple")

    def count_roots(_name, found):
        roots[0] += len(found)

    tr.wrap(collinear, "f_axis", "collinear.f_axis")
    tr.wrap(collinear, "brentq", "collinear.brentq")
    tr.wrap(collinear, "find_in_interval", interval_kind, result_hook=count_roots)
    answers = []
    try:
        start = time.perf_counter()
        for q in queries:
            with tr.span("op.collinear_sweep"):
                answers.append(run(q))
        traced_s = time.perf_counter() - start
    finally:
        tr.restore()
    mismatches = sum(1 for q, a, e in zip(queries, answers, expected) if checks.check_collinear(q, a, e))
    m = {}
    for kind in ("concave", "simple"):
        d = _durations(tr.spans, f"collinear.find_in_interval.{kind}")
        m[f"collinear.find_in_interval_s.{kind}"] = sum(d) / len(d)
    m["collinear.f_axis_calls"] = len(_durations(tr.spans, "collinear.f_axis"))
    m["collinear.brentq_calls"] = len(_durations(tr.spans, "collinear.brentq"))
    m["collinear.brentq_per_root"] = m["collinear.brentq_calls"] / max(1, roots[0])
    m["collinear.count_mismatches"] = mismatches
    m["trace.overhead_s.collinear"] = traced_s - untraced_s
    return m, {mix: tr}, mismatches, len(queries)


def trace_orbits(_workload: str, seed: int):
    from rc3bp import dynamics
    import scipy.integrate

    make_start, integrate = workloads.orbits_runner()
    starts = [make_start(seed, i) for i in range(ORBIT_PASS_OPS)]
    start = time.perf_counter()
    for s in starts:
        integrate(s)
    untraced_s = time.perf_counter() - start

    tr = Tracer()
    nfev = [0]

    def count_nfev(_name, sol):
        nfev[0] += sol.nfev

    tr.wrap(dynamics, "integrate", "dynamics.integrate")
    tr.wrap(dynamics, "solve_ivp", "dynamics.solve_ivp", result_hook=count_nfev)
    tr.wrap(dynamics, "hamiltonian", "dynamics.hamiltonian")
    tr.count(scipy.integrate.OdeSolver, "step", "dynamics.steps")
    trajectories = []
    try:
        start = time.perf_counter()
        for s in starts:
            with tr.span("op.orbits"):
                trajectories.append(integrate(s))
        traced_s = time.perf_counter() - start
    finally:
        tr.restore()
    failed = sum(1 for s, t in zip(starts, trajectories) if checks.check_orbit(s, t.t, t.states, t.reason))
    m = {
        "dynamics.integrate_s": sum(_durations(tr.spans, "dynamics.integrate")),
        "dynamics.solve_ivp_s": sum(_durations(tr.spans, "dynamics.solve_ivp")),
        "dynamics.nfev": nfev[0],
        "dynamics.steps": tr.counts["dynamics.steps"],
        "dynamics.hamiltonian_calls": len(_durations(tr.spans, "dynamics.hamiltonian")),
        "trace.overhead_s.orbits": traced_s - untraced_s,
    }
    m["dynamics.energy_s"] = m["dynamics.integrate_s"] - m["dynamics.solve_ivp_s"]
    m["dynamics.solve_ivp_us_per_step"] = 1e6 * m["dynamics.solve_ivp_s"] / m["dynamics.steps"]
    return m, {"orbits": tr}, failed, len(starts)


def trace_cli(_workload: str, seed: int):
    """cli_oneshot's argument sets through cli.main in this process."""
    from rc3bp import cli

    reference = load_reference("cli_reference.json")
    cases = [workloads.cli_case(seed, i) for i in range(len(workloads.CLI_SUBCOMMANDS))]
    os.makedirs(os.path.join(WORK, "cli"), exist_ok=True)

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    start = time.perf_counter()
    for _ in range(CLI_PASS_REPEATS):
        for _name, argv in cases:
            call(argv)
    untraced_s = time.perf_counter() - start

    tr = Tracer()
    labels = {workloads.cli_key(argv): name for name, argv in cases}
    tr.wrap(cli, "main", lambda argv: f"cli.main.{labels[workloads.cli_key(argv)]}")
    outputs = []
    try:
        start = time.perf_counter()
        for _ in range(CLI_PASS_REPEATS):
            for _name, argv in cases:
                with tr.span("op.cli_oneshot"):
                    outputs.append((argv, call(argv)))
        traced_s = time.perf_counter() - start
    finally:
        tr.restore()
    failed = sum(1 for argv, (code, out) in outputs
                 if checks.check_cli(code, out, reference[workloads.cli_key(argv)]))
    m = {f"cli.main_ms.{name}": 1e3 * statistics.median(_durations(tr.spans, f"cli.main.{name}"))
         for name, _argv in cases}
    m["trace.overhead_s.cli_oneshot"] = traced_s - untraced_s
    return m, {"cli_oneshot": tr}, failed, len(outputs)


def trace_run(workload: str, seed: int, spans_path: str) -> dict:
    os.environ.pop("RC3BP_THREADS", None)
    metrics: dict[str, float] = {}
    tracers: dict[str, Tracer] = {}
    failed = attempted = 0
    for trace_pass in (trace_figures, trace_collinear, trace_orbits, trace_cli):
        m, t, f, a = trace_pass(workload, seed)
        metrics.update(m)
        tracers.update(t)
        failed += f
        attempted += a
    # self time per layer (the name's first part), summed over every span;
    # spans on pool threads overlap, so this is thread time, not wall time
    layer_self: dict[str, float] = {}
    with open(spans_path, "w") as fh:
        for pass_name, tracer in tracers.items():
            own = self_times(tracer.spans)
            for sid, name, start, end, parent in tracer.spans:
                layer = name.split(".")[0]
                if layer != "op":
                    layer_self[layer] = layer_self.get(layer, 0.0) + own[sid]
                fh.write(json.dumps({"pass": pass_name, "id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    for layer in ("cli", "regions", "collinear", "dynamics"):
        metrics[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    return {"metrics": metrics, "failed": failed, "attempted": attempted}


def import_probe() -> dict:
    start = time.perf_counter()
    import numpy  # noqa: F401

    t_numpy = time.perf_counter()
    import scipy.optimize  # noqa: F401
    import scipy.integrate  # noqa: F401

    t_scipy = time.perf_counter()
    import rc3bp.cli  # noqa: F401

    t_own = time.perf_counter()
    return {
        "import.numpy_s": t_numpy - start,
        "import.scipy_s": t_scipy - t_numpy,
        "import.rc3bp_own_s": t_own - t_scipy,
    }


def import_cold() -> dict:
    start = time.perf_counter()
    import rc3bp.cli  # noqa: F401

    return {"import.rc3bp_cli_cold_s": time.perf_counter() - start}


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "e2e":
        result = e2e(argv[1], int(argv[2]), float(argv[3]), int(argv[4]), int(argv[5]))
    elif role == "trace":
        result = trace_run(argv[1], int(argv[2]), argv[3])
    elif role == "import-probe":
        result = import_probe()
    elif role == "import-cold":
        result = import_cold()
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
