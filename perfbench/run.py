"""rc3bp benchmark: one seeded workload per user-facing path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root; the package is imported from ./src. The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, measured on NAME; the line before it carries the
workload's own metrics under the names perfbench/README.md uses. With
--trace 1 they are the per-layer metrics of the traced run, which
covers every layer on its home workload whatever NAME is (the collinear
pass runs collinear_sweep's inputs when NAME is collinear_sweep, else
collinear_bulk's).

Each --trace 0 run starts SETUP_RUNS fresh worker processes one after
another. Worker k runs ops k, k + SETUP_RUNS, k + 2 SETUP_RUNS, ... of
the seeded input sequence, so together they cover the workload's whole
input cycle. Each times its first op as set-up, then runs ops for
S / SETUP_RUNS seconds; set-up is the median over the workers and the
latencies pool the ops after the first.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Each workload's input cycle (7 bulk or 20 mixed collinear draws, 13 orbit
# starts, 8 CLI subcommands) has a length coprime with SETUP_RUNS, so that every worker
# of a run sees the whole cycle.
SETUP_RUNS = 3
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env(root: str) -> dict:
    env = workloads.cli_env(root)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(root: str, args: list[str], deadline: float) -> tuple[dict, float | None]:
    """Run worker.py; returns its JSON summary and, for e2e, seconds to its FIRST line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True,
    )
    try:
        first_s = None
        if args[0] == "e2e":
            line = proc.stdout.readline()
            first_s = time.perf_counter() - start
            if line.strip() != "FIRST":
                raise RuntimeError(f"worker printed {line!r} before its first op completed")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), first_s


def percentile_with_tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def e2e(root: str, workload: str, seed: int, seconds: int) -> dict:
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    summaries, setups = [], []
    for k in range(SETUP_RUNS):
        args = ["e2e", workload, str(seed), str(seconds / SETUP_RUNS), str(k), str(SETUP_RUNS)]
        summary, first_s = run_worker(root, args, deadline)
        summaries.append(summary)
        setups.append(first_s)
    lat = [x for s in summaries for x in s["latencies"]]
    extra = [x for s in summaries for x in s["extra"]]
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    problems = [p for s in summaries for p in s["problems"]]
    if workload == "figures":
        # JSON and manifest bytes must agree across the run's workers too
        first = summaries[0]["first_extra"]["json_digests"]
        for s in summaries[1:]:
            if s["first_extra"]["json_digests"] != first:
                failed += 1
                problems.append("JSON or manifest bytes differ between workers")
    busy = sum(lat)
    p50 = statistics.median(lat)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "peak_rss_mb": {"value": max(s["peak_rss_kb"] for s in summaries) / 1024.0, "unit": "MB"},
    }
    detail = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "error_rate": {"value": failed / attempted, "unit": "share", "samples": attempted},
        "peak_rss_mb": dict(metrics["peak_rss_mb"]),
    }
    n = len(lat)
    tail = percentile_with_tail(lat)
    if workload == "figures":
        detail["figures.wall_s"] = {"value": p50, "unit": "s", "samples": n}
    elif workload.startswith("collinear"):
        detail[f"{workload}.queries_per_s"] = {"value": n / busy, "unit": "1/s", "samples": n}
        detail[f"{workload}.query_p50_ms"] = {"value": 1e3 * p50, "unit": "ms", "samples": n}
        kinds = [e["kind"] for e in extra]
        detail["input_shares"] = {k: kinds.count(k) / n for k in sorted(set(kinds))}
    elif workload == "orbits":
        sim = sum(e["sim_time"] for e in extra)
        detail["orbits.sim_time_per_s"] = {"value": sim / busy, "unit": "1/s", "samples": n}
    else:
        detail["cli_oneshot.latency_p50_s"] = {"value": p50, "unit": "s", "samples": n}
    if tail is not None:
        name, value = tail
        detail[f"{workload}.op_{name}_ms"] = {"value": 1e3 * value, "unit": "ms", "samples": n}
    if problems:
        detail["first_problems"] = problems[:5]
    print(json.dumps({"workload": workload, "seed": seed, "detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(root: str, workload: str, seed: int) -> dict:
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    os.makedirs(os.path.join(root, ".bench_trace"), exist_ok=True)
    spans = os.path.join(".bench_trace", f"spans-{workload}-{seed}.jsonl")
    result, _ = run_worker(root, ["trace", workload, str(seed), spans], deadline)
    layer = result["metrics"]
    for role in ("import-probe", "import-cold"):
        probes = [run_worker(root, [role], deadline)[0] for _ in range(IMPORT_PROBES)]
        for name in probes[0]:
            layer[name] = statistics.median(p[name] for p in probes)
    units = {m["name"]: m["unit"] for m in load_benchmark(root)["per_layer"]}
    missing = sorted(set(units) ^ set(layer))
    if missing:
        raise RuntimeError(f"traced run and BENCHMARK.json disagree on {missing}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(layer.items())}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rc3bp", "__init__.py")):
        return fail(f"no rc3bp package under {os.path.join(root, 'src')}; run from the checkout root")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    work = os.path.join(root, ".bench_work")
    try:
        if args.trace:
            result = traced(root, args.workload, args.seed)
        else:
            result = e2e(root, args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
