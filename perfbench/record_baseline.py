"""Run the benchmark on several seeds and record medians, spreads and machine facts.

    python3 perfbench/record_baseline.py [--seeds 10] [--first-seed 1]
        [--workloads figures,collinear_bulk,cli_oneshot] [--traced 1]
        [--out perfbench/BASELINE.json]

Run from the checkout root. For each workload it runs run.py once per
seed with --trace 0 and records, for every metric, the median, the
quartiles and the spread (interquartile range over median), plus the
failed/attempted counts. It then makes --traced runs with --trace 1 and
records the per-layer medians. Workloads already in --out that are not
run again keep their entries. Use it for before/after numbers: run it on
both commits on the same machine and compare the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"] if trace == 0 else None
    return json.loads(lines[-1]), detail


def summarize(values: list[float], unit: str) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "unit": unit, "values": values}


def machine_facts() -> dict:
    import numpy
    import scipy

    model = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from rc3bp import cli

    env_threads = os.environ.pop("RC3BP_THREADS", None)
    threads = cli._thread_count() if hasattr(cli, "_thread_count") else None
    if env_threads is not None:
        os.environ["RC3BP_THREADS"] = env_threads
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rc3bp_threads_default": threads,
    }


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {"machine": machine_facts(), "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            old = json.load(fh)
        for name, entry in old["workloads"].items():
            entry.setdefault("run_seconds", old.get("run_seconds"))
            entry.setdefault("seeds", old.get("seeds"))
            out["workloads"][name] = entry
    units: dict[str, str] = {}
    for workload in args.workloads.split(","):
        metrics: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, detail = run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            extra = {k: v for k, v in detail.items() if k not in result["metrics"]}
            for name, m in list(result["metrics"].items()) + list(extra.items()):
                if isinstance(m, dict) and "value" in m:
                    metrics.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            print(workload, seed, {k: round(v["value"], 5) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        out["workloads"][workload] = {
            "run_seconds": seconds,
            "seeds": seeds,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "metrics": {name: summarize(v, units[name]) for name, v in metrics.items()},
        }
        for name in (m["name"] for m in bench["end_to_end"]):
            s = out["workloads"][workload]["metrics"][name]
            print(f"  {workload} {name}: median {s['median']:.5g} {s['unit']}, spread {s['spread']:.4f}")
    layers: dict[str, list[float]] = {}
    for seed in seeds[: args.traced]:
        result, _ = run(bench["workloads"][0]["name"], seed, seconds, 1)
        for name, m in result["metrics"].items():
            layers.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    if layers:
        out["per_layer"] = {name: summarize(v, units[name]) for name, v in sorted(layers.items())}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
