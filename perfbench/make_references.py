"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py

Run from the checkout root. Writes perfbench/data/figures_csv_sha256.json
(the SHA-256 of each label-raster CSV of `reproduce_all` at the default
resolution) and perfbench/data/cli_reference.json (stdout of every
`cli_oneshot` argument set). The committed files were captured at the
commit that added the benchmark; re-capture only for an intended output
change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.environ.pop("RC3BP_THREADS", None)
    out_dir = os.path.join(".bench_work", "figures-reference")
    shutil.rmtree(out_dir, ignore_errors=True)
    workloads.figures_runner(out_dir)()
    digests, _ = workloads.output_digests(out_dir)
    shutil.rmtree(out_dir)
    csv = {name: digest for name, digest in digests.items() if name.endswith(".csv")}

    cli = {}
    for argvs in workloads.CLI_CASES.values():
        for argv in argvs:
            code, out = workloads.run_cli(root, argv)
            if code != 0:
                print(f"{workloads.cli_key(argv)}: exit code {code}", file=sys.stderr)
                return 1
            cli[workloads.cli_key(argv)] = out
    shutil.rmtree(".bench_work", ignore_errors=True)

    os.makedirs(os.path.join(HERE, "data"), exist_ok=True)
    for name, payload in (("figures_csv_sha256.json", csv), ("cli_reference.json", cli)):
        with open(os.path.join(HERE, "data", name), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"{len(csv)} CSV digests, {len(cli)} CLI references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
