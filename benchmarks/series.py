"""Run the benchmark over several seeds and collect one result set.

    python3 benchmarks/series.py --out benchmarks/results/base.jsonl \
        [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the repository root.  Each run is one call of the command in
BENCHMARK.json with its run_seconds, seeds first-seed, first-seed + 1, ...;
the last output line of each is appended to --out as
{"workload", "seed", "result"}.  The set's medians and quartiles
are printed at the end (compare.py prints them again, or compares sets).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare


def main(argv=None) -> int:
    bench = compare.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result}) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} = {v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
    compare.report(bench, [compare.load_set(args.out)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
