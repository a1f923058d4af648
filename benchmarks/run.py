"""Benchmark of obmlab: one workload, end to end or per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: mach-sweep, mhd-256, obm-256,
mms (see workloads.py and README.md).  One untimed warm-up process first
loads obmlab from cold; then each operation runs in a fresh single-threaded
process (child.py), one after another, until S seconds have passed and at
least MIN_OPS operations have run.

--trace 0 reports the end-to-end metrics, each the median over the
operations: setup_s (import obmlab.cli plus everything before the first
time step), wall_s (from there to the return of the last call into
obmlab) and peak_rss_mb (peak resident set of the process).

--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (tracing.py), with the tracing
overhead as the difference of the two wall-time medians.  Its per-layer
spans are written to benchmarks/traces/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 0 when every operation ran to
its end; 1 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = HERE / "_work"
TRACES = HERE / "traces"
MIN_OPS = 3
DEADLINE = 170.0             # seconds; a run that needs longer fails
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


def run_child(workload: str, seed: int, env: dict, timeout: float,
              trace: bool = False, warm_up: bool = False) -> dict:
    """Run one operation in a fresh process and return its JSON record."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        if warm_up:
            cmd = [sys.executable, "-c", "import obmlab.cli"]
        else:
            cmd = [sys.executable, str(CHILD), "--workload", workload,
                   "--seed", str(seed), "--work", work]
            if trace:
                cmd[1:1] = ["-X", "importtime"]
                cmd += ["--trace", "--spans",
                        str(TRACES / f"{workload}-seed{seed}.json")]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{workload}: the run did not end within "
                                 f"{DEADLINE:g} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: {cmd[1:3]} exited with code "
                             f"{proc.returncode}\n{proc.stderr[-3000:]}")
    if warm_up:
        return {}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: no result\n{proc.stderr[-3000:]}")
    record = json.loads(lines[-1])
    if trace:
        record["trace"]["cli.sympy_import_s"] = sympy_import_s(proc.stderr)
    if record["failed"]:
        sys.stderr.write(proc.stderr[-3000:])
    return record


def sympy_import_s(importtime: str) -> float:
    """Cumulative time of the first ``import sympy`` in -X importtime output."""
    for line in importtime.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "sympy":
            return int(line.split("|")[1]) / 1e6
    return 0.0


def operations(args, env: dict, deadline: float) -> list:
    """Run operations until the run's time is up; traced runs alternate
    an untraced and a traced operation."""
    kinds = (False, True) if args.trace else (False,)
    records = []
    start = time.perf_counter()
    while True:
        for traced in kinds:
            record = run_child(args.workload, args.seed, env,
                               deadline - time.perf_counter(), trace=traced)
            record["traced"] = traced
            records.append(record)
            print(f"operation {len(records)}{' traced' if traced else ''}: "
                  f"import {record['import_s']:.3f} s, set-up "
                  f"{record['set_up_s']:.3f} s, wall {record['wall_s']:.3f} s",
                  file=sys.stderr, flush=True)
        if (time.perf_counter() - start >= args.seconds
                and len(records) >= MIN_OPS * len(kinds)):
            return records


def median(records: list, key) -> float:
    return statistics.median(key(r) for r in records)


def end_to_end(ok: list) -> dict:
    return {
        "setup_s": median(ok, lambda r: r["import_s"] + r["set_up_s"]),
        "wall_s": median(ok, lambda r: r["wall_s"]),
        "peak_rss_mb": median(ok, lambda r: r["peak_rss_mb"]),
    }


def per_layer(ok: list) -> tuple:
    """Per-layer metrics and the list of counts that did not repeat."""
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or not traced:
        raise BenchmarkError("a traced run needs a traced and an untraced "
                             "operation that did not fail")
    metrics = {}
    unsteady = []
    for name in tracing.METRICS:
        if name == "cli.import_s":
            metrics[name] = median(plain, lambda r: r["import_s"])
        elif name == "trace.overhead_s":
            metrics[name] = (median(traced, lambda r: r["wall_s"])
                             - median(plain, lambda r: r["wall_s"]))
        elif name in tracing.COUNTS:
            values = {r["trace"][name] for r in traced}
            if len(values) > 1:
                unsteady.append(f"{name}: {sorted(values)}")
            metrics[name] = traced[0]["trace"][name]
        else:
            metrics[name] = median(traced, lambda r: r["trace"][name])
    return metrics, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src", "obmlab", "cli.py").is_file():
        print("run.py: no obmlab sources under ./src; run from the root of "
              "the repository", file=sys.stderr)
        return 1
    env = child_env()
    deadline = time.perf_counter() + DEADLINE
    try:
        run_child(args.workload, args.seed, env, DEADLINE, warm_up=True)
        records = operations(args, env, deadline)
        ok = [r for r in records if not r["failed"]]
        if not ok:
            raise BenchmarkError(f"{args.workload}: every operation failed")
        problems = sorted({p for r in ok for p in r["problems"]})
        if args.trace:
            values, unsteady = per_layer(ok)
            problems += [f"count differs between traced operations: {u}"
                         for u in unsteady]
            units = tracing.METRICS
        else:
            values, units = end_to_end(ok), END_TO_END
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failed = len(records) - len(ok)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(records)} operations, "
          f"{failed} failed, outputs {'correct' if not problems else 'WRONG'}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
