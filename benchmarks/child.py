"""One operation of a benchmark workload, in a fresh process.

    PYTHONPATH=src python3 benchmarks/child.py --workload NAME --seed N \
        --work DIR [--trace] [--spans FILE]

run.py starts this from the repository root.  It times ``import
obmlab.cli``, the workload's set-up and its operation, checks the outputs,
and prints one JSON object: import_s, set_up_s, wall_s, peak_rss_mb,
failed (the operation raised, which includes a CLI command exiting
non-zero), problems (failed output checks) and, with --trace, the
per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    begin = time.perf_counter()
    import obmlab.cli  # noqa: F401  -- timed as part of set-up
    import_s = time.perf_counter() - begin

    source = Path("src", "obmlab").resolve()
    if Path(obmlab.cli.__file__).resolve().parent != source:
        raise SystemExit(f"child.py: obmlab imported from {obmlab.cli.__file__}, "
                         f"not from {source}")
    import workloads
    operation, check = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    clock = workloads.Clock()
    start = time.perf_counter()
    failed = False
    try:
        outputs = operation(args.seed, args.work, clock)
    except Exception:
        traceback.print_exc()
        failed = True
    done = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    if not failed:
        if clock.set_up_end is None:
            raise SystemExit("child.py: the workload never reached a time step")
        problems = check(outputs)
    result = {
        "import_s": import_s,
        "set_up_s": (clock.set_up_end or done) - start,
        "wall_s": done - (clock.set_up_end or done),
        "peak_rss_mb": peak_rss_mb,
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.spans()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
