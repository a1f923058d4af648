"""Summarise one benchmark result set, or compare two.

    python3 benchmarks/compare.py BASE.jsonl [NEW.jsonl]

Result sets are the JSON-lines files series.py writes.  For each workload
and end-to-end metric the command prints each set's median, first and
third quartile, and spread (the distance between the quartiles as a share
of the median).  With two sets it also prints the change of the median,
as a share of BASE's median, and flags:

  WORSE    NEW's median is worse than BASE's by more than the metric's
           bound in BENCHMARK.json;
  SPREAD   a set's spread exceeds the bound (setup_s is exempt: it is
           judged by its median alone);
  FAILED   the share of failed operations differs between the sets.

Exit status 1 when anything is flagged, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path("BENCHMARK.json")
SPREAD_EXEMPT = ("setup_s",)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def load_set(path) -> dict:
    """workload -> list of end-to-end results, in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def quartiles(values: list) -> tuple:
    """(median, first quartile, third quartile, spread)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def failed_share(results: list) -> tuple:
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def report(bench: dict, sets: list) -> int:
    flags = 0
    for workload in (w["name"] for w in bench["workloads"]):
        results = [s.get(workload, []) for s in sets]
        if not all(results):
            continue
        shares = [failed_share(r) for r in results]
        print(f"{workload}: " + " | ".join(
            f"{len(r)} runs, {f}/{a} operations failed, "
            f"{'all' if all(x['correct'] for x in r) else 'NOT all'} correct"
            for r, (f, a) in zip(results, shares)))
        if len(sets) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("  FAILED: the share of failed operations differs")
            flags += 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in rs])
                     for rs in results]
            cells = [f"median {m:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
                     f"spread {s:6.1%}" for m, q1, q3, s in stats]
            marks = []
            if name not in SPREAD_EXEMPT and any(s[3] > bound for s in stats):
                marks.append("SPREAD")
            if len(stats) == 2:
                change = (stats[1][0] - stats[0][0]) / stats[0][0]
                worse = change if metric["better"] == "lower" else -change
                cells.append(f"change {change:+7.1%} (bound {bound:.0%})")
                if worse > bound:
                    marks.append("WORSE")
            flags += len(marks)
            print(f"  {name:12s} {metric['unit']:3s} " + " | ".join(cells)
                  + ("  " + " ".join(marks) if marks else ""))
    return 1 if flags else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    return report(load_benchmark(), [load_set(p) for p in argv])


if __name__ == "__main__":
    sys.exit(main())
