#!/usr/bin/env python3
"""Summarize benchmark results saved by perfbench/run.py.

    python3 perfbench/summarize.py [RESULTS_DIR] [--against BASE_DIR]

Groups the result files by workload and mode and prints, per metric, the
run count, median, first and third quartiles and the spread (quartile
distance over the median), as statistics.quantiles(values, n=4) gives
them. With --against, also compares each end-to-end metric's median with
the BASE_DIR median: the change is counted in the metric's "worse"
direction and judged against its BENCHMARK.json bound, and a metric whose
spread exceeds its bound on either side is reported as unresolved.

Runs are only comparable when their host fingerprints agree (nproc, CPU
model, compiler, build type, pool workers, OpenMP threads); a group or a
comparison that mixes host fingerprints is reported as not comparable.
Seed and commit are recorded but are what the runs vary, not part of the
comparability key.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "pool_workers",
             "omp_threads")


def load(directory):
    groups = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        fingerprint = record["fingerprint"]
        key = (fingerprint["workload"], fingerprint["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def host(records):
    """The group's host fingerprint, or None when its runs disagree."""
    hosts = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
             for r in records}
    return hosts.pop() if len(hosts) == 1 else None


def stats(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def metric_values(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r["metrics"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="?",
                        default=ROOT / ".bench_build" / "perfbench" /
                        "results")
    parser.add_argument("--against")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    groups = load(args.results)
    base = load(args.against) if args.against else {}
    if not groups:
        sys.exit(f"no result files in {args.results}")

    comparable = True
    for (workload, trace), records in sorted(groups.items()):
        failed = sum(not r["correct"] for r in records)
        print(f"== {workload} (trace {trace}): {len(records)} runs, "
              f"{failed} incorrect")
        if host(records) is None:
            print("   not comparable: runs from different host fingerprints")
            comparable = False
            continue
        base_records = base.get((workload, trace))
        if base_records is not None and host(base_records) != host(records):
            print("   not comparable with --against: host fingerprints "
                  "differ")
            comparable = False
            base_records = None
        names = sorted({n for r in records for n in r["metrics"]},
                       key=lambda n: (n not in end_to_end, n))
        for name in names:
            values = metric_values(records, name)
            median, q1, q3, spread = stats(values)
            line = (f"   {name:34s} n={len(values):<3d} median={median:<12.6g}"
                    f" q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}")
            metric = end_to_end.get(name) if trace == 0 else None
            if metric and base_records:
                base_median, _, _, base_spread = stats(
                    metric_values(base_records, name))
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse = sign * (median - base_median) / base_median
                if max(spread, base_spread) > metric["bound"]:
                    verdict = "unresolved"
                elif worse > metric["bound"]:
                    verdict = "REGRESSION"
                else:
                    verdict = "within bound"
                line += (f" vs {base_median:.6g}: {100 * worse:+.2f}% worse"
                         f" ({verdict}, bound {metric['bound']})")
            print(line)
    sys.exit(0 if comparable else 1)


if __name__ == "__main__":
    main()
