#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and with it the library
from src/) into .bench_build/perfbench with CMake on first use, runs the
named workload for S seconds with inputs generated from seed N, and prints
the run fingerprint and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (which also writes a
Chrome trace to .bench_build/perfbench/traces/NAME.json). The full record,
fingerprint included, is saved under .bench_build/perfbench/results/ for
perfbench/summarize.py. Exits non-zero when a build step or an output
check fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
# Setup repetitions and the traced phase's extra setup come on top of
# --seconds; a run that takes longer than this has hung.
RUN_MARGIN_S = 120


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(command) + "\n")
        out.flush()
        try:
            result = subprocess.run(command, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return result.returncode == 0


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if not run_logged(step, log, BUILD_TIMEOUT_S):
            tail = log.read_text(errors="replace").splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            die(f"build step failed: {' '.join(step)} (log: {log})")
    return BUILD / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "core" / "scheduler_stream.hpp").is_file():
        die("library sources (src/) not found; run from a full checkout")
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(BUILD / "traces" / f"{args.workload}.json")]
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True,
                                timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in time")
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if not lines:
        die(f"{args.workload} printed no result (exit {result.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{args.workload} printed no result (exit {result.returncode})")

    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in expected if name not in record["metrics"]]
    correct = (record["correct"] and result.returncode == 0
               and not missing)
    if missing:
        print(f"perfbench: metrics missing: {', '.join(missing)}",
              file=sys.stderr)
    metrics = {name: record["metrics"][name] for name in expected
               if name in record["metrics"]}

    fingerprint = dict(record["fingerprint"])
    fingerprint.update(workload=args.workload, trace=args.trace,
                       commit=git_commit(), source_sha256=source_digest())
    (BUILD / "results").mkdir(exist_ok=True)
    saved = {"correct": correct, "attempted": record["attempted"],
             "failed": record["failed"], "metrics": metrics,
             "fingerprint": fingerprint}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (BUILD / "results" / name).write_text(json.dumps(saved, indent=1) + "\n")

    print("fingerprint: " + json.dumps(fingerprint))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
