#!/usr/bin/env python3
"""Repeated runs of the repo benchmark, and comparison of two result sets.

Run from the root of a checkout:

    # 5 passes over every workload (one seed per pass, the workload order
    # alternating between passes), plus one traced pass for the tracing
    # overhead; prints each e2e metric's median and quartiles.
    python3 bench/suite/compare.py passes --passes 5 --trace-pass --out a.json

    # Does every e2e metric of set B stay within its BENCHMARK.json bound
    # of set A, on every workload? Exit status 1 when one does not or is
    # unresolved, 2 when the sets were not taken alike (run length, machine
    # or build).
    python3 bench/suite/compare.py check a.json b.json

Every run lasts BENCHMARK.json's run_seconds and a pass covers every
workload, so two sets differ only in their seeds and their moment. Spreads
are the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric
whose spread is a third of its bound or more is reported as unsteady, and
one whose spread exceeds its bound as unresolved: the host's noise is then
too large for the bound to catch a regression, and `check` counts it as
a failure, not as agreement.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload, seed, seconds, trace):
    """One run through run.py; returns its full result JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "result.json")
        cmd = [sys.executable, os.path.join(ROOT, "bench", "suite", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "1" if trace else "0", "--out", out]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if proc.returncode != 0 or not os.path.exists(out):
            sys.exit("compare.py: %s seed %d failed (exit %d)"
                     % (workload, seed, proc.returncode))
        with open(out) as f:
            result = json.load(f)
    if not result["correct"]:
        sys.exit("compare.py: %s seed %d: incorrect outputs: %s"
                 % (workload, seed, result["failures"]))
    spec = benchmark_spec()
    for section, key in (("e2e", "end_to_end"), ("per_layer", "per_layer")):
        expected = [(m["name"], m["unit"]) for m in spec[key]]
        if section in result and expected != [
                (name, m["unit"]) for name, m in result[section].items()]:
            sys.exit("compare.py: %s metrics of %s differ from BENCHMARK.json"
                     % (section, workload))
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(spread, bound):
    """'' when a spread lets the bound resolve a regression, else why not."""
    if spread > bound:
        return "UNRESOLVED: spread above bound"
    if spread >= bound / 3:
        return "UNSTEADY: spread above bound/3"
    return ""


def cmd_passes(args):
    spec = benchmark_spec()
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: [] for w in workloads}
    stamp = None
    for p in range(args.passes):
        order = workloads if p % 2 == 0 else list(reversed(workloads))
        for w in order:
            result = run_one(w, args.seed + p, seconds, trace=False)
            stamp = stamp or result["stamp"]
            runs[w].append({m: v["value"] for m, v in result["e2e"].items()})
            print("pass %d %-16s %s" % (p, w, " ".join(
                "%s=%.6g" % (m["name"], runs[w][-1][m["name"]]) for m in metrics)),
                file=sys.stderr)

    print("machine: %s, %d CPUs, %d pool lanes, simd %s"
          % (stamp["cpu_model"], stamp["nproc"], stamp["pool_lanes"], stamp["simd"]))
    print("%-16s %-12s %14s %14s %14s %8s %7s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    steady = True
    for w in workloads:
        for m in metrics:
            median, q1, q3, spread = summary([r[m["name"]] for r in runs[w]])
            why = verdict(spread, m["bound"])
            steady = steady and not why
            print("%-16s %-12s %14.6g %14.6g %14.6g %7.2f%% %6.1f%%  %s" % (
                w, m["name"], median, q1, q3, 100 * spread, 100 * m["bound"],
                why))

    traced = {}
    if args.trace_pass:
        print("\ntracing overhead (one traced run vs the untraced median):")
        for w in workloads:
            result = run_one(w, args.seed, seconds, trace=True)
            traced[w] = {m: v["value"] for m, v in result["e2e"].items()}
            cells = []
            for m in metrics:
                median = statistics.median(r[m["name"]] for r in runs[w])
                cells.append("%s %+.1f%%" % (
                    m["name"], 100 * (traced[w][m["name"]] - median) / median))
            print("%-16s %s" % (w, ", ".join(cells)))

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"stamp": stamp, "seconds": seconds, "runs": runs,
                       "traced": traced}, f, indent=1)
    return 0 if steady else 1


def comparable(a, b):
    """The differences between how two result sets were taken, if any:
    run length, machine and build (the seeds may differ)."""
    diffs = []
    if a["seconds"] != b["seconds"]:
        diffs.append("seconds %s vs %s" % (a["seconds"], b["seconds"]))
    for key in sorted(set(a["stamp"]) | set(b["stamp"])):
        if key != "seed" and a["stamp"].get(key) != b["stamp"].get(key):
            diffs.append("%s %s vs %s" % (key, a["stamp"].get(key),
                                          b["stamp"].get(key)))
    return diffs


def cmd_check(args):
    metrics = benchmark_spec()["end_to_end"]
    with open(args.first) as f:
        first_set = json.load(f)
    with open(args.second) as f:
        second_set = json.load(f)
    diffs = comparable(first_set, second_set)
    if diffs:
        print("compare.py: the sets were not taken alike: " + "; ".join(diffs),
              file=sys.stderr)
        return 2
    first, second = first_set["runs"], second_set["runs"]
    print("%-16s %-12s %14s %14s %9s %8s %7s" % (
        "workload", "metric", "first", "second", "worse by", "spread",
        "bound"))
    agree = True
    for w in first:
        if w not in second:
            print("%-16s missing from %s" % (w, args.second))
            agree = False
            continue
        for m in metrics:
            a, _, _, spread_a = summary([r[m["name"]] for r in first[w]])
            b, _, _, spread_b = summary([r[m["name"]] for r in second[w]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spread = max(spread_a, spread_b)
            if spread > m["bound"]:
                why = "UNRESOLVED: spread above bound"
            elif worse > m["bound"]:
                why = "OUT OF BOUND"
            else:
                why = ""
            agree = agree and not why
            print("%-16s %-12s %14.6g %14.6g %8.2f%% %7.2f%% %6.1f%%  %s" % (
                w, m["name"], a, b, 100 * worse, 100 * spread,
                100 * m["bound"], why))
    return 0 if agree else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    passes = sub.add_parser("passes", help="run N passes and summarize")
    passes.add_argument("--passes", type=int, default=5)
    passes.add_argument("--seed", type=int, default=1, help="seed of pass 0")
    passes.add_argument("--trace-pass", action="store_true",
                        help="add one traced run per workload")
    passes.add_argument("--out", help="write the result set here")
    check = sub.add_parser("check", help="compare two result sets")
    check.add_argument("first")
    check.add_argument("second")
    args = parser.parse_args()
    if args.command == "passes" and args.passes < 2:
        parser.error("quartiles need at least 2 passes")
    return cmd_passes(args) if args.command == "passes" else cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
