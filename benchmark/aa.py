#!/usr/bin/env python3
"""A/A: two sets of runs of the same code, to show how far they disagree.

For every workload, PAIRS pairs of runs of the command in BENCHMARK.json.
Pair i runs twice with seed SEED + i, once for set A and once for set B,
alternating which goes first. For each end-to-end metric it prints both
medians, both spreads (the distance between the quartiles that
statistics.quantiles(values, n=4) gives, as a share of the median), how
much worse B's median is than A's, and the bound. A spread above the
bound means the benchmark cannot resolve that metric on that workload; a
B median worse than A's by more than the bound means it would have
rejected identical code. Either makes the exit code 1.

    python3 benchmark/aa.py [--pairs 10] [--seed 1] [--workload NAME]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(sheet, workload, seed):
    command = sheet["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(sheet["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct") or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload")
    args = parser.parse_args()
    if args.pairs < 2:
        sys.exit("quartiles need at least 2 pairs")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        sheet = json.load(f)
    names = [w["name"] for w in sheet["workloads"]]
    if args.workload:
        if args.workload not in names:
            sys.exit(f"no workload {args.workload!r} in BENCHMARK.json")
        names = [args.workload]

    unresolved = []
    for workload in names:
        sets = ({}, {})
        for pair in range(args.pairs):
            for side in (pair % 2, 1 - pair % 2):
                metrics = run_once(sheet, workload, args.seed + pair)
                for name, value in metrics.items():
                    sets[side].setdefault(name, []).append(value)
        print(f"\n#### {workload}: {args.pairs} pairs, seeds {args.seed}"
              f" to {args.seed + args.pairs - 1}\n")
        print("| metric | median A | median B | spread A | spread B | B worse by | bound |")
        print("|---|---|---|---|---|---|---|")
        for m in sheet["end_to_end"]:
            a, b = (s[m["name"]] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            print(f"| `{m['name']}` | {med_a:.6g} | {med_b:.6g} | {spread(a):.2%} |"
                  f" {spread(b):.2%} | {worse:+.2%} | {m['bound']:.0%} |")
            wide = m["name"] != "setup_s" and max(spread(a), spread(b)) > m["bound"]
            if wide or worse > m["bound"]:
                unresolved.append(f"{workload}/{m['name']}")
    if unresolved:
        print("\nunresolved: " + ", ".join(unresolved))
        sys.exit(1)
    print("\nevery spread and every difference of medians is within its bound")


if __name__ == "__main__":
    main()
