#!/usr/bin/env python3
"""Runs the benchmark several times and prints each metric's median and
spread (quartile distance over median, as statistics.quantiles gives the
quartiles), the figures a bound is set and checked from.

    python3 perfbench/spread.py --workloads hyperscale-ci,paper-sweep --seeds 1-10
    python3 perfbench/spread.py --workloads hyperscale-ci --repeat 5
    python3 perfbench/spread.py --workloads paper-sweep --seeds 1-10 --out set2.json --against set1.json

Run from the repository root. It runs the command in BENCHMARK.json with
the file's run_seconds. Several workloads are interleaved, in reversed
order every other round (A B C, C B A, ...), so that slow drift of the
host does not line up with one workload or with the seed order.
--repeat N runs N times at the spec's committed seed, which separates
host noise from the effect of the seed. --out saves the values;
--against prints how far each median moved from a saved set.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--seeds", default="1-10", help="inclusive ranges and seeds, e.g. 1-5,8")
    group.add_argument("--repeat", type=int, help="runs at the committed seed")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="write the values to this JSON file")
    ap.add_argument("--against", help="a file written by --out to compare medians with")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    rounds = [None] * args.repeat if args.repeat else seeds(args.seeds)
    values = {w: {} for w in workloads}
    for i, seed in enumerate(rounds):
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            cmd = bench["command"] + [
                "--workload", w, "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            if seed is not None:
                cmd += ["--seed", str(seed)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            line = " ".join(f"{k}={v['value']}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values[w].setdefault(name, []).append(metric["value"])

    before = json.load(open(args.against)) if args.against else {}
    for w in workloads:
        print(f"\n{w}\n{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6} {'moved':>8}")
        for name, vs in values[w].items():
            med, sp = spread(vs)
            bound = bounds.get(name)
            moved = ""
            if name in before.get(w, {}):
                old = statistics.median(before[w][name])
                moved = f"{(med - old) / abs(old):+.4f}" if old else ""
            print(f"{name:<28} {med:>14.6g} {'n/a' if sp is None else f'{sp:.4f}':>8} "
                  f"{'' if bound is None else bound:>6} {moved:>8}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f)


if __name__ == "__main__":
    main()
