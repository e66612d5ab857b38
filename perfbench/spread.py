#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's median, quartiles
and spread (interquartile range as a share of the median).

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]

Runs go one after another through perfbench/run.py. Each run's result line
is appended to .bench_build/spread/<workload>-trace<t>.jsonl, and the
summary is printed as JSON on the last line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    log_dir = os.path.join(ROOT, ".bench_build", "spread")
    os.makedirs(log_dir, exist_ok=True)
    log = os.path.join(log_dir, f"{args.workload}-trace{args.trace}.jsonl")
    values = {}
    for seed in seeds(args.seeds):
        p = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                            "--workload", args.workload, "--seed", str(seed),
                            "--trace", str(args.trace)],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, stdin=subprocess.DEVNULL)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run.py exited with code {p.returncode}")
        result = json.loads(lines[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
            if not args.trace), flush=True)

    summary = {}
    for k, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        summary[k] = {"median": med, "q1": q1, "q3": q3, "runs": len(xs),
                      "spread": (q3 - q1) / med if med else 0.0}
    if not args.trace:
        for k, s in summary.items():
            print(f"{k:14s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                  f"  spread {s['spread']:.3f}")
    print(json.dumps({"workload": args.workload, "trace": args.trace, "metrics": summary}))


if __name__ == "__main__":
    main()
