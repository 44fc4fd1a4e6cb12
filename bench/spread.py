#!/usr/bin/env python3
"""Run-to-run and seed-to-seed spread of the benchmark's metrics.

    python3 bench/spread.py --workload NAME [--seeds 1 2] [--reruns 2]
                            [--seconds 40] [--trace 0]

Runs bench/run.py once per (seed, rerun), one run at a time, and prints for
every metric its median, its spread across seeds and its spread across
reruns of one seed. A spread is (max - min) / median; with four or more
values the interquartile range over the median is printed too, the
quartiles as `statistics.quantiles(values, n=4)` gives them. It also
reports whether the reruns of each seed wrote byte-identical files in the
rounds both completed. A change that alters the random streams moves the
metrics by about the seed spread; a change that keeps them moves the
files not at all. The report is also written to
bench/out/spread-<workload>-t<trace>.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
OUT = BENCH / "out"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}-s{seed}-t{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    result["sha256"] = [[op["sha256"] for op in p["ops"]]
                        for p in record["rounds"] if not p["traced"]]
    return result


def spread(values):
    median = statistics.median(values)
    out = {"median": median, "range_share": (max(values) - min(values)) / median
           if median else None, "iqr_share": None}
    if len(values) >= 4 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_share"] = (q3 - q1) / median
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--reruns", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runs = {}
    for seed in args.seeds:
        for rerun in range(args.reruns):
            res = run_once(args.workload, seed, args.seconds, args.trace)
            runs.setdefault(seed, []).append(res)
            print(f"seed {seed} run {rerun}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}", flush=True)

    names = list(runs[args.seeds[0]][0]["metrics"])
    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "metrics": {}, "identical_reruns": {}}
    print(f"\n{'metric':<46} {'median':>12} {'seeds':>8} {'seeds IQR':>10} "
          f"{'reruns':>8}")
    for name in names:
        first = [rs[0]["metrics"][name]["value"] for rs in runs.values()]
        rerun_spreads = [spread([r["metrics"][name]["value"] for r in rs])["range_share"]
                         for rs in runs.values() if len(rs) > 1]
        across = spread(first)
        worst_rerun = max(rerun_spreads, default=None)
        report["metrics"][name] = dict(across, rerun_range_share=worst_rerun,
                                       values={s: [r["metrics"][name]["value"]
                                                   for r in rs]
                                               for s, rs in runs.items()})

        def pct(x):
            return "-" if x is None else f"{100 * x:.1f}%"
        print(f"{name:<46} {across['median']:>12.6g} "
              f"{pct(across['range_share']):>8} {pct(across['iqr_share']):>10} "
              f"{pct(worst_rerun):>8}")
    for seed, rs in runs.items():
        rounds = min(len(r["sha256"]) for r in rs)
        same = all(r["sha256"][:rounds] == rs[0]["sha256"][:rounds] for r in rs)
        report["identical_reruns"][seed] = same
        if len(rs) > 1:
            print(f"seed {seed}: reruns wrote identical files in the {rounds} "
                  f"rounds all completed: {same}")
    with open(OUT / f"spread-{args.workload}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
