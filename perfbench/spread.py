#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged against BENCHMARK.json.

    python3 perfbench/spread.py --workloads bulk,server_mix --seeds 1-10 \
        [--log runs.jsonl]

Runs perfbench/run.py untraced for BENCHMARK.json's run_seconds, once
per (workload, seed), one run at a time, and
prints per metric: the median, the quartile spread (Q3 - Q1) / median as
Python's statistics.quantiles(values, n=4) gives the quartiles, the
metric's bound, and whether the spread is below a third of the bound.
setup_s is reported but, as in the acceptance rule, not held to it.
Every raw result line is appended to --log when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--log")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    worst = True
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", wl, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print("%s seed %d: exit %d\n%s" % (wl, seed, out.returncode, out.stderr))
                return 1
            res = json.loads(last)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, "result": res,
                                        "stderr": out.stderr[-400:]}) + "\n")
            if not res["correct"] or res["failed"]:
                print("%s seed %d: correctness check failed\n%s" % (wl, seed, out.stderr))
                worst = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print("== %s (%d seeds, %d s)" % (wl, len(seeds_of(args.seeds)), seconds))
        for m in metrics:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = m["bound"]
            if m["name"] == "setup_s":
                verdict = "(not held)"
            elif spread < bound / 3:
                verdict = "ok"
            else:
                verdict = "WIDE"
                worst = False
            print("  %-34s median %-14.6g spread %6.3f  bound %-5s %s" % (
                m["name"], med, spread, bound, verdict))
    return 0 if worst else 2


if __name__ == "__main__":
    sys.exit(main())
