#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size (pbench --smoke),
untraced and traced. Asserts that the last stdout line is the result
object with exactly the keys correct, attempted, failed and metrics;
that the run's checks passed; and that every metric BENCHMARK.json
names for that mode is present, finite and tagged with its unit, with
no other metric. Runs each mode twice with the same seed, in separate
processes, and asserts that every deterministic metric repeats exactly.
Then copies only BENCHMARK.json and perfbench/ into perfbench/out/bare
and asserts that the benchmark fails there without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys


# Metrics that depend only on the seed: simulated times and counts.
DETERMINISTIC = [
    "sim_dct_s", "bytes_per_conn", "bytes_per_plugin_conn",
    "pquic.rx.insns_per_dgram", "pquic.tx.insns_per_pkt",
    "quic.pool.reuse_share", "netsim.events_per_pkt",
    "netsim.link.queue_drops", "netsim.link.queue_hwm_bytes",
    "recovery.lost_per_kpkt", "recovery.retx_per_kpkt",
    "recovery.dup_rejected_per_kpkt", "engine.wheel.arms_per_pkt",
    "engine.wheel.fires_per_kpkt", "pre.insns_per_pkt", "pre.sanctions",
    "pre.fallbacks", "pre.cache.hit_share", "fec.recovered_share",
    "fec.repair_share", "mp.path_share_max", "engine.shard.batch_len",
    "engine.table.load", "server.replies_per_initial",
]


def run(args, cwd="."):
    return subprocess.run(["python3", "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_result(bench, wl, trace):
    out = run(["--workload", wl, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, "%s: exit %d\n%s" % (wl, out.returncode, out.stderr)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0, (wl, res, out.stderr)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    named = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = res["metrics"]
    assert set(got) == set(want), (wl, trace, set(got) ^ set(want))
    for name, unit in want.items():
        v = got[name]["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), (wl, name, v)
        assert got[name]["unit"] == unit, (wl, name, got[name]["unit"], unit)
    return res


def check_bare():
    bare = os.path.join("perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out"))
    out = run(["--workload", "bulk", "--seed", "1", "--seconds", "1",
               "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0, "bare run exited 0"
    assert '"metrics"' not in out.stdout, "bare run printed a result"


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        seen = {}
        for trace in (0, 0, 1, 1):
            res = check_result(bench, w["name"], trace)
            print("ok %-10s trace=%d attempted=%d metrics=%d" % (
                w["name"], trace, res["attempted"], len(res["metrics"])))
            for name in DETERMINISTIC:
                if name in res["metrics"]:
                    v = res["metrics"][name]["value"]
                    assert seen.setdefault(name, v) == v, (w["name"], name, seen[name], v)
        print("ok %-10s deterministic metrics repeat" % w["name"])
    check_bare()
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
