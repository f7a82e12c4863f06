#!/usr/bin/env python3
"""Runs e2ebench on two checkouts in alternating pairs and writes a BENCH json.

    python3 scripts/bench_pairs.py --parent ../parent-checkout \\
        --out BENCH_encode_memo.json [--head .] [--seeds 10] \\
        [--workloads plan-direct,serve-closed]

`--parent` and `--head` are checkouts of the two commits to compare (a
`git worktree` or an unpacked `git archive`); `--head` defaults to this
checkout. Each side builds its own benchmark tree under `<side>/.bench_build`.
For every workload (default: all of BENCHMARK.json) and each seed 1..N, the
script runs `e2ebench/run.py --trace 0` once on each side, the parent first
on even pairs and the head first on odd ones, so drift on a shared host
falls on both sides alike.

The output holds, per workload, every pair's end-to-end values, and per
metric the median, quartiles and interquartile range of each side, the
relative change of the medians, and how many pairs the head won. Each run
lasts BENCHMARK.json's run_seconds (15 s): 3 workloads x 10 seeds take about
half an hour, which is why tier-1 does not run this.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def revision(side, label):
    if label:
        return label
    proc = subprocess.run(["git", "-C", side, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(side, workload, seed, seconds):
    """One e2ebench run on checkout `side`; returns its parsed result line."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(side, ".bench_build"))
    cmd = [sys.executable, os.path.join(side, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("%s: %s seed %d printed no result" % (side, workload, seed))
    return json.loads(lines[-1])


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def spread(values):
    s = sorted(values)
    q1, med, q3 = quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, metrics):
    out = {}
    for m in metrics:
        name = m["name"]
        parent = [p["parent"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        lower = m["better"] == "lower"
        wins = sum(1 for a, b in zip(parent, head) if (b < a if lower else b > a))
        ps, hs = spread(parent), spread(head)
        change = (hs["median"] - ps["median"]) / ps["median"] if ps["median"] else None
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": ps, "head": hs, "median_change": change,
                     "head_better_pairs": wins, "pairs": len(pairs)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--head", default=REPO, help="checkout of the change (default: here)")
    ap.add_argument("--parent-rev", help="label for the parent (default: its git HEAD)")
    ap.add_argument("--head-rev", help="label for the head (default: its git HEAD)")
    ap.add_argument("--out", required=True, help="BENCH_*.json to write")
    ap.add_argument("--workloads", help="comma-separated (default: BENCHMARK.json's)")
    ap.add_argument("--seeds", type=int, default=10, help="pairs per workload")
    args = ap.parse_args()

    sides = {"parent": os.path.abspath(args.parent), "head": os.path.abspath(args.head)}
    with open(os.path.join(sides["head"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    result = {
        "parent": revision(sides["parent"], args.parent_rev),
        "head": revision(sides["head"], args.head_rev),
        "command": "e2ebench/run.py --trace 0 --seconds %d" % seconds,
        "order": "parent first on even pairs, head first on odd pairs",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system()},
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(args.seeds):
            seed = 1 + i
            order = ["parent", "head"] if i % 2 == 0 else ["head", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                t0 = time.time()
                res = run_once(sides[side], workload, seed, seconds)
                pair[side] = {k: v["value"] for k, v in res["metrics"].items()}
                pair[side + "_correct"] = res["correct"]
                pair[side + "_failed"] = res["failed"]
                log("%s seed %d %s: %.0f s, correct=%s" %
                    (workload, seed, side, time.time() - t0, res["correct"]))
            pairs.append(pair)
        result["workloads"][workload] = {
            "pairs": pairs, "summary": summarize(pairs, bench["end_to_end"])}
        with open(args.out, "w") as f:  # partial results survive a cut run
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
