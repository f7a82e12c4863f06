#!/usr/bin/env python3
"""Builds and runs the QPSeeker end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload plan-direct --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (and the repository's
libraries under src/) into $CARGO_TARGET_DIR, default .bench_build. A run
prints the driver's progress to stderr and, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics.

Before printing, the output is checked against BENCHMARK.json: the driver
must know exactly the workloads it names and produce exactly the metrics it names
for the run's mode (end_to_end with --trace 0, per_layer with
--trace 1), each with its unit. Any mismatch, a failed build, or a driver
that prints no result ends the run with a non-zero exit code and no result.

--selftest builds, runs the helper tests (tests/bench_util_test.cc) and the
catalog check, and exits.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the CMake tree."""
    tree = os.path.join(out_dir, "cmake")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(tree, ignore_errors=True)
            raise SystemExit("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", tree, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise SystemExit("build failed")
    return tree


def load_benchmark():
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        raise SystemExit("BENCHMARK.json not found: run from the checkout root")
    with open(path) as f:
        return json.load(f)


def check_catalog(driver, bench):
    """The driver's workloads and metrics must match BENCHMARK.json exactly."""
    out = subprocess.run([driver, "--list"], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    listed = {"workload": set(), "end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        parts = line.split()
        if parts[0] == "workload":
            listed["workload"].add(parts[1])
        else:
            listed[parts[0]][parts[1]] = parts[2]
    problems = []
    wanted = {w["name"] for w in bench["workloads"]}
    if wanted != listed["workload"]:
        problems.append("workloads: missing from driver %s, not in BENCHMARK.json %s"
                        % (sorted(wanted - listed["workload"]),
                           sorted(listed["workload"] - wanted)))
    for kind in ("end_to_end", "per_layer"):
        wanted = {m["name"]: m["unit"] for m in bench[kind]}
        if wanted != listed[kind]:
            extra = sorted(set(listed[kind].items()) - set(wanted.items()))
            missing = sorted(set(wanted.items()) - set(listed[kind].items()))
            problems.append("%s: missing from driver %s, not in BENCHMARK.json %s"
                            % (kind, missing, extra))
    if problems:
        raise SystemExit("catalog mismatch:\n  " + "\n  ".join(problems))


def check_result(result, bench, trace):
    """The result line must hold exactly the metrics of the run's mode."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("result keys are %s" % sorted(result))
    kind = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in bench[kind]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        raise SystemExit("result metrics differ from BENCHMARK.json %s:\n  missing %s\n  extra %s"
                         % (kind, sorted(set(wanted.items()) - set(got.items())),
                            sorted(set(got.items()) - set(wanted.items()))))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise SystemExit("metric %s is malformed: %s" % (name, m))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bench = load_benchmark()
    out_dir = build_dir()
    tree = build(out_dir)
    driver = os.path.join(tree, "e2e_driver")
    check_catalog(driver, bench)

    if args.selftest:
        test = os.path.join(tree, "e2e_util_test")
        if not os.path.exists(test):
            raise SystemExit("helper tests not built (GTest not found)")
        code = subprocess.run([test], stdout=sys.stderr, stderr=sys.stderr).returncode
        log("selftest: helper tests %s, catalog matches BENCHMARK.json"
            % ("passed" if code == 0 else "FAILED"))
        return code

    if args.workload is None:
        ap.error("--workload is required")
    work = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    sys.stderr.write(proc.stderr)
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("driver exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])
    check_result(result, bench, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
