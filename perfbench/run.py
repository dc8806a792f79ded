#!/usr/bin/env python3
"""Build and run RecPerf's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench (a CMake project over ../src) into .bench_build/perfbench
of the checkout, runs one workload, and prints the binary's provenance
line followed, as the last line, by the JSON result. Each run's
provenance and result are appended to .bench_build/perfbench/runs.jsonl.
A fwd run retunes its kernels in each session; the sessions whose plans
differ from the plans most recorded sessions of that workload got are
counted ("sessions_off_modal"), so a tuner flip is not read as a
regression.

Other modes:
    --test                   build and run the benchmark's own tests
    --update-golden A-B      rewrite golden_digests.txt for seeds A..B

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import collections
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden_digests.txt")
WORKLOADS = ("fwd-rmc3", "fwd-rmc2", "sim-serve-rmc2", "sim-shard-rmc1")
SIM_WORKLOADS = ("sim-serve-rmc2", "sim-shard-rmc1")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("RecPerf sources (src/) not found next to perfbench/")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        fail("result keys %s != %s" % (sorted(result), sorted(keys)), 4)
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail("metrics/units differ from BENCHMARK.json: %s"
                 % sorted(set(got.items()) ^ set(want.items())), 4)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer", 4)


def flag_plan_set(provenance):
    """Mark sessions whose tuned plans differ from the workload's modal set.

    A fwd run tunes its kernels once per session; "plans" lists each
    session's plan set. The modal set is the most common one over every
    session of this workload recorded in runs.jsonl, this run included.
    """
    plans = provenance.get("plans")
    if plans is None:
        return
    digests = [hashlib.sha1(json.dumps(p).encode()).hexdigest()[:12]
               for p in plans]
    history = collections.Counter(digests)
    log = os.path.join(BUILD, "runs.jsonl")
    if os.path.isfile(log):
        with open(log) as f:
            for line in f:
                try:
                    p = json.loads(line)["provenance"]
                except (ValueError, KeyError):
                    continue
                if p.get("workload") == provenance["workload"]:
                    history.update(p.get("plan_sets", []))
    modal = history.most_common(1)[0][0]
    provenance["plan_sets"] = digests
    provenance["plan_set_modal"] = modal
    provenance["sessions_off_modal"] = sum(d != modal for d in digests)


def run(args):
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 5)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode, 5)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail("perfbench printed no result", 5)
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    validate(result, args.trace == 1)
    flag_plan_set(provenance)
    with open(os.path.join(BUILD, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": provenance, "result": result})
                + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


def update_golden(seed_range):
    lo, hi = (int(x) for x in seed_range.split("-"))
    binary = build("perfbench")
    lines = []
    for workload in SIM_WORKLOADS:
        for seed in range(lo, hi + 1):
            out = subprocess.run(
                [binary, "--print-digest", "--workload", workload,
                 "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            lines.append(out.strip())
            print(lines[-1], file=sys.stderr)
    with open(GOLDEN, "w") as f:
        f.write("# <workload> <seed> <digest of the first windows' "
                "simulated outputs>\n")
        f.write("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true")
    ap.add_argument("--update-golden", metavar="A-B")
    args = ap.parse_args()
    if args.test:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.update_golden:
        update_golden(args.update_golden)
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    run(args)


if __name__ == "__main__":
    main()
