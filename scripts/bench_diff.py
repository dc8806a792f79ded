#!/usr/bin/env python3
"""Perf-regression gate over two bench envelopes (bench::JsonWriter).

Compares a candidate BENCH_*.json against a baseline of the same bench
and fails when a latency-like metric regresses (grows) or a
throughput-like metric regresses (shrinks) by more than --threshold.

Rows are joined on identity keys (string fields plus the discrete
configuration integers: threads, replicas, nodes, batch, m, n, k, seed,
mtbf_ms, mttr_ms); everything else numeric is treated as a measured
metric and classified by name:

  lower-is-better : p50|p95|p99|latency|seconds|_ms|wasted|penalty|
                    failed|timeouts
  higher-is-better: throughput|goodput|gflops|speedup|efficiency|
                    availability|items_per_s|inf_s|completed

Unclassified metrics are reported only under --verbose and never gate.

Envelopes stamped with a different backend, ISA policy or host core
count are drift, not a regression: they fail unless
--allow-config-drift demotes them to warnings. --virtual-time drops
the core count from that check for benches that run on the simulated
clock, whose results do not depend on the host.

Exit codes: 0 ok, 1 regression (or envelope mismatch), 2 usage/IO
error. --warn-only reports regressions but always exits 0, for pure
wall-clock benches whose own internal asserts are the hard gate.

Examples:
  bench_diff.py BENCH_failover.json new.json --threshold 0.05
  bench_diff.py old.json new.json --exact          # bit-identical gate
  bench_diff.py --self-test                        # built-in check
"""

import argparse
import json
import re
import sys

LOWER_IS_BETTER = re.compile(
    r"(p50|p95|p99|latency|seconds|_ms$|_ms_|wasted|penalty|failed|timeouts)")
HIGHER_IS_BETTER = re.compile(
    r"(throughput|goodput|gflops|speedup|efficiency|availability|"
    r"items_per_s|inf_s|completed)")

# Discrete config fields that identify a row rather than measure it.
IDENTITY_INTS = ("threads", "replicas", "nodes", "batch", "m", "n", "k",
                 "seed", "mtbf_ms", "mttr_ms", "rows", "dim", "tables",
                 "pooling", "ranks")

# Machine-stamp fields that invalidate a comparison when they differ:
# an nmp-backend candidate against a cpu-backend baseline, or a 4-core
# wall-clock run against a 1-core one, is a config change, not a perf
# regression.
MACHINE_IDENTITY = ("backend", "isa", "host_cores")


def load_envelope(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"bench_diff: cannot read {path}: {e}")
    for field in ("schema_version", "bench", "results"):
        if field not in data:
            raise SystemExit(f"bench_diff: {path}: missing '{field}' "
                             "(not a bench envelope?)")
    return data


def row_key(row):
    """Identity of one result row: all string fields + discrete ints."""
    parts = []
    for k in sorted(row):
        v = row[k]
        if isinstance(v, str):
            parts.append((k, v))
        elif k in IDENTITY_INTS:
            parts.append((k, v))
    return tuple(parts)


def classify(name):
    if LOWER_IS_BETTER.search(name):
        return "lower"
    if HIGHER_IS_BETTER.search(name):
        return "higher"
    return None


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key) or "<single row>"


def compare(base, cand, opts):
    """Returns (failures, warnings, infos) as lists of strings."""
    failures, warnings, infos = [], [], []

    if base["schema_version"] != cand["schema_version"]:
        failures.append(
            f"schema_version mismatch: baseline {base['schema_version']} "
            f"vs candidate {cand['schema_version']}")
        return failures, warnings, infos
    if base["bench"] != cand["bench"]:
        failures.append(f"bench mismatch: baseline '{base['bench']}' vs "
                        f"candidate '{cand['bench']}'")
        return failures, warnings, infos
    if base.get("config") != cand.get("config"):
        msg = (f"config drift: baseline {base.get('config')} vs "
               f"candidate {cand.get('config')}")
        if opts.allow_config_drift:
            warnings.append(msg)
        else:
            failures.append(msg + " (pass --allow-config-drift to compare "
                            "anyway)")
            return failures, warnings, infos

    # Cross-backend, cross-ISA or cross-core-count envelopes measure
    # different engines or hosts; gating one against the other would
    # misreport the difference as a regression. Envelopes written before
    # a stamp existed lack the field — warn and compare anyway so old
    # baselines keep working.
    base_machine = base.get("machine") or {}
    cand_machine = cand.get("machine") or {}
    for field in MACHINE_IDENTITY:
        if field == "host_cores" and opts.virtual_time:
            continue
        bv, cv = base_machine.get(field), cand_machine.get(field)
        if bv is None or cv is None:
            if bv != cv:
                side = "baseline" if bv is None else "candidate"
                warnings.append(f"machine {field} missing from {side}; "
                                f"cannot check {field} drift")
            continue
        if bv != cv:
            msg = (f"machine {field} drift: baseline '{bv}' vs candidate "
                   f"'{cv}' (different engine or host, not a regression)")
            if opts.allow_config_drift:
                warnings.append(msg)
            else:
                failures.append(msg + " (pass --allow-config-drift to "
                                "compare anyway)")
                return failures, warnings, infos

    base_rows = {row_key(r): r for r in base["results"]}
    cand_rows = {row_key(r): r for r in cand["results"]}

    for key in base_rows:
        if key not in cand_rows:
            warnings.append(f"row missing from candidate: {fmt_key(key)}")
    for key in cand_rows:
        if key not in base_rows:
            warnings.append(f"row new in candidate: {fmt_key(key)}")

    for key in sorted(set(base_rows) & set(cand_rows)):
        b, c = base_rows[key], cand_rows[key]
        for name in sorted(set(b) & set(c)):
            bv, cv = b[name], c[name]
            if isinstance(bv, str) or name in IDENTITY_INTS:
                continue
            if not isinstance(bv, (int, float)) or \
               not isinstance(cv, (int, float)):
                continue
            if opts.exact:
                if bv != cv:
                    failures.append(f"{fmt_key(key)}: {name} differs "
                                    f"({bv!r} -> {cv!r}) [--exact]")
                continue
            direction = classify(name)
            if direction is None:
                if opts.verbose:
                    infos.append(f"{fmt_key(key)}: {name} unclassified "
                                 f"({bv} -> {cv}), not gated")
                continue
            if bv == 0:
                # Can't form a ratio; any growth of a lower-is-better
                # metric from zero is flagged, shrink-from-zero cannot
                # happen for non-negative metrics.
                if direction == "lower" and cv > 0:
                    failures.append(f"{fmt_key(key)}: {name} grew from 0 "
                                    f"to {cv}")
                continue
            rel = (cv - bv) / abs(bv)
            regressed = (rel > opts.threshold if direction == "lower"
                         else rel < -opts.threshold)
            if regressed:
                msg = (f"{fmt_key(key)}: {name} regressed "
                       f"{rel * 100.0:+.1f}% ({bv:.6g} -> {cv:.6g}, "
                       f"threshold {opts.threshold * 100.0:.0f}%)")
                if direction == "higher" and opts.throughput_warn_only:
                    warnings.append(msg + " [warn-only]")
                else:
                    failures.append(msg)
            elif opts.verbose:
                infos.append(f"{fmt_key(key)}: {name} {rel * 100.0:+.1f}% "
                             f"({bv:.6g} -> {cv:.6g}) ok")

    return failures, warnings, infos


def self_test(opts):
    """Gate sanity check: a perturbed envelope must fail, an identical
    one must pass. Runs entirely in memory."""
    base = {
        "schema_version": 1,
        "bench": "selftest",
        "machine": {"host_cores": 1, "backend": "cpu", "isa": "auto"},
        "config": {"iters": 100},
        "results": [
            {"suite": "gemm", "name": "a", "threads": 1,
             "p99_ms": 2.0, "gflops": 10.0, "seconds_per_iter": 1e-3},
            {"suite": "gemm", "name": "a", "threads": 2,
             "p99_ms": 1.5, "gflops": 18.0, "seconds_per_iter": 6e-4},
        ],
    }
    ns = argparse.Namespace(threshold=0.10, exact=False,
                            throughput_warn_only=False,
                            allow_config_drift=False, virtual_time=False,
                            verbose=False)

    identical = json.loads(json.dumps(base))
    f, w, _ = compare(base, identical, ns)
    assert not f and not w, f"identical envelopes flagged: {f + w}"

    exact_f, _, _ = compare(base, identical,
                            argparse.Namespace(**{**vars(ns), "exact": True}))
    assert not exact_f, f"identical envelopes failed --exact: {exact_f}"

    worse = json.loads(json.dumps(base))
    worse["results"][0]["p99_ms"] *= 1.5       # +50% p99
    worse["results"][1]["gflops"] *= 0.5       # -50% throughput
    f, _, _ = compare(base, worse, ns)
    assert any("p99_ms" in m for m in f), f"missed p99 regression: {f}"
    assert any("gflops" in m for m in f), f"missed gflops regression: {f}"

    # Throughput regressions demote to warnings under
    # --throughput-warn-only, latency ones still fail.
    f, w, _ = compare(base, worse,
                      argparse.Namespace(**{**vars(ns),
                                            "throughput_warn_only": True}))
    assert any("p99_ms" in m for m in f), "p99 must hard-fail"
    assert not any("gflops" in m for m in f), "gflops should be warn-only"
    assert any("gflops" in m for m in w), "gflops warning missing"

    # Small noise below threshold passes.
    noisy = json.loads(json.dumps(base))
    noisy["results"][0]["p99_ms"] *= 1.05
    f, _, _ = compare(base, noisy, ns)
    assert not f, f"5% noise failed 10% gate: {f}"

    # Schema / bench / config mismatches are hard failures.
    other = json.loads(json.dumps(base))
    other["bench"] = "different"
    f, _, _ = compare(base, other, ns)
    assert f, "bench mismatch not flagged"
    drift = json.loads(json.dumps(base))
    drift["config"]["iters"] = 200
    f, _, _ = compare(base, drift, ns)
    assert f, "config drift not flagged"
    f, w, _ = compare(base, drift,
                      argparse.Namespace(**{**vars(ns),
                                            "allow_config_drift": True}))
    assert not f and w, "--allow-config-drift should warn, not fail"

    # A candidate measured on a different compute backend (or ISA) must
    # be flagged as drift, not silently gated as a perf delta.
    cross = json.loads(json.dumps(base))
    cross["machine"]["backend"] = "nmp"
    f, _, _ = compare(base, cross, ns)
    assert any("machine backend drift" in m for m in f), \
        f"cross-backend envelope not flagged: {f}"
    f, w, _ = compare(base, cross,
                      argparse.Namespace(**{**vars(ns),
                                            "allow_config_drift": True}))
    assert not f and any("machine backend drift" in m for m in w), \
        "--allow-config-drift should demote backend drift to a warning"

    # A wall-clock envelope from another core count is drift too; a
    # virtual-time bench does not depend on the host, so --virtual-time
    # skips that one field.
    cores = json.loads(json.dumps(base))
    cores["machine"]["host_cores"] = 4
    f, _, _ = compare(base, cores, ns)
    assert any("machine host_cores drift" in m for m in f), \
        f"core-count mismatch not flagged: {f}"
    f, w, _ = compare(base, cores,
                      argparse.Namespace(**{**vars(ns),
                                            "allow_config_drift": True}))
    assert not f and any("machine host_cores drift" in m for m in w), \
        "--allow-config-drift should demote core-count drift to a warning"
    f, w, _ = compare(base, cores,
                      argparse.Namespace(**{**vars(ns),
                                            "virtual_time": True}))
    assert not f and not w, \
        f"--virtual-time must ignore the core count: {f + w}"

    # Envelopes written before the backend stamp existed only warn.
    legacy = json.loads(json.dumps(base))
    del legacy["machine"]["backend"]
    del legacy["machine"]["isa"]
    f, w, _ = compare(legacy, base, ns)
    assert not f, f"stamp-less baseline must still compare: {f}"
    assert any("missing from baseline" in m for m in w), \
        f"missing-stamp warning absent: {w}"

    print("bench_diff self-test: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="compare two bench envelopes and fail on regression")
    ap.add_argument("baseline", nargs="?", help="baseline BENCH_*.json")
    ap.add_argument("candidate", nargs="?", help="candidate BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative regression tolerance (default 0.10)")
    ap.add_argument("--exact", action="store_true",
                    help="require bit-identical numeric fields "
                         "(determinism gate)")
    ap.add_argument("--throughput-warn-only", action="store_true",
                    help="demote higher-is-better regressions to warnings "
                         "(noisy shared runners)")
    ap.add_argument("--allow-config-drift", action="store_true",
                    help="warn instead of fail when config blocks differ")
    ap.add_argument("--virtual-time", action="store_true",
                    help="the bench runs on the simulated clock: do not "
                         "treat a host core-count mismatch as drift")
    ap.add_argument("--warn-only", action="store_true",
                    help="report every regression but always exit 0 "
                         "(pure wall-clock benches on shared runners, "
                         "where even latency metrics can spike "
                         "transiently; the bench's own internal asserts "
                         "remain the hard gate)")
    ap.add_argument("--verbose", action="store_true",
                    help="also print passing and unclassified metrics")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in gate sanity check and exit")
    opts = ap.parse_args()

    if opts.self_test:
        return self_test(opts)
    if not opts.baseline or not opts.candidate:
        ap.error("baseline and candidate envelopes are required")

    base = load_envelope(opts.baseline)
    cand = load_envelope(opts.candidate)
    failures, warnings, infos = compare(base, cand, opts)

    for msg in infos:
        print(f"info: {msg}")
    for msg in warnings:
        print(f"warning: {msg}")
    for msg in failures:
        print(f"FAIL: {msg}")

    shared = len({row_key(r) for r in base["results"]} &
                 {row_key(r) for r in cand["results"]})
    if failures:
        print(f"bench_diff: {len(failures)} regression(s) across {shared} "
              f"compared row(s)")
        if opts.warn_only:
            print("bench_diff: --warn-only, not gating")
            return 0
        return 1
    print(f"bench_diff: OK ({shared} row(s) compared, "
          f"{len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
