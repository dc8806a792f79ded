#!/usr/bin/env python3
"""Validate a recperf Chrome trace (and optional metrics JSON).

Checks, in order:
  1. Schema: top-level traceEvents list; every event carries name /
     ph / ts / pid / tid, complete ('X') events carry dur, and
     timestamps are finite and non-negative.
  2. Nesting: on every virtual lane (tid < 1000) the 'X' spans obey
     stack discipline -- a span that starts inside another must end
     inside it (small slack for microsecond rounding).
  3. Reconciliation: per-op spans (cat "op") tile their enclosing
     worker "batch" spans; the summed op time must match the summed
     batch time within --tolerance (default 1%, the PR's acceptance
     bound).
  4. Overload events: brownout ladder transitions (instant events of
     cat "brownout") must step one level at a time within [0, 3], and
     deadline instants (cat "deadline") must use the known event
     names; with a metrics JSON their counts must agree with the
     exported serving.* deadline/brownout counters.
  5. Counters: per (tid, name) counter track ('C' events) timestamps
     are monotone non-decreasing and every value is finite and
     non-negative; with a metrics JSON, the final value of each track
     must agree with the exported counter/gauge of the same name
     (small absolute slack for float formatting). Traces without
     counter events still pass -- emission is opt-in.
  6. Metrics (when a metrics JSON is given): schema_version 1, the
     counters/gauges/histograms sections exist, histogram percentiles
     are ordered, and serving.batches.total agrees with the number of
     batch spans in the trace.

With --ops-only, checks 2 and 3 are skipped: op-level traces (e.g.
`recperf eval --trace`) run everything on wall-clock lanes and have no
serve/batch spans to reconcile against. Every other check still runs.
A shard trace (`recperf shard --trace-out`: "shard" spans, no serve
batch spans) needs no flag: its lanes are nesting-checked and only
check 3 is skipped.

With --require-track PREFIX (repeatable), at least one counter track
whose name starts with PREFIX must exist — turns check 5's "counters
are opt-in" default into a hard presence gate for runs that are
expected to emit them (e.g. the kernel.* cache counters).

With --fault-log FILE (the JSONL written by `recperf shard
--fault-log-out`), the injected-vs-detected accounting is
cross-checked end to end: every log line must be valid JSON with a
known kind, the corruption-event count must equal the exported
integrity.injected.* counters, detections can never exceed
injections, and the trace's integrity instants (injected / detected /
escape / rehydrate) must reconcile with both the log and the
integrity.* export.

With --request-log FILE (the JSONL written by `recperf serve|shard
--request-log-out`), the per-request causal records are validated and
reconciled: every line must be a JSON object with a known outcome,
known phase names, unique ids, and phase durations that tile the
record's latency within --tolerance; with a metrics JSON the record
count must equal tail.requests.recorded - tail.requests.dropped, the
per-outcome counts must match the exported serving.* / sharded.*
counters, the summed retry/hedge tags must match the sharded.*
resilience counters, and the blame fractions recomputed from the
records must match the exported tail.blame.* gauges within 1e-6 (and
sum to 1).

Usage: check_trace.py TRACE.json [METRICS.json] [--tolerance 0.01]
                      [--ops-only] [--require-track PREFIX]...
                      [--fault-log FILE] [--request-log FILE]
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import math
import sys

WALL_TID_BASE = 1000  # tids >= this are wall-clock lanes
SLACK_US = 5e-3       # nesting slack: ts values are ns-rounded in JSON


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_schema(trace):
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    spans = []
    counters = []
    instants = []
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue  # metadata (thread_name)
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"event {i} missing '{key}': {ev}")
        if not math.isfinite(ev["ts"]) or ev["ts"] < 0:
            fail(f"event {i} has bad ts {ev['ts']}")
        if ph == "X":
            dur = ev.get("dur")
            if dur is None or not math.isfinite(dur) or dur < 0:
                fail(f"complete event {i} has bad dur: {ev}")
            spans.append(ev)
        elif ph == "C":
            counters.append(ev)
        elif ph == "i":
            instants.append(ev)
        else:
            fail(f"event {i} has unknown ph '{ph}'")
    if not spans:
        fail("no complete ('X') spans in trace")
    return spans, counters, instants


def check_nesting(spans):
    lanes = {}
    for ev in spans:
        if ev["tid"] < WALL_TID_BASE:
            lanes.setdefault(ev["tid"], []).append(ev)
    checked = 0
    for tid, lane in lanes.items():
        # Events arrive sorted (ts asc, then longer span first); a
        # stack replay verifies each span closes inside its parent.
        stack = []
        for ev in lane:
            t0, t1 = ev["ts"], ev["ts"] + ev["dur"]
            while stack and t0 >= stack[-1] - SLACK_US:
                stack.pop()
            if stack and t1 > stack[-1] + SLACK_US:
                fail(f"lane {tid}: span '{ev['name']}' "
                     f"[{t0:.3f}, {t1:.3f}] escapes its parent "
                     f"(parent ends {stack[-1]:.3f})")
            stack.append(t1)
            checked += 1
    if checked == 0:
        fail("no virtual-lane spans to nesting-check")
    return checked


def check_reconciliation(spans, tolerance):
    batch_us = sum(ev["dur"] for ev in spans
                   if ev["cat"] == "serve" and ev["name"] == "batch")
    op_us = sum(ev["dur"] for ev in spans if ev["cat"] == "op")
    if batch_us == 0 or op_us == 0:
        fail(f"nothing to reconcile (batch {batch_us} us, op {op_us} us)")
    rel = abs(op_us - batch_us) / batch_us
    if rel > tolerance:
        fail(f"op spans ({op_us:.1f} us) vs batch spans "
             f"({batch_us:.1f} us): {rel * 100:.2f}% apart "
             f"(tolerance {tolerance * 100:.2f}%)")
    return rel


DEADLINE_EVENTS = ("expired_queue", "shed_admission", "cancelled",
                   "run_cancelled")

# (instant name, exported serving.* counter) pairs that must agree.
DEADLINE_COUNTERS = (
    ("expired_queue", "serving.deadline.shed"),
    ("shed_admission", "serving.shed.admission_deadline"),
    ("cancelled", "serving.deadline.cancelled"),
)


def check_overload_events(instants, metrics):
    """Validate deadline/brownout instants; returns their count.

    Brownout transitions carry from/to ladder levels that must step by
    exactly one inside [0, 3]. Deadline instants must use the known
    event names. With a metrics JSON from the same (serve) run, the
    instant counts must equal the exported serving.* counters — a shed
    or cancelled item that is counted but not traced (or vice versa)
    is an accounting bug. Comparison is skipped per counter when the
    export omits it (counters are gated on nonzero values, and shard
    traces pair with sharded.* exports instead).
    """
    deadline = {}
    transitions = 0
    for ev in instants:
        if ev["cat"] == "brownout":
            if ev["name"] != "level":
                fail(f"unknown brownout instant '{ev['name']}'")
            args = ev.get("args", {})
            try:
                src, dst = int(args["from"]), int(args["to"])
            except (KeyError, TypeError, ValueError):
                fail(f"brownout transition at ts {ev['ts']} lacks "
                     f"integer from/to args: {args}")
            if not (0 <= src <= 3 and 0 <= dst <= 3):
                fail(f"brownout transition {src} -> {dst} outside the "
                     f"ladder [0, 3]")
            if abs(src - dst) != 1:
                fail(f"brownout ladder skipped a level: {src} -> {dst} "
                     f"at ts {ev['ts']}")
            transitions += 1
        elif ev["cat"] == "deadline":
            if ev["name"] not in DEADLINE_EVENTS:
                fail(f"unknown deadline instant '{ev['name']}'")
            deadline[ev["name"]] = deadline.get(ev["name"], 0) + 1

    if metrics is not None:
        exported = metrics.get("counters", {})
        for name, counter in DEADLINE_COUNTERS:
            want = exported.get(counter)
            if want is not None and deadline.get(name, 0) != want:
                fail(f"{counter} = {want} but trace has "
                     f"{deadline.get(name, 0)} '{name}' instants")
        want = exported.get("serving.brownout.transitions")
        if want is not None and transitions != want:
            fail(f"serving.brownout.transitions = {want} but trace has "
                 f"{transitions} ladder transitions")
    return sum(deadline.values()) + transitions


CORRUPTION_KINDS = ("single_bit_flip", "multi_bit_flip", "stuck_row")
FAULT_LOG_KINDS = CORRUPTION_KINDS + ("node_up", "node_down",
                                      "load_spike")
INTEGRITY_EVENTS = ("injected", "detected", "escape", "rehydrate")


def load_fault_log(path):
    """Parse a --fault-log-out JSONL; returns the corruption count."""
    corruptions = 0
    try:
        with open(path) as f:
            for i, line in enumerate(f):
                line = line.strip()
                if not line:
                    fail(f"{path}:{i + 1}: empty fault-log line")
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{path}:{i + 1}: bad JSON: {e}")
                kind = rec.get("kind")
                if kind not in FAULT_LOG_KINDS:
                    fail(f"{path}:{i + 1}: unknown kind {kind!r}")
                t = rec.get("t")
                if not isinstance(t, (int, float)) \
                        or not math.isfinite(t) or t < 0:
                    fail(f"{path}:{i + 1}: bad event time {t!r}")
                if kind in CORRUPTION_KINDS:
                    for key in ("shard", "replica", "table", "row",
                                "bit"):
                        if key not in rec:
                            fail(f"{path}:{i + 1}: corruption event "
                                 f"missing '{key}'")
                    corruptions += 1
    except OSError as e:
        fail(f"{path}: {e}")
    return corruptions


def check_integrity_events(instants, metrics, log_corruptions):
    """Reconcile injected-vs-detected accounting; returns instant count.

    The fault log records every corruption the injector drew, so it is
    the ground truth: the integrity.injected.* export must equal its
    corruption count, and detections can never exceed injections. The
    trace's integrity instants are emitted per event (injected: one
    per event that landed on a live replica; detected: one per row
    detection, so <= the detected counter which also counts FC hits;
    escape / rehydrate: exactly one per counted occurrence).
    Cross-checks are skipped per counter when the export omits it
    (integrity.* only exports when the defense plane ran).
    """
    seen = {}
    for ev in instants:
        if ev["cat"] != "integrity":
            continue
        if ev["name"] not in INTEGRITY_EVENTS:
            fail(f"unknown integrity instant '{ev['name']}'")
        seen[ev["name"]] = seen.get(ev["name"], 0) + 1

    exported = metrics.get("counters", {}) if metrics is not None else {}
    injected = None
    if "integrity.injected.rows" in exported:
        injected = exported["integrity.injected.rows"] + \
            exported.get("integrity.injected.fc", 0)
        if log_corruptions is not None and injected != log_corruptions:
            fail(f"fault log has {log_corruptions} corruption events "
                 f"but integrity.injected.* exports {injected}")
        detected = exported.get("integrity.detected.total", 0)
        if detected > injected:
            fail(f"integrity.detected.total = {detected} exceeds the "
                 f"{injected} injected corruptions")
    elif log_corruptions:
        fail(f"fault log has {log_corruptions} corruption events but "
             f"the metrics export has no integrity.injected.* counters")

    upper = injected if injected is not None else log_corruptions
    if upper is not None and seen.get("injected", 0) > upper:
        fail(f"trace has {seen['injected']} injected instants but only "
             f"{upper} corruptions were drawn")
    if metrics is not None:
        detected = exported.get("integrity.detected.total")
        if detected is not None and seen.get("detected", 0) > detected:
            fail(f"trace has {seen['detected']} detected instants but "
                 f"integrity.detected.total = {detected}")
        for name, counter in (("escape",
                               "integrity.responses.corrupted_served"),
                              ("rehydrate", "integrity.rehydrates")):
            want = exported.get(counter)
            if want is not None and seen.get(name, 0) != want:
                fail(f"{counter} = {want} but trace has "
                     f"{seen.get(name, 0)} '{name}' instants")
    return sum(seen.values())


REQUEST_PHASES = ("queue", "service", "straggler", "shard_straggler",
                  "retry", "hedge", "warmup", "scrub", "network",
                  "aggregate")
REQUEST_OUTCOMES = ("served", "shed_admission",
                    "shed_admission_deadline", "shed_deadline_queue",
                    "cancelled", "dropped_low_priority", "failed")

# (outcome, exported counter) pairs that must agree when the export
# carries the counter. `served` and `cancelled` are handled separately
# because their counter names differ between the serve and shard paths.
REQUEST_OUTCOME_COUNTERS = (
    ("shed_admission", "serving.items.shed"),
    ("shed_admission_deadline", "serving.shed.admission_deadline"),
    ("shed_deadline_queue", "serving.deadline.shed"),
    ("dropped_low_priority", "serving.items.dropped_low_priority"),
    ("failed", "sharded.inferences.failed"),
)

# (record tag, exported sharded.* counter): the per-record tags are the
# same increments that feed the run counters, so their sums must agree.
REQUEST_TAG_COUNTERS = (
    ("retries", "sharded.retries"),
    ("hedges", "sharded.hedges.issued"),
    ("hedge_wins", "sharded.hedges.won"),
)


def request_percentile(samples, pct):
    """numpy-style linear interpolation, mirroring core/stats.hh."""
    samples = sorted(samples)
    if len(samples) == 1:
        return samples[0]
    rank = pct / 100.0 * (len(samples) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return samples[lo] + (rank - lo) * (samples[hi] - samples[lo])


def load_request_log(path, tolerance):
    """Parse and validate a --request-log-out JSONL; returns records.

    Strict by design: a malformed or truncated log means the record
    plane is broken, so every violation is a hard failure — empty
    files, empty lines, non-object lines, unknown outcome or phase
    names, duplicate ids, and phase durations that do not tile the
    record's latency within --tolerance all fail loudly.
    """
    records = []
    seen_ids = set()
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        fail(f"{path}: {e}")
    if not lines:
        fail(f"{path}: empty request log")
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            fail(f"{path}:{i + 1}: empty request-log line")
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i + 1}: bad JSON: {e}")
        if not isinstance(rec, dict):
            fail(f"{path}:{i + 1}: record is not a JSON object")
        for key in ("id", "outcome", "arrival", "start", "finish",
                    "latency_s", "phases"):
            if key not in rec:
                fail(f"{path}:{i + 1}: record missing '{key}'")
        rid = rec["id"]
        if not isinstance(rid, int) or rid < 0:
            fail(f"{path}:{i + 1}: bad record id {rid!r}")
        if rid in seen_ids:
            fail(f"{path}:{i + 1}: duplicate record id {rid}")
        seen_ids.add(rid)
        if rec["outcome"] not in REQUEST_OUTCOMES:
            fail(f"{path}:{i + 1}: unknown outcome {rec['outcome']!r}")
        for key in ("arrival", "start", "finish", "latency_s"):
            v = rec[key]
            if not isinstance(v, (int, float)) or not math.isfinite(v) \
                    or v < 0:
                fail(f"{path}:{i + 1}: bad {key} {v!r}")
        if not (rec["arrival"] <= rec["start"] + 1e-12
                <= rec["finish"] + 2e-12):
            fail(f"{path}:{i + 1}: arrival/start/finish not monotone: "
                 f"{rec['arrival']} / {rec['start']} / {rec['finish']}")
        phases = rec["phases"]
        if not isinstance(phases, dict):
            fail(f"{path}:{i + 1}: phases is not an object")
        for name, v in phases.items():
            if name not in REQUEST_PHASES:
                fail(f"{path}:{i + 1}: unknown phase {name!r}")
            if not isinstance(v, (int, float)) or not math.isfinite(v) \
                    or v < 0:
                fail(f"{path}:{i + 1}: bad phase duration "
                     f"{name}={v!r}")
        lat = rec["latency_s"]
        tiled = sum(phases.values())
        if abs(tiled - lat) > max(tolerance * lat, 1e-9):
            fail(f"{path}:{i + 1}: phases sum to {tiled:.12g} but "
                 f"latency_s is {lat:.12g} "
                 f"(tolerance {tolerance * 100:.2f}%)")
        records.append(rec)
    return records


def check_request_log(records, metrics, path):
    """Reconcile the request log against the metrics export.

    Recomputes the p99-p50 blame decomposition from the records alone
    (the same math as obs::attributeTail) and requires the exported
    tail.blame.* gauges to agree within 1e-6 and to sum to 1. Counter
    cross-checks follow the usual convention: skipped per counter when
    the export omits it (exports are nonzero-gated and the serve/shard
    paths export disjoint counter sets).
    """
    outcome_counts = {}
    for rec in records:
        outcome_counts[rec["outcome"]] = \
            outcome_counts.get(rec["outcome"], 0) + 1

    served = [r for r in records if r["outcome"] == "served"]
    mass = dict.fromkeys(REQUEST_PHASES, 0.0)
    if served:
        latencies = [r["latency_s"] for r in served]
        p50 = request_percentile(latencies, 50.0)
        for rec in served:
            lat = rec["latency_s"]
            if lat <= p50 or lat <= 0.0:
                continue
            weight = (lat - p50) / lat
            for name, v in rec["phases"].items():
                mass[name] += v * weight
    total_mass = sum(mass.values())
    if total_mass > 0.0:
        blame = {name: m / total_mass for name, m in mass.items()}
    else:
        blame = dict.fromkeys(REQUEST_PHASES, 0.0)
        blame["service"] = 1.0

    if metrics is None:
        return
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})

    recorded = counters.get("tail.requests.recorded")
    if recorded is not None:
        dropped = counters.get("tail.requests.dropped", 0)
        if recorded - dropped != len(records):
            fail(f"tail.requests.recorded - dropped = "
                 f"{recorded} - {dropped} but {path} has "
                 f"{len(records)} records")

    want_served = None
    if "sharded.inferences.completed" in counters:
        want_served = counters["sharded.inferences.completed"]
    elif "serving.items.sla_met" in counters:
        want_served = counters["serving.items.sla_met"] + \
            counters.get("serving.items.sla_missed", 0)
    if want_served is not None \
            and outcome_counts.get("served", 0) != want_served:
        fail(f"metrics export says {want_served} served but {path} "
             f"has {outcome_counts.get('served', 0)} served records")
    want_cancelled = counters.get(
        "sharded.deadline.expired",
        counters.get("serving.deadline.cancelled"))
    if want_cancelled is not None \
            and outcome_counts.get("cancelled", 0) != want_cancelled:
        fail(f"metrics export says {want_cancelled} cancelled but "
             f"{path} has {outcome_counts.get('cancelled', 0)} "
             f"cancelled records")
    for outcome, counter in REQUEST_OUTCOME_COUNTERS:
        want = counters.get(counter)
        if want is not None and outcome_counts.get(outcome, 0) != want:
            fail(f"{counter} = {want} but {path} has "
                 f"{outcome_counts.get(outcome, 0)} "
                 f"'{outcome}' records")
    for tag, counter in REQUEST_TAG_COUNTERS:
        want = counters.get(counter)
        if want is None:
            continue
        got = sum(rec.get(tag, 0) for rec in records)
        if got != want:
            fail(f"{counter} = {want} but the {path} records sum "
                 f"their '{tag}' tags to {got}")

    exported_blame = {name[len("tail.blame."):]: v
                      for name, v in gauges.items()
                      if name.startswith("tail.blame.")}
    if exported_blame:
        for name, v in exported_blame.items():
            if name not in REQUEST_PHASES:
                fail(f"exported tail.blame.{name} is not a known cause")
            if abs(v - blame[name]) > 1e-6:
                fail(f"tail.blame.{name} = {v:.9f} but the log "
                     f"recomputes {blame[name]:.9f}")
        total = sum(exported_blame.values())
        if abs(total - 1.0) > 1e-6:
            fail(f"exported tail.blame.* fractions sum to {total:.9f}, "
                 f"not 1")
    elif recorded is not None and served:
        fail(f"metrics export has tail.requests.* but no tail.blame.* "
             f"gauges while {path} has {len(served)} served records")


def check_counters(counters, metrics):
    """Validate counter ('C') tracks; returns the number of tracks.

    A track is one (tid, name) series. Within a track timestamps must
    be monotone non-decreasing (counters ride the virtual clock, which
    only moves forward) and every value finite and non-negative. When
    a metrics JSON is supplied, the last value of a track whose name
    is also an exported counter or gauge must agree with it -- the
    final trace emission and the registry export read the same totals.
    """
    tracks = {}
    for ev in counters:
        value = ev.get("args", {}).get("value")
        if value is None or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or value < 0:
            fail(f"counter '{ev['name']}' has bad value "
                 f"{value!r} at ts {ev['ts']}")
        key = (ev["tid"], ev["name"])
        prev = tracks.get(key)
        if prev is not None and ev["ts"] < prev[0] - SLACK_US:
            fail(f"counter track {key}: ts went backwards "
                 f"({prev[0]:.3f} -> {ev['ts']:.3f})")
        tracks[key] = (ev["ts"], value)

    if metrics is not None:
        exported = {}
        exported.update(metrics.get("counters", {}))
        exported.update(metrics.get("gauges", {}))
        for (tid, name), (_, last) in tracks.items():
            want = exported.get(name)
            if want is None:
                continue  # trace-only track (not every track exports)
            if abs(last - want) > max(1.5, 1e-6 * abs(want)):
                fail(f"counter '{name}' (tid {tid}) ends at {last} but "
                     f"metrics export says {want}")
    return len(tracks)


def check_metrics(metrics, spans):
    if metrics.get("schema_version") != 1:
        fail(f"metrics schema_version is "
             f"{metrics.get('schema_version')!r}, want 1")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(f"metrics missing '{section}' object")
    for name, h in metrics["histograms"].items():
        pcts = [h.get(k, 0.0)
                for k in ("p50_s", "p95_s", "p99_s", "p999_s")]
        if any(a > b + 1e-12 for a, b in zip(pcts, pcts[1:])):
            fail(f"histogram '{name}' percentiles not ordered: {pcts}")
        if h.get("count", 0) > 0 and h.get("min_s", 0) > h.get("max_s", 0):
            fail(f"histogram '{name}' min > max")
    batches = metrics["counters"].get("serving.batches.total")
    if batches is not None:
        batch_spans = sum(1 for ev in spans
                          if ev["cat"] == "serve"
                          and ev["name"] == "batch")
        if batches != batch_spans:
            fail(f"serving.batches.total = {batches} but trace has "
                 f"{batch_spans} batch spans")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("metrics", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.01)
    ap.add_argument("--ops-only", action="store_true",
                    help="skip nesting + op/batch reconciliation "
                         "(for eval traces with no serving layer)")
    ap.add_argument("--require-track", action="append", default=[],
                    metavar="PREFIX",
                    help="fail unless a counter track with this name "
                         "prefix exists (repeatable)")
    ap.add_argument("--fault-log", metavar="FILE",
                    help="JSONL from --fault-log-out: cross-check "
                         "injected corruption against the integrity.* "
                         "export and trace instants")
    ap.add_argument("--request-log", metavar="FILE",
                    help="JSONL from --request-log-out: validate the "
                         "causal records and reconcile outcome/blame "
                         "accounting against the metrics export")
    args = ap.parse_args()

    trace = load_json(args.trace)
    spans, counters, instants = check_schema(trace)
    shard_only = (any(ev["cat"] == "shard" for ev in spans)
                  and not any(ev["cat"] == "serve" and ev["name"] == "batch"
                              for ev in spans))
    nested, rel = 0, None
    if not args.ops_only:
        nested = check_nesting(spans)
        if not shard_only:
            rel = check_reconciliation(spans, args.tolerance)
    metrics = load_json(args.metrics) if args.metrics else None
    overload = check_overload_events(instants, metrics)
    log_corruptions = (load_fault_log(args.fault_log)
                       if args.fault_log else None)
    integrity = check_integrity_events(instants, metrics,
                                       log_corruptions)
    requests = None
    if args.request_log:
        records = load_request_log(args.request_log, args.tolerance)
        check_request_log(records, metrics, args.request_log)
        requests = len(records)
    tracks = check_counters(counters, metrics)
    track_names = {name for ev in counters
                   for name in (ev["name"],)}
    for prefix in args.require_track:
        if not any(name.startswith(prefix) for name in track_names):
            fail(f"no counter track with prefix '{prefix}' "
                 f"(tracks: {sorted(track_names) or 'none'})")
    if metrics is not None:
        check_metrics(metrics, spans)
    if args.ops_only:
        recon = "ops-only (nesting/reconcile skipped)"
    elif rel is None:
        recon = f"{nested} nesting-checked, shard trace (no reconcile)"
    else:
        recon = (f"{nested} nesting-checked, op/batch reconcile "
                 f"within {rel * 100:.3f}%")
    log_note = (f", {log_corruptions} logged corruption(s)"
                if log_corruptions is not None else "")
    if requests is not None:
        log_note += f", {requests} request record(s) reconciled"
    print(f"check_trace: OK ({len(spans)} spans, {recon}, "
          f"{overload} deadline/brownout event(s), "
          f"{integrity} integrity event(s){log_note}, "
          f"{len(counters)} counter events on {tracks} track(s)"
          f"{', metrics ok' if metrics is not None else ''})")


if __name__ == "__main__":
    main()
