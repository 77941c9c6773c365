#!/usr/bin/env python3
"""Schema-check the observability artifacts a traced run leaves behind.

Validates three files (the latter two optional):

  * a Chrome trace-event JSON (SimulationConfig::trace_path): the
    {"traceEvents": [...]} envelope, per-event required fields, and —
    the part a JSON linter cannot see — the span *hierarchy*: complete
    ("X") events on each track must properly nest, track 0 must hold
    tick spans with the phase spans strictly inside them, every
    instant must fall inside some tick, and every adaptive.choice
    instant must name an integer family and a scan/rebuild choice;
  * a metrics JSON-lines file (SimulationConfig::metrics_path): one
    {"tick": N, "metrics": {...}} object per line, ticks strictly
    increasing, every snapshot carrying the counters/gauges/histograms
    sections;
  * a flight-recorder dump: a "reason" string and a "ticks" ring whose
    entries carry tick/ns/rows and a deltas object.

Exit 0 when everything holds, 1 with one line per violation otherwise.
CI runs this against examples/trace.cpp output, so a change that breaks
the Perfetto-loadable shape fails the examples-smoke job rather than a
human's late-night profiling session.

Usage:
  tools/validate_trace.py TRACE_JSON [METRICS_JSONL] [FLIGHT_JSON]
"""

import json
import sys

errors = []


def fail(msg):
    errors.append(msg)


def validate_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents envelope")
        return
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents empty")
        return

    spans_by_tid = {}
    instants = []
    for i, ev in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in ev:
                fail(f"{path}: event {i} missing '{field}'")
                return
        if "args" in ev and not isinstance(ev["args"], dict):
            fail(f"{path}: event {i} args is not an object")
        if ev["ph"] == "X":
            if "dur" not in ev or ev["dur"] < 0:
                fail(f"{path}: complete event {i} ({ev['name']}) "
                     "missing/negative dur")
                return
            spans_by_tid.setdefault(ev["tid"], []).append(ev)
        elif ev["ph"] == "i":
            if ev.get("s") != "t":
                fail(f"{path}: instant event {i} ({ev['name']}) "
                     "missing thread scope")
            instants.append(ev)
        else:
            fail(f"{path}: event {i} has unknown phase '{ev['ph']}'")

    # Track 0 holds the tick spans with the phase spans inside them.
    ticks = [e for e in spans_by_tid.get(0, []) if e["name"] == "tick"]
    phases = [e for e in spans_by_tid.get(0, []) if e["name"] != "tick"]
    if not ticks:
        fail(f"{path}: no tick spans on track 0")
        return
    if not phases:
        fail(f"{path}: no phase spans on track 0")

    def covering_tick(ts, dur=0.0):
        return any(t["ts"] <= ts and ts + dur <= t["ts"] + t["dur"]
                   for t in ticks)

    for p in phases:
        if not covering_tick(p["ts"], p["dur"]):
            fail(f"{path}: phase span '{p['name']}' at ts={p['ts']} "
                 "outside every tick span")
    for ins in instants:
        if not covering_tick(ins["ts"]):
            fail(f"{path}: instant '{ins['name']}' at ts={ins['ts']} "
                 "outside every tick span")

    # The adaptive evaluator's re-plan instants name an integer family
    # and one of the cost model's two choices.
    for ins in instants:
        if ins["name"] != "adaptive.choice":
            continue
        args = ins.get("args", {})
        family = args.get("family")
        if not isinstance(family, int) or isinstance(family, bool):
            fail(f"{path}: adaptive.choice at ts={ins['ts']} has no "
                 f"integer 'family' (got {family!r})")
        if args.get("choice") not in ("scan", "rebuild"):
            fail(f"{path}: adaptive.choice at ts={ins['ts']} has choice "
                 f"{args.get('choice')!r}, not 'scan' or 'rebuild'")

    # Proper nesting per track: with events sorted (ts asc, dur desc) a
    # child must end before its enclosing span does.
    for tid, spans in spans_by_tid.items():
        spans = sorted(spans, key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in spans:
            while stack and ev["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack and ev["ts"] + ev["dur"] > (stack[-1]["ts"] +
                                                 stack[-1]["dur"]) + 1e-6:
                fail(f"{path}: tid {tid} span '{ev['name']}' at "
                     f"ts={ev['ts']} overlaps '{stack[-1]['name']}' "
                     "without nesting")
            stack.append(ev)

    # Worker tracks (tid >= 1) hold the per-chunk spans; the track id is
    # 1 + chunk, so the args must agree with the track.
    for tid, spans in spans_by_tid.items():
        if tid == 0:
            continue
        for ev in spans:
            chunk = ev.get("args", {}).get("chunk")
            if chunk is not None and chunk != tid - 1:
                fail(f"{path}: chunk span on tid {tid} claims chunk {chunk}")

    n_spans = sum(len(s) for s in spans_by_tid.values())
    print(f"{path}: {len(ticks)} ticks, {n_spans} spans, "
          f"{len(instants)} instants, {len(spans_by_tid)} tracks: OK")


def validate_metrics(path):
    prev_tick = None
    lines = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            lines += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON ({e})")
                return
            if not isinstance(obj.get("tick"), int):
                fail(f"{path}:{lineno}: missing integer 'tick'")
                return
            if prev_tick is not None and obj["tick"] <= prev_tick:
                fail(f"{path}:{lineno}: tick {obj['tick']} not increasing")
            prev_tick = obj["tick"]
            metrics = obj.get("metrics")
            if not isinstance(metrics, dict):
                fail(f"{path}:{lineno}: missing 'metrics' object")
                return
            for section in ("counters", "gauges", "histograms"):
                if section not in metrics:
                    fail(f"{path}:{lineno}: metrics missing '{section}'")
    if lines == 0:
        fail(f"{path}: no snapshots")
    else:
        print(f"{path}: {lines} snapshots: OK")


def validate_flight(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc.get("reason"), str):
        fail(f"{path}: missing 'reason'")
    ticks = doc.get("ticks")
    if not isinstance(ticks, list) or not ticks:
        fail(f"{path}: missing/empty 'ticks' ring")
        return
    for i, rec in enumerate(ticks):
        for field in ("tick", "ns", "rows"):
            if not isinstance(rec.get(field), int):
                fail(f"{path}: ring entry {i} missing integer '{field}'")
        if not isinstance(rec.get("deltas"), dict):
            fail(f"{path}: ring entry {i} missing 'deltas' object")
    print(f"{path}: {len(ticks)}-tick ring: OK")


def main(argv):
    if len(argv) < 2 or len(argv) > 4:
        print(__doc__, file=sys.stderr)
        return 2
    validate_trace(argv[1])
    if len(argv) > 2:
        validate_metrics(argv[2])
    if len(argv) > 3:
        validate_flight(argv[3])
    for msg in errors:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
