#!/usr/bin/env python3
"""Compare a bench_suite BENCH_scenarios.json run against a committed baseline.

Both files are JSON lines: a meta object ({"bench": "scenarios", ...})
followed by one object per benchmark cell, keyed by
(scenario, mode, units, threads, sharing, compiled, storage, sessions)
with an ns_per_tick measurement and a per-phase breakdown
({"phases": [{"name": ..., "ns_per_tick": ...}]}).
Cells recorded before the aggregate-sharing or compiled-evaluation sweeps
existed carry no "sharing" / "compiled" field and default to "on" (the
engine's defaults for both); legacy cells from the retired in-process
shard sweep carry a "shards" field: shards=1 rows are ordinary cells,
rows with more shards measured a removed configuration and are skipped;
cells recorded before the multi-tenant serving sweep carry no "sessions" field
and default to 1 (a solo simulation, no SessionManager); cells recorded
before the disk-backed storage sweep carry no "storage" field and
default to "off" (the in-memory engine). Cells may
also carry informational counters (shared_hits, memo_entries) and — when
produced with bench_suite --metrics — a "metrics" object holding the
deterministic metrics-registry snapshot. Both ride along into refreshed
baselines but are never compared as a gate — only ns_per_tick can
regress a cell. When both sides of a regressed cell carry metrics, the
changed deterministic counters (index probes, memo hits, VM lane ops,
...) are printed next to the phase deltas as diagnostic context: "25%
slower, and the probe count doubled" usually names the causal change
outright.

Absolute ns/tick is machine-dependent, so raw ratios against a baseline
recorded on different hardware would trip on machine speed, not code.
The comparator therefore normalizes every cell's current/baseline ratio
by the *median* ratio across cells — and the median is computed over
MATCHED cells only (present in both files). Cells that exist on just one
side must never enter the normalization factor: a newly added mode or
scenario, which has no baseline ratio at all, would otherwise shift the
median and could mask (or fake) regressions in the cells that do have
history. Three guards keep the normalization honest:

  * only matched cells contribute to the median drift factor;
  * drift below 1 is never used to penalize cells — a PR that speeds up
    most of the suite must not fail the cells it left untouched;
  * drift above --max-drift (default 3x) fails the run outright: that
    much uniform slowdown is either a genuinely slower runner class
    (refresh the baseline) or a global regression that normalization
    would otherwise hide.

A >threshold (default 20%) normalized slowdown in any cell, or a cell
that disappeared from the current run, fails the check. Each regressed
cell is reported with its per-phase deltas, so "battle slowed down 25%"
comes annotated with "and it is all in index-build" — the phase
breakdown usually names the culprit subsystem directly.

Usage:
  tools/bench_compare.py CURRENT BASELINE [--threshold 0.20]
  tools/bench_compare.py CURRENT BASELINE --update-baseline
      copies CURRENT over BASELINE (after printing the comparison) and
      exits 0 — the deliberate refresh path, used when a new mode or
      scenario column is introduced or the runner class changes.
"""

import argparse
import json
import shutil
import statistics
import sys


def load_cells(path):
    """Returns (meta, {key: cell}) from a bench_suite JSON-lines file."""
    meta = {}
    cells = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("bench") == "scenarios":
                meta = obj
                continue
            if obj.get("shards", 1) != 1:
                continue
            key = (
                obj.get("scenario"),
                obj.get("mode"),
                obj.get("units"),
                obj.get("threads"),
                obj.get("sharing", "on"),
                obj.get("compiled", "on"),
                obj.get("storage", "off"),
                obj.get("sessions", 1),
            )
            if None in key:
                continue
            cells[key] = obj
    return meta, cells


def phases_of(cell):
    """Phase name -> ns_per_tick for one cell (empty if not recorded)."""
    return {
        p["name"]: p["ns_per_tick"]
        for p in cell.get("phases", [])
        if "name" in p and "ns_per_tick" in p
    }


def phase_deltas(base_cell, cur_cell, drift):
    """Per-phase (name, base, cur, normalized ratio) rows, worst first.

    Phases present on only one side are reported with the other side as 0
    (a new pipeline phase, or one that disappeared).
    """
    base_phases = phases_of(base_cell)
    cur_phases = phases_of(cur_cell)
    rows = []
    for name in sorted(set(base_phases) | set(cur_phases)):
        base = base_phases.get(name, 0)
        cur = cur_phases.get(name, 0)
        norm = (cur / base / drift) if base > 0 else float("inf" if cur else 1)
        rows.append((name, base, cur, norm))
    rows.sort(key=lambda r: -(r[2] - r[1] * drift))
    return rows


def print_phase_deltas(base_cell, cur_cell, drift, indent="    "):
    for name, base, cur, norm in phase_deltas(base_cell, cur_cell, drift):
        flag = "  <<" if base > 0 and norm > 1.0 and (cur - base * drift) > 0 else ""
        norm_str = f"{norm:8.3f}" if norm != float("inf") else "     new"
        print(
            f"{indent}{name:<16} {base:>12} -> {cur:>12} ns/tick"
            f"  norm {norm_str}{flag}"
        )


def metric_deltas(base_cell, cur_cell):
    """Changed deterministic counters as (name, base, cur), biggest first.

    Cells recorded without bench_suite --metrics carry no "metrics"
    object; unless BOTH sides have one there is nothing meaningful to
    diff (every counter would read as new) and the result is empty. The
    snapshot holds only the deterministic counter subset, so any delta
    reflects a code change, never scheduling noise.
    """
    if "metrics" not in base_cell or "metrics" not in cur_cell:
        return []
    base = base_cell["metrics"].get("counters", {})
    cur = cur_cell["metrics"].get("counters", {})
    rows = [
        (name, base.get(name, 0), cur.get(name, 0))
        for name in sorted(set(base) | set(cur))
        if base.get(name, 0) != cur.get(name, 0)
    ]
    rows.sort(key=lambda r: -abs(r[2] - r[1]))
    return rows


def print_metric_deltas(base_cell, cur_cell, indent="    ", limit=12):
    """Diagnostic context only — metric deltas annotate a regression
    report but never affect the exit status."""
    rows = metric_deltas(base_cell, cur_cell)
    if not rows:
        if "metrics" in base_cell and "metrics" in cur_cell:
            print(f"{indent}deterministic counters unchanged")
        return
    for name, base, cur in rows[:limit]:
        print(f"{indent}{name:<36} {base:>14} -> {cur:>14}")
    if len(rows) > limit:
        print(f"{indent}... {len(rows) - limit} more changed counter(s)")


def main():
    parser = argparse.ArgumentParser(
        description="fail on >threshold ns/tick regression vs a baseline"
    )
    parser.add_argument("current", help="freshly produced BENCH_scenarios.json")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed per-cell slowdown after drift normalization "
        "(0.20 = 20%%)",
    )
    parser.add_argument(
        "--max-drift",
        type=float,
        default=3.0,
        help="fail outright if the median current/baseline ratio exceeds "
        "this (uniform slowdowns must not hide behind normalization)",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="print per-phase deltas for every matched cell, not just "
        "regressed ones",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="after printing the comparison, overwrite BASELINE with "
        "CURRENT and exit 0 (deliberate refresh)",
    )
    args = parser.parse_args()

    cur_meta, current = load_cells(args.current)
    base_meta, baseline = load_cells(args.baseline)
    if not current:
        print(f"error: no benchmark cells in {args.current}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: no benchmark cells in {args.baseline}", file=sys.stderr)
        return 2
    if cur_meta.get("ticks") != base_meta.get("ticks"):
        print(
            f"note: tick counts differ (current {cur_meta.get('ticks')}, "
            f"baseline {base_meta.get('ticks')}); ns/tick comparison is "
            "still meaningful but noisier"
        )

    missing = sorted(k for k in baseline if k not in current)
    new_cells = sorted(k for k in current if k not in baseline)
    # Only cells present in BOTH files may shape the drift factor; see the
    # module docstring for why unmatched cells are excluded.
    matched = sorted(k for k in baseline if k in current)
    if not matched:
        # A deliberate refresh must work precisely when nothing matches
        # any more (renamed scenarios, new cell-key scheme).
        if args.update_baseline:
            shutil.copyfile(args.current, args.baseline)
            print(
                "no cells matched; baseline refreshed: "
                f"{args.current} -> {args.baseline}"
            )
            return 0
        print("error: current and baseline share no cells", file=sys.stderr)
        return 2

    ratios = {
        k: current[k]["ns_per_tick"] / max(1, baseline[k]["ns_per_tick"])
        for k in matched
    }
    median_ratio = statistics.median(ratios.values())
    # Only slowdown drift is normalized out; a mostly-faster run must not
    # turn its untouched cells into "regressions".
    drift = max(1.0, median_ratio)
    print(
        f"{len(matched)} matched cells ({len(new_cells)} current-only "
        f"excluded from normalization); median current/baseline ratio "
        f"{median_ratio:.3f} (drift {drift:.3f} normalized out)"
    )
    if median_ratio > args.max_drift and not args.update_baseline:
        print(
            f"FAIL: median ratio {median_ratio:.2f} exceeds --max-drift "
            f"{args.max_drift:.2f}: either the whole suite regressed or the "
            "runner class changed — investigate, or refresh the baseline "
            "deliberately with --update-baseline",
            file=sys.stderr,
        )
        return 1

    header = f"{'scenario':<14} {'mode':<8} {'units':>6} {'thr':>4} " \
             f"{'shr':>3} {'vm':>3} {'dsk':>3} {'ses':>3} " \
             f"{'base ns/tick':>13} " \
             f"{'cur ns/tick':>13} {'norm ratio':>10}"
    print(header)
    failures = []
    for k in matched:
        norm = ratios[k] / drift
        scenario, mode, units, threads, sharing, compiled, storage, \
            sessions = k
        flag = ""
        if norm > 1.0 + args.threshold:
            failures.append((k, norm))
            flag = "  << REGRESSION"
        # Sharing counters are informational: printed when present so the
        # hit-rate trajectory is visible in CI logs, never compared.
        hits = current[k].get("shared_hits")
        info = f"  hits {hits}" if flag == "" and hits else ""
        print(
            f"{scenario:<14} {mode:<8} {units:>6} {threads:>4} "
            f"{sharing:>3} {compiled:>3} {storage:>3} "
            f"{sessions:>3} "
            f"{baseline[k]['ns_per_tick']:>13} "
            f"{current[k]['ns_per_tick']:>13} {norm:>10.3f}{flag}{info}"
        )
        if args.phases or flag:
            print_phase_deltas(baseline[k], current[k], drift)
            print_metric_deltas(baseline[k], current[k])

    if new_cells:
        print(f"{len(new_cells)} new cell(s) not in the baseline (ok)")

    status = 0
    if missing:
        print(
            f"FAIL: {len(missing)} baseline cell(s) missing from the current "
            f"run: {missing[:5]}{' ...' if len(missing) > 5 else ''}",
            file=sys.stderr,
        )
        status = 1
    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"FAIL: {len(failures)} cell(s) regressed more than "
            f"{args.threshold:.0%} (worst: {worst[0]} at {worst[1]:.2f}x; "
            "per-phase deltas above name the slow subsystem)",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(f"OK: no cell regressed more than {args.threshold:.0%}")

    if args.update_baseline:
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline refreshed: {args.current} -> {args.baseline}")
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
