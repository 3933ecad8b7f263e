#!/usr/bin/env python3
"""Tournament gate: validate bench_tournament's leaderboard and enforce the policy floors.

Usage:
    check_tournament.py tournament.out [--min-policies 5] [--min-workloads 5]
                        [--require-traces N]

The input is bench_tournament's raw stdout (human table plus one JSON object per line);
anything that does not parse as a JSON object with bench == "tournament" or
bench == "replay" is ignored.

Checks, all reported in one pass (no stop-at-first):
  * schema — every leaderboard record carries policy, workload, accesses, faults,
    hit_ratio, ns_per_fault, kills, rejects with sane ranges (0 <= hit_ratio <= 1,
    faults <= accesses, non-negative counts); every replay record carries policy, trace,
    records, faults, hit_ratio, virtual_fault_ns, kills, rejects under the same ranges;
  * coverage — at least --min-policies policies and --min-workloads workloads, and the
    grid is complete (every policy ran every workload, synthetic and trace-backed alike);
  * health — no cell was killed by the security checker or rejected at registration;
  * consistency — a trace's replay record and its tournament cell describe the same run
    (equal faults and record counts), and "source" tags match the replay rows;
  * floors — the score-based policies must beat FIFO where score-based eviction is the
    point: awrp and perceptron each need a strictly higher hit ratio than fifo on the
    hot_cold and looping workloads;
  * cost — on every workload, awrp's and the perceptron's ns_per_fault divided by fifo's
    must stay at or below MAX_COST_RATIO (see "The cost ceiling" below);
  * traces — with --require-traces N: at least N distinct replayed traces, a full
    policy x trace replay grid, and at least one learned policy (awrp or perceptron)
    strictly beating fifo's hit ratio on at least one real trace.

Exit status 0 when everything holds, 1 otherwise (every violation is listed).

The cost ceiling. ns_per_fault is host time over a cell's whole replay divided by its
faults, so the ratio compares what a learned policy's fault costs against fifo's on the
same reference string. Each cell is one short run (a few ms), so one preempted cell moves
its ratio a lot; the ceiling is set on the recorded tail, not on the median. Recorded with
`bench_tournament --traces traces` (5 synthetic workloads + 3 traces, 16 ratios per run)
on a 4-vCPU shared VM, Release build:
  * AgeScores programs, 20 runs with HIPEC_JIT=0 and 20 with HIPEC_JIT=1, 640 ratios:
    min 1.4, p25 3.7, median 5.4, p75 7.5, p90 9.4, p99 16.9, max 30.6; the largest ratio
    of each run ranged 6.4 to 30.6 (median 9.7).
  * The interpreted rotation programs they replaced, 10 runs with HIPEC_JIT=0, 160 ratios:
    min 18.6, p25 60.3, median 95.9, p75 154.1, max 509.3; every run had a ratio of at
    least 171.6, and 135 of the 160 were above 50.
MAX_COST_RATIO = 50 sits 1.6x above the worst ratio recorded for the AgeScores programs
and below the rotation programs' first quartile, so a return to per-page interpreted
rotations fails the gate on a healthy host while scheduling noise does not.
The roadmap's target of 3x is not met (the median is 5.4x) and is not what this gates.
"""

import argparse
import json
import sys

REQUIRED_FIELDS = ("policy", "workload", "accesses", "faults", "hit_ratio",
                   "ns_per_fault", "kills", "rejects")
REPLAY_REQUIRED_FIELDS = ("policy", "trace", "records", "faults", "hit_ratio",
                          "virtual_fault_ns", "kills", "rejects")
FLOOR_POLICIES = ("awrp", "perceptron")
FLOOR_WORKLOADS = ("hot_cold", "looping")
BASELINE_POLICY = "fifo"
MAX_COST_RATIO = 50.0


def parse_leaderboard(path):
    cells = {}
    replays = {}
    errors = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(rec, dict):
                continue
            bench = rec.get("bench")
            if bench == "tournament":
                missing = [f for f in REQUIRED_FIELDS if f not in rec]
                if missing:
                    errors.append(f"line {lineno}: missing field(s) {', '.join(missing)}")
                    continue
                key = (rec["policy"], rec["workload"])
                if key in cells:
                    errors.append(f"line {lineno}: duplicate cell {key[0]}/{key[1]}")
                    continue
                cells[key] = rec
            elif bench == "replay":
                missing = [f for f in REPLAY_REQUIRED_FIELDS if f not in rec]
                if missing:
                    errors.append(
                        f"line {lineno}: replay missing field(s) {', '.join(missing)}")
                    continue
                key = (rec["policy"], rec["trace"])
                if key in replays:
                    errors.append(f"line {lineno}: duplicate replay {key[0]}/{key[1]}")
                    continue
                replays[key] = rec
    return cells, replays, errors


def check_cell(rec):
    policy, workload = rec["policy"], rec["workload"]
    where = f"{policy}/{workload}"
    errors = []
    if not 0.0 <= rec["hit_ratio"] <= 1.0:
        errors.append(f"{where}: hit_ratio {rec['hit_ratio']} outside [0, 1]")
    if rec["accesses"] <= 0:
        errors.append(f"{where}: non-positive accesses {rec['accesses']}")
    if rec["faults"] < 0 or rec["faults"] > rec["accesses"]:
        errors.append(f"{where}: faults {rec['faults']} outside [0, accesses]")
    if rec["ns_per_fault"] < 0:
        errors.append(f"{where}: negative ns_per_fault {rec['ns_per_fault']}")
    if rec.get("source") not in (None, "trace", "synthetic"):
        errors.append(f"{where}: unknown source tag {rec['source']!r}")
    if rec["kills"] != 0:
        errors.append(f"{where}: policy was killed mid-run (kills={rec['kills']})")
    if rec["rejects"] != 0:
        errors.append(f"{where}: registration rejected (rejects={rec['rejects']})")
    return errors


def check_replay(rec):
    policy, trace = rec["policy"], rec["trace"]
    where = f"replay {policy}/{trace}"
    errors = []
    if not 0.0 <= rec["hit_ratio"] <= 1.0:
        errors.append(f"{where}: hit_ratio {rec['hit_ratio']} outside [0, 1]")
    if rec["records"] <= 0:
        errors.append(f"{where}: non-positive records {rec['records']}")
    if rec["faults"] < 0 or rec["faults"] > rec["records"]:
        errors.append(f"{where}: faults {rec['faults']} outside [0, records]")
    if rec["virtual_fault_ns"] < 0:
        errors.append(f"{where}: negative virtual_fault_ns {rec['virtual_fault_ns']}")
    if rec["kills"] != 0:
        errors.append(f"{where}: policy was killed mid-run (kills={rec['kills']})")
    if rec["rejects"] != 0:
        errors.append(f"{where}: registration rejected (rejects={rec['rejects']})")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("leaderboard", help="bench_tournament stdout capture")
    parser.add_argument("--min-policies", type=int, default=5)
    parser.add_argument("--min-workloads", type=int, default=5)
    parser.add_argument("--require-traces", type=int, default=0,
                        help="require at least N replayed real traces, a full "
                             "policy x trace grid, and a learned-policy win")
    args = parser.parse_args()

    cells, replays, errors = parse_leaderboard(args.leaderboard)
    policies = sorted({p for p, _ in cells})
    workloads = sorted({w for _, w in cells})
    traces = sorted({t for _, t in replays})

    if not cells:
        errors.append("no tournament records found in the input")
    if len(policies) < args.min_policies:
        errors.append(f"only {len(policies)} policies ({', '.join(policies)}); "
                      f"need at least {args.min_policies}")
    if len(workloads) < args.min_workloads:
        errors.append(f"only {len(workloads)} workloads ({', '.join(workloads)}); "
                      f"need at least {args.min_workloads}")
    for policy in policies:
        for workload in workloads:
            if (policy, workload) not in cells:
                errors.append(f"incomplete grid: no cell for {policy}/{workload}")

    for rec in cells.values():
        errors.extend(check_cell(rec))
    for rec in replays.values():
        errors.extend(check_replay(rec))

    # Consistency: a replay row and its tournament cell describe the same run — the trace
    # appears in the grid under its trace name with source == "trace", and the
    # deterministic counts agree.
    for (policy, trace), rec in sorted(replays.items()):
        cell = cells.get((policy, trace))
        if cell is None:
            errors.append(f"replay {policy}/{trace} has no matching tournament cell")
            continue
        if cell.get("source") != "trace":
            errors.append(f"cell {policy}/{trace}: replayed but source is "
                          f"{cell.get('source')!r}, expected 'trace'")
        if cell["faults"] != rec["faults"] or cell["accesses"] != rec["records"]:
            errors.append(
                f"replay {policy}/{trace} disagrees with its tournament cell "
                f"(faults {rec['faults']} vs {cell['faults']}, "
                f"records {rec['records']} vs {cell['accesses']})")

    # The acceptance floors: score-based eviction must pay off where it is supposed to.
    for workload in FLOOR_WORKLOADS:
        base = cells.get((BASELINE_POLICY, workload))
        if base is None:
            errors.append(f"floor check impossible: no {BASELINE_POLICY}/{workload} cell")
            continue
        for policy in FLOOR_POLICIES:
            rec = cells.get((policy, workload))
            if rec is None:
                errors.append(f"floor check impossible: no {policy}/{workload} cell")
                continue
            if rec["hit_ratio"] <= base["hit_ratio"]:
                errors.append(
                    f"floor violated: {policy} hit_ratio {rec['hit_ratio']:.4f} does not "
                    f"beat {BASELINE_POLICY} {base['hit_ratio']:.4f} on {workload}")
            else:
                print(f"floor ok: {policy} {rec['hit_ratio']:.4f} > "
                      f"{BASELINE_POLICY} {base['hit_ratio']:.4f} on {workload}")

    # The cost gate: a learned policy's fault may cost a bounded multiple of fifo's, on
    # every workload of the grid.
    for workload in workloads:
        base = cells.get((BASELINE_POLICY, workload))
        if base is None:
            continue  # already reported as an incomplete grid
        worst = None
        for policy in FLOOR_POLICIES:
            rec = cells.get((policy, workload))
            if rec is None:
                continue
            if base["ns_per_fault"] <= 0:
                errors.append(f"cost check impossible: {BASELINE_POLICY}/{workload} "
                              f"ns_per_fault is {base['ns_per_fault']}")
                break
            ratio = rec["ns_per_fault"] / base["ns_per_fault"]
            if ratio > MAX_COST_RATIO:
                errors.append(
                    f"cost ceiling violated: {policy} ns_per_fault {rec['ns_per_fault']:.1f} "
                    f"is {ratio:.1f}x {BASELINE_POLICY}'s {base['ns_per_fault']:.1f} on "
                    f"{workload} (ceiling {MAX_COST_RATIO}x)")
            worst = ratio if worst is None else max(worst, ratio)
        if worst is not None and worst <= MAX_COST_RATIO:
            print(f"cost ok: learned/{BASELINE_POLICY} ns_per_fault at most {worst:.1f}x "
                  f"on {workload}")

    # Trace requirements: real evidence must be present, fully replayed, and at least one
    # learned policy has to win somewhere on it.
    if args.require_traces > 0:
        if len(traces) < args.require_traces:
            errors.append(f"only {len(traces)} replayed trace(s) ({', '.join(traces)}); "
                          f"need at least {args.require_traces}")
        for policy in policies:
            for trace in traces:
                if (policy, trace) not in replays:
                    errors.append(f"incomplete replay grid: no {policy}/{trace} replay")
        learned_wins = []
        for trace in traces:
            base = replays.get((BASELINE_POLICY, trace))
            if base is None:
                continue
            for policy in FLOOR_POLICIES:
                rec = replays.get((policy, trace))
                if rec is not None and rec["hit_ratio"] > base["hit_ratio"]:
                    learned_wins.append(
                        f"{policy} {rec['hit_ratio']:.4f} > {BASELINE_POLICY} "
                        f"{base['hit_ratio']:.4f} on {trace}")
        if traces and not learned_wins:
            errors.append("no learned policy (" + ", ".join(FLOOR_POLICIES) +
                          f") beats {BASELINE_POLICY} on any replayed trace")
        for win in learned_wins:
            print(f"replay floor ok: {win}")

    print(f"check_tournament: {len(cells)} cells, {len(policies)} policies, "
          f"{len(workloads)} workloads, {len(traces)} replayed traces")
    if errors:
        for message in errors:
            print(f"check_tournament: {message}", file=sys.stderr)
        print(f"check_tournament: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("check_tournament: leaderboard complete, all floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
