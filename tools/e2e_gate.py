#!/usr/bin/env python3
"""Parent-vs-change gate over the end-to-end benchmark.

Runs e2e_bench/run.py in two source trees, the parent commit and the
change, on every workload of BENCHMARK.json, alternating which side runs
first, and exits 1 when the change is worse than the parent:

  * an end_to_end metric's median over the repetitions is worse than the
    parent's median by more than that metric's bound in BENCHMARK.json;
  * a run reports correct: false, or the change's failed/attempted share
    is higher than the parent's;
  * one traced run per side disagrees on grounding.new_atoms,
    factor.variables or factor.factors (batch workloads), or
    mpp.bytes_shipped grows by more than 10%;
  * a run exits non-zero or prints no parsable result.

Both sides run on the same host in the same job, so no baseline is
committed and none can go stale. BENCHMARK.json is read, never written.

    git worktree add --detach ../parent HEAD~1
    python3 tools/e2e_gate.py --parent ../parent --change .
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Untraced runs per side and workload; the verdict compares medians.
REPETITIONS = 5
# KB scale and serve seconds of the untraced runs: half the benchmark's
# scale keeps the gate near 5 minutes on 4 cores.
SCALE_FACTOR = 0.5
SECONDS = 3.0
# Seed of the first pair; pair i uses FIRST_SEED + i.
FIRST_SEED = 1

# Counts that depend only on the KBs, never on timing: any difference
# between the sides is a change in what the program computes.
COUNT_METRICS = ("grounding.new_atoms", "factor.variables", "factor.factors")
BYTES_METRIC = "mpp.bytes_shipped"
BYTES_BOUND = 0.10
# serve_mixed's writer publishes on a wall-clock schedule, so how many
# iterations (and new atoms) a run reaches depends on timing.
TIMED_WORKLOADS = ("serve_mixed",)
# Traced runs check that phase spans cover all but 5% of the traced time.
# At half scale the traced total is ~0.2 s and one ~12 ms stall crossed
# that line (1 of 36 traced runs), so the traced pair runs at the
# workload's own scale.
TRACE_SCALE_FACTOR = 1.0


def parse_result(stdout):
    """The run's last stdout line as a result dict, or None when it is
    missing or malformed."""
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or not isinstance(
            result.get("metrics"), dict):
        return None
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            return None
    return result


def metric(result, name):
    """A metric's value, or None when the result does not carry it."""
    entry = result["metrics"].get(name)
    if not isinstance(entry, dict) or not isinstance(
            entry.get("value"), (int, float)):
        return None
    return float(entry["value"])


def worse_fraction(parent, change, better):
    """How much worse `change` is than `parent`, as a fraction of the
    parent (negative when better)."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(parent)


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted > 0 else None


def judge(workload, end_to_end, parent_runs, change_runs, parent_trace,
          change_trace):
    """Returns (report lines, failure lines) for one workload.

    `end_to_end` is BENCHMARK.json's list of {name, better, bound};
    `*_runs` are parse_result() values of the untraced repetitions (None
    for a run without a result) and `*_trace` of the traced run."""
    lines, failures = [], []
    sides = {"parent": parent_runs, "change": change_runs}
    for side, runs in sides.items():
        if not runs:
            failures.append("%s: no %s runs" % (workload, side))
        for i, result in enumerate(runs):
            if result is None:
                failures.append("%s: %s run %d printed no result"
                                % (workload, side, i + 1))
            elif result["correct"] is not True:
                failures.append("%s: %s run %d reported correct: %s"
                                % (workload, side, i + 1, result["correct"]))
    for side, result in (("parent", parent_trace), ("change", change_trace)):
        if result is None:
            failures.append("%s: %s traced run printed no result"
                            % (workload, side))
        elif result["correct"] is not True:
            failures.append("%s: %s traced run reported correct: %s"
                            % (workload, side, result["correct"]))
    if failures:
        return lines, failures

    shares = {side: failed_share(runs) for side, runs in sides.items()}
    if shares["parent"] is None or shares["change"] is None:
        failures.append("%s: a side attempted no operations" % workload)
    else:
        lines.append("%s: failed share parent %.4f change %.4f"
                     % (workload, shares["parent"], shares["change"]))
        if shares["change"] > shares["parent"]:
            failures.append("%s: failed share rose %.4f -> %.4f"
                            % (workload, shares["parent"], shares["change"]))

    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        values = {}
        for side, runs in sides.items():
            values[side] = [metric(r, name) for r in runs]
        if any(v is None for vs in values.values() for v in vs):
            failures.append("%s: %s missing from a run" % (workload, name))
            continue
        parent = statistics.median(values["parent"])
        change = statistics.median(values["change"])
        worse = worse_fraction(parent, change, better)
        verdict = "FAIL" if worse > bound else "ok"
        lines.append("%s: %-24s parent %.6g  change %.6g  worse %+.1f%% "
                     "(bound %.0f%%) %s" % (workload, name, parent, change,
                                            100 * worse, 100 * bound,
                                            verdict))
        if worse > bound:
            failures.append("%s: %s median %.6g -> %.6g is %.1f%% worse, "
                            "bound %.0f%%" % (workload, name, parent, change,
                                              100 * worse, 100 * bound))

    counts = () if workload in TIMED_WORKLOADS else COUNT_METRICS
    for name in counts + (BYTES_METRIC,):
        parent = metric(parent_trace, name)
        change = metric(change_trace, name)
        if parent is None or change is None:
            failures.append("%s: traced %s missing" % (workload, name))
            continue
        lines.append("%s: traced %-20s parent %.0f  change %.0f"
                     % (workload, name, parent, change))
        if name == BYTES_METRIC:
            if worse_fraction(parent, change, "lower") > BYTES_BOUND:
                failures.append("%s: %s grew %.0f -> %.0f (bound %.0f%%)"
                                % (workload, name, parent, change,
                                   100 * BYTES_BOUND))
        elif parent != change:
            failures.append("%s: traced %s differs: parent %.0f, change %.0f"
                            % (workload, name, parent, change))
    return lines, failures


def run_bench(tree, workload, seed, seconds, trace, scale_factor):
    """One run.py invocation in `tree`; returns (result or None, wall s)."""
    cmd = [sys.executable, os.path.join(tree, "e2e_bench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--scale-factor",
           str(scale_factor)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.monotonic() - start
    result = parse_result(proc.stdout) if proc.returncode == 0 else None
    if result is None:
        sys.stderr.write("run failed (exit %d): %s\n%s\n"
                         % (proc.returncode, " ".join(cmd),
                            proc.stderr[-2000:]))
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="source tree of the parent commit")
    parser.add_argument("--change", default=ROOT,
                        help="source tree of the change (default: this one)")
    parser.add_argument("--workload", action="append", default=[],
                        help="gate only this workload (repeatable)")
    parser.add_argument("--json", default="",
                        help="also write every result and the verdict here")
    args = parser.parse_args()

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]

    start = time.monotonic()
    all_lines, all_failures, record = [], [], {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        traces = {}
        for rep in range(REPETITIONS + 1):
            # Alternate which side goes first so drift in the host's speed
            # over the job lands on both sides alike.
            order = ("parent", "change") if rep % 2 == 0 else ("change",
                                                               "parent")
            # The pair after the timed repetitions is the traced one.
            trace = 1 if rep == REPETITIONS else 0
            scale = TRACE_SCALE_FACTOR if trace else SCALE_FACTOR
            for side in order:
                result, wall = run_bench(trees[side], workload,
                                         FIRST_SEED + rep, SECONDS, trace,
                                         scale)
                print("%s %s seed %d trace %d: %.1f s wall, %s"
                      % (workload, side, FIRST_SEED + rep, trace, wall,
                         "ok" if result else "NO RESULT"), flush=True)
                if trace:
                    traces[side] = result
                else:
                    runs[side].append(result)
        lines, failures = judge(workload, benchmark["end_to_end"],
                                runs["parent"], runs["change"],
                                traces["parent"], traces["change"])
        all_lines += lines
        all_failures += failures
        record[workload] = {"runs": runs, "traces": traces}

    wall = time.monotonic() - start
    print("\n".join([""] + all_lines))
    print("\ne2e gate: %d workload(s), %d repetitions per side, %.0f s wall"
          % (len(workloads), REPETITIONS, wall))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workloads": record, "failures": all_failures,
                       "wall_s": wall}, f, indent=1)
    if all_failures:
        print("FAIL:\n  " + "\n  ".join(all_failures))
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
