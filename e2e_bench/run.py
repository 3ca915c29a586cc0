#!/usr/bin/env python3
"""End-to-end benchmark of ProbKB knowledge expansion.

Builds the benchmark program and the probkb libraries from source (CMake,
into .bench_build/ at the repository root), then runs one workload of
workloads.json:

    python3 e2e_bench/run.py --workload expand_infer --seed 1 \
        --seconds 10 --trace 0

Human-readable lines come first; the last stdout line is the JSON result
({"correct", "attempted", "failed", "metrics"}). --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Build output goes to
stderr. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return {w["name"]: w for w in json.load(f)["workloads"]}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
              "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return False
    return True


def spec_flags(spec):
    """workloads.json "flags" -> e2e_bench flags (booleans as 0/1)."""
    out = []
    for key, value in spec["flags"].items():
        if isinstance(value, bool):
            value = int(value)
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="multiply the workload's KB scale (tests)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one spec flag (tests)")
    args = parser.parse_args()

    workloads = load_workloads()
    if args.workload not in workloads:
        print("unknown workload %r; known: %s"
              % (args.workload, ", ".join(sorted(workloads))), file=sys.stderr)
        return 2
    spec = json.loads(json.dumps(workloads[args.workload]))
    spec["flags"]["scale"] *= args.scale_factor
    for item in args.override:
        key, _, value = item.partition("=")
        spec["flags"][key] = value
    if not build():
        print("build failed", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("PROBKB_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += spec_flags(spec)
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
