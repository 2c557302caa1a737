#!/usr/bin/env python3
"""End-to-end benchmark of the Smart in-situ runtime.

    python3 perfbench/run.py --workload kmeans_d64 --seed 1 --seconds 10 --trace 0

Builds perfbench_e2e (Release only) from this checkout into
.bench_build/perfbench, runs one workload, checks its outputs against the
serial references, and prints every metric by name and unit.  The last line
of standard output is one JSON object: correct, attempted, failed (outputs
checked and mismatched) and metrics -- the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Raw samples, spans and a provenance
stamp are kept under .bench_out/.

Workloads and the reason each was chosen are listed in BENCHMARK.json and
perfbench/README.md.  Claims of a gain are confirmed on HELD_OUT_SEED, a
seed not used while tuning.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import summary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench_e2e"
WORKLOADS = ("kmeans_d64", "lulesh_median_space")
HELD_OUT_SEED = 1009
RUN_TIMEOUT_S = 160


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the build type.  The
    compiler's temporary files stay inside the build tree."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_e2e",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def git_commit():
    """HEAD of the checkout if it is a git work tree; never searches above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build_type = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    if build_type != "Release":
        log(f"run.py: refusing to benchmark a '{build_type}' build (need Release)")
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = OUT_DIR / f"raw-{tag}.json"
    spans_path = OUT_DIR / f"spans-{tag}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--spans", str(spans_path)]
    start = time.monotonic()
    try:
        subprocess.run(cmd, check=True, timeout=RUN_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"run.py: benchmark run failed: {e}")
        return 1
    wall = time.monotonic() - start

    raw = json.loads(raw_path.read_text())
    checks = raw["checks"]
    correct = checks["attempted"] > 0 and checks["failed"] == 0
    if args.trace:
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
        metrics = summary.per_layer(raw, spans)
        units = summary.PER_LAYER
        bases = {}
    else:
        metrics, bases = summary.end_to_end(raw)
        units = summary.END_TO_END

    provenance = dict(raw["provenance"], seed=args.seed, held_out_seed=HELD_OUT_SEED,
                      git_commit=git_commit())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "input": raw["input"], "steps": raw["steps"], "run_wall_s": wall,
              "provenance": provenance, "bases": bases,
              "error_rate": checks["failed"] / max(1, checks["attempted"]),
              "first_failure": checks["first_failure"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}: {raw['input']}")
    print(f"seed {args.seed} (held-out seed for gain claims: {HELD_OUT_SEED}); "
          f"{raw['ranks']} ranks x {raw['threads_per_rank']} threads; "
          f"{raw['steps']} timed steps after {raw['warmup_steps']} warm-up; "
          f"per-rank working set {raw['per_rank_working_set']} B")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if bases:
        print("bases " + json.dumps(bases, sort_keys=True))
    print(f"checks {checks['attempted']} attempted, {checks['failed']} failed "
          f"(error_rate {record['error_rate']:.6g})"
          + (f"; first failure: {checks['first_failure']}" if checks["failed"] else ""))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    line = summary.result_line(correct, checks["attempted"], checks["failed"], metrics, units)
    summary.validate_result(line, units)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
