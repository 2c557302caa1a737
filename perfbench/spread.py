#!/usr/bin/env python3
"""Runs one workload over several seeds and reports, per end-to-end metric,
the median and the quartile spread ((Q3 - Q1) / median) against the bound
BENCHMARK.json fixes -- the steadiness test a benchmark change must pass.

    python3 perfbench/spread.py --workload lulesh_median_space --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import summary  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b range or comma list")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    failures = 0
    for seed in parse_seeds(args.seeds):
        out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            return 1
        line = json.loads(out.stdout.strip().splitlines()[-1])
        failures += 0 if line["correct"] else 1
        for name in values:
            values[name].append(line["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)

    status = 0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = summary.quartile_spread(values[name])
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        if spread > bound:
            status = 1
        print(f"{name:18s} median {statistics.median(values[name]):.6g} {metric['unit']:6s} "
              f"spread {spread:.4f} bound {bound} -> {verdict}")
    print(f"runs with failed checks or errors: {failures}")
    return status if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
