#!/usr/bin/env python3
"""Alternating parent/change pairs of one end-to-end benchmark workload.

    python3 scripts/perfbench_pairs.py --parent HEAD --workdir ../smart-pairs \\
        --workload lulesh_median_space --seed 1 --pairs 8 [--align]

Copies two trees into fresh directories under --workdir, which must lie
outside the repository: the parent revision (`git archive`) and the change,
which is the working tree's tracked and untracked, not ignored files.  Runs
--pairs pairs of perfbench/run.py on one workload and seed, one run per
side, each as long as BENCHMARK.json's run_seconds, and swaps the order
every pair (the parent goes first in even pairs), so drift on a shared
host falls on both sides alike.
Each side builds its own Release tree on its first run; --align configures
both fresh builds with CXXFLAGS=-falign-functions=64, so that where the
linker places a hot loop moves neither side.

Prints every run's end-to-end metrics, then for each metric both sides'
median and quartiles, the change's relative move, whether that move is
larger than the parent's quartile distance, and the pairs the change won
(the direction each metric improves in comes from BENCHMARK.json).  Exits 1
if a run fails or reports a failed check.  perfbench/ is run as it is.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, binary=False):
    out = subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True)
    return out.stdout if binary else out.stdout.decode()


def archive(rev, dest):
    """Extracts revision `rev` into dest."""
    data = git("archive", "--format=tar", rev, binary=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)


def copy_work_tree(dest):
    """Copies the working tree's tracked and untracked, not ignored files."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if not src.is_file():  # deleted in the work tree
            continue
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dest / name)


def fresh_dir(workdir, side):
    dest = workdir / side
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    return dest


def run_once(tree, args, seconds, env):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-3000:])
        raise RuntimeError(f"{tree.name}: perfbench/run.py exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="directory for both copies, outside the repository")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--align", action="store_true",
                        help="build both sides with CXXFLAGS=-falign-functions=64")
    args = parser.parse_args()

    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        parser.error("--workdir must lie outside the repository")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    trees = {"parent": fresh_dir(workdir, "parent"), "change": fresh_dir(workdir, "change")}
    archive(args.parent, trees["parent"])
    copy_work_tree(trees["change"])
    env = dict(os.environ)
    if args.align:
        env["CXXFLAGS"] = (env.get("CXXFLAGS", "") + " -falign-functions=64").strip()

    values = {side: {name: [] for name in lower_is_better} for side in trees}
    failed = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            line = run_once(trees[side], args, seconds, env)
            failed += line["failed"] + (0 if line["correct"] else 1)
            metrics = line["metrics"]
            for name in lower_is_better:
                values[side][name].append(metrics[name]["value"])
            print(f"pair {pair} {side}: failed={line['failed']} " +
                  " ".join(f"{n}={metrics[n]['value']:.5g}" for n in lower_is_better),
                  flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s"
          f"{', -falign-functions=64' if args.align else ''}; parent {args.parent}")
    print(f"{'metric':<16} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'move':>8} {'> parent IQR':>12} {'wins':>6}")
    for name, lower in lower_is_better.items():
        p, c = values["parent"][name], values["change"][name]
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        move = (cm - pm) / pm if pm else 0.0
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        print(f"{name:<16} {f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>30}"
              f" {f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>30} {move:>+8.1%}"
              f" {'yes' if abs(cm - pm) > p3 - p1 else 'no':>12} {wins:>3}/{args.pairs}")
    if failed:
        print(f"{failed} failed checks or incorrect runs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
