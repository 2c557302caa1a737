#!/usr/bin/env python3
"""Bench regression gate over the committed std::map pairs.

Wall-clock numbers from a shared container are too noisy to gate on
directly, so the gate compares *pair ratios* instead: each committed pair
(the flat CombinationMap against the std::map it replaced, measured in the
same process seconds apart) yields new_time/legacy_time, a machine-relative
speedup that is stable across hosts.  A fresh run whose ratio degrades more
than the slack factor against the committed baseline (BENCH_core.json)
means the CombinationMap side genuinely slowed down.

Every other path's property has a deterministic test instead of a ratio;
these pairs stay until the end-to-end figure ledger (ROADMAP item 1)
guards the map.

Usage: bench_gate.py <committed.json> <fresh.json>

Exits nonzero when any pair regresses past SLACK (a fresh ratio more than
1.4x the committed one fails).  Pairs missing from either file are
reported and skipped, not failed, so the gate tolerates filter changes and
freshly added benches.
"""

import json
import sys

# (legacy benchmark, current benchmark): names as emitted by
# bench/micro_core_ops.cpp, including the /arg suffixes.
PAIRS = [
    ("BM_LegacyStdMapAccumulate/100", "BM_ReductionMapAccumulate/100"),
    ("BM_LegacyStdMapAccumulate/10000", "BM_ReductionMapAccumulate/10000"),
    ("BM_LegacyStdMapInsert/10000", "BM_CombinationMapInsert/10000"),
]

# A fresh ratio more than SLACK times the committed one fails the gate.
SLACK = 1.4

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_runs(path):
    """name -> benchmark entry (aggregates skipped; first run of a name wins)."""
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        runs.setdefault(b["name"], b)
    return runs


def real_time_ns(runs, name):
    """real_time in ns; None when absent."""
    b = runs.get(name)
    if b is None:
        return None
    return b["real_time"] * _UNIT_NS[b.get("time_unit", "ns")]


def main(argv):
    args = list(argv[1:])
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed = load_runs(args[0])
    fresh = load_runs(args[1])

    failures = []
    checked = 0
    for legacy, current in PAIRS:
        values = {
            (name, which): real_time_ns(runs, name)
            for name in (legacy, current)
            for which, runs in (("committed", committed), ("fresh", fresh))
        }
        missing = sorted({name for (name, _), v in values.items() if v is None})
        if missing:
            print(f"   gate skip: {current} (missing: {', '.join(missing)})")
            continue
        committed_ratio = values[(current, "committed")] / values[(legacy, "committed")]
        fresh_ratio = values[(current, "fresh")] / values[(legacy, "fresh")]
        checked += 1
        verdict = "ok"
        if fresh_ratio > SLACK * committed_ratio:
            verdict = "REGRESSED"
            failures.append(current)
        print(
            f"   gate {verdict}: {current} ratio {fresh_ratio:.3f} "
            f"(committed {committed_ratio:.3f}, limit {SLACK * committed_ratio:.3f})"
        )

    if failures:
        print(f"bench gate: {len(failures)} pair(s) regressed >{(SLACK - 1) * 100:.0f}%: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    if checked == 0:
        print("bench gate: no comparable pairs found", file=sys.stderr)
        return 1
    print(f"   bench gate ok: {checked} pair(s) within {(SLACK - 1) * 100:.0f}% of committed ratios")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
