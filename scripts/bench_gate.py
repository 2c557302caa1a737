#!/usr/bin/env python3
"""Bench regression gate over the committed before/after pairs.

Wall-clock numbers from a shared container are too noisy to gate on
directly, so the gate compares *pair ratios* instead: each committed
before/after pair (legacy vs current implementation, measured in the same
process seconds apart) yields new_time/legacy_time, a machine-relative
speedup that is stable across hosts.  A fresh run whose ratio degrades more
than the slack factor against the committed baseline means the "after"
side genuinely slowed down relative to its own baseline.

Two pair sets exist: --pairs transport (default; BENCH_transport.json,
the simmpi data plane) and --pairs core (BENCH_core.json: the flat
CombinationMap vs the std::map it replaced, plus the scalar-vs-batched
reduction pairs from the columnar kernel work).

Usage: bench_gate.py <committed.json> <fresh.json> [slack]
           [--pairs transport|core]
           [--critpath <fresh_attr.json>] [--critpath-committed <attr.json>]

Exits nonzero when any pair regresses past the slack (default 1.25: a
fresh ratio more than 25% worse than the committed one fails).  Pairs
missing from either file are reported and skipped, not failed, so the gate
tolerates filter changes and freshly added benches.

With --critpath (a critical-path attribution JSON from smart_cli
--critpath-json, e.g. BENCH_critpath.json) the gate also reports where the
reference run's makespan went; adding --critpath-committed compares the two
attributions per category so a flagged regression comes with the bucket
that grew (compute vs network vs send-stall vs ...), not just a ratio.
"""

import json
import sys

# (legacy benchmark, current benchmark): names as emitted by
# bench/micro_transport.cpp, including the /arg suffixes.
TRANSPORT_PAIRS = [
    ("BM_LegacyAnySourceFanIn/4096/16", "BM_ShardedAnySourceFanIn/4096/16"),
    ("BM_LegacyAnySourceFanIn/16384/16", "BM_ShardedAnySourceFanIn/16384/16"),
    ("BM_LegacyExactSourceRecv/4096", "BM_ShardedExactSourceRecv/4096"),
    ("BM_LegacyBcast1MiB8Ranks", "BM_SharedBcast1MiB8Ranks"),
    ("BM_FreshBufferPerMessage/65536", "BM_PooledBufferPerMessage/65536"),
    ("BM_FreshBufferPerMessage/1048576", "BM_PooledBufferPerMessage/1048576"),
]


def _accumulate_pair(app, chunks):
    """Scalar-vs-batched end-to-end pair from bench/micro_core_ops.cpp.

    These benches drive the whole scheduler (reduction runs on pool worker
    threads, the bench thread sleeps), so they're registered with
    MeasureProcessCPUTime + UseRealTime — google-benchmark appends the
    /process_time/real_time suffix to the name.
    """
    suffix = f"{app}/{chunks}/process_time/real_time"
    return (f"BM_ScalarAccumulate/{suffix}", f"BM_BatchedAccumulate/{suffix}")


# Names as emitted by bench/micro_core_ops.cpp: the flat CombinationMap vs
# the std::map it replaced, plus the scalar-vs-batched reduction pairs over
# the columnar ChunkBatch path (gen_keys_batch/accumulate_batch kernels).
CORE_PAIRS = [
    ("BM_LegacyStdMapAccumulate/100", "BM_ReductionMapAccumulate/100"),
    ("BM_LegacyStdMapAccumulate/10000", "BM_ReductionMapAccumulate/10000"),
    ("BM_LegacyStdMapInsert/10000", "BM_CombinationMapInsert/10000"),
    _accumulate_pair("histogram", 10000),
    _accumulate_pair("histogram", 100000),
    _accumulate_pair("kmeans", 10000),
    _accumulate_pair("kmeans", 100000),
    _accumulate_pair("moments", 100000),
    _accumulate_pair("grid", 10000),
    ("BM_HistogramKeysScalar/65536", "BM_HistogramKeysBatched/65536"),
]

PAIR_SETS = {"transport": TRANSPORT_PAIRS, "core": CORE_PAIRS}

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


def report_critpath(fresh_path, committed_path):
    """Attribution summary: top categories, bottleneck rank, and (with a
    committed attribution to compare against) the bucket that grew most."""
    with open(fresh_path) as f:
        fresh = json.load(f)
    total = fresh["path_length_us"]
    cats = sorted(fresh["by_category"].items(), key=lambda kv: kv[1], reverse=True)
    top = ", ".join(
        f"{name} {us / total * 100.0:.1f}%" for name, us in cats[:3] if us > 0.0
    )
    bottleneck = fresh["by_rank"][0]["rank"] if fresh["by_rank"] else "?"
    print(
        f"   critpath: makespan {fresh['makespan_us'] / 1e3:.2f} ms, "
        f"bottleneck rank {bottleneck}, top: {top}"
    )
    if committed_path is None:
        return
    with open(committed_path) as f:
        committed = json.load(f)
    # Compare category *shares* (fractions of the path), which hold across
    # hosts the way the pair ratios do; absolute microseconds do not.
    committed_total = committed["path_length_us"]
    deltas = []
    for name, us in fresh["by_category"].items():
        before = committed["by_category"].get(name, 0.0) / max(committed_total, 1e-9)
        after = us / max(total, 1e-9)
        deltas.append((after - before, name, before, after))
    deltas.sort(reverse=True)
    grew, name, before, after = deltas[0]
    if grew > 0.02:
        print(
            f"   critpath: '{name}' grew {before * 100.0:.1f}% -> {after * 100.0:.1f}% "
            f"of the path vs committed — a regression likely landed there"
        )
    else:
        print("   critpath: category shares within 2% of the committed attribution")


def main(argv):
    args = list(argv[1:])
    critpath = critpath_committed = None
    pair_set = "transport"
    for flag in ("--critpath", "--critpath-committed", "--pairs"):
        if flag in args:
            i = args.index(flag)
            if i + 1 >= len(args):
                print(f"{flag} needs a value", file=sys.stderr)
                return 2
            value = args.pop(i + 1)
            args.pop(i)
            if flag == "--critpath":
                critpath = value
            elif flag == "--critpath-committed":
                critpath_committed = value
            else:
                pair_set = value
    if pair_set not in PAIR_SETS:
        print(f"--pairs must be one of {', '.join(PAIR_SETS)} (got '{pair_set}')",
              file=sys.stderr)
        return 2
    if len(args) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed = load_runs(args[0])
    fresh = load_runs(args[1])
    slack = float(args[2]) if len(args) == 3 else 1.25

    if critpath is not None:
        report_critpath(critpath, critpath_committed)

    failures = []
    checked = 0
    for legacy, current in PAIR_SETS[pair_set]:
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
        if fresh_ratio > slack * committed_ratio:
            verdict = "REGRESSED"
            failures.append(current)
        print(
            f"   gate {verdict}: {current} ratio {fresh_ratio:.3f} "
            f"(committed {committed_ratio:.3f}, limit {slack * committed_ratio:.3f})"
        )

    if failures:
        print(f"bench gate: {len(failures)} pair(s) regressed >{(slack - 1) * 100:.0f}%: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    if checked == 0:
        print("bench gate: no comparable pairs found", file=sys.stderr)
        return 1
    print(f"   bench gate ok: {checked} pair(s) within {(slack - 1) * 100:.0f}% of committed ratios")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
