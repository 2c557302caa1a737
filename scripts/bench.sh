#!/usr/bin/env bash
# Runs the core and transport microbenchmarks and records them as
# BENCH_core.json and BENCH_transport.json at the repo root — the benchmark
# trajectory the perf work is judged against.
#
#   scripts/bench.sh              # full sweep -> BENCH_core.json + BENCH_transport.json
#   scripts/bench.sh out.json     # core sweep to out.json, transport beside it
#
# The core sweep covers the reduction hot path:
#   * BM_ReductionMapAccumulate vs BM_LegacyStdMapAccumulate — the flat
#     CombinationMap against the std::map it replaced;
#   * BM_CombinationMapInsert vs BM_LegacyStdMapInsert — cold seeding;
#   * BM_MapCodec — the map wire codec round trip, with a wire_bytes
#     counter per size;
#   * BM_LocalCombine — the serial local-combination fold;
#   * BM_MapSerializeRoundTrip — the map codec's serialize + deserialize
#     round trip;
#   * BM_BatchedAccumulate — histogram, k-means, moments and grid on the
#     batched reduction path;
#   * BM_HistogramKeysBatched — the bucketing kernel alone.
#
# The transport suite (bench/micro_transport.cpp) covers the simmpi data
# plane:
#   * BM_ShardedAnySourceFanIn and BM_ShardedExactSourceRecv — receives
#     through sharded (source, tag) lanes behind a stale control backlog;
#   * BM_SharedBcast1MiB8Ranks — one shared immutable payload per bcast,
#     with a payload_bytes_copied_per_bcast counter;
#   * BM_PooledBufferPerMessage — BufferPool recycling per message.
#
# Numbers are container-relative; compare runs from the same machine only —
# except the std::map pair *ratios* within BENCH_core.json, which
# scripts/check.sh gates on via scripts/bench_gate.py.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
out="${1:-$repo/BENCH_core.json}"
transport_out="$(dirname "$out")/BENCH_transport.json"

filter='BM_ReductionMapAccumulate|BM_LegacyStdMapAccumulate|BM_CombinationMapInsert|BM_LegacyStdMapInsert|BM_MapCodec|BM_LocalCombine|BM_MapSerializeRoundTrip|BM_BatchedAccumulate|BM_HistogramKeysBatched'

echo "== bench: build (Release) =="
cmake -B "$repo/build" -S "$repo" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$repo/build" -j "$jobs" --target micro_core_ops micro_transport

# Committed baselines must come from an optimized build: the original
# BENCH_core.json was once recorded from a debug tree, which silently
# shifted every pair ratio the gate judges against.  Refuse anything but
# Release (SMART_BENCH_ALLOW_NONRELEASE=1 downgrades the refusal to a loud
# warning for local experiments — never commit such a file).
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$repo/build/CMakeCache.txt")"
if [[ "$build_type" != "Release" ]]; then
  if [[ "${SMART_BENCH_ALLOW_NONRELEASE:-0}" == "1" ]]; then
    echo "WARNING: benching a '$build_type' build; numbers are NOT comparable to committed baselines" >&2
  else
    echo "bench.sh: refusing to bench a '$build_type' build (need Release)." >&2
    echo "bench.sh: reconfigure with -DCMAKE_BUILD_TYPE=Release, or set SMART_BENCH_ALLOW_NONRELEASE=1 to only warn." >&2
    exit 1
  fi
fi

# Stamp provenance into a bench JSON's context block so a committed file
# says what produced it: the smart build type (google-benchmark's own
# "library_build_type" describes the *benchmark library*, which misled the
# original debug-build baseline) and the cpu count the run saw.
stamp_context() {
  python3 - "$1" "$build_type" "$jobs" <<'EOF'
import json, sys
path, build_type, cpus = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(path) as f:
    doc = json.load(f)
doc["context"]["smart_build_type"] = build_type
doc["context"]["smart_num_cpus"] = cpus
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
}

echo "== bench: run (filter: core map/codec/combine) =="
"$repo/build/bench/micro_core_ops" \
  --benchmark_filter="$filter" \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.05

python3 -m json.tool "$out" >/dev/null
stamp_context "$out"
echo "== bench: wrote $out =="

echo "== bench: run (transport data plane) =="
"$repo/build/bench/micro_transport" \
  --benchmark_out="$transport_out" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.05

python3 -m json.tool "$transport_out" >/dev/null
stamp_context "$transport_out"
echo "== bench: wrote $transport_out =="
