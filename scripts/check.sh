#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes.
#
#   scripts/check.sh            # full check: build + ctest + TSan + ASan+UBSan
#   scripts/check.sh --no-tsan  # skip the TSan pass
#   scripts/check.sh --no-asan  # skip the ASan+UBSan pass
#   scripts/check.sh --tier1    # tier-1 only (what CI gates on)
#
# The tier-1 build configures with -DSMART_WERROR=ON: the tree builds
# warning-free under -Wall -Wextra, and a new warning fails the check.
#
# The harness error-path step runs fig harnesses into a typed error (a
# non-numeric SMART_BENCH_SCALE; a scale too small for Fig 8's cube; a
# SMART_NET_* and a SMART_SCHED_* variable the network does not read) and
# fails unless each prints `error: ...` on stderr and exits 1.
#
# The Fig 11 shape step runs fig11_window_optimization at the default
# scale (about 1 s) and checks the figure's claim as counts, never wall
# time: in each panel the trigger-on peak of live reduction objects is the
# same at every input size, and the trigger-off peak grows with the size.
#
# The perfbench smoke runs the end-to-end benchmark's summary self-tests
# and a 1 s run of each of its workloads (a Release build of
# perfbench_e2e): every analyzed step is checked against the serial
# reference, and the step fails unless each run ends with `correct: true`
# and 0 failed checks.
#
# The reachability step (scripts/check_reachability.py) walks #include
# from every fig harness, example and perfbench source and fails on any
# src/ header the walk does not reach: a module stays only if a workload
# runs it.
#
# The TSan half rebuilds every test in a separate build tree (build-tsan/)
# with -DSMART_SANITIZE=thread and runs the whole ctest suite there (any
# report is fatal).  The runtime is thread-heavy (thread pool, circular
# buffer, simmpi ranks and mailboxes), so data races are the bug class
# worth a dedicated pass.
#
# The ASan half rebuilds every test in build-asan/ with
# -DSMART_SANITIZE=address, which arms ASan and UBSan together (any UBSan
# report is fatal), and runs the whole ctest suite: checkpoint parsing of
# untrusted headers, map wire decoding of mutated payloads, mid-round
# rollback of partially merged maps, rank-death unwinding, and collectives
# on split communicators are exactly where lifetime, bounds and undefined-
# behaviour bugs would hide — without the sanitizers such a bug is silent
# heap corruption or a hang.
#
# Microbenchmark ratios gate only the std::map pairs (see the bench
# regression gate step); every other performance property has a
# deterministic guard: a counter, a call count, a byte count or the vec
# probe, which fails on a regression and never on a loaded host.
#
# Every ctest invocation runs with a hard per-test timeout (each test also
# carries a TIMEOUT property from tests/CMakeLists.txt): a test that blocks
# past its budget is a failure, never a hung CI job — the fault-tolerance
# layer's whole contract is that silence becomes a typed error.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
run_tsan=1
run_asan=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    --tier1) run_tsan=0; run_asan=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build (warnings are errors) =="
cmake -B "$repo/build" -S "$repo" -DSMART_WERROR=ON >/dev/null
cmake --build "$repo/build" -j "$jobs"

echo "== tier-1: ctest =="
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" --timeout 120

echo "== tier-1: reachability (reach it or remove it) =="
python3 "$repo/scripts/check_reachability.py" "$repo"

echo "== tier-1: schedule exploration (bounded) =="
# Deterministic-schedule sweep (DESIGN.md "Deterministic schedule
# exploration"): re-run the property harness with a wider exploration width
# than the default ctest pass.  Seeds are fixed and every failure prints a
# `--schedule replay --schedule-trace "..."` recipe, so a red run here is
# reproducible from the log alone.  Also runnable as `ctest -L schedule`.
SMART_EXPLORE_SCHEDULES=10 "$repo/build/tests/test_schedule_explore" --gtest_brief=1
# CLI plumbing: a deterministically scheduled run must complete and echo its
# master seed in the RUNSTATS line (the log-driven repro path).
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 2 --seed 1234 --schedule random \
  | grep -q '"master_seed": 1234' \
  || { echo "scheduled run lost its master_seed echo" >&2; exit 1; }
echo "   schedule exploration ok"

echo "== tier-1: trace validation =="
# A real 4-rank run must emit a Chrome-trace file that parses as JSON and
# contains matched span/flow events from more than one rank (the
# observability subsystem's acceptance bar; see DESIGN.md "Observability").
trace_json="$repo/build/check_trace.json"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 3 --trace-out "$trace_json" >/dev/null
python3 -m json.tool "$trace_json" >/dev/null
python3 - "$trace_json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
span_ranks = {e["pid"] for e in events if e.get("ph") == "X"}
starts = {e["id"] for e in events if e.get("ph") == "s"}
ends = {e["id"] for e in events if e.get("ph") == "f"}
assert len(span_ranks) >= 2, f"spans from one rank only: {span_ranks}"
assert starts & ends, "no matched send->recv flow pair"
print(f"   trace ok: {len(events)} events, span ranks {sorted(span_ranks)}, "
      f"{len(starts & ends)} matched flow pair(s)")
EOF

echo "== tier-1: phase CSV export =="
# --phase-csv exports the scheduler's obs spans (category "sched") as a flat
# timeline: a 4-rank run must write an RFC 4180 CSV with the five-column
# header and rows for the reduction and both combination phases.
phase_csv="$repo/build/check_phases.csv"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 3 --phase-csv "$phase_csv" >/dev/null
python3 - "$phase_csv" <<'EOF'
import csv, sys
with open(sys.argv[1], newline="") as f:
    rows = list(csv.reader(f))
header = ["phase", "thread", "begin_s", "end_s", "duration_s"]
assert rows and rows[0] == header, f"bad header: {rows[:1]}"
assert all(len(r) == 5 for r in rows[1:]), "a row does not have five fields"
phases = {r[0] for r in rows[1:]}
missing = {"reduction", "local_combine", "global_combine"} - phases
assert not missing, f"phases missing from the CSV: {sorted(missing)}"
for r in rows[1:]:
    begin, end, duration = map(float, r[2:])
    assert begin <= end and duration >= 0.0, f"bad interval: {r}"
print(f"   phase csv ok: {len(rows) - 1} rows, phases {sorted(phases)}")
EOF

echo "== tier-1: transport trace validation (8-rank bcast) =="
# An 8-rank run drives the tree allreduce through bcast_shared; the trace
# must show bcast-tagged send spans whose flow events pair up with a recv on
# another rank — shared payloads must not lose the send->recv causality
# edges the Chrome-trace export is built on.
trace8_json="$repo/build/check_trace8.json"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 8 \
  --threads 2 --steps 3 --trace-out "$trace8_json" >/dev/null
python3 - "$trace8_json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
starts = {e["id"] for e in events if e.get("ph") == "s"}
ends = {e["id"] for e in events if e.get("ph") == "f"}
unmatched = ends - starts
assert not unmatched, f"{len(unmatched)} recv flow(s) with no matching send"
assert starts & ends, "no matched send->recv flow pair"
bcast_sends = [e for e in events
               if e.get("ph") == "X" and e.get("name") == "send"
               and e.get("args", {}).get("tag") == -2000]
bcast_ranks = {e["pid"] for e in bcast_sends}
assert bcast_sends, "8-rank run produced no bcast-tagged send spans"
assert len(bcast_ranks) >= 2, f"bcast sends from one rank only: {bcast_ranks}"
print(f"   trace8 ok: {len(events)} events, {len(starts & ends)} matched "
      f"flow pair(s), {len(bcast_sends)} bcast send span(s) over ranks "
      f"{sorted(bcast_ranks)}")
EOF

echo "== tier-1: zero-copy collective fan-out =="
# The shared-payload fan-outs' acceptance bar: a 1 MiB bcast_shared and a
# 4-rank allreduce_shared must move zero payload bytes through memcpy —
# tests/test_transport.cpp asserts each payload_bytes_copied delta is
# exactly 0.
"$repo/build/tests/test_transport" \
  --gtest_filter='TransportSharedPayload.*MovesZeroBytes' --gtest_brief=1
echo "   zero-copy fan-out ok"

echo "== tier-1: critical-path profiler validation =="
# A 4-rank traced job must flow through the critpath tool end to end: the
# text report parses, the attribution JSON validates against the checked-in
# schema (including the categories-sum-to-path-length invariant;
# scripts/validate_critpath.py), and the offline --critpath-in mode accepts
# the Chrome trace the same run exported.
critpath_report="$repo/build/check_critpath.txt"
critpath_json="$repo/build/check_critpath.json"
critpath_trace="$repo/build/check_critpath_trace.json"
"$repo/build/examples/smart_cli" --sim heat3d --app histogram --ranks 4 \
  --threads 2 --steps 3 --critpath-out "$critpath_report" \
  --critpath-json "$critpath_json" --trace-out "$critpath_trace" >/dev/null
grep -q '^critical-path report$' "$critpath_report" \
  || { echo "critpath report missing its header" >&2; exit 1; }
grep -q 'makespan:' "$critpath_report" \
  || { echo "critpath report missing the makespan line" >&2; exit 1; }
python3 "$repo/scripts/validate_critpath.py" \
  "$repo/scripts/critpath_schema.json" "$critpath_json"
"$repo/build/examples/smart_cli" --critpath-in "$critpath_trace" \
  | grep -q '^critical-path report$' \
  || { echo "offline --critpath-in analysis failed" >&2; exit 1; }
echo "   critpath ok"

echo "== tier-1: bench smoke =="
# The microbenches must run and emit parseable JSON (scripts/bench.sh is the
# full sweep; this is just a liveness check on fast filters).
bench_json="$repo/build/check_bench.json"
"$repo/build/bench/micro_core_ops" \
  --benchmark_filter='BM_ReductionMapAccumulate|BM_MapCodec' \
  --benchmark_min_time=0.01 \
  --benchmark_out="$bench_json" --benchmark_out_format=json >/dev/null
python3 -m json.tool "$bench_json" >/dev/null
bench_transport_json="$repo/build/check_bench_transport.json"
"$repo/build/bench/micro_transport" \
  --benchmark_filter='BM_ShardedAnySourceFanIn|BM_PooledBufferPerMessage|BM_BoundedSlowReceiverPeakBytes' \
  --benchmark_min_time=0.01 \
  --benchmark_out="$bench_transport_json" --benchmark_out_format=json >/dev/null
python3 -m json.tool "$bench_transport_json" >/dev/null
echo "   bench smoke ok"

echo "== tier-1: harness error path =="
# A fig harness that meets a typed error reports it as smart_cli does:
# `error: <what>` on stderr and exit status 1, never an abort (134).  Four
# cases: a SMART_BENCH_SCALE that is not a number; one inside the accepted
# range whose Fig 8 cube edge truncates below MiniLulesh's minimum (the
# error is thrown in the ranks and rethrown by simmpi::launch);
# SMART_NET_MODEL, a setting of the removed topology models, which
# NetworkConfig::from_env rejects instead of pricing the run flat; and
# SMART_SCHED_POLICCY, a misspelt schedule setting, which it rejects
# instead of running the normal nondeterministic mode.
harness_err="$repo/build/check_harness_error.log"
for harness_case in "SMART_BENCH_SCALE=abc fig10_space_sharing" \
                    "SMART_BENCH_SCALE=1e-6 fig08_scale_threads" \
                    "SMART_NET_MODEL=fattree fig07_scale_nodes" \
                    "SMART_SCHED_POLICCY=random fig07_scale_nodes"; do
  read -r setting harness <<< "$harness_case"
  status=0
  env "$setting" "$repo/build/bench/$harness" >/dev/null 2> "$harness_err" || status=$?
  if [[ "$status" != 1 ]] || ! grep -q '^error: ' "$harness_err"; then
    echo "$harness at $setting exited $status, want 1 with error: on stderr:" >&2
    cat "$harness_err" >&2
    exit 1
  fi
  echo "   $harness ok: $(head -n 1 "$harness_err")"
done

echo "== tier-1: Fig 11 shape (live reduction objects) =="
# With the trigger on, rank 0's peak of live reduction objects depends on
# the window and the thread count only (the windows a split boundary cuts,
# plus the one being filled), so it is the same at every size of a panel;
# with the trigger off every window stays live until the run ends, so the
# peak grows with the input.  Counts only: the harness's times are not
# checked.
fig11_log="$repo/build/check_fig11.log"
"$repo/build/bench/fig11_window_optimization" > "$fig11_log"
python3 - "$fig11_log" <<'EOF'
import csv, sys
text = open(sys.argv[1]).read()
for tag in ("fig11a", "fig11b"):
    begin, end = f"--- csv {tag} begin ---\n", f"--- csv {tag} end ---"
    assert begin in text and end in text, f"{tag}: no CSV table in the harness output"
    rows = list(csv.DictReader(text.split(begin, 1)[1].split(end, 1)[0].splitlines()))
    assert len(rows) >= 2, f"{tag}: {len(rows)} size(s), need at least 2"
    on = [int(r["peak_objs_on"]) for r in rows]
    off = [int(r["peak_objs_off"]) for r in rows]
    assert len(set(on)) == 1, f"{tag}: trigger-on peak objects vary with size: {on}"
    assert all(a < b for a, b in zip(off, off[1:])), \
        f"{tag}: trigger-off peak objects do not grow with size: {off}"
    print(f"   {tag} ok: trigger-on peak objects {on[0]} at every size, trigger-off {off}")
EOF

echo "== tier-1: bench regression gate =="
# Re-measure the committed std::map pairs (the flat CombinationMap against
# the std::map it replaced) and compare their ratios (new/legacy) against
# BENCH_core.json: a pair whose fresh ratio is more than 1.4x the committed
# one fails (scripts/bench_gate.py).  The ratio-of-ratios form makes the
# gate machine-relative, so it holds on hosts faster or slower than the one
# that recorded the committed file.  These are the last wall-time pairs:
# the end-to-end figure ledger (ROADMAP item 1) is to replace them.
if [[ -f "$repo/BENCH_core.json" ]]; then
  bench_core_gate_json="$repo/build/check_bench_core_gate.json"
  "$repo/build/bench/micro_core_ops" \
    --benchmark_filter='StdMapAccumulate|ReductionMapAccumulate|MapInsert' \
    --benchmark_min_time=0.05 \
    --benchmark_out="$bench_core_gate_json" --benchmark_out_format=json >/dev/null
  python3 "$repo/scripts/bench_gate.py" "$repo/BENCH_core.json" "$bench_core_gate_json"
else
  echo "   no committed BENCH_core.json; gate skipped"
fi

echo "== tier-1: kernel vectorization probe =="
# The batched kernels only pay off if the compiler actually vectorizes
# them.  Compile the probe TU with vectorizer diagnostics on and assert a
# "loop vectorized" report on every loop batch_kernels.h marks with
# `// vec-probe: must vectorize` (the bucketing loops, the k-means point
# sums and the grid sum) — a libm call, an early exit, loop-carried
# dependence, or aliasing hazard reintroduced into one of them fails here
# instead of surfacing weeks later as a bench diff.
vec_log="$repo/build/check_vec_probe.log"
vec_obj="$repo/build/check_vec_probe.o"
kernels_h="$repo/src/analytics/batch_kernels.h"
g++ -O3 -std=c++20 -I"$repo/src" -fopt-info-vec-optimized \
  -c "$repo/scripts/vec_probe.cpp" -o "$vec_obj" 2> "$vec_log"
# Marked lines are code lines ending in the marker, not comments naming it.
probe_lines=$(grep -nE '^[[:space:]]*[^/[:space:]].*// vec-probe: must vectorize' "$kernels_h" \
  | cut -d: -f1 || true)
[[ -n "$probe_lines" ]] \
  || { echo "no vec-probe markers in $kernels_h" >&2; exit 1; }
for line in $probe_lines; do
  grep -q "batch_kernels\.h:$line:[0-9]*: optimized: loop vectorized" "$vec_log" \
    || { echo "batch_kernels.h:$line: marked loop no longer vectorizes:" >&2; \
         sed -n "${line}p" "$kernels_h" >&2; cat "$vec_log" >&2; exit 1; }
done
# The nearest-centroid pair kernel is explicit two-lane vector code, which
# the vectorizer does not report on, so its instantiation is checked in the
# disassembly: every function of the kernel (detail::nearest_centroids_pairs
# and the detail::pair_* tiles it calls) together must contain packed
# subpd, mulpd and addpd, and no addsd (a distance summed one lane at a
# time, as when the accumulators are split into two scalars per pair).
pair_ops=$(objdump -dC --no-show-raw-insn "$vec_obj" | awk '
  /^[0-9a-f]+ <.*kernels::detail::(pair_|nearest_centroids_pairs)/ { in_kernel = 1; next }
  /^$/ { in_kernel = 0 }
  in_kernel { print $2 }')
for op in subpd mulpd addpd; do
  grep -qx "$op" <<< "$pair_ops" \
    || { echo "pair kernel has no packed $op (vec_probe.cpp instantiation)" >&2; exit 1; }
done
if grep -qx addsd <<< "$pair_ops"; then
  echo "pair kernel adds distances with scalar addsd (vec_probe.cpp instantiation)" >&2
  exit 1
fi
echo "   vec probe ok: $(wc -w <<< "$probe_lines") marked loop(s) vectorized;" \
  "pair kernel $(grep -cx addpd <<< "$pair_ops") addpd, 0 addsd"

echo "== tier-1: perfbench smoke =="
# perfbench/run.py builds perfbench_e2e in Release into .bench_build/ and
# prints one JSON object as its last line; its log goes to build/.
python3 "$repo/perfbench/test_summary.py"
for workload in kmeans_d64 lulesh_median_space; do
  perf_log="$repo/build/check_perfbench_$workload.log"
  perf_last="$(python3 "$repo/perfbench/run.py" --workload "$workload" --seed 1 \
    --seconds 1 --trace 0 2> "$perf_log" | tail -n 1)" \
    || { echo "perfbench $workload failed:" >&2; cat "$perf_log" >&2; exit 1; }
  python3 - "$workload" "$perf_last" <<'EOF'
import json, sys
workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"perfbench {workload} failed its output checks: {line}")
print(f"   perfbench {workload} ok: {result['attempted']} checks, 0 failed")
EOF
done

echo "== native: build + test with SMART_NATIVE=ON =="
# One pass of the batched-kernel exactness properties and a bench smoke with
# the full host ISA (-march=native): the scalar==batched bit-for-bit
# contract must hold at every vector width the kernels can compile to, not
# just baseline SSE2.
cmake -B "$repo/build-native" -S "$repo" -DSMART_NATIVE=ON \
  -DSMART_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$repo/build-native" -j "$jobs" \
  --target test_batch_kernels micro_core_ops
"$repo/build-native/tests/test_batch_kernels" --gtest_brief=1
"$repo/build-native/bench/micro_core_ops" \
  --benchmark_filter='BM_BatchedAccumulate/histogram' \
  --benchmark_min_time=0.01 >/dev/null
echo "   native pass ok"

if [[ "$run_tsan" == 1 ]]; then
  echo "== tsan: build all tests =="
  cmake -B "$repo/build-tsan" -S "$repo" -DSMART_SANITIZE=thread \
    -DSMART_BUILD_BENCHES=OFF -DSMART_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-tsan" -j "$jobs"

  echo "== tsan: ctest =="
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" --timeout 120
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== asan+ubsan: build all tests =="
  cmake -B "$repo/build-asan" -S "$repo" -DSMART_SANITIZE=address \
    -DSMART_BUILD_BENCHES=OFF -DSMART_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$repo/build-asan" -j "$jobs"

  echo "== asan+ubsan: ctest =="
  ASAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" --timeout 120
fi

echo "== check.sh: all green =="
