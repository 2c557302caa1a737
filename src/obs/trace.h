// Runtime-wide trace collection: spans, instant events and cross-rank flow
// events recorded into per-thread ring buffers against one steady-clock
// origin, exportable as a Chrome-trace/Perfetto JSON timeline
// (obs/trace_export.h).
//
// Design constraints, in order:
//
//   * Overhead when disabled is ONE relaxed atomic load and a branch per
//     potential event (`trace_enabled()`); nothing else is touched.  The
//     instrumentation threaded through the scheduler, combiner and simmpi
//     is always compiled in and costs nothing measurable when off.
//   * When enabled, the hot path is lock-light: each thread appends to its
//     own fixed-capacity ring buffer under a mutex only its owner ever
//     contends on (export locks it briefly at the end of a run).  A full
//     ring overwrites its oldest events and counts the loss in
//     dropped_events() — tracing never blocks or reallocates steadily.
//   * Events carry (rank, thread): rank from the per-thread attribution set
//     by simmpi::launch (obs::ThreadRankGuard), thread as a process-wide
//     dense id.  The exporter maps pid=rank, tid=thread, which is what
//     makes a 4-rank in-situ run read as four process lanes in Perfetto.
//
// Ranks in this reproduction are threads of one process, so the collector
// is process-global and all ranks share its clock origin: one snapshot is
// the whole cross-rank timeline, with no gather over simmpi.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace smart::obs {

/// Process-wide enable flag; the single branch every instrumentation site
/// pays when tracing is off.
extern std::atomic<bool> g_trace_on;

inline bool trace_enabled() { return g_trace_on.load(std::memory_order_relaxed); }

/// Sentinel: resolve the rank from the calling thread's attribution
/// (ThreadRankGuard); -1 when the thread has none.
constexpr int kCurrentRank = -0x7fffffff;

/// Rank recorded for threads with no attribution (outside simmpi::launch).
constexpr int kUnattributedRank = -1;

/// One named integer argument attached to an event (key must be a literal
/// or otherwise outlive the call; it is interned on record).
struct TraceArg {
  const char* key;
  std::int64_t value;
};

/// Per-event named-arg capacity.  Four slots let transport spans carry both
/// their identity args (tag, bytes) and the virtual-clock stamps the
/// critical-path profiler reconstructs the causal DAG from (obs/critpath.h).
constexpr std::uint8_t kMaxTraceArgs = 4;

/// Export form of one recorded event (internal storage is interned;
/// see TraceCollector::snapshot_events).
struct TraceEvent {
  enum class Type : std::uint8_t { kComplete, kInstant, kFlowStart, kFlowEnd };

  Type type = Type::kComplete;
  std::int32_t rank = kUnattributedRank;
  std::uint32_t tid = 0;       ///< process-wide dense thread id
  double ts_us = 0.0;          ///< microseconds since the collector origin
  double dur_us = 0.0;         ///< complete events only
  std::uint64_t flow_id = 0;   ///< flow events only (nonzero)
  std::string name;
  std::string cat;
  std::uint8_t num_args = 0;   ///< 0..kMaxTraceArgs named integer args
  std::string arg_key[kMaxTraceArgs];
  std::int64_t arg_val[kMaxTraceArgs] = {0, 0, 0, 0};
};

class TraceCollector {
 public:
  static TraceCollector& instance();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void set_enabled(bool on) { g_trace_on.store(on, std::memory_order_relaxed); }
  bool enabled() const { return trace_enabled(); }

  /// Microseconds since the collector's construction (one steady-clock
  /// origin for every rank and thread of the process).
  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Fresh process-unique flow id (nonzero) linking a send to its recv.
  std::uint64_t next_flow_id() { return flow_counter_.fetch_add(1, std::memory_order_relaxed); }

  // --- event recording (no-ops when tracing is disabled) -------------------
  void complete(std::string_view name, std::string_view cat, double ts_us, double dur_us,
                std::initializer_list<TraceArg> args = {}, int rank = kCurrentRank);
  void instant(std::string_view name, std::string_view cat,
               std::initializer_list<TraceArg> args = {}, int rank = kCurrentRank);
  void flow_start(std::string_view name, std::string_view cat, std::uint64_t flow_id,
                  int rank = kCurrentRank);
  void flow_end(std::string_view name, std::string_view cat, std::uint64_t flow_id,
                int rank = kCurrentRank);

  // --- draining ------------------------------------------------------------
  /// All recorded events, in timestamp order.
  std::vector<TraceEvent> snapshot_events() const;

  /// Events lost to full rings since the last clear().
  std::size_t dropped_events() const;

  /// Drops all recorded events and interned strings (thread buffers stay
  /// registered; capacity is retained).
  void clear();

  /// Ring capacity for threads that record their first event after this
  /// call (existing buffers keep theirs).  Also settable via
  /// SMART_TRACE_EVENTS before the first event.
  void set_ring_capacity(std::size_t events_per_thread) {
    ring_capacity_.store(events_per_thread, std::memory_order_relaxed);
  }

 private:
  TraceCollector();

  static constexpr std::uint32_t kNoString = 0xffffffffu;

  /// Fixed-size record in a thread's ring; strings live in the owning
  /// thread's intern table.
  struct Record {
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t flow_id = 0;
    std::int64_t arg_val[kMaxTraceArgs] = {0, 0, 0, 0};
    std::uint32_t name = kNoString;
    std::uint32_t cat = kNoString;
    std::uint32_t arg_key[kMaxTraceArgs] = {kNoString, kNoString, kNoString, kNoString};
    std::int32_t rank = kUnattributedRank;
    TraceEvent::Type type = TraceEvent::Type::kComplete;
    std::uint8_t num_args = 0;
  };

  /// One thread's ring.  The owner thread is the only writer; the mutex is
  /// therefore uncontended on the hot path and exists so snapshot/clear can
  /// read/reset racing-free (and TSan-clean).
  struct ThreadBuffer {
    std::mutex mu;
    std::vector<Record> ring;
    std::size_t next = 0;     ///< next write slot
    std::size_t count = 0;    ///< live records (<= ring.size())
    std::size_t dropped = 0;  ///< records overwritten since clear()
    std::vector<std::string> strings;
    std::unordered_map<std::string, std::uint32_t> intern;
    std::uint32_t tid = 0;

    std::uint32_t intern_string(std::string_view s);
    void push(const Record& r);
  };

  ThreadBuffer& local_buffer();
  void record(TraceEvent::Type type, std::string_view name, std::string_view cat, double ts_us,
              double dur_us, std::uint64_t flow_id, std::initializer_list<TraceArg> args,
              int rank);

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> flow_counter_{1};
  std::atomic<std::size_t> ring_capacity_;
};

// --- per-thread rank attribution ------------------------------------------

/// Rank recorded for events emitted by the calling thread (-1 outside any
/// launch).  simmpi::launch installs it via ThreadRankGuard.
int thread_rank();

/// RAII rank attribution for the calling thread.
class ThreadRankGuard {
 public:
  explicit ThreadRankGuard(int rank);
  ~ThreadRankGuard();

  ThreadRankGuard(const ThreadRankGuard&) = delete;
  ThreadRankGuard& operator=(const ThreadRankGuard&) = delete;

 private:
  int previous_;
};

/// RAII complete-event recorder: captures begin on construction, records a
/// single "X" span on destruction.  Arms only if tracing was enabled at
/// construction; a disabled span is two loads and a branch total.  Up to
/// kMaxTraceArgs named integer args, either at construction or via arg()
/// once the value is known (e.g. bytes serialized inside the span).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat,
                     std::initializer_list<TraceArg> args = {}, int rank = kCurrentRank)
      : name_(name), cat_(cat), rank_(rank), armed_(trace_enabled()) {
    for (const TraceArg& a : args) arg(a.key, a.value);
    if (armed_) begin_us_ = TraceCollector::instance().now_us();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches/overwrites a named arg (slots fill in call order, max
  /// kMaxTraceArgs).
  void arg(const char* key, std::int64_t value) {
    for (std::uint8_t i = 0; i < num_args_; ++i) {
      if (keys_[i] == key) {
        vals_[i] = value;
        return;
      }
    }
    if (num_args_ < kMaxTraceArgs) {
      keys_[num_args_] = key;
      vals_[num_args_] = value;
      ++num_args_;
    }
  }

  ~TraceSpan() {
    if (!armed_) return;
    auto& tc = TraceCollector::instance();
    const double end = tc.now_us();
    switch (num_args_) {
      case 0:
        tc.complete(name_, cat_, begin_us_, end - begin_us_, {}, rank_);
        break;
      case 1:
        tc.complete(name_, cat_, begin_us_, end - begin_us_, {{keys_[0], vals_[0]}}, rank_);
        break;
      case 2:
        tc.complete(name_, cat_, begin_us_, end - begin_us_,
                    {{keys_[0], vals_[0]}, {keys_[1], vals_[1]}}, rank_);
        break;
      case 3:
        tc.complete(name_, cat_, begin_us_, end - begin_us_,
                    {{keys_[0], vals_[0]}, {keys_[1], vals_[1]}, {keys_[2], vals_[2]}}, rank_);
        break;
      default:
        tc.complete(name_, cat_, begin_us_, end - begin_us_,
                    {{keys_[0], vals_[0]},
                     {keys_[1], vals_[1]},
                     {keys_[2], vals_[2]},
                     {keys_[3], vals_[3]}},
                    rank_);
    }
  }

 private:
  const char* name_;
  const char* cat_;
  int rank_;
  bool armed_;
  double begin_us_ = 0.0;
  std::uint8_t num_args_ = 0;
  const char* keys_[kMaxTraceArgs] = {nullptr, nullptr, nullptr, nullptr};
  std::int64_t vals_[kMaxTraceArgs] = {0, 0, 0, 0};
};

}  // namespace smart::obs
