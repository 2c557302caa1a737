#include "obs/trace.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/env.h"
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

namespace smart::obs {

std::atomic<bool> g_trace_on{false};

namespace {

thread_local int t_thread_rank = kUnattributedRank;
std::atomic<std::uint32_t> g_next_tid{0};

// Paths armed by SMART_TRACE / SMART_METRICS for the at-exit dump.
std::string& trace_env_path() {
  static std::string path;
  return path;
}
std::string& metrics_env_path() {
  static std::string path;
  return path;
}
std::string& critpath_env_path() {
  static std::string path;
  return path;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// An at-exit dump has no caller to return an error to, so it says so on
/// stderr instead of failing silently.
void report_unwritable(bool written, const char* what, const std::string& path) {
  if (!written) std::fprintf(stderr, "smart: could not write %s to %s\n", what, path.c_str());
}

void dump_at_exit() {
  TraceCollector& tc = TraceCollector::instance();
  const std::size_t dropped = tc.dropped_events();
  if (!trace_env_path().empty()) {
    report_unwritable(write_chrome_trace_file(trace_env_path(), tc.snapshot_events(), dropped),
                      "trace", trace_env_path());
    if (dropped > 0) {
      std::fprintf(stderr,
                   "smart: trace dropped %zu event(s) (ring full; raise SMART_TRACE_EVENTS)\n",
                   dropped);
    }
  }
  if (!critpath_env_path().empty()) {
    const AttributionReport report =
        attribute(extract_critical_path(tc.snapshot_events(), dropped));
    // A .json destination gets the machine-readable form; anything else
    // (including "-"-less plain paths) the human-readable report.
    if (ends_with(critpath_env_path(), ".json")) {
      report_unwritable(write_attribution_json_file(critpath_env_path(), report),
                        "attribution JSON", critpath_env_path());
    } else {
      report_unwritable(write_report_file(critpath_env_path(), report), "critical-path report",
                        critpath_env_path());
    }
  }
  if (!metrics_env_path().empty()) {
    std::ofstream os(metrics_env_path());
    if (os) MetricsRegistry::global().snapshot().dump_json(os);
    report_unwritable(os.good(), "metrics", metrics_env_path());
  }
}

// Zero-code-change enablement: any binary that links the runtime (simmpi
// pulls this translation unit in via g_trace_on) honors SMART_TRACE=<path>,
// SMART_CRITPATH=<path> and SMART_METRICS=<path> — enable at startup, dump
// at exit (SMART_CRITPATH analyzes the trace it armed and writes the
// bottleneck report: .json suffix → attribution JSON, else text).
struct EnvInit {
  EnvInit() {
    bool armed = false;
    if (const char* p = std::getenv("SMART_TRACE"); p != nullptr && *p != '\0') {
      trace_env_path() = p;
      TraceCollector::instance().set_enabled(true);
      armed = true;
    }
    if (const char* p = std::getenv("SMART_CRITPATH"); p != nullptr && *p != '\0') {
      critpath_env_path() = p;
      TraceCollector::instance().set_enabled(true);
      armed = true;
    }
    if (const char* p = std::getenv("SMART_METRICS"); p != nullptr && *p != '\0') {
      metrics_env_path() = p;
      set_metrics_enabled(true);
      armed = true;
    }
    if (!armed) return;
    // Build every static dump_at_exit reads before registering it: a
    // function-local static first built later is destroyed before the
    // handler runs.
    trace_env_path();
    critpath_env_path();
    metrics_env_path();
    TraceCollector::instance();
    MetricsRegistry::global();
    std::atexit(dump_at_exit);
  }
} g_env_init;

}  // namespace

int thread_rank() { return t_thread_rank; }

ThreadRankGuard::ThreadRankGuard(int rank) : previous_(t_thread_rank) { t_thread_rank = rank; }
ThreadRankGuard::~ThreadRankGuard() { t_thread_rank = previous_; }

TraceCollector::TraceCollector()
    : origin_(std::chrono::steady_clock::now()),
      ring_capacity_(
          static_cast<std::size_t>(env_long("SMART_TRACE_EVENTS", 1L << 15, 1, LONG_MAX))) {}

TraceCollector& TraceCollector::instance() {
  static TraceCollector collector;
  return collector;
}

std::uint32_t TraceCollector::ThreadBuffer::intern_string(std::string_view s) {
  const auto it = intern.find(std::string(s));
  if (it != intern.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(strings.size());
  strings.emplace_back(s);
  intern.emplace(strings.back(), idx);
  return idx;
}

void TraceCollector::ThreadBuffer::push(const Record& r) {
  ring[next] = r;
  next = (next + 1) % ring.size();
  if (count < ring.size()) {
    ++count;
  } else {
    ++dropped;  // overwrote the oldest event
  }
}

TraceCollector::ThreadBuffer& TraceCollector::local_buffer() {
  static thread_local ThreadBuffer* t_buffer = nullptr;
  if (t_buffer != nullptr) return *t_buffer;
  auto buf = std::make_unique<ThreadBuffer>();
  buf->ring.resize(std::max<std::size_t>(1, ring_capacity_.load(std::memory_order_relaxed)));
  buf->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  t_buffer = buf.get();
  std::lock_guard<std::mutex> lock(registry_mu_);
  buffers_.push_back(std::move(buf));
  return *t_buffer;
}

void TraceCollector::record(TraceEvent::Type type, std::string_view name, std::string_view cat,
                            double ts_us, double dur_us, std::uint64_t flow_id,
                            std::initializer_list<TraceArg> args, int rank) {
  if (!trace_enabled()) return;
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);  // uncontended: owner-thread writes only
  Record r;
  r.type = type;
  r.rank = rank == kCurrentRank ? t_thread_rank : rank;
  r.ts_us = ts_us;
  r.dur_us = dur_us;
  r.flow_id = flow_id;
  r.name = buf.intern_string(name);
  r.cat = buf.intern_string(cat);
  for (const TraceArg& a : args) {
    if (r.num_args >= kMaxTraceArgs) break;
    r.arg_key[r.num_args] = buf.intern_string(a.key);
    r.arg_val[r.num_args] = a.value;
    ++r.num_args;
  }
  buf.push(r);
}

void TraceCollector::complete(std::string_view name, std::string_view cat, double ts_us,
                              double dur_us, std::initializer_list<TraceArg> args, int rank) {
  record(TraceEvent::Type::kComplete, name, cat, ts_us, dur_us, 0, args, rank);
}

void TraceCollector::instant(std::string_view name, std::string_view cat,
                             std::initializer_list<TraceArg> args, int rank) {
  record(TraceEvent::Type::kInstant, name, cat, now_us(), 0.0, 0, args, rank);
}

void TraceCollector::flow_start(std::string_view name, std::string_view cat,
                                std::uint64_t flow_id, int rank) {
  record(TraceEvent::Type::kFlowStart, name, cat, now_us(), 0.0, flow_id, {}, rank);
}

void TraceCollector::flow_end(std::string_view name, std::string_view cat, std::uint64_t flow_id,
                              int rank) {
  record(TraceEvent::Type::kFlowEnd, name, cat, now_us(), 0.0, flow_id, {}, rank);
}

std::vector<TraceEvent> TraceCollector::snapshot_events() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> lock(buf->mu);
    // Oldest-first: the ring's live span is the `count` records ending at
    // `next` (exclusive), wrapping.
    const std::size_t cap = buf->ring.size();
    const std::size_t start = (buf->next + cap - buf->count) % cap;
    for (std::size_t i = 0; i < buf->count; ++i) {
      const Record& r = buf->ring[(start + i) % cap];
      TraceEvent e;
      e.type = r.type;
      e.rank = r.rank;
      e.tid = buf->tid;
      e.ts_us = r.ts_us;
      e.dur_us = r.dur_us;
      e.flow_id = r.flow_id;
      e.name = r.name == kNoString ? std::string() : buf->strings[r.name];
      e.cat = r.cat == kNoString ? std::string() : buf->strings[r.cat];
      e.num_args = r.num_args;
      for (std::uint8_t a = 0; a < r.num_args; ++a) {
        e.arg_key[a] = buf->strings[r.arg_key[a]];
        e.arg_val[a] = r.arg_val[a];
      }
      out.push_back(std::move(e));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  return out;
}

std::size_t TraceCollector::dropped_events() const {
  std::size_t total = 0;
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> lock(buf->mu);
    total += buf->dropped;
  }
  return total;
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> registry_lock(registry_mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->next = 0;
    buf->count = 0;
    buf->dropped = 0;
    buf->strings.clear();
    buf->intern.clear();
  }
}

}  // namespace smart::obs
