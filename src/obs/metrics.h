// Named counters, gauges and fixed-bucket histograms with a plain-data
// snapshot — the numeric side of the observability subsystem (obs/trace.h
// is the timeline side).
//
// Instrument sites pay one relaxed load and a branch when metrics are off
// (the check lives inside add/observe/set, mirroring trace_enabled()).
// Metric objects are created once (registry mutex) and then updated with
// lock-free atomics, so any thread of any rank can bump a counter on the
// hot path.  simmpi ranks are threads of one process, so the one
// process-wide registry already holds every rank's metrics; --metrics-out
// and SMART_METRICS dump its snapshot as JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace smart::obs {

extern std::atomic<bool> g_metrics_on;

inline bool metrics_enabled() { return g_metrics_on.load(std::memory_order_relaxed); }
inline void set_metrics_enabled(bool on) { g_metrics_on.store(on, std::memory_order_relaxed); }

/// Monotonic sum (messages sent, bytes on the wire, retries...).
class Counter {
 public:
  void add(std::int64_t n = 1) {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Peak-tracking value (largest map entry count, deepest queue...).  set()
/// overwrites, update_max() keeps the high-water mark.
class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void update_max(double v) {
    if (!metrics_enabled()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram: `bounds` are ascending inclusive upper bounds,
/// a value lands in the first bucket with v <= bound, and one extra
/// overflow bucket catches the rest.  Boundaries are fixed at creation.
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

  void observe(double v) {
    if (!metrics_enabled()) return;
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size()+1, last = overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Plain-data capture of the registry.
struct MetricsSnapshot {
  struct Histogram {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size()+1
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Estimated q-quantile (q in [0,1]) by linear interpolation inside
    /// the covering bucket (lower edge 0 for the first bucket).  Samples
    /// in the overflow bucket clamp to the last finite bound — a p99
    /// beyond the bounds can only be reported as ">= last bound".
    double percentile(double q) const;
  };

  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<Histogram> histograms;

  void dump_json(std::ostream& os) const;
};

/// Name-keyed metric store.  get-or-create takes a mutex; the returned
/// references are stable for the process's lifetime and lock-free to
/// update.
class MetricsRegistry {
 public:
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The one registry.  simmpi ranks are threads of one process, so it
  /// already aggregates across ranks.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; `bounds` are used only on first creation.
  FixedHistogram& histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_;
};

}  // namespace smart::obs
