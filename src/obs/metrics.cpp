#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/serialize.h"
#include "obs/json.h"

namespace smart::obs {

std::atomic<bool> g_metrics_on{false};

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<FixedHistogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) {
      MetricsSnapshot::Histogram hs;
      hs.name = name;
      hs.bounds = h->bounds();
      hs.buckets.resize(h->num_buckets());
      for (std::size_t i = 0; i < h->num_buckets(); ++i) hs.buckets[i] = h->bucket(i);
      hs.count = h->count();
      hs.sum = h->sum();
      snap.histograms.push_back(std::move(hs));
    }
  }
  // The BufferPool keeps its own process-wide relaxed counters (it lives
  // below the obs layer and is always on); bridge them into the snapshot
  // here so --metrics-out shows allocator churn.
  const BufferPool::Totals pool = BufferPool::totals();
  snap.counters["bufferpool.hits"] = static_cast<std::int64_t>(pool.hits);
  snap.counters["bufferpool.misses"] = static_cast<std::int64_t>(pool.misses);
  snap.counters["bufferpool.releases_pooled"] = static_cast<std::int64_t>(pool.releases_pooled);
  snap.counters["bufferpool.releases_dropped"] =
      static_cast<std::int64_t>(pool.releases_dropped);
  snap.counters["bufferpool.bytes_recycled"] = static_cast<std::int64_t>(pool.bytes_recycled);
  snap.counters["bufferpool.resize"] = static_cast<std::int64_t>(pool.resizes);
  return snap;
}

double MetricsSnapshot::Histogram::percentile(double q) const {
  if (count == 0 || buckets.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket <= 0.0 || cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    if (i >= bounds.size()) break;  // overflow bucket: clamp below
    const double lo = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
    const double hi = bounds[i];
    return lo + (hi - lo) * ((target - cum) / in_bucket);
  }
  // Overflow (or rounding past the end): the last finite boundary is the
  // tightest honest answer.
  return bounds.empty() ? 0.0 : bounds.back();
}

void MetricsSnapshot::dump_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    os << ": " << v;
  }
  os << (counters.empty() ? "},\n" : "\n  },\n");
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << ": " << buf;
  }
  os << (gauges.empty() ? "},\n" : "\n  },\n");
  os << "  \"histograms\": {";
  first = true;
  for (const Histogram& h : histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(os, h.name);
    os << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) os << ", ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", h.bounds[i]);
      os << buf;
    }
    os << "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) os << ", ";
      os << h.buckets[i];
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", h.sum);
    os << "], \"count\": " << h.count << ", \"sum\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.6g", h.percentile(0.50));
    os << ", \"p50\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.6g", h.percentile(0.90));
    os << ", \"p90\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.6g", h.percentile(0.99));
    os << ", \"p99\": " << buf << "}";
  }
  os << (histograms.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
}

}  // namespace smart::obs
