#include "minispark/context.h"

#include <chrono>
#include <stdexcept>

namespace smart::minispark {

SparkContext::SparkContext(Config config)
    : config_(config),
      partitions_(config.partitions > 0 ? config.partitions : 2 * config.worker_threads),
      pool_(config.worker_threads) {
  if (config.worker_threads <= 0) {
    throw std::invalid_argument("SparkContext: worker_threads must be positive");
  }
  service_threads_.reserve(static_cast<std::size_t>(config.service_threads));
  for (int i = 0; i < config.service_threads; ++i) {
    service_threads_.emplace_back([this, i] { service_loop(i); });
  }
}

SparkContext::~SparkContext() {
  shutdown_.store(true);
  for (auto& t : service_threads_) t.join();
}

void SparkContext::service_loop(int /*id*/) {
  // Emulates the driver-side threads Spark keeps alive next to the worker
  // pool (scheduler event loop, heartbeats, web UI): a small duty cycle of
  // busy work that competes with the workers for cores — the effect the
  // paper observed at 8 worker threads (Section 5.2).
  using clock = std::chrono::steady_clock;
  const auto period = std::chrono::milliseconds(10);
  const auto busy_span = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(config_.service_duty * 0.010));
  while (!shutdown_.load(std::memory_order_relaxed)) {
    const auto start = clock::now();
    volatile double sink = 0.0;
    while (clock::now() - start < busy_span) sink = sink + 1.0;
    (void)sink;
    std::this_thread::sleep_for(period - busy_span);
  }
}

void SparkContext::run_stage(const std::function<void(int)>& fn) {
  stages_.fetch_add(1, std::memory_order_relaxed);
  const int nparts = partitions_;
  pool_.parallel_region([&](int worker) {
    for (int p = worker; p < nparts; p += pool_.size()) fn(p);
  });
}

}  // namespace smart::minispark
