// Figure 5 — performance comparison with Spark (MiniSpark stand-in; see
// DESIGN.md §1 for the substitution) on logistic regression, k-means and
// histogram, varying analytics threads 1..8, plus the Section 5.2 memory
// comparison.
//
// Paper: 40 GB emulator output, single node, 8 cores; Smart beats Spark by
// 21x/62x/92x and scales to 7.95/7.71/7.96 on 8 threads; Spark holds >90%
// of RAM, Smart's analytics ~16 MB.
#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/logistic_regression.h"
#include "bench/bench_util.h"
#include "minispark/apps.h"
#include "sim/emulator.h"

namespace {

using namespace smart;
using namespace smart::analytics;

struct AppResult {
  double smart_wall = 0.0;
  double smart_virtual = 0.0;  // critical path: max worker busy time
  double spark_wall = 0.0;
  std::size_t smart_peak_bytes = 0;
  std::size_t spark_peak_bytes = 0;
  RunStats smart_stats;  // full scheduler stat set (RUNSTATS line)
};

minispark::SparkContext::Config spark_config(int threads) {
  minispark::SparkContext::Config cfg;
  cfg.worker_threads = threads;
  cfg.service_threads = 2;  // the driver/UI threads the paper blames at 8 workers
  return cfg;
}

AppResult bench_logreg(const std::vector<double>& data, int threads) {
  constexpr std::size_t kDim = 15;
  constexpr int kIters = 10;
  AppResult r;
  {
    smart::bench::reset_memory();
    LogisticRegression<double> reg(SchedArgs(threads, kDim + 1, nullptr, kIters), kDim, 0.1);
    WallTimer wall;
    reg.run(data.data(), data.size(), nullptr, 0);
    r.smart_wall = wall.seconds();
    r.smart_stats = reg.stats();
    r.smart_virtual = r.smart_stats.reduction_seconds + r.smart_stats.combination_seconds;
    r.smart_peak_bytes = MemoryTracker::instance().peak();
  }
  {
    smart::bench::reset_memory();
    minispark::SparkContext ctx(spark_config(threads));
    WallTimer wall;
    (void)minispark::spark_logreg(ctx, data, kDim, kIters, 0.1);
    r.spark_wall = wall.seconds();
    r.spark_peak_bytes = MemoryTracker::instance().peak();
  }
  return r;
}

AppResult bench_kmeans(const std::vector<double>& data, int threads) {
  constexpr std::size_t kK = 8, kDims = 64;
  constexpr int kIters = 10;
  std::vector<double> init(kK * kDims);
  Rng rng(23);
  for (auto& c : init) c = rng.gaussian();
  AppResult r;
  {
    smart::bench::reset_memory();
    KMeansInit seed{init.data(), kK, kDims};
    KMeans<double> km(SchedArgs(threads, kDims, &seed, kIters), kK, kDims);
    WallTimer wall;
    km.run(data.data(), data.size(), nullptr, 0);
    r.smart_wall = wall.seconds();
    r.smart_stats = km.stats();
    r.smart_virtual = r.smart_stats.reduction_seconds + r.smart_stats.combination_seconds;
    r.smart_peak_bytes = MemoryTracker::instance().peak();
  }
  {
    smart::bench::reset_memory();
    minispark::SparkContext ctx(spark_config(threads));
    WallTimer wall;
    (void)minispark::spark_kmeans(ctx, data, kDims, kK, kIters, init);
    r.spark_wall = wall.seconds();
    r.spark_peak_bytes = MemoryTracker::instance().peak();
  }
  return r;
}

AppResult bench_histogram(const std::vector<double>& data, int threads) {
  constexpr int kBuckets = 100;
  AppResult r;
  {
    smart::bench::reset_memory();
    Histogram<double> hist(SchedArgs(threads, 1), -5.0, 5.0, kBuckets);
    WallTimer wall;
    hist.run(data.data(), data.size(), nullptr, 0);
    r.smart_wall = wall.seconds();
    r.smart_stats = hist.stats();
    r.smart_virtual = r.smart_stats.reduction_seconds + r.smart_stats.combination_seconds;
    r.smart_peak_bytes = MemoryTracker::instance().peak();
  }
  {
    smart::bench::reset_memory();
    minispark::SparkContext ctx(spark_config(threads));
    WallTimer wall;
    (void)minispark::spark_histogram(ctx, data, -5.0, 5.0, kBuckets);
    r.spark_wall = wall.seconds();
    r.spark_peak_bytes = MemoryTracker::instance().peak();
  }
  return r;
}

void run_app(const char* name, const char* tag, const std::vector<double>& data,
             AppResult (*fn)(const std::vector<double>&, int)) {
  Table table({"threads", "smart_s", "spark_s", "spark_vs_smart_x", "smart_speedup_virtual",
               "smart_peak_mem", "spark_peak_mem"});
  double smart_base_virtual = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const AppResult r = fn(data, threads);
    smart::bench::print_run_stats(std::string(tag) + "/threads=" + std::to_string(threads),
                                  r.smart_stats);
    if (threads == 1) smart_base_virtual = r.smart_virtual;
    table.begin_row();
    table.add(threads);
    table.add(r.smart_wall, 3);
    table.add(r.spark_wall, 3);
    table.add(r.spark_wall / r.smart_wall, 1);
    table.add(r.smart_virtual > 0 ? smart_base_virtual / r.smart_virtual : 0.0, 2);
    table.add(format_bytes(r.smart_peak_bytes));
    table.add(format_bytes(r.spark_peak_bytes));
  }
  smart::bench::finish(table, tag, name);
}

}  // namespace

int harness_main() {
  using smart::Table;
  const std::size_t n_doubles = smart::bench::scaled(1u << 21);  // ~16 MB base
  smart::bench::print_header(
      "Figure 5: Smart vs Spark (MiniSpark stand-in), 1-8 analytics threads",
      "40 GB gaussian emulator stream, Spark 1.1.1, single 8-core node; "
      "speedups up to 21x/62x/92x",
      smart::format_bytes(n_doubles * sizeof(double)) + " gaussian emulator output per app");

  sim::Emulator emu({.step_len = n_doubles, .mean = 0.0, .stddev = 1.0, .seed = 42});
  const double* raw = emu.step();
  const std::vector<double> gaussian(raw, raw + emu.step_len());

  // Labeled records for logistic regression (15 features + label).
  sim::LabeledEmulator labeled(
      {.records_per_step = n_doubles / 16, .dim = 15, .seed = 43});
  const double* lraw = labeled.step();
  const std::vector<double> records(lraw, lraw + labeled.step_len());

  run_app("Figure 5(a): logistic regression (iters=10, dim=15)", "fig05a", records,
          bench_logreg);
  run_app("Figure 5(b): k-means (k=8, iters=10, dim=64)", "fig05b", gaussian, bench_kmeans);
  run_app("Figure 5(c): histogram (100 buckets)", "fig05c", gaussian, bench_histogram);

  std::cout << "Expectation (paper shape): spark_vs_smart_x >> 1 for every app and thread\n"
               "count (an order of magnitude or more); Smart's virtual speedup near-linear\n"
               "in threads; Smart's peak memory a small fraction of MiniSpark's.\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
