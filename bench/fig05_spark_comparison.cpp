// Figure 5 — performance comparison with Spark (MiniSpark stand-in; see
// DESIGN.md §1 for the substitution) on logistic regression, k-means and
// histogram, varying analytics threads 1..8, plus the Section 5.2 memory
// comparison.
//
// Paper: 40 GB emulator output, single node, 8 cores; Smart beats Spark by
// 21x/62x/92x and scales to 7.95/7.71/7.96 on 8 threads; Spark holds >90%
// of RAM, Smart's analytics ~16 MB.
//
// Each Smart and MiniSpark leg runs 3 times (bench::repeat over its wall
// time); the table prints each side's min, median and spread, and both
// speedups divide minima.
#include <algorithm>
#include <limits>

#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/logistic_regression.h"
#include "bench/bench_util.h"
#include "minispark/apps.h"
#include "sim/emulator.h"

namespace {

using namespace smart;
using namespace smart::analytics;

/// One run of one leg: Smart or MiniSpark on one app at one thread count.
struct Run {
  double wall = 0.0;
  double virtual_s = 0.0;  // Smart's critical path: max worker busy time
  std::size_t peak_bytes = 0;
  RunStats stats;  // Smart's full scheduler stat set (RUNSTATS line)
};

using Leg = Run (*)(const std::vector<double>&, int);

/// Times one leg body with the memory tracker reset around it.
template <typename Fn>
Run timed(const Fn& body) {
  smart::bench::reset_memory();
  Run r;
  WallTimer wall;
  body();
  r.wall = wall.seconds();
  r.peak_bytes = MemoryTracker::instance().peak();
  return r;
}

/// Smart's stats and virtual time, read after its run.
template <typename App>
Run smart_run(App& app, const std::vector<double>& data) {
  Run r = timed([&] { app.run(data.data(), data.size(), nullptr, 0); });
  r.stats = app.stats();
  r.virtual_s = r.stats.reduction_seconds + r.stats.combination_seconds;
  return r;
}

minispark::SparkContext::Config spark_config(int threads) {
  minispark::SparkContext::Config cfg;
  cfg.worker_threads = threads;
  cfg.service_threads = 2;  // the driver/UI threads the paper blames at 8 workers
  return cfg;
}

constexpr std::size_t kLogRegDim = 15;
constexpr int kIters = 10;
constexpr std::size_t kK = 8, kDims = 64;
constexpr int kBuckets = 100;

std::vector<double> kmeans_init() {
  std::vector<double> init(kK * kDims);
  Rng rng(23);
  for (auto& c : init) c = rng.gaussian();
  return init;
}

Run smart_logreg(const std::vector<double>& data, int threads) {
  LogisticRegression<double> reg(SchedArgs(threads, kLogRegDim + 1, nullptr, kIters), kLogRegDim,
                                 0.1);
  return smart_run(reg, data);
}

Run spark_logreg(const std::vector<double>& data, int threads) {
  minispark::SparkContext ctx(spark_config(threads));
  return timed([&] { (void)minispark::spark_logreg(ctx, data, kLogRegDim, kIters, 0.1); });
}

Run smart_kmeans(const std::vector<double>& data, int threads) {
  const std::vector<double> init = kmeans_init();
  KMeansInit seed{init.data(), kK, kDims};
  KMeans<double> km(SchedArgs(threads, kDims, &seed, kIters), kK, kDims);
  return smart_run(km, data);
}

Run spark_kmeans(const std::vector<double>& data, int threads) {
  const std::vector<double> init = kmeans_init();
  minispark::SparkContext ctx(spark_config(threads));
  return timed([&] { (void)minispark::spark_kmeans(ctx, data, kDims, kK, kIters, init); });
}

Run smart_histogram(const std::vector<double>& data, int threads) {
  Histogram<double> hist(SchedArgs(threads, 1), -5.0, 5.0, kBuckets);
  return smart_run(hist, data);
}

Run spark_histogram(const std::vector<double>& data, int threads) {
  minispark::SparkContext ctx(spark_config(threads));
  return timed([&] { (void)minispark::spark_histogram(ctx, data, -5.0, 5.0, kBuckets); });
}

/// A leg run 3 times (bench::repeat over its wall time): the minimum of
/// its virtual times beside, the rest from the last run.
struct RepeatedRun {
  smart::bench::Repeated wall;
  double virtual_min = 0.0;
  Run last;
};

RepeatedRun repeat_run(Leg leg, const std::vector<double>& data, int threads) {
  RepeatedRun out;
  out.virtual_min = std::numeric_limits<double>::infinity();
  out.wall = smart::bench::repeat([&] {
    out.last = leg(data, threads);
    out.virtual_min = std::min(out.virtual_min, out.last.virtual_s);
    return out.last.wall;
  });
  return out;
}

void run_app(const char* name, const char* tag, const std::vector<double>& data, Leg smart_leg,
             Leg spark_leg) {
  // Each leg runs 3 times; the speedups divide the minima.
  Table table({"threads", "smart_min_s", "smart_median_s", "smart_spread", "spark_min_s",
               "spark_median_s", "spark_spread", "spark_vs_smart_x", "smart_speedup_virtual",
               "smart_peak_mem", "spark_peak_mem"});
  double smart_base_virtual = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const RepeatedRun smart = repeat_run(smart_leg, data, threads);
    const RepeatedRun spark = repeat_run(spark_leg, data, threads);
    smart::bench::print_run_stats(std::string(tag) + "/threads=" + std::to_string(threads),
                                  smart.last.stats);
    if (threads == 1) smart_base_virtual = smart.virtual_min;
    table.begin_row();
    table.add(threads);
    for (const auto* leg : {&smart.wall, &spark.wall}) {
      table.add(leg->min, 3);
      table.add(leg->median, 3);
      table.add(leg->spread, 3);
    }
    table.add(spark.wall.min / smart.wall.min, 1);
    table.add(smart.virtual_min > 0 ? smart_base_virtual / smart.virtual_min : 0.0, 2);
    table.add(format_bytes(smart.last.peak_bytes));
    table.add(format_bytes(spark.last.peak_bytes));
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
      smart::format_bytes(n_doubles * sizeof(double)) + " gaussian emulator output per app, " +
          smart::bench::centroid_kernel_width());

  sim::Emulator emu({.step_len = n_doubles, .mean = 0.0, .stddev = 1.0, .seed = 42});
  const double* raw = emu.step();
  const std::vector<double> gaussian(raw, raw + emu.step_len());

  // Labeled records for logistic regression (15 features + label).
  sim::LabeledEmulator labeled(
      {.records_per_step = n_doubles / 16, .dim = 15, .seed = 43});
  const double* lraw = labeled.step();
  const std::vector<double> records(lraw, lraw + labeled.step_len());

  run_app("Figure 5(a): logistic regression (iters=10, dim=15)", "fig05a", records,
          smart_logreg, spark_logreg);
  run_app("Figure 5(b): k-means (k=8, iters=10, dim=64)", "fig05b", gaussian, smart_kmeans,
          spark_kmeans);
  run_app("Figure 5(c): histogram (100 buckets)", "fig05c", gaussian, smart_histogram,
          spark_histogram);

  std::cout << "Expectation (paper shape): spark_vs_smart_x >> 1 for every app and thread\n"
               "count (an order of magnitude or more); Smart's virtual speedup near-linear\n"
               "in threads; Smart's peak memory a small fraction of MiniSpark's.\n";
  return 0;
}

int main() { return smart::bench::guarded_main(harness_main); }
