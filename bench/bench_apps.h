// The nine evaluation analytics (paper Section 5.1) behind one uniform
// interface, for the scalability harnesses (Figures 7, 8, 10).
// Parameters follow Section 5.4: grid size 1000, histogram 1200 buckets,
// mutual information 100x100 cells, logreg 3 iters x 15 dims, k-means
// k=8 x 10 iters x 4 dims, window size 25 for all window apps.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analytics/grid_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/kde.h"
#include "analytics/kmeans.h"
#include "analytics/logistic_regression.h"
#include "analytics/moving_average.h"
#include "analytics/moving_median.h"
#include "analytics/mutual_information.h"
#include "analytics/savitzky_golay.h"
#include "common/rng.h"
#include "core/run_stats.h"

namespace smart::bench {

/// One in-situ analytics engine bound to a thread count; run() analyzes a
/// time-step slab and returns per-call stats via stats().
class AnalyticsApp {
 public:
  virtual ~AnalyticsApp() = default;
  virtual void run(const double* data, std::size_t len) = 0;
  virtual const RunStats& stats() const = 0;
  /// Toggle cross-rank combination (window apps are off by construction).
  virtual void set_global_combination(bool flag) = 0;
  /// Records the run's master seed on the underlying scheduler so its
  /// RunStats dumps (RUNSTATS lines) echo how to reproduce the run.
  virtual void set_master_seed(std::size_t seed) = 0;
};

namespace detail {

template <typename SchedulerT>
class SingleKeyApp : public AnalyticsApp {
 public:
  explicit SingleKeyApp(std::unique_ptr<SchedulerT> sched) : sched_(std::move(sched)) {}
  void run(const double* data, std::size_t len) override {
    sched_->run(data, len, nullptr, 0);
  }
  const RunStats& stats() const override { return sched_->stats(); }
  void set_global_combination(bool flag) override { sched_->set_global_combination(flag); }
  void set_master_seed(std::size_t seed) override { sched_->set_master_seed(seed); }

 protected:
  std::unique_ptr<SchedulerT> sched_;
};

template <typename SchedulerT>
class WindowApp : public AnalyticsApp {
 public:
  explicit WindowApp(std::unique_ptr<SchedulerT> sched) : sched_(std::move(sched)) {}
  void run(const double* data, std::size_t len) override {
    out_.resize(len);
    sched_->run2(data, len, out_.data(), out_.size());
  }
  const RunStats& stats() const override { return sched_->stats(); }
  void set_global_combination(bool flag) override { sched_->set_global_combination(flag); }
  void set_master_seed(std::size_t seed) override { sched_->set_master_seed(seed); }

 private:
  std::unique_ptr<SchedulerT> sched_;
  std::vector<double> out_;
};

/// K-means wants rows of kDims; logreg wants rows of dim+1 with a label in
/// the last slot.  The simulation slab is raw doubles, so these two apps
/// view it through the paper's "chunk as feature vector" convention; for
/// logistic regression we synthesize the label slot's meaning by thresholding
/// (value > threshold -> 1), keeping the data in place.
class KMeansApp : public AnalyticsApp {
 public:
  KMeansApp(int threads) {
    Rng rng(57);
    init_.resize(kK * kDims);
    for (auto& c : init_) c = rng.uniform(0.0, 1.0);
    seed_ = {init_.data(), kK, kDims};
    sched_ = std::make_unique<analytics::KMeans<double>>(
        SchedArgs(threads, kDims, &seed_, 10), kK, kDims);
  }
  void run(const double* data, std::size_t len) override {
    sched_->run(data, len, nullptr, 0);
  }
  const RunStats& stats() const override { return sched_->stats(); }
  void set_global_combination(bool flag) override { sched_->set_global_combination(flag); }
  void set_master_seed(std::size_t seed) override { sched_->set_master_seed(seed); }

 private:
  static constexpr std::size_t kK = 8;
  static constexpr std::size_t kDims = 4;
  std::vector<double> init_;
  analytics::KMeansInit seed_{};
  std::unique_ptr<analytics::KMeans<double>> sched_;
};

}  // namespace detail

inline const std::vector<std::string>& app_names() {
  static const std::vector<std::string> names = {
      "grid_aggregation", "histogram", "mutual_info", "logreg",       "kmeans",
      "moving_avg",       "moving_median", "kde",      "savitzky_golay"};
  return names;
}

/// Builds the named analytics app with Section 5.4 parameters.
/// data_min/data_max bound the slab's value range (for bucketed apps).
inline std::unique_ptr<AnalyticsApp> make_app(const std::string& name, int threads,
                                              double data_min, double data_max) {
  using namespace analytics;
  const SchedArgs one(threads, 1);
  if (name == "grid_aggregation") {
    return std::make_unique<detail::SingleKeyApp<GridAggregation<double>>>(
        std::make_unique<GridAggregation<double>>(one, 1000));
  }
  if (name == "histogram") {
    return std::make_unique<detail::SingleKeyApp<Histogram<double>>>(
        std::make_unique<Histogram<double>>(one, data_min, data_max, 1200));
  }
  if (name == "mutual_info") {
    return std::make_unique<detail::SingleKeyApp<MutualInformation<double>>>(
        std::make_unique<MutualInformation<double>>(SchedArgs(threads, 2), data_min, data_max,
                                                    100, 100));
  }
  if (name == "logreg") {
    return std::make_unique<detail::SingleKeyApp<LogisticRegression<double>>>(
        std::make_unique<LogisticRegression<double>>(SchedArgs(threads, 16, nullptr, 3), 15,
                                                     0.1));
  }
  if (name == "kmeans") return std::make_unique<detail::KMeansApp>(threads);
  if (name == "moving_avg") {
    return std::make_unique<detail::WindowApp<MovingAverage<double>>>(
        std::make_unique<MovingAverage<double>>(one, 25));
  }
  if (name == "moving_median") {
    return std::make_unique<detail::WindowApp<MovingMedian<double>>>(
        std::make_unique<MovingMedian<double>>(one, 25));
  }
  if (name == "kde") {
    return std::make_unique<detail::WindowApp<KernelDensity<double>>>(
        std::make_unique<KernelDensity<double>>(one, 25, 0.2 * (data_max - data_min) + 1e-6));
  }
  if (name == "savitzky_golay") {
    return std::make_unique<detail::WindowApp<SavitzkyGolay<double>>>(
        std::make_unique<SavitzkyGolay<double>>(one, 25, 4));
  }
  throw std::invalid_argument("make_app: unknown app " + name);
}

}  // namespace smart::bench
