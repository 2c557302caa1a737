// Gaussian kernel density estimation over a sliding window (window-based
// analytics, paper Section 5.1): the local density at each element's value,
// estimated from its window neighbors with a Gaussian kernel of bandwidth h:
//
//   density(i) = 1/(n_i * h * sqrt(2*pi)) * sum_{j in win(i)} exp(-(x_j - x_i)^2 / (2 h^2))
//
// The kernel term needs the *center* value x_i while accumulating neighbor
// j — recovered via the runtime-maintained current key (see
// Scheduler::current_key and RedObj::key).
#pragma once

#include <cmath>

#include "analytics/red_objs.h"
#include "analytics/window_common.h"
#include "core/scheduler.h"

namespace smart::analytics {

template <class In>
class KernelDensity : public Scheduler<In, double> {
 public:
  KernelDensity(const SchedArgs& args, std::size_t window, double bandwidth, RunOptions opts = {})
      : Scheduler<In, double>(args, opts), window_(window), h_(bandwidth) {
    if (window == 0 || window % 2 == 0) {
      throw std::invalid_argument("KernelDensity: window must be odd");
    }
    if (args.chunk_size != 1) {
      throw std::invalid_argument("KernelDensity: chunk_size must be 1");
    }
    if (!(bandwidth > 0.0)) {
      throw std::invalid_argument("KernelDensity: bandwidth must be positive");
    }
    register_red_objs();
    this->set_global_combination(false);
  }

  std::size_t window() const { return window_; }
  double bandwidth() const { return h_; }

 protected:
  bool gen_key_ranges(const ChunkBatch& batch, const In*, KeyRange* ranges,
                      const CombinationMap&) const override {
    window_center_ranges(batch, this->total_len(), window_, ranges);
    return true;
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    auto& kde = window_of(red_obj);
    const auto center = static_cast<std::size_t>(this->current_key());
    const double u = (static_cast<double>(data[chunk.start]) - static_cast<double>(data[center])) / h_;
    kde.kernel_sum += std::exp(-0.5 * u * u);
    kde.count += 1;
  }

  /// Adds a whole run of consecutive neighbours, in chunk order and with
  /// the per-chunk expression, so the sum's bits match the per-chunk path.
  /// With stop_after_trigger the run stops where the window fills.
  std::size_t accumulate_batch(const ChunkBatch& batch, const In* data,
                               std::unique_ptr<RedObj>& red_obj,
                               bool stop_after_trigger) override {
    auto& kde = window_of(red_obj);
    const std::size_t n = window_run_length(batch.count, kde.count, kde.window, stop_after_trigger);
    const In* first = data + batch.start;  // chunk_size 1: chunk i is element start + i
    const auto x_center = static_cast<double>(data[static_cast<std::size_t>(this->current_key())]);
    double sum = kde.kernel_sum;
    for (std::size_t i = 0; i < n; ++i) {
      const double u = (static_cast<double>(first[i]) - x_center) / h_;
      sum += std::exp(-0.5 * u * u);
    }
    kde.kernel_sum = sum;
    kde.count += n;
    return n;
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    const auto& src = static_cast<const KdeObj&>(red_obj);
    auto& dst = static_cast<KdeObj&>(*com_obj);
    dst.kernel_sum += src.kernel_sum;
    dst.count += src.count;
  }

  void convert(const RedObj& red_obj, double* out) const override {
    const auto& kde = static_cast<const KdeObj&>(red_obj);
    constexpr double kSqrt2Pi = 2.5066282746310002;
    *out = kde.count > 0
               ? kde.kernel_sum / (static_cast<double>(kde.count) * h_ * kSqrt2Pi)
               : 0.0;
  }

  /// Converts the estimate and empties the object for the next window,
  /// which costs no allocation.
  void emit(std::unique_ptr<RedObj>& red_obj, double* out) override {
    auto& kde = static_cast<KdeObj&>(*red_obj);
    if (out != nullptr) convert(kde, out);
    kde.kernel_sum = 0.0;
    kde.count = 0;
  }

 private:
  /// The object for the current key's window, clipped at the partition
  /// boundary.
  KdeObj& window_of(std::unique_ptr<RedObj>& red_obj) const {
    return counted_window<KdeObj>(
        red_obj, clipped_window_size(static_cast<std::size_t>(this->current_key()),
                                     this->total_len(), window_));
  }

  std::size_t window_;
  double h_;
};

}  // namespace smart::analytics
