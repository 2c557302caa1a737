// Moving average (window-based analytics, paper Listing 5): the average of
// the elements within every window snapshot.  Algebraic — Θ(1) reduction
// object — and the flagship workload of the early-emission optimization
// (Figure 11a): with the trigger, a window object is emitted the moment its
// count reaches the window size, so live objects are bounded by the window
// size instead of the input length.
#pragma once

#include "analytics/red_objs.h"
#include "analytics/window_common.h"
#include "core/scheduler.h"

namespace smart::analytics {

template <class In>
class MovingAverage : public Scheduler<In, double> {
 public:
  /// window must be odd (centered window); chunk_size must be 1.
  MovingAverage(const SchedArgs& args, std::size_t window, RunOptions opts = {})
      : Scheduler<In, double>(args, opts), window_(window) {
    if (window == 0 || window % 2 == 0) {
      throw std::invalid_argument("MovingAverage: window must be odd");
    }
    if (args.chunk_size != 1) {
      throw std::invalid_argument("MovingAverage: chunk_size must be 1");
    }
    register_red_objs();
    this->set_global_combination(false);  // per-partition output
  }

  std::size_t window() const { return window_; }

 protected:
  bool gen_key_ranges(const ChunkBatch& batch, const In*, KeyRange* ranges,
                      const CombinationMap&) const override {
    window_center_ranges(batch, this->total_len(), window_, ranges);
    return true;
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    auto& win = window_of(red_obj);
    win.sum += static_cast<double>(data[chunk.start]);
    win.count += 1;
  }

  /// Adds a whole run of consecutive elements, in chunk order and with the
  /// per-chunk expression, so the sum's bits match the per-chunk path.
  /// With stop_after_trigger the run stops where the window fills.
  std::size_t accumulate_batch(const ChunkBatch& batch, const In* data,
                               std::unique_ptr<RedObj>& red_obj,
                               bool stop_after_trigger) override {
    auto& win = window_of(red_obj);
    const std::size_t n = window_run_length(batch.count, win.count, win.window, stop_after_trigger);
    const In* first = data + batch.start;  // chunk_size 1: chunk i is element start + i
    double sum = win.sum;
    for (std::size_t i = 0; i < n; ++i) sum += static_cast<double>(first[i]);
    win.sum = sum;
    win.count += n;
    return n;
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    const auto& src = static_cast<const WinObj&>(red_obj);
    auto& dst = static_cast<WinObj&>(*com_obj);
    dst.sum += src.sum;
    dst.count += src.count;
  }

  void convert(const RedObj& red_obj, double* out) const override {
    const auto& win = static_cast<const WinObj&>(red_obj);
    *out = win.count > 0 ? win.sum / static_cast<double>(win.count) : 0.0;
  }

  /// Converts the window and empties the object for the next one, which
  /// costs no allocation.
  void emit(std::unique_ptr<RedObj>& red_obj, double* out) override {
    auto& win = static_cast<WinObj&>(*red_obj);
    if (out != nullptr) convert(win, out);
    win.sum = 0.0;
    win.count = 0;
  }

 private:
  /// The object for the current key's window.  Clipped edge windows cover
  /// fewer elements; their trigger fires at the clipped size so they too
  /// can be emitted early.
  WinObj& window_of(std::unique_ptr<RedObj>& red_obj) const {
    return counted_window<WinObj>(
        red_obj, clipped_window_size(static_cast<std::size_t>(this->current_key()),
                                     this->total_len(), window_));
  }

  std::size_t window_;
};

}  // namespace smart::analytics
