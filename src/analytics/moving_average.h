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
  std::optional<KeyRange> gen_key_range(const Chunk& chunk, const In*,
                                        const CombinationMap&) const override {
    return window_center_range(chunk.start, this->total_len(), window_);
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    if (!red_obj) {
      auto obj = std::make_unique<WinObj>();
      // Clipped edge windows cover fewer elements; their trigger fires at
      // the clipped size so they too can be emitted early.
      obj->window = clipped_window_size(static_cast<std::size_t>(this->current_key()),
                                        this->total_len(), window_);
      red_obj = std::move(obj);
    }
    auto& win = static_cast<WinObj&>(*red_obj);
    win.sum += static_cast<double>(data[chunk.start]);
    win.count += 1;
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

 private:
  std::size_t window_;
};

}  // namespace smart::analytics
