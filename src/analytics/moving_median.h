// Moving median (window-based analytics): median is holistic, so every
// reduction object must retain all covered elements — Θ(W) per object, the
// expensive end of the paper's Section 4.1 space analysis and the workload
// of Figure 11(b).
#pragma once

#include "analytics/red_objs.h"
#include "analytics/window_common.h"
#include "core/scheduler.h"

namespace smart::analytics {

template <class In>
class MovingMedian : public Scheduler<In, double> {
 public:
  MovingMedian(const SchedArgs& args, std::size_t window, RunOptions opts = {})
      : Scheduler<In, double>(args, opts), window_(window) {
    if (window == 0 || window % 2 == 0) {
      throw std::invalid_argument("MovingMedian: window must be odd");
    }
    if (args.chunk_size != 1) {
      throw std::invalid_argument("MovingMedian: chunk_size must be 1");
    }
    register_red_objs();
    this->set_global_combination(false);
  }

  std::size_t window() const { return window_; }

 protected:
  bool gen_key_ranges(const ChunkBatch& batch, const In*, KeyRange* ranges,
                      const CombinationMap&) const override {
    window_center_ranges(batch, this->total_len(), window_, ranges);
    return true;
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    window_of(red_obj).elems.push_back(static_cast<double>(data[chunk.start]));
  }

  /// Appends a whole run of consecutive elements in one insert.  With
  /// stop_after_trigger the run stops where the window fills, since
  /// trigger() fires at elems.size() == window.
  std::size_t accumulate_batch(const ChunkBatch& batch, const In* data,
                               std::unique_ptr<RedObj>& red_obj,
                               bool stop_after_trigger) override {
    auto& med = window_of(red_obj);
    const std::size_t n =
        window_run_length(batch.count, med.elems.size(), med.window, stop_after_trigger);
    const In* first = data + batch.start;  // chunk_size 1: chunk i is element start + i
    med.elems.insert(med.elems.end(), first, first + n);
    return n;
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    const auto& src = static_cast<const WinMedianObj&>(red_obj);
    auto& dst = static_cast<WinMedianObj&>(*com_obj);
    dst.elems.insert(dst.elems.end(), src.elems.begin(), src.elems.end());
  }

  void convert(const RedObj& red_obj, double* out) const override {
    *out = static_cast<const WinMedianObj&>(red_obj).median();
  }

  /// Selects the median in place and clears the object for the next
  /// window; its elements keep their capacity, so a recycled window costs
  /// no allocation and its elements are copied once, as they arrive.
  void emit(std::unique_ptr<RedObj>& red_obj, double* out) override {
    auto& med = static_cast<WinMedianObj&>(*red_obj);
    if (out != nullptr) *out = med.median_in_place();
    med.elems.clear();
  }

 private:
  /// The object for the current key's window: a new one when `red_obj` is
  /// null, sized for the window centered at the current key (clipped at
  /// the partition boundary) whenever it is empty.
  WinMedianObj& window_of(std::unique_ptr<RedObj>& red_obj) const {
    if (!red_obj) red_obj = std::make_unique<WinMedianObj>();
    auto& med = static_cast<WinMedianObj&>(*red_obj);
    if (med.elems.empty()) {
      med.window = clipped_window_size(static_cast<std::size_t>(this->current_key()),
                                       this->total_len(), window_);
      med.elems.reserve(med.window);
    }
    return med;
  }

  std::size_t window_;
};

}  // namespace smart::analytics
