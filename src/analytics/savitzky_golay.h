// Savitzky-Golay smoothing filter (window-based analytics, paper reference
// [39]): least-squares polynomial smoothing, equivalent to convolving the
// signal with a fixed coefficient stencil derived from the window length
// and polynomial order (common/linalg.h computes the stencil).
//
// Output is defined for centers whose window lies fully inside the
// partition; edge positions are left untouched in the output array.
#pragma once

#include "analytics/red_objs.h"
#include "analytics/window_common.h"
#include "common/linalg.h"
#include "core/scheduler.h"

namespace smart::analytics {

template <class In>
class SavitzkyGolay : public Scheduler<In, double> {
 public:
  SavitzkyGolay(const SchedArgs& args, int window, int poly_order, RunOptions opts = {})
      : Scheduler<In, double>(args, opts),
        window_(static_cast<std::size_t>(window)),
        coeff_(savitzky_golay_coefficients(window, poly_order)) {
    if (args.chunk_size != 1) {
      throw std::invalid_argument("SavitzkyGolay: chunk_size must be 1");
    }
    register_red_objs();
    this->set_global_combination(false);
  }

  std::size_t window() const { return window_; }
  const std::vector<double>& coefficients() const { return coeff_; }

 protected:
  bool gen_key_ranges(const ChunkBatch& batch, const In*, KeyRange* ranges,
                      const CombinationMap&) const override {
    full_window_center_ranges(batch, this->total_len(), window_, ranges);
    return true;
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    auto& sg = counted_window<SgObj>(red_obj, window_);  // only full windows have keys
    const auto center = static_cast<std::size_t>(this->current_key());
    const std::size_t offset = chunk.start + window_ / 2 - center;
    sg.acc += coeff_[offset] * static_cast<double>(data[chunk.start]);
    sg.count += 1;
  }

  /// Convolves a whole run of consecutive elements, in chunk order and
  /// with the per-chunk expression, so the sum's bits match the per-chunk
  /// path.  With stop_after_trigger the run stops where the window fills.
  std::size_t accumulate_batch(const ChunkBatch& batch, const In* data,
                               std::unique_ptr<RedObj>& red_obj,
                               bool stop_after_trigger) override {
    auto& sg = counted_window<SgObj>(red_obj, window_);  // only full windows have keys
    const std::size_t n = window_run_length(batch.count, sg.count, sg.window, stop_after_trigger);
    const In* first = data + batch.start;  // chunk_size 1: chunk i is element start + i
    const auto center = static_cast<std::size_t>(this->current_key());
    const double* coeff = coeff_.data() + (batch.start + window_ / 2 - center);
    double acc = sg.acc;
    for (std::size_t i = 0; i < n; ++i) acc += coeff[i] * static_cast<double>(first[i]);
    sg.acc = acc;
    sg.count += n;
    return n;
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    const auto& src = static_cast<const SgObj&>(red_obj);
    auto& dst = static_cast<SgObj&>(*com_obj);
    dst.acc += src.acc;
    dst.count += src.count;
  }

  void convert(const RedObj& red_obj, double* out) const override {
    *out = static_cast<const SgObj&>(red_obj).acc;
  }

  /// Converts the window and empties the object for the next one, which
  /// costs no allocation.
  void emit(std::unique_ptr<RedObj>& red_obj, double* out) override {
    auto& sg = static_cast<SgObj&>(*red_obj);
    if (out != nullptr) convert(sg, out);
    sg.acc = 0.0;
    sg.count = 0;
  }

 private:
  std::size_t window_;
  std::vector<double> coeff_;
};

}  // namespace smart::analytics
