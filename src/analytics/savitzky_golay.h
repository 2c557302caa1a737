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
  std::optional<KeyRange> gen_key_range(const Chunk& chunk, const In*,
                                        const CombinationMap&) const override {
    return full_window_center_range(chunk.start, this->total_len(), window_);
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    if (!red_obj) {
      auto obj = std::make_unique<SgObj>();
      obj->window = window_;  // full windows only, so no clipping
      red_obj = std::move(obj);
    }
    auto& sg = static_cast<SgObj&>(*red_obj);
    const auto center = static_cast<std::size_t>(this->current_key());
    const std::size_t offset = chunk.start + window_ / 2 - center;
    sg.acc += coeff_[offset] * static_cast<double>(data[chunk.start]);
    sg.count += 1;
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

 private:
  std::size_t window_;
  std::vector<double> coeff_;
};

}  // namespace smart::analytics
