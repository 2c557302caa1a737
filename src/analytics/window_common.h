// Shared helpers for the window-based analytics (paper Section 4): an
// element at position p contributes to every window whose center lies
// within half a window of p, so its keys are those center positions (paper
// Listing 5) — one ascending range, which the window apps declare through
// Scheduler::gen_key_range.  Both ends of the range grow with p, as the
// range contract requires.  Windows are clipped at the partition boundary;
// window-based apps run with global combination off, since their output is
// per-partition (paper Section 3.1).
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/chunk.h"

namespace smart::analytics {

/// The window centers element `pos` contributes to, clipped to
/// [0, total_len).  window must be odd.
inline KeyRange window_center_range(std::size_t pos, std::size_t total_len, std::size_t window) {
  const std::size_t half = window / 2;
  const std::size_t lo = pos >= half ? pos - half : 0;
  const std::size_t hi = std::min(pos + half, total_len > 0 ? total_len - 1 : 0);
  return {static_cast<int>(lo), static_cast<int>(hi)};
}

/// Only the centers whose window lies fully inside [0, total_len), empty
/// when no window fits (used by the Savitzky-Golay filter, whose fixed
/// coefficient stencil is undefined on partial windows).
inline KeyRange full_window_center_range(std::size_t pos, std::size_t total_len,
                                         std::size_t window) {
  const std::size_t half = window / 2;
  if (total_len < window) return {};
  const std::size_t lo = std::max(pos >= half ? pos - half : 0, half);
  const std::size_t hi = std::min(pos + half, total_len - 1 - half);
  return {static_cast<int>(lo), static_cast<int>(hi)};
}

/// Number of elements a clipped window centered at `center` covers.
inline std::size_t clipped_window_size(std::size_t center, std::size_t total_len,
                                       std::size_t window) {
  const std::size_t half = window / 2;
  const std::size_t lo = center >= half ? center - half : 0;
  const std::size_t hi = std::min(center + half, total_len > 0 ? total_len - 1 : 0);
  return hi - lo + 1;
}

}  // namespace smart::analytics
