// Shared helpers for the window-based analytics (paper Section 4): an
// element at position p contributes to every window whose center lies
// within half a window of p, so its keys are those center positions (paper
// Listing 5) — one ascending range, which the window apps declare a block
// at a time through Scheduler::gen_key_ranges.  Both ends of the range grow
// with p, as the range contract requires.  Windows are clipped at the
// partition boundary; window-based apps run with global combination off,
// since their output is per-partition (paper Section 3.1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "core/chunk.h"
#include "core/red_obj.h"

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

/// window_center_range of each chunk of `batch` (a window app's chunk is
/// one element) into ranges[0..batch.count).
inline void window_center_ranges(const ChunkBatch& batch, std::size_t total_len,
                                 std::size_t window, KeyRange* ranges) {
  for (std::size_t i = 0; i < batch.count; ++i) {
    ranges[i] = window_center_range(batch.chunk(i).start, total_len, window);
  }
}

/// full_window_center_range of each chunk of `batch` into
/// ranges[0..batch.count).
inline void full_window_center_ranges(const ChunkBatch& batch, std::size_t total_len,
                                      std::size_t window, KeyRange* ranges) {
  for (std::size_t i = 0; i < batch.count; ++i) {
    ranges[i] = full_window_center_range(batch.chunk(i).start, total_len, window);
  }
}

/// Number of elements a clipped window centered at `center` covers.
inline std::size_t clipped_window_size(std::size_t center, std::size_t total_len,
                                       std::size_t window) {
  const std::size_t half = window / 2;
  const std::size_t lo = center >= half ? center - half : 0;
  const std::size_t hi = std::min(center + half, total_len > 0 ? total_len - 1 : 0);
  return hi - lo + 1;
}

/// How many of `count` chunks a window run hands accumulate_batch may be
/// taken: all of them, or with stop_after_trigger no more than the window
/// still lacks, since a window object triggers when it holds `window`.
inline std::size_t window_run_length(std::size_t count, std::size_t held, std::size_t window,
                                     bool stop_after_trigger) {
  if (stop_after_trigger && window > held) return std::min(count, window - held);
  return count;
}

/// The scratch object of a counting window app (an Obj with `count` and
/// `window`) for the current key: a new one when `red_obj` is null, its
/// trigger size set to `window` whenever it is empty, so an object that
/// emit() emptied is sized again for the next key's window.
template <class Obj>
Obj& counted_window(std::unique_ptr<RedObj>& red_obj, std::size_t window) {
  if (!red_obj) red_obj = std::make_unique<Obj>();
  auto& obj = static_cast<Obj&>(*red_obj);
  if (obj.count == 0) obj.window = window;
  return obj;
}

}  // namespace smart::analytics
