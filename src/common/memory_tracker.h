// Logical memory-footprint accounting for the in-situ memory experiments.
//
// The paper's Figures 9 and 11 hinge on how close the co-located simulation +
// analytics footprint gets to physical memory: the extra-copy and no-trigger
// variants crash once they cross it.  Rather than thrash a shared container,
// we account every major allocation (simulation slabs, analytics input
// copies, circular-buffer cells, reduction objects) against a configurable
// budget and let the benches flag OVER-BUDGET configurations — the same
// decision boundary the paper reports as crashes.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace smart {

/// What a tracked allocation is for; counted and peaked per category.
enum class MemCategory : int {
  kSimulation = 0,   ///< simulation state + per-step output slabs
  kInputCopy,        ///< extra copies of simulation output (copy mode, circular buffer)
  kReductionObjects, ///< live reduction/combination map objects
  kFramework,        ///< runtime internals (buffers, messages)
  kCount,
};

/// Process-wide logical footprint tracker.  All counters are atomics; the
/// peak is maintained with a CAS loop so concurrent charges never lose a
/// high-water mark.
class MemoryTracker {
 public:
  static MemoryTracker& instance();

  void charge(MemCategory cat, std::size_t bytes);
  void release(MemCategory cat, std::size_t bytes);

  std::size_t current() const { return current_.load(std::memory_order_relaxed); }
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  std::size_t current_in(MemCategory cat) const;
  std::size_t peak_in(MemCategory cat) const;

  /// Budget for OVER-BUDGET detection; 0 means unlimited.
  void set_budget(std::size_t bytes) { budget_.store(bytes, std::memory_order_relaxed); }
  std::size_t budget() const { return budget_.load(std::memory_order_relaxed); }
  bool over_budget() const;
  /// True if at any point since the last reset the footprint exceeded budget.
  bool peak_over_budget() const;

  /// Clears all counters and peaks (budget is preserved).
  void reset();

 private:
  MemoryTracker() = default;

  static void raise_peak(std::atomic<std::size_t>& peak, std::size_t candidate);

  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> budget_{0};
  std::array<std::atomic<std::size_t>, static_cast<std::size_t>(MemCategory::kCount)>
      current_by_cat_{};
  std::array<std::atomic<std::size_t>, static_cast<std::size_t>(MemCategory::kCount)>
      peak_by_cat_{};
};

/// RAII charge: releases exactly what it charged.
class ScopedMemCharge {
 public:
  ScopedMemCharge(MemCategory cat, std::size_t bytes) : cat_(cat), bytes_(bytes) {
    MemoryTracker::instance().charge(cat_, bytes_);
  }

  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;

  ScopedMemCharge(ScopedMemCharge&& other) noexcept : cat_(other.cat_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }

  ~ScopedMemCharge() {
    if (bytes_ != 0) MemoryTracker::instance().release(cat_, bytes_);
  }

 private:
  MemCategory cat_;
  std::size_t bytes_;
};

/// Resident high-water mark of this process (VmHWM), in bytes; 0 if unknown.
/// Used to cross-check the logical tracker against the OS view.
std::size_t process_peak_rss_bytes();

}  // namespace smart
