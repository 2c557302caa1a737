#include "common/memory_tracker.h"

#include <cstdio>
#include <cstring>

namespace smart {

MemoryTracker& MemoryTracker::instance() {
  static MemoryTracker tracker;
  return tracker;
}

void MemoryTracker::raise_peak(std::atomic<std::size_t>& peak, std::size_t candidate) {
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !peak.compare_exchange_weak(seen, candidate, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::charge(MemCategory cat, std::size_t bytes) {
  const auto i = static_cast<std::size_t>(cat);
  const std::size_t now = current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(peak_, now);
  const std::size_t cat_now =
      current_by_cat_[i].fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(peak_by_cat_[i], cat_now);
}

void MemoryTracker::release(MemCategory cat, std::size_t bytes) {
  const auto i = static_cast<std::size_t>(cat);
  current_.fetch_sub(bytes, std::memory_order_relaxed);
  current_by_cat_[i].fetch_sub(bytes, std::memory_order_relaxed);
}

std::size_t MemoryTracker::current_in(MemCategory cat) const {
  return current_by_cat_[static_cast<std::size_t>(cat)].load(std::memory_order_relaxed);
}

std::size_t MemoryTracker::peak_in(MemCategory cat) const {
  return peak_by_cat_[static_cast<std::size_t>(cat)].load(std::memory_order_relaxed);
}

bool MemoryTracker::over_budget() const {
  const std::size_t b = budget();
  return b != 0 && current() > b;
}

bool MemoryTracker::peak_over_budget() const {
  const std::size_t b = budget();
  return b != 0 && peak() > b;
}

void MemoryTracker::reset() {
  current_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
  for (auto& c : current_by_cat_) c.store(0, std::memory_order_relaxed);
  for (auto& p : peak_by_cat_) p.store(0, std::memory_order_relaxed);
}

std::size_t process_peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace smart
