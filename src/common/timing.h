// Wall-clock and per-thread CPU timers.  The per-thread CPU timer underlies
// the virtual-time accounting that reports scalability on machines with
// fewer physical cores than simulated ranks (see DESIGN.md Section 1).
//
// The key idea: CLOCK_THREAD_CPUTIME_ID charges a thread only for the cycles
// it actually executed, independent of how the OS interleaved it with other
// threads.  A run's *virtual makespan* is the maximum per-rank busy time, the
// wall time an ideal machine with one core per rank would have shown.
#pragma once

#include <chrono>
#include <ctime>

namespace smart {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// CPU time consumed by the calling thread, in seconds.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Stopwatch over the calling thread's CPU time; must be read on the same
/// thread that constructed it.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(thread_cpu_seconds()) {}

  void reset() { start_ = thread_cpu_seconds(); }

  double seconds() const { return thread_cpu_seconds() - start_; }

 private:
  double start_;
};

}  // namespace smart
