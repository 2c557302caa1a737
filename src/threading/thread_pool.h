// Persistent worker pool: the OpenMP-worksharing stand-in the Smart
// scheduler drives.  One pool per scheduler; each worker owns one reduction
// map, mirroring the paper's one-split-per-thread execution.
//
// parallel_region(fn) runs fn(leg) for legs 0..size()-1 at once and returns
// each leg's CPU busy time; the max is the region's critical path.  As in
// an OpenMP region, the caller runs leg 0 itself, so a pool of n legs
// starts n - 1 threads, and the rank's virtual clock charges leg 0 as the
// caller's own CPU time (simmpi/communicator.h, advance_region).
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smart {

class ThreadPool {
 public:
  explicit ThreadPool(int num_workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Legs per region: the threads started plus the caller.
  int size() const { return static_cast<int>(busy_seconds_.size()); }

  /// Runs fn(leg) for every leg, fn(0) on the calling thread and the others
  /// on the pool's threads, and returns per-leg CPU busy seconds.  Returns
  /// or rethrows only once every leg has finished, even when leg 0 throws;
  /// the first exception in leg order is rethrown.
  ///
  /// Nesting: a call from inside a region of this pool (from one of its
  /// threads, or from the caller during leg 0) would hand the running legs
  /// a second job and wait for itself, so it runs fn(0..size()-1) inline on
  /// the calling thread instead: each leg CPU-timed, first exception
  /// rethrown at the end (OpenMP's default of serializing nested regions).
  std::vector<double> parallel_region(const std::function<void(int)>& fn);

 private:
  void worker_loop(int id);
  std::vector<double> run_inline(const std::function<void(int)>& fn);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;

  /// Per-leg results.  Legs 1.. write their slot under mu_; leg 0's slot
  /// is written by the caller, the only thread that reads the vectors.
  std::vector<double> busy_seconds_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

}  // namespace smart
