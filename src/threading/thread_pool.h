// Persistent worker pool: the OpenMP-worksharing stand-in the Smart
// scheduler drives.  One pool per scheduler; each worker owns one reduction
// map, mirroring the paper's one-split-per-thread execution.
//
// parallel_region(fn) runs fn(worker_id) on every worker simultaneously and
// returns each worker's measured CPU busy time for the region — the max of
// those is the region's critical path, which the scheduler feeds into the
// rank's virtual clock (see simmpi/communicator.h).
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

  int size() const { return static_cast<int>(busy_seconds_.size()); }

  /// Executes fn(worker_id) on all workers, waits for completion, and
  /// returns per-worker CPU busy seconds.  Rethrows the first worker
  /// exception after the region completes.  A one-worker pool starts no
  /// thread: it runs fn(0) on the calling thread, with the same contract.
  ///
  /// Re-entrancy: calling this from one of the pool's own worker threads
  /// (fn starting a nested region) used to deadlock — the outer region's
  /// completion count could never reach zero while its caller-worker sat
  /// blocked in the nested wait.  A worker-thread call now runs the region
  /// inline instead: fn(0..size()-1) sequentially on the calling thread,
  /// each leg CPU-timed, first exception rethrown at the end.  Same
  /// contract, serialized execution — the degenerate but correct nesting
  /// semantics (mirroring OpenMP's default of serializing nested regions).
  std::vector<double> parallel_region(const std::function<void(int)>& fn);

 private:
  void worker_loop(int id);
  bool on_worker_thread() const;
  std::vector<double> run_inline(const std::function<void(int)>& fn);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;

  std::vector<double> busy_seconds_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
  /// Workers' thread ids, written once in the constructor (before any
  /// region can run) and read-only afterwards — the re-entrancy check.
  std::vector<std::thread::id> worker_ids_;
};

}  // namespace smart
