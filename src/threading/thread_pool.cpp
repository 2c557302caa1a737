#include "threading/thread_pool.h"

#include <stdexcept>
#include <utility>

#include "common/timing.h"

namespace smart {

namespace {
/// The pool whose region this thread runs a leg of (a pool thread's own
/// pool; the caller's during leg 0): a region called on it is nested.
thread_local const ThreadPool* t_region_pool = nullptr;

/// Runs leg `id` CPU-timed; an exception it throws lands in `error`.
double timed_leg(const std::function<void(int)>& fn, int id, std::exception_ptr& error) {
  ThreadCpuTimer timer;
  try {
    fn(id);
  } catch (...) {
    error = std::current_exception();
  }
  return timer.seconds();
}
}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers <= 0) {
    throw std::invalid_argument("ThreadPool: num_workers must be positive");
  }
  busy_seconds_.assign(static_cast<std::size_t>(num_workers), 0.0);
  errors_.assign(static_cast<std::size_t>(num_workers), nullptr);
  // Leg 0 runs on the caller of each region.
  for (int i = 1; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int id) {
  t_region_pool = this;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error = nullptr;
    const double busy = timed_leg(*job, id, error);
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_seconds_[static_cast<std::size_t>(id)] = busy;
      // Move, not copy: a copy left here would drop its reference after
      // the unlock, and if that was the last one the exception would be
      // destroyed on this thread while the caller may still be reading it.
      errors_[static_cast<std::size_t>(id)] = std::move(error);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

std::vector<double> ThreadPool::run_inline(const std::function<void(int)>& fn) {
  // Results stay local: the outer region owns busy_seconds_/errors_ and
  // writes the calling leg's slot when that leg finishes.
  std::vector<double> busy(static_cast<std::size_t>(size()), 0.0);
  std::exception_ptr first_error = nullptr;
  for (int id = 0; id < size(); ++id) {
    std::exception_ptr error = nullptr;
    busy[static_cast<std::size_t>(id)] = timed_leg(fn, id, error);
    if (!first_error) first_error = error;
  }
  if (first_error) std::rethrow_exception(first_error);
  return busy;
}

std::vector<double> ThreadPool::parallel_region(const std::function<void(int)>& fn) {
  // A nested call would wait for itself: the outer region cannot finish
  // while one of its legs sits blocked here.
  if (t_region_pool == this) return run_inline(fn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    remaining_ = size() - 1;
    ++generation_;
  }
  work_cv_.notify_all();

  const ThreadPool* outer = t_region_pool;
  t_region_pool = this;
  busy_seconds_[0] = timed_leg(fn, 0, errors_[0]);
  t_region_pool = outer;

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  for (auto& err : errors_) {
    if (err) {
      std::exception_ptr e = err;
      err = nullptr;
      std::rethrow_exception(e);
    }
  }
  return busy_seconds_;
}

}  // namespace smart
