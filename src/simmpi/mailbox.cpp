#include "simmpi/mailbox.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simmpi/schedule.h"

namespace smart::simmpi {

namespace {
/// A timed receive waited out its whole window and got nothing.  Without
/// this marker the wait is invisible in traces (no span is emitted on the
/// empty path), which blinds the critical-path profiler to recv-wait time.
void trace_receive_timeout(int tag, std::chrono::nanoseconds waited) {
  if (!obs::trace_enabled()) return;
  obs::TraceCollector::instance().instant(
      "recv.timeout", "mpi",
      {{"tag", tag},
       {"waited_us",
        std::chrono::duration_cast<std::chrono::microseconds>(waited).count()}});
}

/// Lane-depth buckets for simmpi.lane_depth (messages queued in the posted
/// lane, including the new one): 1 .. 256 in octaves.
const std::vector<double>& lane_depth_bounds() {
  static const std::vector<double> bounds{1, 2, 4, 8, 16, 32, 64, 128, 256};
  return bounds;
}
}  // namespace

void Mailbox::set_schedule(ScheduleController* sched, int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  sched_ = sched;
  sched_rank_ = rank;
}

void Mailbox::wake_matching_waiter_locked(int source, int tag) {
  // Wake one receiver this message can satisfy.  Waiters blocked with
  // signaled == false have already verified (under this mutex) that nothing
  // queued matches them, so the new message is the only thing a matching
  // one could take — signaling a single waiter per message is lossless, and
  // non-matching receivers stay asleep.  Notifying under the lock is
  // deliberate: the Waiter lives on the receiver's stack and may be
  // deregistered (and destroyed) the moment the mutex is released.
  for (Waiter* w : waiters_) {
    if (!w->signaled && selector_matches(w->source, w->tag, source, tag)) {
      w->signaled = true;
      w->cv.notify_one();
      break;
    }
  }
}

void Mailbox::post(Envelope e) {
  std::lock_guard<std::mutex> lock(mu_);
  const int source = e.source;
  const int tag = e.tag;
  const std::size_t nbytes = e.size();
  e.seq = next_seq_++;
  Lane& lane = lanes_[lane_key(source, tag)];
  lane.source = source;
  lane.tag = tag;
  lane.q.push_back(std::move(e));
  ++pending_;
  pending_bytes_ += nbytes;
  if (obs::metrics_enabled()) {
    static obs::FixedHistogram& depth =
        obs::MetricsRegistry::global().histogram("simmpi.lane_depth", lane_depth_bounds());
    static obs::Gauge& lanes = obs::MetricsRegistry::global().gauge("simmpi.mailbox_lanes");
    static obs::Gauge& peak_bytes =
        obs::MetricsRegistry::global().gauge("simmpi.mailbox_bytes_peak");
    depth.observe(static_cast<double>(lane.q.size()));
    lanes.update_max(static_cast<double>(lanes_.size()));
    peak_bytes.update_max(static_cast<double>(pending_bytes_));
  }
  wake_matching_waiter_locked(source, tag);
}

void Mailbox::notify_scheduled(int source, int tag) {
  std::lock_guard<std::mutex> lock(mu_);
  // Prefer a receiver whose selector the newly *held* message satisfies —
  // it will pump the controller and (policy willing) commit it.  When no
  // selector matches, wake any unsignaled waiter anyway: under replay the
  // held message may be the event the policy is waiting for, and committing
  // it can expose follow-on commits that match receivers whose selectors
  // this submission does not — every committed envelope re-wakes its own
  // matching waiter via post, so one arbitrary pumper suffices.
  for (Waiter* w : waiters_) {
    if (!w->signaled && selector_matches(w->source, w->tag, source, tag)) {
      w->signaled = true;
      w->cv.notify_one();
      return;
    }
  }
  for (Waiter* w : waiters_) {
    if (!w->signaled) {
      w->signaled = true;
      w->cv.notify_one();
      return;
    }
  }
}

std::optional<Envelope> Mailbox::take_locked(int source, int tag) {
  if (lanes_.empty()) return std::nullopt;
  auto pop_lane = [&](std::unordered_map<std::uint64_t, Lane>::iterator it) {
    Envelope e = std::move(it->second.q.front());
    it->second.q.pop_front();
    --pending_;
    pending_bytes_ -= e.size();
    if (it->second.q.empty()) {
      // Erase drained lanes: collective tags descend every round, so keeping
      // empty lanes around would grow the table without bound.
      lanes_.erase(it);
    }
    return e;
  };
  if (source != kAnySource && tag != kAnyTag) {
    const auto it = lanes_.find(lane_key(source, tag));
    if (it == lanes_.end()) return std::nullopt;
    ++heads_examined_;
    return pop_lane(it);
  }
  // Wildcard receive: earliest arrival among the matching lanes' heads.
  auto best = lanes_.end();
  for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
    ++heads_examined_;
    if (!selector_matches(source, tag, it->second.source, it->second.tag)) continue;
    if (best == lanes_.end() || it->second.q.front().seq < best->second.q.front().seq) {
      best = it;
    }
  }
  if (best == lanes_.end()) return std::nullopt;
  return pop_lane(best);
}

void Mailbox::unregister_locked(Waiter* w) {
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (*it == w) {
      waiters_.erase(it);
      return;
    }
  }
}

Envelope Mailbox::receive(int source, int tag) {
  if (sched_ != nullptr) return receive_scheduled(source, tag);
  std::unique_lock<std::mutex> lock(mu_);
  if (auto e = take_locked(source, tag)) return std::move(*e);
  Waiter w{source, tag};
  waiters_.push_back(&w);
  for (;;) {
    w.cv.wait(lock, [&] { return w.signaled; });
    w.signaled = false;
    if (auto e = take_locked(source, tag)) {
      unregister_locked(&w);
      return std::move(*e);
    }
    // Woken (signal or poke) but the message is gone or never matched:
    // re-arm and wait again.
  }
}

std::optional<Envelope> Mailbox::receive_for(int source, int tag,
                                             std::chrono::nanoseconds timeout) {
  if (sched_ != nullptr) return receive_for_scheduled(source, tag, timeout);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(mu_);
  if (auto e = take_locked(source, tag)) return e;
  Waiter w{source, tag};
  waiters_.push_back(&w);
  for (;;) {
    if (!w.cv.wait_until(lock, deadline, [&] { return w.signaled; })) {
      // Deadline passed with no signal.  One last look: the message may
      // have been posted between the final wake-up and the deadline check.
      auto e = take_locked(source, tag);
      unregister_locked(&w);
      if (!e) trace_receive_timeout(tag, timeout);
      return e;
    }
    w.signaled = false;
    if (auto e = take_locked(source, tag)) {
      unregister_locked(&w);
      return e;
    }
  }
}

void Mailbox::poke() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Waiter* w : waiters_) {
    w->signaled = true;
    w->cv.notify_one();
  }
}

std::optional<Envelope> Mailbox::try_receive(int source, int tag) {
  // Scheduled mode: give the controller the chance to commit held traffic
  // first, so a try_receive observes whatever the policy delivers (and a
  // probe loop cannot spin forever on messages held upstream).
  if (sched_ != nullptr) sched_->pump(sched_rank_, /*force=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  return take_locked(source, tag);
}

Envelope Mailbox::receive_scheduled(int source, int tag) {
  Waiter w{source, tag};
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiters_.push_back(&w);
  }
  for (;;) {
    // Arm, then pump, then take, then block-if-unsignaled.  The ordering
    // closes the wake-up race: a submit landing after the pump found
    // nothing (but before the wait) sets w.signaled via notify_scheduled,
    // so the wait falls through and the loop pumps again.  The pump runs
    // without mu_ held — lock order is controller first, then mailbox
    // (pump's commits re-enter via post).
    {
      std::lock_guard<std::mutex> lock(mu_);
      w.signaled = false;
    }
    sched_->pump(sched_rank_, /*force=*/true);
    std::unique_lock<std::mutex> lock(mu_);
    if (auto e = take_locked(source, tag)) {
      unregister_locked(&w);
      return std::move(*e);
    }
    w.cv.wait(lock, [&] { return w.signaled; });
  }
}

std::optional<Envelope> Mailbox::receive_for_scheduled(int source, int tag,
                                                       std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  Waiter w{source, tag};
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiters_.push_back(&w);
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      w.signaled = false;
    }
    sched_->pump(sched_rank_, /*force=*/true);
    std::unique_lock<std::mutex> lock(mu_);
    if (auto e = take_locked(source, tag)) {
      unregister_locked(&w);
      return e;
    }
    if (!w.cv.wait_until(lock, deadline, [&] { return w.signaled; })) {
      // Deadline passed unsignaled.  A message may have been *submitted*
      // right at the deadline and still be held by the controller — a
      // plain take here would miss it even though it "arrived" in time.
      // Final forced pump + take closes that window deterministically
      // (the post-at-deadline ordering test in test_schedule_explore.cpp
      // pins this): the message is either returned or still queued for a
      // later receive — never lost.
      unregister_locked(&w);
      lock.unlock();
      sched_->pump(sched_rank_, /*force=*/true);
      lock.lock();
      auto e = take_locked(source, tag);
      if (!e) trace_receive_timeout(tag, timeout);
      return e;
    }
  }
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

std::size_t Mailbox::lane_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

std::uint64_t Mailbox::heads_examined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heads_examined_;
}

}  // namespace smart::simmpi
