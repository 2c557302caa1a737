#include "simmpi/schedule.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace smart::simmpi {

namespace {

/// Submission order: the baseline schedule, identical to what an idle
/// machine's mailbox would have seen.
class FifoPolicy final : public SchedulePolicy {
 public:
  const char* name() const override { return "fifo"; }
  std::size_t pick(const std::vector<PendingDelivery>& /*heads*/, bool /*force*/) override {
    return 0;  // heads are sorted by submit_seq
  }
};

/// Seeded uniform choice among the concurrent heads.  Two runs with the
/// same seed draw the same decision stream; the schedules they realize
/// still depend on what was concurrently held at each decision (real
/// thread timing), which is why failures are reproduced from the recorded
/// trace, not the seed.
class RandomPolicy final : public SchedulePolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}
  const char* name() const override { return "random"; }
  std::size_t pick(const std::vector<PendingDelivery>& heads, bool /*force*/) override {
    if (heads.size() == 1) return 0;  // no choice: keep the stream stable
    return std::uniform_int_distribution<std::size_t>(0, heads.size() - 1)(rng_);
  }

 private:
  std::mt19937_64 rng_;
};

/// Bounded systematic reordering: the seed is a mixed-radix decision
/// string consumed most-significant-digit-last — each decision with m > 1
/// concurrent heads takes the next digit (seed % m) and divides it away.
/// Seed 0 is pure fifo; enumerating seeds 0..N-1 walks N distinct bounded
/// perturbations of the fifo schedule, and the perturbation budget is
/// log(seed) decisions deep.
class ReorderPolicy final : public SchedulePolicy {
 public:
  explicit ReorderPolicy(std::uint64_t index) : remaining_(index) {}
  const char* name() const override { return "reorder"; }
  std::size_t pick(const std::vector<PendingDelivery>& heads, bool /*force*/) override {
    if (heads.size() == 1 || remaining_ == 0) return 0;
    const std::size_t m = heads.size();
    const std::size_t choice = static_cast<std::size_t>(remaining_ % m);
    remaining_ /= m;
    return choice;
  }

 private:
  std::uint64_t remaining_;
};

/// Commits each destination's deliveries in the exact order of a recorded
/// trace.  When the expected lane has nothing held yet the policy holds —
/// the pumping receiver blocks until the expected message is submitted,
/// which is what makes the replay bit-exact rather than best-effort.  A
/// destination whose recorded subsequence is exhausted falls back to fifo.
class ReplayPolicy final : public SchedulePolicy {
 public:
  explicit ReplayPolicy(std::vector<DeliveryRecord> records) {
    for (auto& r : records) cursors_[r.dest].push_back(r);
  }
  const char* name() const override { return "replay"; }
  std::size_t pick(const std::vector<PendingDelivery>& heads, bool /*force*/) override {
    auto it = cursors_.find(heads.front().dest);
    if (it == cursors_.end() || it->second.empty()) return 0;  // trace exhausted
    const DeliveryRecord& want = it->second.front();
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i].source == want.source && heads[i].tag == want.tag) {
        it->second.pop_front();
        return i;
      }
    }
    return kHold;  // expected message not submitted yet: wait for it
  }

 private:
  std::map<int, std::deque<DeliveryRecord>> cursors_;
};

std::uint64_t lane_key_of(int source, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source)) << 32) |
         static_cast<std::uint32_t>(tag);
}

}  // namespace

std::shared_ptr<SchedulePolicy> make_schedule_policy(const std::string& name, std::uint64_t seed,
                                                     const std::string& trace) {
  if (name == "fifo") return std::make_shared<FifoPolicy>();
  if (name == "random") return std::make_shared<RandomPolicy>(seed);
  if (name == "reorder") return std::make_shared<ReorderPolicy>(seed);
  if (name == "replay") return std::make_shared<ReplayPolicy>(ScheduleController::parse_trace(trace));
  throw std::invalid_argument("simmpi: unknown schedule policy '" + name +
                              "' (fifo|random|reorder|replay)");
}

ScheduleController::ScheduleController(std::shared_ptr<SchedulePolicy> policy, bool record,
                                       std::uint64_t seed)
    : policy_(std::move(policy)), record_(record), seed_(seed) {
  if (!policy_) throw std::invalid_argument("ScheduleController: null policy");
}

void ScheduleController::attach(std::vector<Mailbox*> boxes) {
  std::lock_guard<std::mutex> lock(mu_);
  boxes_ = std::move(boxes);
  dests_.clear();
  dests_.resize(boxes_.size());
}

void ScheduleController::submit(int dest, Envelope e) {
  const int source = e.source;
  const int tag = e.tag;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DestState& ds = dests_.at(static_cast<std::size_t>(dest));
    Lane& lane = ds.lanes[lane_key_of(source, tag)];
    if (lane.q.empty()) {
      lane.source = source;
      lane.tag = tag;
      lane.head_submit_seq = next_submit_seq_;
    }
    // Per-lane FIFO is preserved by construction: within one (source, tag)
    // lane, submission order is program order on the sending thread, and
    // commits only ever pop lane fronts.  The envelope's seq carries the
    // submission order while held (the mailbox re-stamps it at commit).
    e.seq = next_submit_seq_;
    lane.q.push_back(std::move(e));
    ++next_submit_seq_;
    ++ds.held;
    ++held_total_;
  }
  // A receiver blocked on the destination mailbox re-pumps on wake-up; wake
  // one whose selector this held message could satisfy (taken after the
  // controller lock — lock order is always controller, then mailbox).
  boxes_.at(static_cast<std::size_t>(dest))->notify_scheduled(source, tag);
}

std::size_t ScheduleController::pump(int dest, bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  DestState& ds = dests_.at(static_cast<std::size_t>(dest));
  std::size_t committed_now = 0;
  std::vector<PendingDelivery> heads;
  while (ds.held != 0) {
    heads.clear();
    heads.reserve(ds.lanes.size());
    for (const auto& [key, lane] : ds.lanes) {
      if (lane.q.empty()) continue;
      const Envelope& head = lane.q.front();
      heads.push_back(PendingDelivery{dest, lane.source, lane.tag, lane.head_submit_seq,
                                      head.arrival_vtime});
    }
    std::sort(heads.begin(), heads.end(), [](const PendingDelivery& a, const PendingDelivery& b) {
      return a.submit_seq < b.submit_seq;
    });
    const std::size_t choice = policy_->pick(heads, force);
    if (choice == SchedulePolicy::kHold) break;
    if (choice >= heads.size()) {
      throw std::logic_error("SchedulePolicy::pick returned an out-of-range index");
    }
    const PendingDelivery& picked = heads[choice];
    auto it = ds.lanes.find(lane_key_of(picked.source, picked.tag));
    Lane& lane = it->second;
    Envelope e = std::move(lane.q.front());
    lane.q.pop_front();
    if (lane.q.empty()) {
      ds.lanes.erase(it);
    } else {
      lane.head_submit_seq = lane.q.front().seq;  // next head's submission order
    }
    --ds.held;
    --held_total_;
    ++committed_;
    ++committed_now;
    if (record_) {
      records_.push_back(DeliveryRecord{dest, e.source, e.tag, e.arrival_vtime});
    }
    // Commit: the mailbox assigns the arrival seq — commit order IS the
    // arrival order any-source receives observe.
    boxes_.at(static_cast<std::size_t>(dest))->post(std::move(e));
  }
  return committed_now;
}

std::uint64_t ScheduleController::deliveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

std::size_t ScheduleController::held() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_total_;
}

std::vector<DeliveryRecord> ScheduleController::trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::string ScheduleController::trace_string() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& r : records_) {
    if (!out.empty()) out += ';';
    out += std::to_string(r.dest);
    out += '.';
    out += std::to_string(r.source);
    out += '.';
    out += std::to_string(r.tag);
  }
  return out;
}

std::vector<DeliveryRecord> ScheduleController::parse_trace(const std::string& s) {
  std::vector<DeliveryRecord> out;
  if (s.empty()) return out;
  std::stringstream ss(s);
  std::string entry;
  while (std::getline(ss, entry, ';')) {
    DeliveryRecord r;
    const auto a = entry.find('.');
    const auto b = entry.find('.', a == std::string::npos ? a : a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::invalid_argument("schedule trace: malformed entry '" + entry + "'");
    }
    try {
      r.dest = std::stoi(entry.substr(0, a));
      r.source = std::stoi(entry.substr(a + 1, b - a - 1));
      r.tag = std::stoi(entry.substr(b + 1));
    } catch (const std::exception&) {
      throw std::invalid_argument("schedule trace: malformed entry '" + entry + "'");
    }
    out.push_back(r);
  }
  return out;
}

std::shared_ptr<ScheduleController> make_schedule_controller(const NetworkConfig& cfg) {
  if (cfg.sched_policy.empty() || cfg.sched_policy == "off") return nullptr;
  return std::make_shared<ScheduleController>(
      make_schedule_policy(cfg.sched_policy, cfg.sched_seed, cfg.sched_trace),
      /*record=*/true, cfg.sched_seed);
}

}  // namespace smart::simmpi
