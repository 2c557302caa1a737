// Property harness for deterministic schedule exploration (simmpi/schedule.h).
//
// Each test runs a workload under N explored schedules (random / reorder /
// replay policies over a ScheduleController) and asserts the invariants the
// transport and runtime promise regardless of delivery interleaving:
//
//   * results are schedule-independent (tree == fault-tolerant == serial
//     combination),
//   * recovery under injected faults equals the fault-free result,
//   * obs flow events pair exactly (every send's flow has one receive),
//   * per-lane virtual arrival time never regresses,
//   * a recorded schedule replays bit-exactly from its trace string,
//   * non-power-of-two barriers hold up.
//
// Every failure message carries the controller's replay recipe
// (--schedule replay --schedule-trace "...") so the exact failing
// interleaving reproduces from the log alone.  SMART_EXPLORE_SCHEDULES
// bounds the exploration width (check.sh pins it for CI).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analytics/histogram.h"
#include "analytics/reference.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/scheduler.h"
#include "obs/trace.h"
#include "simmpi/fault.h"
#include "simmpi/schedule.h"
#include "simmpi/world.h"
#include "tests/prop_gen.h"

namespace smart {
namespace {

using analytics::Histogram;
using simmpi::Communicator;
using simmpi::DeliveryRecord;
using simmpi::FaultAction;
using simmpi::FaultInjector;
using simmpi::FaultOp;
using simmpi::NetworkConfig;
using simmpi::PendingDelivery;
using simmpi::ScheduleController;
using simmpi::SchedulePolicy;
namespace prop = simmpi::prop;

std::vector<double> uniform_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.0, 100.0);
  return v;
}

/// Integer payloads so comparisons against the serial sum are exact (a
/// double sum's rounding depends on its order).
std::vector<std::int64_t> rank_payload(const prop::ExploreCase& c, int rank, int round) {
  Rng rng(derive_seed(c.data_seed, static_cast<std::uint64_t>(rank) * 1000 +
                                       static_cast<std::uint64_t>(round)));
  std::vector<std::int64_t> v(c.vec_len);
  for (auto& x : v) x = rng.uniform_int(-1000, 1000);
  return v;
}

/// What every rank must end up with after the collective mix below,
/// computed serially on the test thread.
std::vector<std::int64_t> serial_mix_expected(const prop::ExploreCase& c) {
  std::vector<std::int64_t> acc(c.vec_len, 0);
  for (int round = 0; round < c.rounds; ++round) {
    for (int r = 0; r < c.nranks; ++r) {
      const auto v = rank_payload(c, r, round);
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += v[i];
    }
  }
  return acc;
}

/// Payload stamp for point-to-point traffic: encodes (source, round) so a
/// cross-round or cross-source mixup fails at the value level.
std::int64_t stamp(int source, int round) {
  return static_cast<std::int64_t>(source) * 1000003 + round;
}

/// User tag of the exploration workload's fan-in.
constexpr int kFanInTag = 77;

/// Any-source fan-in: every rank sends stamp(rank, round) to every other
/// rank, then takes n - 1 messages with kAnySource, so each receive merges
/// several (source, kFanInTag) lanes by arrival order.  Every peer must
/// show up exactly once, carrying this round's stamp.
void fan_in_round(Communicator& comm, int round, const std::string& what,
                  const std::function<std::string()>& hint) {
  const int n = comm.size();
  for (int r = 0; r < n; ++r) {
    if (r != comm.rank()) comm.send_value<std::int64_t>(r, kFanInTag, stamp(comm.rank(), round));
  }
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (int i = 0; i + 1 < n; ++i) {
    int src = simmpi::kAnySource;
    const Buffer got = comm.recv(simmpi::kAnySource, kFanInTag, &src);
    ASSERT_TRUE(src >= 0 && src < n && src != comm.rank()) << what << ": bad source " << src;
    EXPECT_EQ(Reader(got).read<std::int64_t>(), stamp(src, round))
        << what << ": fan-in mixup at rank " << comm.rank() << " round " << round << " from "
        << src << "; " << hint();
    ++seen[static_cast<std::size_t>(src)];
  }
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], r == comm.rank() ? 0 : 1)
        << what << ": rank " << comm.rank() << " round " << round << " heard " << r << " "
        << seen[static_cast<std::size_t>(r)] << " times; " << hint();
  }
}

/// The exploration workload: per round one tree allreduce (binomial +
/// broadcast lanes) and one any-source fan-in (lane merging), then a
/// barrier.  Returns rank 0's accumulated allreduce total after asserting
/// every rank agrees; fan-in payload stamps are checked inline.
std::vector<std::int64_t> run_collective_mix(const prop::ExploreCase& c,
                                             std::shared_ptr<ScheduleController> sched,
                                             std::shared_ptr<FaultInjector> faults,
                                             const std::string& what) {
  auto hint = [&] { return sched ? prop::replay_hint(*sched) : std::string("(unscheduled)"); };
  std::vector<std::vector<std::int64_t>> per_rank(static_cast<std::size_t>(c.nranks));
  simmpi::launch(
      c.nranks,
      [&](Communicator& comm) {
        std::vector<std::int64_t> acc(c.vec_len, 0);
        for (int round = 0; round < c.rounds; ++round) {
          const auto sum = comm.allreduce_sum(rank_payload(c, comm.rank(), round));
          for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += sum[i];

          fan_in_round(comm, round, what, hint);
          comm.barrier();
        }
        per_rank[static_cast<std::size_t>(comm.rank())] = std::move(acc);
      },
      NetworkConfig{}, faults, sched);
  for (int r = 1; r < c.nranks; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], per_rank[0])
        << what << ": rank " << r << " diverged; " << hint();
  }
  return per_rank[0];
}

// --- controller is in the path, and fifo is a no-op for results --------------------

TEST(ScheduleExplore, FifoMatchesUnscheduledAndIsOnThePath) {
  Rng rng(2026);
  const auto c = prop::gen_case(rng);
  const auto expected = serial_mix_expected(c);

  const auto baseline = run_collective_mix(c, nullptr, nullptr, "unscheduled " + c.describe());
  EXPECT_EQ(baseline, expected);

  auto sched = prop::make_explorer("fifo", 0);
  const auto scheduled = run_collective_mix(c, sched, nullptr, "fifo " + c.describe());
  EXPECT_EQ(scheduled, expected) << prop::replay_hint(*sched);
  EXPECT_GT(sched->deliveries(), 0u) << "controller never saw a delivery: not in the path";
  EXPECT_EQ(sched->held(), 0u) << "messages left held after a clean run";
}

// --- schedule-independence of the combination algorithms ---------------------------

TEST(ScheduleExplore, TreeRingSerialAgreeAcrossExploredSchedules) {
  Rng rng(7100);
  const int schedules = prop::explore_schedules();
  for (int case_i = 0; case_i < 3; ++case_i) {
    const auto c = prop::gen_case(rng);
    std::vector<std::int64_t> expected(c.vec_len, 0);
    for (int r = 0; r < c.nranks; ++r) {
      const auto v = rank_payload(c, r, 0);
      for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += v[i];
    }
    for (int s = 0; s < schedules; ++s) {
      const std::string policy = (s % 2 == 0) ? "random" : "reorder";
      auto sched = prop::make_explorer(policy, static_cast<std::uint64_t>(s));
      std::shared_ptr<FaultInjector> faults;
      if (c.delay_fault) {
        // Virtual delays under a controller: charged to the clock, never
        // slept — another source of explored reorderings, free of wall time.
        faults = std::make_shared<FaultInjector>(c.data_seed);
        faults->add_rule({.op = FaultOp::kSend,
                          .rank = 1,
                          .action = FaultAction::kDelay,
                          .delay_seconds = 1e-4,
                          .probability = 0.5});
      }
      std::vector<std::vector<std::int64_t>> tree(static_cast<std::size_t>(c.nranks));
      simmpi::launch(
          c.nranks,
          [&](Communicator& comm) {
            const auto mine = rank_payload(c, comm.rank(), 0);
            tree[static_cast<std::size_t>(comm.rank())] = comm.allreduce_sum(mine);
          },
          NetworkConfig{}, faults, sched);
      for (int r = 0; r < c.nranks; ++r) {
        EXPECT_EQ(tree[static_cast<std::size_t>(r)], expected)
            << c.describe() << " " << policy << " seed " << s << " rank " << r << " (tree); "
            << prop::replay_hint(*sched);
      }
    }
  }
}

TEST(ScheduleExplore, HistogramCombinationMatchesReferenceAcrossSchedules) {
  const int n = 3;
  const auto data = uniform_data(4800, 911);
  const std::size_t slab = data.size() / static_cast<std::size_t>(n);
  const auto expected =
      analytics::ref::histogram(data.data(), slab * static_cast<std::size_t>(n), 0.0, 100.0, 32);
  const int schedules = std::min(prop::explore_schedules(), 4);
  for (int s = 0; s < schedules; ++s) {
    // Tree, then the fault-tolerant round (timed reduce + root fan-out)
    // with no faults injected, so explored schedules cover both shapes.
    for (const bool fault_tolerant : {false, true}) {
      auto sched = prop::make_explorer("random", 40 + static_cast<std::uint64_t>(s));
      simmpi::launch(
          n,
          [&](Communicator& comm) {
            Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 32);
            if (fault_tolerant) {
              RecoveryPolicy policy;
              policy.peer_timeout_seconds = 10.0;
              hist.set_recovery_policy(policy);
            }
            std::vector<std::size_t> out(32, 0);
            hist.run(data.data() + static_cast<std::size_t>(comm.rank()) * slab, slab, out.data(),
                     out.size());
            EXPECT_EQ(out, expected)
                << "rank " << comm.rank() << " seed " << s
                << (fault_tolerant ? " fault-tolerant; " : " tree; ") << prop::replay_hint(*sched);
            EXPECT_EQ(hist.stats().combine_retries, 0u) << "rank " << comm.rank();
          },
          std::nullopt, nullptr, sched);
    }
  }
}

// --- recovery equals the fault-free result under explored schedules ----------------

TEST(ScheduleExplore, RecoveryEqualsFaultFreeAcrossSchedules) {
  const auto data = uniform_data(4000, 801);
  const auto expected = analytics::ref::histogram(data.data(), data.size(), 0.0, 100.0, 16);
  for (int s = 0; s < 3; ++s) {
    auto sched = prop::make_explorer("random", 80 + static_cast<std::uint64_t>(s));
    auto faults = std::make_shared<FaultInjector>();
    // Drop rank 1's first combination payload; the retry resend goes through.
    faults->add_rule({.op = FaultOp::kSend,
                      .rank = 1,
                      .peer = 0,
                      .action = FaultAction::kDrop,
                      .max_fires = 1});
    std::array<std::size_t, 2> retries{};
    simmpi::launch(
        2,
        [&](Communicator& comm) {
          const std::size_t half = data.size() / 2;
          const std::size_t offset = comm.rank() == 0 ? 0 : half;
          Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16);
          RecoveryPolicy policy;
          policy.peer_timeout_seconds = 0.25;
          policy.combine_retries = 2;
          hist.set_recovery_policy(policy);

          std::vector<std::size_t> out(16, 0);
          hist.run(data.data() + offset, half, out.data(), out.size());
          EXPECT_EQ(out, expected)
              << "rank " << comm.rank() << " seed " << s << "; " << prop::replay_hint(*sched);
          EXPECT_EQ(hist.stats().ranks_lost, 0u) << "rank " << comm.rank();
          retries[static_cast<std::size_t>(comm.rank())] = hist.stats().combine_retries;
        },
        std::nullopt, faults, sched);
    // Which rank times out first is up to wall time: a rank that reaches
    // its receive after the other's resend landed never retries.  The lost
    // payload still costs at least one retry between the two.
    EXPECT_GE(retries[0] + retries[1], 1u)
        << "seed " << s << ": the dropped payload went unretried";
  }
}

// --- obs flow events pair under every explored schedule ----------------------------

TEST(ScheduleExplore, FlowEventsPairAcrossSchedules) {
  prop::ExploreCase c;
  c.nranks = 3;
  c.rounds = 3;
  c.vec_len = 8;
  auto& tc = obs::TraceCollector::instance();
  for (int s = 0; s < 2; ++s) {
    tc.clear();
    tc.set_enabled(true);
    auto sched = prop::make_explorer("random", 500 + static_cast<std::uint64_t>(s));
    run_collective_mix(c, sched, nullptr, "flow-pairing seed " + std::to_string(s));
    tc.set_enabled(false);
    ASSERT_EQ(tc.dropped_events(), 0u) << "ring overflow would make pairing unverifiable";
    std::map<std::uint64_t, std::pair<int, int>> flows;  // id -> (starts, ends)
    for (const auto& e : tc.snapshot_events()) {
      if (e.type == obs::TraceEvent::Type::kFlowStart) ++flows[e.flow_id].first;
      if (e.type == obs::TraceEvent::Type::kFlowEnd) ++flows[e.flow_id].second;
    }
    EXPECT_FALSE(flows.empty()) << "workload recorded no flow events";
    for (const auto& [id, counts] : flows) {
      EXPECT_EQ(counts.first, 1) << "flow " << id << "; " << prop::replay_hint(*sched);
      EXPECT_EQ(counts.second, 1)
          << "flow " << id << " unpaired (sent but never received); " << prop::replay_hint(*sched);
    }
    tc.clear();
  }
}

// --- per-lane virtual arrival time never regresses ---------------------------------

TEST(ScheduleExplore, PerLaneArrivalVtimeNeverRegresses) {
  Rng rng(6300);
  const int schedules = prop::explore_schedules();
  for (int case_i = 0; case_i < 2; ++case_i) {
    const auto c = prop::gen_case(rng);
    // Same-lane messages in the mix workload all carry equal-size payloads,
    // so on the stateless alpha-beta cost FIFO submission implies
    // non-decreasing arrival stamps; a regression means lane order was
    // violated.
    for (int s = 0; s < schedules; ++s) {
      auto sched = prop::make_explorer("random", 600 + static_cast<std::uint64_t>(s));
      run_collective_mix(c, sched, nullptr, "vtime " + c.describe());
      std::map<std::tuple<int, int, int>, double> last;
      for (const auto& rec : sched->trace()) {
        const auto key = std::make_tuple(rec.dest, rec.source, rec.tag);
        const auto it = last.find(key);
        if (it != last.end()) {
          EXPECT_LE(it->second, rec.arrival_vtime)
              << "virtual clock regressed in lane dest=" << rec.dest << " source=" << rec.source
              << " tag=" << rec.tag << "; " << prop::replay_hint(*sched);
        }
        last[key] = rec.arrival_vtime;
      }
    }
  }
}

// --- replay: a recorded schedule reproduces bit-exactly ----------------------------

TEST(ScheduleExplore, ReplayReproducesRecordedScheduleBitExact) {
  Rng rng(7400);
  auto c = prop::gen_case(rng);
  c.nranks = std::max(c.nranks, 3);  // guarantee real cross-lane concurrency

  auto recorded = prop::make_explorer("random", 12345);
  const auto base = run_collective_mix(c, recorded, nullptr, "capture " + c.describe());
  const std::string trace = recorded->trace_string();
  ASSERT_FALSE(trace.empty());

  auto replayed = prop::make_explorer("replay", 0, trace);
  const auto again = run_collective_mix(c, replayed, nullptr, "replay " + c.describe());

  EXPECT_EQ(again, base);
  EXPECT_EQ(replayed->deliveries(), recorded->deliveries());
  // Replay pins each destination's commit order; the global interleaving
  // across destinations is concurrent by design, so compare per-dest.
  const auto by_dest = [](const std::vector<DeliveryRecord>& recs) {
    std::map<int, std::vector<std::pair<int, int>>> m;
    for (const auto& r : recs) m[r.dest].emplace_back(r.source, r.tag);
    return m;
  };
  EXPECT_EQ(by_dest(replayed->trace()), by_dest(recorded->trace()))
      << "replay diverged from its own trace: --schedule replay --schedule-trace \"" << trace
      << "\"";
}

TEST(ScheduleExplore, ParseTraceRoundTripsAndRejectsMalformedInput) {
  const auto recs = ScheduleController::parse_trace("1.0.7;0.1.-8000;2.0.7");
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].dest, 1);
  EXPECT_EQ(recs[0].source, 0);
  EXPECT_EQ(recs[0].tag, 7);
  EXPECT_EQ(recs[1].tag, -8000) << "negative collective tags must survive the round trip";
  EXPECT_TRUE(ScheduleController::parse_trace("").empty());
  EXPECT_THROW(ScheduleController::parse_trace("nonsense"), std::invalid_argument);
  EXPECT_THROW(ScheduleController::parse_trace("1.2"), std::invalid_argument);
  EXPECT_THROW(ScheduleController::parse_trace("a.b.c"), std::invalid_argument);
  EXPECT_THROW(simmpi::make_schedule_policy("no-such-policy", 0), std::invalid_argument);
}

// --- non-power-of-two barrier under systematic reordering --------------------------

TEST(ScheduleExplore, NonPowerOfTwoBarrierHoldsAcrossReorderSeeds) {
  const int schedules = prop::explore_schedules();
  for (const int n : {5, 6}) {
    for (int s = 0; s < schedules; ++s) {
      auto sched = prop::make_explorer("reorder", static_cast<std::uint64_t>(s));
      std::vector<std::atomic<int>> reached(static_cast<std::size_t>(n));
      for (auto& a : reached) a.store(-1, std::memory_order_relaxed);
      simmpi::launch(
          n,
          [&](Communicator& comm) {
            for (int round = 0; round < 30; ++round) {
              reached[static_cast<std::size_t>(comm.rank())].store(round,
                                                                   std::memory_order_release);
              comm.barrier();
              for (int r = 0; r < n; ++r) {
                EXPECT_GE(reached[static_cast<std::size_t>(r)].load(std::memory_order_acquire),
                          round)
                    << "barrier released early: n=" << n << " reorder seed " << s << " rank "
                    << comm.rank() << " saw rank " << r << " behind at round " << round << "; "
                    << prop::replay_hint(*sched);
              }
            }
          },
          std::nullopt, nullptr, sched);
    }
  }
}

// --- the receive_for deadline/wake race, pinned by a gating policy -----------------

/// Holds every delivery until the shared gate opens — the test policy the
/// SchedulePolicy::kHold contract carves out.  With it the commit of an
/// in-flight message can be placed exactly around a receiver's deadline.
class GatePolicy final : public SchedulePolicy {
 public:
  explicit GatePolicy(std::atomic<bool>& open) : open_(open) {}
  const char* name() const override { return "gate"; }
  std::size_t pick(const std::vector<PendingDelivery>& /*heads*/, bool /*force*/) override {
    return open_.load(std::memory_order_acquire) ? 0 : kHold;
  }

 private:
  std::atomic<bool>& open_;
};

TEST(ScheduleExplore, ReceiveDeadlineRaceNeverLosesTheMessage) {
  // Sweep the gate-open instant across the receiver's deadline: early opens
  // hit the in-time delivery path, late opens hit the timeout path, and the
  // middle of the sweep lands commits inside receive_for's unregister/
  // final-pump window.  Whatever side wins, the message must be returned or
  // still deliverable — never lost, never duplicated.
  for (int iter = 0; iter < 40; ++iter) {
    std::atomic<bool> open{false};
    auto sched = std::make_shared<ScheduleController>(std::make_shared<GatePolicy>(open),
                                                      /*record=*/true, 0);
    simmpi::launch(
        2,
        [&](Communicator& comm) {
          if (comm.rank() == 0) {
            comm.send_value<std::int64_t>(1, 7, 42);
            std::this_thread::sleep_for(std::chrono::microseconds(25 * iter));
            open.store(true, std::memory_order_release);
            sched->kick(1);
          } else {
            Buffer got;
            bool timed_out = false;
            try {
              got = comm.recv_timeout(0, 7, 500e-6);
            } catch (const simmpi::PeerUnreachable&) {
              timed_out = true;
            }
            if (timed_out) {
              // Deadline fired while the delivery was held or mid-commit:
              // the message must still be there once the gate is open.
              while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
              sched->kick(comm.world_rank());
              got = comm.recv_timeout(0, 7, 5.0);
            }
            EXPECT_EQ(Reader(got).read<std::int64_t>(), 42) << "iter " << iter;
            // A duplicate would be waiting here: this receive must time out.
            EXPECT_THROW(comm.recv_timeout(0, 7, 1e-3), simmpi::PeerUnreachable)
                << "message duplicated; iter " << iter;
          }
        },
        std::nullopt, nullptr, sched);
    EXPECT_EQ(sched->deliveries(), 1u) << "iter " << iter;
    EXPECT_EQ(sched->held(), 0u) << "message lost in the controller; iter " << iter;
  }
}

}  // namespace
}  // namespace smart
