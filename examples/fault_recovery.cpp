// Fault recovery: an in-situ analytics run that survives a rank death.
//
// Four ranks accumulate a global histogram across three simulated time
// steps.  A FaultInjector rule kills rank 3 mid-step 2 — exactly the
// failure a long-lived in-situ job fears most, because under plain MPI the
// surviving ranks would block forever inside the combination collective.
// With a RecoveryPolicy armed, the survivors detect the death through
// their timed receives, rebuild the combination tree over the reduced rank
// set, and finish the job; the per-run auto-checkpoint preserves the last
// globally consistent state for a restarted replacement rank.
//
//   $ ./fault_recovery
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analytics/histogram.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "simmpi/fault.h"
#include "simmpi/world.h"

int main() {
  using namespace smart;
  constexpr int kRanks = 4;
  constexpr int kSteps = 3;
  constexpr std::size_t kStepLen = 1u << 16;
  const auto ckpt_path = [](int rank) {
    return "/tmp/fault_recovery_rank" + std::to_string(rank) + ".ckpt";
  };

  // Kill rank 3 at its second combination send — i.e. in the middle of
  // time step 2, after step 1's result is globally combined and
  // checkpointed everywhere.
  auto faults = std::make_shared<simmpi::FaultInjector>();
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 3,
                    .action = simmpi::FaultAction::kKillRank,
                    .skip = 1});

  std::vector<std::size_t> counts(16, 0);  // survivors agree, any may write
  std::vector<std::size_t> lost(kRanks, 0);
  const auto stats = simmpi::launch(
      kRanks,
      [&](simmpi::Communicator& comm) {
        RunOptions opts;
        opts.accumulate_across_runs = true;
        analytics::Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16, opts);

        RecoveryPolicy policy;
        policy.peer_timeout_seconds = 0.25;  // a silent peer = PeerUnreachable
        policy.combine_retries = 2;          // transient loss: retry with backoff
        policy.checkpoint_every_runs = 1;    // atomic checkpoint per step
        policy.checkpoint_path = ckpt_path(comm.rank());
        hist.set_recovery_policy(policy);

        for (int step = 0; step < kSteps; ++step) {
          Rng rng(derive_seed(static_cast<std::uint64_t>(step),
                              static_cast<std::uint64_t>(comm.rank())));
          std::vector<double> data(kStepLen);
          for (auto& x : data) x = rng.uniform(0.0, 100.0);
          hist.run(data.data(), data.size(), counts.data(), counts.size());
        }
        lost[static_cast<std::size_t>(comm.rank())] = hist.stats().ranks_lost;
      },
      std::nullopt, faults);

  std::printf("ranks killed mid-run : %zu (rank %d)\n", stats.ranks_killed.size(),
              stats.ranks_killed.empty() ? -1 : stats.ranks_killed.front());
  std::size_t max_lost = 0;
  for (std::size_t l : lost) max_lost = std::max(max_lost, l);
  std::printf("survivors degraded to a %d-rank combination tree (ranks_lost=%zu)\n",
              kRanks - static_cast<int>(max_lost), max_lost);

  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  std::printf("combined histogram over %zu samples (4 ranks x step 1 + 3 survivors x steps 2-3):\n",
              total);
  for (int b = 0; b < 16; ++b) {
    std::printf("  [%5.1f, %5.1f) %8zu\n", 6.25 * b, 6.25 * (b + 1), counts[b]);
  }

  // The dead rank's auto-checkpoint froze at the last step it completed:
  // a replacement rank restores the globally consistent step-1 state.
  analytics::Histogram<double> restored(SchedArgs(2, 1), 0.0, 100.0, 16);
  load_checkpoint(restored, ckpt_path(3));
  std::size_t restored_total = 0;
  for (const auto& [key, obj] : restored.get_combination_map()) {
    restored_total += static_cast<const analytics::Bucket&>(*obj).count;
  }
  std::printf("rank 3's checkpoint restores the pre-failure global state: %zu samples\n",
              restored_total);

  for (int rank = 0; rank < kRanks; ++rank) std::remove(ckpt_path(rank).c_str());
  return 0;
}
