// Random configuration generators for the schedule-exploration property
// harness (test_schedule_explore.cpp).  Everything is driven by an explicit
// seed, so a failing generated case is reproduced by its printed seed; the
// exact failing *interleaving* is reproduced by the schedule trace the
// harness prints next to it (--schedule replay --schedule-trace "...").
#pragma once

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/env.h"
#include "common/rng.h"
#include "simmpi/schedule.h"

namespace smart::simmpi::prop {

/// One generated launch configuration: cluster size, traffic shape, and
/// whether a (virtual) delay fault is armed.  Kept small on purpose — the
/// schedule space per config is what the harness explores, not the config
/// space.
struct ExploreCase {
  int nranks = 2;
  int rounds = 4;           ///< collective rounds per launch
  std::size_t vec_len = 8;  ///< payload doubles per rank and round
  bool delay_fault = false;      ///< arm a virtual kDelay rule on rank 1
  std::uint64_t data_seed = 1;   ///< per-case workload seed

  std::string describe() const {
    return "nranks=" + std::to_string(nranks) + " rounds=" + std::to_string(rounds) +
           " vec_len=" + std::to_string(vec_len) + " delay_fault=" + (delay_fault ? "1" : "0") +
           " data_seed=" + std::to_string(data_seed);
  }
};

/// Draws a case.  Rank counts deliberately include non-powers-of-two (the
/// barrier/collective shapes where the PR-6 bugs lived).
inline ExploreCase gen_case(Rng& rng) {
  static const int kRanks[] = {2, 3, 4, 5, 6};
  ExploreCase c;
  c.nranks = kRanks[rng.uniform_int(0, 4)];
  c.rounds = static_cast<int>(rng.uniform_int(2, 6));
  c.vec_len = static_cast<std::size_t>(rng.uniform_int(4, 32));
  // This draw once picked a network model; it stays so that every seed
  // still generates the same case.
  (void)rng.uniform_int(0, 3);
  c.delay_fault = rng.uniform() < 0.3;
  c.data_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
  return c;
}

/// Schedules explored per configuration; SMART_EXPLORE_SCHEDULES overrides
/// (check.sh pins it low for the bounded CI step, soak runs raise it).
inline int explore_schedules() {
  return static_cast<int>(env_long("SMART_EXPLORE_SCHEDULES", 6, 1, INT_MAX));
}

/// Builds a fresh recording controller for one explored schedule.
inline std::shared_ptr<ScheduleController> make_explorer(const std::string& policy,
                                                         std::uint64_t seed,
                                                         const std::string& trace = "") {
  return std::make_shared<ScheduleController>(make_schedule_policy(policy, seed, trace),
                                              /*record=*/true, seed);
}

/// The one-line reproduction recipe printed with every failure: paste the
/// trace into smart_cli (or a replay controller) to re-run the exact
/// committed interleaving.
inline std::string replay_hint(const ScheduleController& sched) {
  return std::string("reproduce with: --schedule replay --schedule-trace \"") +
         sched.trace_string() + "\"";
}

}  // namespace smart::simmpi::prop
