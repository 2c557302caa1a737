// Shared helpers for the per-figure benchmark harnesses.
//
// Every harness prints (a) the same series the paper's figure plots, as an
// aligned table, and (b) a machine-readable CSV block.  Workload sizes are
// MB-scale by default (this is a containerized reproduction; see
// EXPERIMENTS.md) and multiply by SMART_BENCH_SCALE.
//
// Timing convention: on a machine with fewer cores than simulated ranks,
// wall time cannot show scaling, so harnesses report the *virtual makespan*
// (max over ranks of the LogP-style virtual clock, simmpi/communicator.h)
// alongside wall time.
#pragma once

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timing.h"
#include "core/run_stats.h"

namespace smart::bench {

/// Scales a base element count by SMART_BENCH_SCALE.
inline std::size_t scaled(std::size_t base) {
  const double s = bench_scale();
  return static_cast<std::size_t>(static_cast<double>(base) * s);
}

inline void print_header(const std::string& figure, const std::string& paper_setup,
                         const std::string& our_setup) {
  std::cout << "================================================================\n"
            << figure << "\n"
            << "  paper setup: " << paper_setup << "\n"
            << "  this run:    " << our_setup << "\n"
            << "  (SMART_BENCH_SCALE=" << bench_scale() << ")\n"
            << "================================================================\n";
}

inline void finish(Table& table, const std::string& tag, const std::string& title) {
  table.print(std::cout, title);
  table.print_csv(std::cout, tag);
  std::cout << std::endl;
}

/// One machine-readable scheduler-stat line per experiment leg:
///   RUNSTATS <tag> {"runs": ..., "chunks_processed": ..., ...}
/// The JSON shape is RunStats::dump_json, so every harness reports the
/// complete stat set uniformly instead of hand-picking fields.
inline void print_run_stats(const std::string& tag, const RunStats& stats) {
  std::cout << "RUNSTATS " << tag << " ";
  stats.dump_json(std::cout);
  std::cout << "\n";
}

/// Summary of one experiment leg run several times.
struct Repeated {
  double min = 0.0;     ///< the stable estimator the tables compare
  double median = 0.0;
  double spread = 0.0;  ///< (max - min) / median
};

/// Runs `leg` (returning one measurement, e.g. a virtual makespan) `reps`
/// times.  Virtual makespans are a max over per-rank CPU clocks, which
/// amplifies scheduler noise when many ranks share few physical cores, so
/// a single run is not a measurement: tables compare the minimum and print
/// the median and spread beside it.
template <typename Fn>
Repeated repeat(const Fn& leg, int reps = 3) {
  std::vector<double> runs;
  for (int r = 0; r < std::max(reps, 1); ++r) runs.push_back(leg());
  std::sort(runs.begin(), runs.end());
  const std::size_t n = runs.size();
  Repeated out;
  out.min = runs.front();
  out.median = n % 2 == 1 ? runs[n / 2] : 0.5 * (runs[n / 2 - 1] + runs[n / 2]);
  out.spread = out.median > 0.0 ? (runs.back() - runs.front()) / out.median : 0.0;
  return out;
}

/// A leg run several times: its makespan through repeat(), the rest of
/// its result (stats, byte and object counts) from the last run.
template <typename Leg>
struct RepeatedLeg {
  Repeated makespan;
  Leg last;
};

/// repeat() over a leg that returns a result with a `makespan` field.
template <typename Fn>
auto repeat_leg(const Fn& run_leg) {
  RepeatedLeg<decltype(run_leg())> out;
  out.makespan = repeat([&] {
    out.last = run_leg();
    return out.last.makespan;
  });
  return out;
}

/// Runs a harness's body and reports an exception that escapes it as
/// smart_cli does: `error: <what>` on stderr and exit status 1, not
/// std::terminate.  simmpi::launch rethrows a rank's exception on its
/// caller, so errors inside ranks land here too.
inline int guarded_main(int (*body)()) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

/// Resets the process-wide memory tracker between experiment legs.
inline void reset_memory(std::size_t budget_bytes = 0) {
  auto& t = MemoryTracker::instance();
  t.reset();
  t.set_budget(budget_bytes);
}

}  // namespace smart::bench
