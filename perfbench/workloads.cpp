// The two end-to-end workloads.  Each one runs its timed steps inside one
// simmpi::launch of 2 ranks, after warm-up, as a closed loop: a step starts
// when the previous one has finished (time sharing), or the producer runs
// ahead only as far as the circular buffer lets it (space sharing).  At
// most 4 threads are active at once, one per core of the reference host.
//
// Set-up (input generation, building the simulation, scheduler and pools,
// warm-up) is repeated kSetups times per run so setup_s can be reported as
// a median that one slow set-up does not move; only the last set-up goes on
// to the timed steps.
//
// The number of timed steps is fixed by --seconds and a per-workload rate
// measured on the reference host (4-core Xeon, 2 MiB L2 per core), so both
// sides of a comparison do the same work and a faster build simply finishes
// sooner.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <random>
#include <string>
#include <thread>

#include "analytics/kmeans.h"
#include "analytics/moving_median.h"
#include "analytics/reference.h"
#include "baselines/lowlevel.h"
#include "bench.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "sim/minilulesh.h"
#include "simmpi/world.h"

namespace perfbench {

double now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

namespace {

using smart::simmpi::Communicator;

constexpr int kRanks = 2;
constexpr int kSetups = 9;

/// At least 100 steps, so p90 has ten samples beyond it (summary.py
/// splits longer runs into blocks of at least 100 steps).
std::size_t timed_steps(const Config& cfg, double steps_per_second) {
  const auto steps = static_cast<std::size_t>(std::llround(cfg.seconds * steps_per_second));
  return std::max<std::size_t>(100, steps);
}

/// Stream for inputs shared by all ranks; ranks 0..kRanks-1 use their own
/// rank number as the lane.
std::uint64_t shared_seed(const Config& cfg) { return smart::derive_seed(cfg.seed, kRanks); }

bool all_close(const std::vector<double>& got, const std::vector<double>& want, double tol) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= tol * std::max(1.0, std::abs(want[i])))) return false;
  }
  return true;
}

/// Process-wide transport and buffer-pool counters.  Rank 0 reads them
/// right after the per-step barriers in time sharing, so the deltas bracket
/// the Smart part of every step, and around the timed region in space
/// sharing.
struct ProcessCounters {
  double copied = 0.0;
  double pool_hits = 0.0;
  double pool_misses = 0.0;

  static ProcessCounters read() {
    const auto pool = smart::BufferPool::totals();
    return {static_cast<double>(smart::simmpi::payload_bytes_copied()),
            static_cast<double>(pool.hits), static_cast<double>(pool.misses)};
  }
  void add_delta(const ProcessCounters& before, const ProcessCounters& after) {
    copied += after.copied - before.copied;
    pool_hits += after.pool_hits - before.pool_hits;
    pool_misses += after.pool_misses - before.pool_misses;
  }
};

/// Per-rank transport counters from the rank's communicator.
struct RankTraffic {
  double bytes_sent = 0.0;
  double send_stall_s = 0.0;

  static RankTraffic read(const Communicator& comm) {
    return {static_cast<double>(comm.bytes_sent()), comm.send_stall_seconds()};
  }
};

void fold_counters(Result& r, const smart::RunStats& s, const ProcessCounters& process,
                   const std::vector<RankTraffic>& traffic) {
#define PERFBENCH_RUN_STAT(f) r.counters["runstats." #f] = static_cast<double>(s.f);
  SMART_RUN_STATS_FOR_EACH_FIELD(PERFBENCH_RUN_STAT)
#undef PERFBENCH_RUN_STAT
  r.counters["simmpi.payload_bytes_copied"] = process.copied;
  r.counters["common.pool_hits"] = process.pool_hits;
  r.counters["common.pool_misses"] = process.pool_misses;
  double sent = 0.0;
  double stall = 0.0;
  for (const auto& t : traffic) {
    sent += t.bytes_sent;
    stall += t.send_stall_s;
  }
  r.counters["simmpi.bytes_sent"] = sent;
  r.counters["simmpi.send_stall_s"] = stall;
}

void init_lanes(Result& r, const char* role, int first = 0) {
  for (int rank = 0; rank < kRanks; ++rank) {
    Lane& lane = r.lanes[static_cast<std::size_t>(first + rank)];
    lane.rank = rank;
    lane.role = role;
  }
}

}  // namespace

// --- kmeans_d64 ------------------------------------------------------------
// Fig 6 shape: Smart k-means against the hand-written MPI + threads k-means
// on the same per-rank points, interleaved step by step.

namespace {
constexpr std::size_t kK = 8;
constexpr std::size_t kDims = 64;
constexpr int kIters = 10;
constexpr int kKmeansThreads = 2;
/// 12288 points x 64 doubles = 6 MiB per rank, three times a 2 MiB L2.
/// Small enough for about 480 steps in 40 s, four blocks of 120.
constexpr std::size_t kPointsPerRank = 12288;
/// Enough warm-up steps that set-up time follows step time.  With 2, input
/// generation and first-run costs were up to a third of it, and they
/// shifted from run to run more than step time did.
constexpr std::size_t kKmeansWarmup = 5;
constexpr double kKmeansStepsPerSecond = 12.0;
/// Smart, the hand-written code and the serial reference sum in different
/// orders; the test suite holds them to the same bound.
constexpr double kKmeansTolerance = 1e-9;
}  // namespace

Result run_kmeans_d64(const Config& cfg) {
  Result r;
  r.ranks = kRanks;
  r.threads_per_rank = kKmeansThreads;
  r.warmup_steps = kKmeansWarmup;
  r.steps = timed_steps(cfg, kKmeansStepsPerSecond);
  const std::size_t rank_len = kPointsPerRank * kDims;
  r.per_rank_working_set = rank_len * sizeof(double);
  r.bytes_per_step = kRanks * r.per_rank_working_set;
  r.input = "k=8 d=64, 10 iterations per step, 12288 iid N(0,1) points per rank (6 MiB per rank)";
  r.lanes.resize(kRanks);
  init_lanes(r, "rank");
  // Computed per step: distance (sub, mul, add per dim and centroid) plus
  // the accumulate add per dim; each iteration streams the point set once.
  const double points_total = static_cast<double>(kRanks * kPointsPerRank);
  r.counters["analytics.flops_per_step"] =
      kIters * points_total * static_cast<double>(kK * kDims * 3 + kDims);
  r.counters["analytics.bytes_per_step"] = kIters * static_cast<double>(r.bytes_per_step);

  std::vector<double> points;
  std::vector<double> init;
  std::vector<double> last_smart;
  std::vector<double> last_lowlevel;
  std::vector<RankTraffic> traffic(kRanks);
  ProcessCounters process;
  smart::RunStats stats;

  for (int setup = 0; setup < kSetups; ++setup) {
    const bool timed = setup + 1 == kSetups;
    const double start = now();
    points.assign(kRanks * rank_len, 0.0);
    init = smart::Rng(shared_seed(cfg)).gaussian_vector(kK * kDims);
    smart::simmpi::launch(kRanks, [&](Communicator& comm) {
      const int rank = comm.rank();
      double* mine = points.data() + static_cast<std::size_t>(rank) * rank_len;
      {
        smart::Rng rng(smart::derive_seed(cfg.seed, static_cast<std::uint64_t>(rank)));
        std::normal_distribution<double> gauss(0.0, 1.0);
        for (std::size_t i = 0; i < rank_len; ++i) mine[i] = gauss(rng.engine());
      }
      const smart::analytics::KMeansInit seed_centroids{init.data(), kK, kDims};
      smart::analytics::KMeans<double> km(
          smart::SchedArgs(kKmeansThreads, kDims, &seed_centroids, kIters), kK, kDims);
      smart::ThreadPool pool(kKmeansThreads);
      std::vector<double> centroids(kK * kDims);
      std::vector<double*> out(kK);
      for (std::size_t c = 0; c < kK; ++c) out[c] = centroids.data() + c * kDims;
      auto lowlevel = [&] {
        return smart::baselines::lowlevel_kmeans(mine, kPointsPerRank, kDims, kK, kIters, init,
                                                 pool, &comm);
      };
      for (std::size_t w = 0; w < kKmeansWarmup; ++w) {
        km.run(mine, rank_len, out.data(), kK);
        (void)lowlevel();
      }
      comm.barrier();
      if (rank == 0) r.setup_s.push_back(now() - start);
      if (!timed) return;

      km.reset_stats();
      Lane& lane = r.lanes[static_cast<std::size_t>(rank)];
      const RankTraffic traffic0 = RankTraffic::read(comm);
      std::vector<double> base;
      for (std::size_t i = 0; i < r.steps; ++i) {
        lane.on = cfg.trace && i % 2 == 1;
        lane.step = static_cast<std::int64_t>(i);
        comm.barrier();
        const double t0 = now();
        const double v0 = comm.vclock();
        const ProcessCounters pc0 = rank == 0 ? ProcessCounters::read() : ProcessCounters{};
        const int root = lane.open("step", t0);
        km.run(mine, rank_len, out.data(), kK);
        const double t1 = now();
        lane.record("core.run", t0, t1, root);
        comm.barrier();
        const double t2 = now();
        lane.record("simmpi.barrier", t1, t2, root);
        lane.close(root, t2);
        const double v1 = comm.vclock();
        const ProcessCounters pc1 = rank == 0 ? ProcessCounters::read() : ProcessCounters{};
        base = lowlevel();
        const double t3 = now();
        lane.record("baselines.lowlevel", t2, t3, -1);
        if (rank != 0) continue;
        r.step_s.push_back(t2 - t0);
        r.interval_s.push_back(t2 - t0);
        r.traced.push_back(lane.on ? 1 : 0);
        r.smart_call_s.push_back(t1 - t0);
        r.baseline_call_s.push_back(t3 - t2);
        r.samples["core.run_s"].push_back(t1 - t0);
        r.samples["core.analysis_s"].push_back(t1 - t0);
        r.samples["simmpi.barrier_s"].push_back(t2 - t1);
        r.vmakespan_s += v1 - v0;
        process.add_delta(pc0, pc1);
        r.checks.add(all_close(centroids, base, kKmeansTolerance),
                     "step " + std::to_string(i) + ": Smart centroids differ from lowlevel_kmeans");
      }
      lane.on = false;
      const RankTraffic traffic1 = RankTraffic::read(comm);
      traffic[static_cast<std::size_t>(rank)] = {traffic1.bytes_sent - traffic0.bytes_sent,
                                                 traffic1.send_stall_s - traffic0.send_stall_s};
      if (rank == 0) {
        stats = km.stats();
        last_smart = centroids;
        last_lowlevel = base;
      }
    });
  }
  fold_counters(r, stats, process, traffic);

  const auto expected = smart::analytics::ref::kmeans(points.data(), kRanks * kPointsPerRank,
                                                      kDims, kK, kIters, init);
  r.checks.add(all_close(last_smart, expected, kKmeansTolerance),
               "Smart centroids differ from ref::kmeans");
  r.checks.add(all_close(last_lowlevel, expected, kKmeansTolerance),
               "lowlevel_kmeans centroids differ from ref::kmeans");
  return r;
}

// --- lulesh_median_space ---------------------------------------------------
// Fig 10 moving-median shape in space sharing: each rank's MiniLulesh
// producer feeds a circular buffer that a concurrent analytics thread
// drains with MovingMedian::run2, global combination off.

namespace {
/// 16^3 elements: a 32 KiB energy field per rank and step.
constexpr std::size_t kLuleshEdge = 16;
/// Simulation steps per analyzed output step (bench/fig10 uses 10).  64
/// keeps the producer (about 10 ms per output step on the reference host)
/// well behind the analytics thread (about 4 ms for run2 plus the
/// reference check, up to twice that when the host is busy), so the
/// pipeline stays in one regime: the consumer waits for each step.  With
/// the lanes close to balanced, latency swung from run to run with
/// whichever rank's queue happened to fill.
constexpr int kLuleshSubsteps = 64;
constexpr std::size_t kWindow = 25;
constexpr std::size_t kLuleshWarmup = 16;
constexpr double kLuleshStepsPerSecond = 90.0;

struct ProducerStep {
  double sim_start = 0.0;
  double sim_end = 0.0;
  double feed_end = 0.0;
};

struct ConsumerStep {
  double run_start = 0.0;
  double run_end = 0.0;
  double ref_s = 0.0;   ///< wall of ref::moving_median on the same field
  double depth = 0.0;   ///< steps fed minus steps analyzed when run2 was called
  int run_span = -1;
};

/// Closes the feed and joins the analytics thread on every exit path.
struct ConsumerJoin {
  smart::analytics::MovingMedian<double>& app;
  std::thread& thread;
  ~ConsumerJoin() {
    app.close_feed();
    if (thread.joinable()) thread.join();
  }
};
}  // namespace

Result run_lulesh_median_space(const Config& cfg) {
  Result r;
  r.ranks = kRanks;
  r.threads_per_rank = 2;  // 1 simulation + 1 analytics thread
  r.warmup_steps = kLuleshWarmup;
  r.steps = timed_steps(cfg, kLuleshStepsPerSecond);
  const std::size_t field = kLuleshEdge * kLuleshEdge * kLuleshEdge;
  r.per_rank_working_set = field * sizeof(double);
  r.bytes_per_step = kRanks * r.per_rank_working_set;
  const double blast = 500.0 + 1000.0 * smart::Rng(shared_seed(cfg)).uniform();
  r.input = "MiniLulesh edge 16 per rank (32 KiB energy field), blast " + std::to_string(blast) +
            ", 64 sim steps per output step, moving median window 25 via run2, 4-cell buffer";
  r.lanes.resize(2 * kRanks);
  init_lanes(r, "simulation");
  init_lanes(r, "analytics", kRanks);
  r.counters["analytics.flops_per_step"] = 0.0;  // comparisons and copies only
  r.counters["analytics.bytes_per_step"] =
      static_cast<double>(kRanks * field * kWindow * sizeof(double));

  const std::size_t total = kLuleshWarmup + r.steps;
  std::vector<RankTraffic> traffic(kRanks);
  std::vector<double> vspan(kRanks, 0.0);
  std::vector<Checks> rank_checks(kRanks);
  ProcessCounters process;
  smart::RunStats stats;
  std::vector<std::vector<ProducerStep>> prod(kRanks);
  std::vector<std::vector<ConsumerStep>> cons(kRanks);

  for (int setup = 0; setup < kSetups; ++setup) {
    const bool timed = setup + 1 == kSetups;
    const double start = now();
    smart::simmpi::launch(kRanks, [&](Communicator& comm) {
      const int rank = comm.rank();
      const auto urank = static_cast<std::size_t>(rank);
      smart::sim::MiniLulesh::Params params;
      params.edge = kLuleshEdge;
      params.blast_energy = blast;
      smart::sim::MiniLulesh sim(params, &comm, nullptr);
      smart::analytics::MovingMedian<double> med(smart::SchedArgs(1, 1), kWindow);
      const std::size_t len = sim.output_len();
      std::vector<double> out(len);
      std::vector<ProducerStep>& p = prod[urank];
      std::vector<ConsumerStep>& c = cons[urank];
      p.assign(total, {});
      c.assign(total, {});
      // Every step is checked against the reference on a copy of its field.
      // A full buffer lets the producer run at most buffer_cells + 1 steps
      // ahead of the step being analyzed, so a ring of buffer_cells + 2
      // copies is never overwritten while in use.
      std::vector<std::vector<double>> copies(med.options().buffer_cells + 2);
      std::atomic<std::size_t> fed{0};
      std::atomic<std::size_t> analyzed{0};
      Lane& plane = r.lanes[urank];
      Lane& alane = r.lanes[kRanks + urank];
      Checks& checks = rank_checks[urank];
      auto traced_step = [&](std::size_t i) {
        return timed && cfg.trace && i >= kLuleshWarmup && (i - kLuleshWarmup) % 2 == 1;
      };

      std::thread consumer([&] {
        for (std::size_t i = 0; i < total; ++i) {
          ConsumerStep& step = c[i];
          step.depth = static_cast<double>(fed.load(std::memory_order_acquire)) -
                       static_cast<double>(i);
          alane.on = traced_step(i);
          alane.step = static_cast<std::int64_t>(i) - static_cast<std::int64_t>(kLuleshWarmup);
          step.run_start = now();
          step.run_span = alane.open("core.run", step.run_start);
          bool more = true;
          bool threw = false;
          try {
            more = med.run2(out.data(), len);
          } catch (const std::exception& e) {
            threw = true;
            checks.add(false, std::string("run2 threw: ") + e.what());
          }
          step.run_end = now();
          alane.close(step.run_span, step.run_end);
          if (!more) break;
          const double tb0 = now();
          const auto expected = smart::analytics::ref::moving_median(
              copies[i % copies.size()].data(), len, kWindow);
          step.ref_s = now() - tb0;
          if (!threw) {
            checks.add(out == expected, "rank " + std::to_string(rank) + " step " +
                                            std::to_string(i) +
                                            ": moving median differs from ref::moving_median");
          }
          analyzed.store(i + 1, std::memory_order_release);
        }
        alane.on = false;
      });
      ConsumerJoin join{med, consumer};

      auto produce = [&](std::size_t i) {
        ProducerStep& step = p[i];
        plane.on = traced_step(i);
        plane.step = static_cast<std::int64_t>(i) - static_cast<std::int64_t>(kLuleshWarmup);
        step.sim_start = now();
        const int root = plane.open("step", step.sim_start);
        for (int sub = 0; sub < kLuleshSubsteps; ++sub) sim.step();
        step.sim_end = now();
        plane.record("sim.step", step.sim_start, step.sim_end, root);
        copies[i % copies.size()].assign(sim.output(), sim.output() + len);
        med.feed(sim.output(), len);
        step.feed_end = now();
        plane.record("threading.feed", step.sim_end, step.feed_end, root);
        plane.close(root, step.feed_end);
        fed.store(i + 1, std::memory_order_release);
      };
      auto drain = [&](std::size_t n) {
        while (analyzed.load(std::memory_order_acquire) < n) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      };

      for (std::size_t i = 0; i < kLuleshWarmup; ++i) produce(i);
      drain(kLuleshWarmup);
      comm.barrier();
      if (rank == 0) r.setup_s.push_back(now() - start);
      if (!timed) return;

      // The analytics thread is parked in run2's pop here, after its last
      // stats update was published through `analyzed`.
      med.reset_stats();
      const RankTraffic traffic0 = RankTraffic::read(comm);
      const ProcessCounters pc0 = rank == 0 ? ProcessCounters::read() : ProcessCounters{};
      const double v0 = comm.vclock();
      for (std::size_t i = kLuleshWarmup; i < total; ++i) produce(i);
      vspan[urank] = comm.vclock() - v0;
      drain(total);
      const RankTraffic traffic1 = RankTraffic::read(comm);
      traffic[urank] = {traffic1.bytes_sent - traffic0.bytes_sent,
                        traffic1.send_stall_s - traffic0.send_stall_s};
      if (rank == 0) {
        process.add_delta(pc0, ProcessCounters::read());
        stats = med.stats();
      }
      med.close_feed();
      consumer.join();

      // Wait inside traced run2 calls, derived from the producer's feed
      // times once both threads have finished.
      for (std::size_t i = kLuleshWarmup; i < total; ++i) {
        if (c[i].run_span < 0) continue;
        const double wait_end = std::min(c[i].run_end, std::max(c[i].run_start, p[i].feed_end));
        alane.spans.push_back({"threading.consumer_wait", c[i].run_start, wait_end,
                               c[i].run_span, static_cast<std::int64_t>(i - kLuleshWarmup)});
      }
    });
  }

  for (int rank = 0; rank < kRanks; ++rank) {
    const auto urank = static_cast<std::size_t>(rank);
    for (std::size_t i = kLuleshWarmup; i < total; ++i) {
      const ProducerStep& ps = prod[urank][i];
      const ConsumerStep& cs = cons[urank][i];
      // lowlevel_ratio pairs: Smart's analysis of the step, without any
      // wait for the producer, against the serial reference on the same field.
      r.smart_call_s.push_back(cs.run_end - std::max(cs.run_start, ps.feed_end));
      r.baseline_call_s.push_back(cs.ref_s);
      if (rank != 0) continue;
      r.step_s.push_back(cs.run_end - ps.sim_start);
      r.interval_s.push_back(cs.run_end -
                             (i == kLuleshWarmup ? ps.sim_start : cons[0][i - 1].run_end));
      r.traced.push_back(cfg.trace && (i - kLuleshWarmup) % 2 == 1 ? 1 : 0);
      r.samples["sim.step_s"].push_back((ps.sim_end - ps.sim_start) / kLuleshSubsteps);
      r.samples["threading.feed_s"].push_back(ps.feed_end - ps.sim_end);
      r.samples["core.run_s"].push_back(cs.run_end - cs.run_start);
      r.samples["core.analysis_s"].push_back(r.smart_call_s.back());
      r.samples["threading.consumer_wait_s"].push_back(
          std::max(0.0, std::min(cs.run_end, ps.feed_end) - cs.run_start));
      r.samples["threading.queue_depth"].push_back(cs.depth);
    }
    r.checks.merge(rank_checks[urank]);
  }
  r.vmakespan_s = *std::max_element(vspan.begin(), vspan.end());
  fold_counters(r, stats, process, traffic);
  return r;
}

}  // namespace perfbench
