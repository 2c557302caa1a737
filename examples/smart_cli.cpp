// smart_cli: a command-line driver over the whole stack — pick a
// simulation, an analytics job, rank/thread counts and an in-situ mode, and
// it runs the pipeline and reports results and runtime statistics.
//
//   $ ./smart_cli --sim heat3d --app histogram --ranks 4 --threads 2 --steps 5
//   $ ./smart_cli --sim lulesh --app moving_median --mode space
//   $ ./smart_cli --sim heat3d --app summary --render /tmp/slab.pgm
//   $ ./smart_cli --list
#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "analytics/render.h"
#include "analytics/summary_stats.h"
#include "analytics/top_k.h"
#include "bench/bench_apps.h"
#include "common/arg_parser.h"
#include "common/table.h"
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/trace_export.h"
#include "sim/emulator.h"
#include "sim/heat3d.h"
#include "sim/minilulesh.h"
#include "simmpi/world.h"

namespace {

using namespace smart;

/// A uniform facade over the three simulations.
class SimDriver {
 public:
  SimDriver(const std::string& kind, simmpi::Communicator* comm, ThreadPool* pool,
            std::size_t size_hint, std::uint64_t master_seed)
      : kind_(kind) {
    if (kind == "heat3d") {
      heat_ = std::make_unique<sim::Heat3D>(
          sim::Heat3D::Params{.nx = 32, .ny = 32, .nz_local = size_hint}, comm, pool);
    } else if (kind == "lulesh") {
      lulesh_ = std::make_unique<sim::MiniLulesh>(sim::MiniLulesh::Params{.edge = size_hint},
                                                  comm, pool);
    } else if (kind == "emulator") {
      std::size_t step_len = 0;
      if (__builtin_mul_overflow(size_hint, size_hint, &step_len) ||
          __builtin_mul_overflow(step_len, std::size_t{4}, &step_len)) {
        throw std::invalid_argument("--size " + std::to_string(size_hint) +
                                    ": the emulator's step length (4 * size^2) overflows");
      }
      // Each rank's stream is derived from the one master seed, so --seed
      // reproduces the whole cluster's data and ranks stay decorrelated.
      emulator_ = std::make_unique<sim::Emulator>(sim::Emulator::Params{
          .step_len = step_len,
          .seed = derive_seed(master_seed, static_cast<std::uint64_t>(comm->rank()))});
    } else {
      throw std::invalid_argument("unknown --sim '" + kind + "' (heat3d|lulesh|emulator)");
    }
  }

  const double* step() {
    if (heat_) {
      heat_->step();
      return heat_->output();
    }
    if (lulesh_) {
      lulesh_->step();
      return lulesh_->output();
    }
    return emulator_->step();
  }

  std::size_t output_len() const {
    if (heat_) return heat_->output_len();
    if (lulesh_) return lulesh_->output_len();
    return emulator_->step_len();
  }

  /// Last step's output without advancing (safe on a single rank).
  const double* output() const {
    if (heat_) return heat_->output();
    if (lulesh_) return lulesh_->output();
    return emulator_->buffer().data();
  }

  double data_min() const { return kind_ == "emulator" ? -5.0 : 0.0; }
  double data_max() const { return kind_ == "heat3d" ? 1.0 : (kind_ == "lulesh" ? 16.0 : 5.0); }

 private:
  std::string kind_;
  std::unique_ptr<sim::Heat3D> heat_;
  std::unique_ptr<sim::MiniLulesh> lulesh_;
  std::unique_ptr<sim::Emulator> emulator_;
};

void list_choices() {
  std::cout << "simulations: heat3d lulesh emulator\nanalytics:  ";
  for (const auto& name : smart::bench::app_names()) std::cout << " " << name;
  std::cout << " summary topk\nmodes:       time space\n";
}

/// Trace exports taken from a wrapped ring are lossy; say so on stderr.
void warn_dropped_events(std::size_t dropped) {
  if (dropped > 0) {
    std::fprintf(stderr,
                 "warning: trace dropped %zu event(s) (ring full; raise SMART_TRACE_EVENTS)\n",
                 dropped);
  }
}

/// Writes the attribution outputs for a path result; `out` may be "-" for
/// stdout.  Shared by the post-run analysis and --critpath-in.
int emit_critpath(const obs::CritPathResult& path, const std::string& out,
                  const std::string& json_out) {
  const obs::AttributionReport report = obs::attribute(path);
  int rc = 0;
  if (out == "-") {
    obs::write_report(std::cout, report);
  } else if (!out.empty()) {
    if (obs::write_report_file(out, report)) {
      std::printf("critical-path report written to %s\n", out.c_str());
    } else {
      std::fprintf(stderr, "error: could not write critical-path report to %s\n", out.c_str());
      rc = 1;
    }
  }
  if (!json_out.empty()) {
    if (obs::write_attribution_json_file(json_out, report)) {
      std::printf("critical-path attribution written to %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "error: could not write attribution JSON to %s\n", json_out.c_str());
      rc = 1;
    }
  }
  return rc;
}

int run(const ArgParser& args) {
  const std::string critpath_out = args.has("critpath-out") ? args.get("critpath-out") : "";
  const std::string critpath_json = args.has("critpath-json") ? args.get("critpath-json") : "";
  if (args.has("critpath-in")) {
    // Offline mode: analyze a saved trace instead of running a pipeline.
    obs::ChromeTrace trace;
    std::string error;
    if (!obs::read_chrome_trace_file(args.get("critpath-in"), trace, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    return emit_critpath(obs::extract_critical_path(trace.events, trace.dropped_events),
                         critpath_out.empty() && critpath_json.empty() ? "-" : critpath_out,
                         critpath_json);
  }

  const std::string sim_kind = args.get("sim");
  const std::string app_name = args.get("app");
  // Ranks and pool workers are OS threads of this process.
  constexpr long kMaxThreads = 1024;
  const int ranks = static_cast<int>(args.get_long("ranks", 1, kMaxThreads));
  const int threads = static_cast<int>(args.get_long("threads", 1, kMaxThreads));
  const int steps = static_cast<int>(args.get_long("steps", 0, INT_MAX));
  const std::string mode = args.get("mode");
  // Each simulation rejects a size whose element count overflows.
  const auto size_hint = static_cast<std::size_t>(args.get_long("size", 1, LONG_MAX));
  if (mode != "time" && mode != "space") {
    throw std::invalid_argument("--mode must be 'time' or 'space'");
  }

  // Interconnect: SMART_NET_* environment first, explicit flags win.
  simmpi::NetworkConfig net_cfg = simmpi::NetworkConfig::from_env();
  // launch() rejects a zero bandwidth.
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  if (args.has("net-alpha")) {
    net_cfg.alpha_seconds = args.get_double("net-alpha", 0.0, kMaxDouble);
  }
  if (args.has("net-beta")) {
    net_cfg.beta_bytes_per_second = args.get_double("net-beta", 0.0, kMaxDouble);
  }

  // Reproducibility: one master seed for the run (rank streams derive from
  // it), plus the deterministic schedule-exploration knobs.  A failing
  // explored schedule is reproduced with
  //   --schedule replay --schedule-trace "<string the harness printed>".
  const auto master_seed = static_cast<std::uint64_t>(args.get_long("seed", 0, LONG_MAX));
  if (args.has("schedule")) net_cfg.sched_policy = args.get("schedule");
  net_cfg.sched_seed =
      args.has("schedule-seed")
          ? static_cast<std::uint64_t>(args.get_long("schedule-seed", 0, LONG_MAX))
          : master_seed;
  if (args.has("schedule-trace")) net_cfg.sched_trace = args.get("schedule-trace");

  const std::string trace_out = args.has("trace-out") ? args.get("trace-out") : "";
  const std::string metrics_out = args.has("metrics-out") ? args.get("metrics-out") : "";
  const std::string phase_csv = args.has("phase-csv") ? args.get("phase-csv") : "";
  if (!trace_out.empty() || !critpath_out.empty() || !critpath_json.empty() ||
      !phase_csv.empty()) {
    obs::TraceCollector::instance().set_enabled(true);
  }
  if (!metrics_out.empty()) obs::set_metrics_enabled(true);

  WallTimer wall;
  auto stats = simmpi::launch(ranks, [&](simmpi::Communicator& comm) {
    ThreadPool sim_pool(threads);
    SimDriver sim(sim_kind, &comm, &sim_pool, size_hint, master_seed);

    // The special-cased apps produce scalar reports; everything else goes
    // through the shared bench facade.
    if (app_name == "summary") {
      analytics::SummaryStats<double> job(SchedArgs(threads, 1));
      for (int s = 0; s < steps; ++s) {
        const double* data = sim.step();
        job.run(data, sim.output_len(), nullptr, 0);
        if (comm.rank() == 0) {
          const auto s_ = job.summary();
          std::printf("step %d: n=%zu mean=%.5f sd=%.5f min=%.5f max=%.5f\n", s + 1, s_.count,
                      s_.mean, s_.stddev, s_.min, s_.max);
        }
      }
      if (comm.rank() == 0 && args.has("render")) {
        // Render the last step's first plane (no further stepping: a
        // rank-0-only step would deadlock the halo exchange).
        const std::size_t nx = 32;
        const std::size_t ny = std::min<std::size_t>(32, sim.output_len() / nx);
        analytics::write_pgm(analytics::render_plane(sim.output(), nx, ny), args.get("render"));
        std::printf("rendered %zux%zu plane to %s\n", nx, ny, args.get("render").c_str());
      }
      return;
    }
    if (app_name == "topk") {
      analytics::TopK<double> job(SchedArgs(threads, 1), 5);
      for (int s = 0; s < steps; ++s) {
        const double* data = sim.step();
        job.run(data, sim.output_len(), nullptr, 0);
      }
      if (comm.rank() == 0) {
        std::printf("top-5 hotspots of the final step:\n");
        for (const auto& item : job.top()) {
          std::printf("  value %.6f at position %llu\n", item.value,
                      static_cast<unsigned long long>(item.position));
        }
      }
      return;
    }

    auto app = smart::bench::make_app(app_name, threads, sim.data_min(), sim.data_max());
    app->set_master_seed(static_cast<std::size_t>(master_seed));
    if (mode == "time") {
      for (int s = 0; s < steps; ++s) app->run(sim.step(), sim.output_len());
    } else {
      // Space sharing: a private histogram engine drives the feed/run pair
      // (the facade's schedulers expose run(data, len) only), so the CLI
      // demonstrates the mode with the bucketed app it maps to.
      analytics::Histogram<double> hist(SchedArgs(threads, 1), sim.data_min(), sim.data_max(),
                                        256);
      hist.set_global_combination(false);
      std::thread analytics_task([&] {
        while (hist.run(nullptr, 0)) {
        }
      });
      for (int s = 0; s < steps; ++s) {
        const double* data = sim.step();
        hist.feed(data, sim.output_len());
      }
      hist.close_feed();
      analytics_task.join();
      if (comm.rank() == 0) {
        std::printf("space-sharing run complete; %zu elements analyzed\n",
                    hist.stats().elements_processed);
      }
      return;
    }
    if (comm.rank() == 0) {
      std::cout << "RUNSTATS " << app_name << " ";
      app->stats().dump_json(std::cout);
      std::cout << "\n";
    }
  }, net_cfg);

  // Ranks are threads of this process, so the global trace collector and
  // metrics registry hold every rank's events and updates on one timeline:
  // the exports below read them directly once launch has returned.  An
  // output that cannot be written fails the run.
  int rc = 0;
  if (!trace_out.empty()) {
    obs::TraceCollector& tc = obs::TraceCollector::instance();
    if (obs::write_chrome_trace_file(trace_out, tc.snapshot_events(), tc.dropped_events())) {
      std::printf("trace written to %s\n", trace_out.c_str());
      warn_dropped_events(tc.dropped_events());
    } else {
      std::fprintf(stderr, "error: could not write trace to %s\n", trace_out.c_str());
      rc = 1;
    }
  }
  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (os) obs::MetricsRegistry::global().snapshot().dump_json(os);
    if (os.good()) {
      std::printf("metrics written to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "error: could not write metrics to %s\n", metrics_out.c_str());
      rc = 1;
    }
  }

  if (!phase_csv.empty()) {
    obs::TraceCollector& tc = obs::TraceCollector::instance();
    std::ofstream os(phase_csv);
    if (os) obs::write_phase_csv(os, tc.snapshot_events());
    if (os.good()) {
      std::printf("phase CSV written to %s\n", phase_csv.c_str());
      warn_dropped_events(tc.dropped_events());
    } else {
      std::fprintf(stderr, "error: could not write phase CSV to %s\n", phase_csv.c_str());
      rc = 1;
    }
  }

  if (!critpath_out.empty() || !critpath_json.empty()) {
    obs::TraceCollector& tc = obs::TraceCollector::instance();
    rc |= emit_critpath(obs::extract_critical_path(tc.snapshot_events(), tc.dropped_events()),
                        critpath_out, critpath_json);
  }

  std::printf("wall %.3f s, virtual makespan %.4f s, network %s across %d rank(s)\n",
              wall.seconds(), stats.makespan(), format_bytes(stats.total_bytes_sent()).c_str(),
              ranks);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.option("sim", "simulation: heat3d | lulesh | emulator", "heat3d")
      .option("app", "analytics job (see --list)", "histogram")
      .option("ranks", "simulated cluster size", "2")
      .option("threads", "threads per rank", "2")
      .option("steps", "time-steps to simulate", "3")
      .option("size", "per-rank size hint (heat3d nz / lulesh edge)", "24")
      .option("mode", "in-situ mode: time | space", "time")
      .option("render", "write the final plane to this PGM path (summary app)")
      .option("trace-out", "write a Chrome/Perfetto trace of the run to this JSON path")
      .option("critpath-out", "write the critical-path bottleneck report here ('-' = stdout)")
      .option("critpath-json", "write the critical-path attribution JSON to this path")
      .option("critpath-in", "analyze a saved Chrome-trace JSON file instead of running")
      .option("metrics-out", "write the aggregated metrics snapshot to this JSON path")
      .option("phase-csv", "write the scheduler's per-phase timeline to this CSV path")
      .option("net-alpha", "per-message latency in seconds")
      .option("net-beta", "link bandwidth in bytes/second")
      .option("seed", "master seed: rank data streams derive from it; echoed in RUNSTATS", "0")
      .option("schedule", "deterministic delivery policy: fifo | random | reorder | replay")
      .option("schedule-seed", "schedule policy seed (defaults to --seed)")
      .option("schedule-trace", "recorded delivery trace for --schedule replay")
      .flag("list", "print available simulations and analytics");
  try {
    args.parse(argc, argv);
    if (args.get_flag("list")) {
      list_choices();
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
