// Critical-path extraction and attribution (obs/critpath.h,
// obs/attribution.h): the acceptance bar for the profiler — on a real
// 4-rank run the reconstructed path matches LaunchStats::makespan within
// 1%, categories sum to the path length, and a kDelay fault on one rank
// moves it to the top of the bottleneck report — plus the degraded-trace
// edge cases (dead sender, ring-wrapped spans, single-rank runs) and the
// Chrome-JSON export/read round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "analytics/histogram.h"
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "simmpi/fault.h"
#include "simmpi/world.h"

namespace {

using namespace smart;

/// RAII reset of the process-global trace state around a test.
struct TraceGuard {
  TraceGuard() {
    obs::TraceCollector::instance().set_enabled(false);
    obs::TraceCollector::instance().clear();
  }
  ~TraceGuard() {
    obs::TraceCollector::instance().set_enabled(false);
    obs::TraceCollector::instance().clear();
  }
};

std::vector<double> uniform_data(std::size_t n, std::uint64_t seed) {
  std::vector<double> data(n);
  std::uint64_t x = seed;
  for (double& v : data) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<double>(x >> 11) / static_cast<double>(1ULL << 53) * 100.0;
  }
  return data;
}

/// Segments must tile [0, makespan]: ascending, gap-free, non-negative.
void expect_tiling(const obs::CritPathResult& path) {
  ASSERT_FALSE(path.segments.empty());
  EXPECT_NEAR(path.segments.front().vt_begin_us, 0.0, 1e-6);
  EXPECT_NEAR(path.segments.back().vt_end_us, path.makespan_us, 1e-3);
  for (std::size_t i = 0; i < path.segments.size(); ++i) {
    EXPECT_GE(path.segments[i].duration_us(), 0.0) << "segment " << i;
    if (i > 0) {
      EXPECT_DOUBLE_EQ(path.segments[i].vt_begin_us, path.segments[i - 1].vt_end_us)
          << "gap before segment " << i;
    }
  }
  EXPECT_NEAR(path.path_length_us(), path.makespan_us, 1e-3 + 1e-6 * path.makespan_us);
}

/// One global-combining histogram pass per rank over a private data slice.
void run_histogram(simmpi::Communicator& comm, int steps = 2) {
  const auto data = uniform_data(20000, 17 + static_cast<std::uint64_t>(comm.rank()));
  analytics::Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 64);
  std::vector<std::size_t> out(64, 0);
  for (int s = 0; s < steps; ++s) hist.run(data.data(), data.size(), out.data(), out.size());
}

obs::CritPathResult traced_run(int nranks, std::shared_ptr<simmpi::FaultInjector> faults,
                               simmpi::LaunchStats& stats) {
  obs::TraceCollector::instance().set_enabled(true);
  stats = simmpi::launch(
      nranks, [](simmpi::Communicator& comm) { run_histogram(comm); }, std::nullopt,
      std::move(faults));
  obs::TraceCollector::instance().set_enabled(false);
  auto& tc = obs::TraceCollector::instance();
  return obs::extract_critical_path(tc.snapshot_events(), tc.dropped_events());
}

// --- acceptance: real 4-rank runs ------------------------------------------

TEST(CritPath, FourRankRunMatchesLaunchMakespanWithinOnePercent) {
  TraceGuard guard;
  simmpi::LaunchStats stats;
  const auto path = traced_run(4, nullptr, stats);

  const double expected_us = stats.makespan() * 1e6;
  ASSERT_GT(expected_us, 0.0);
  EXPECT_EQ(path.makespan_rank,
            static_cast<int>(std::max_element(stats.rank_vtime.begin(), stats.rank_vtime.end()) -
                             stats.rank_vtime.begin()));
  EXPECT_NEAR(path.makespan_us, expected_us, 0.01 * expected_us);
  expect_tiling(path);

  // Category attributions sum to the path length (the report invariant).
  const auto report = obs::attribute(path);
  const double cat_sum =
      std::accumulate(report.by_category.begin(), report.by_category.end(), 0.0);
  EXPECT_NEAR(cat_sum, report.path_length_us, 1e-3 + 1e-6 * report.path_length_us);
  double rank_sum = 0.0;
  for (const auto& row : report.by_rank) rank_sum += row.total_us;
  EXPECT_NEAR(rank_sum, report.path_length_us, 1e-3 + 1e-6 * report.path_length_us);
}

TEST(CritPath, DelayFaultMovesRankToTopOfBottleneckReport) {
  TraceGuard guard;
  // Rank 2's first two sends are delayed far beyond the run's natural
  // compute time, so rank 2 must dominate the critical path.  The delay is
  // sized from an undelayed run of the same job: at least 30 ms virtual,
  // and ten times that run's makespan on builds slow enough (sanitizers)
  // for compute to rival 30 ms.
  simmpi::LaunchStats stats;
  traced_run(4, nullptr, stats);
  obs::TraceCollector::instance().clear();
  const double delay_s = std::max(0.03, 10.0 * stats.makespan());
  auto faults = std::make_shared<simmpi::FaultInjector>();
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 2,
                    .action = simmpi::FaultAction::kDelay,
                    .delay_seconds = delay_s,
                    .max_fires = 2});
  const auto path = traced_run(4, faults, stats);

  const double expected_us = stats.makespan() * 1e6;
  EXPECT_NEAR(path.makespan_us, expected_us, 0.01 * expected_us);
  expect_tiling(path);

  const auto report = obs::attribute(path);
  ASSERT_FALSE(report.by_rank.empty());
  EXPECT_EQ(report.by_rank.front().rank, 2) << "delayed rank should lead the report";
  const double fault_us =
      report.by_category[static_cast<std::size_t>(obs::CritCategory::kFaultDelay)];
  EXPECT_GE(fault_us, delay_s * 1e6 * 0.99) << "at least one injected delay on the path";
  // The delay is charged to the rank the rule fired on.
  EXPECT_GE(report.by_rank.front()
                .by_category[static_cast<std::size_t>(obs::CritCategory::kFaultDelay)],
            delay_s * 1e6 * 0.99);

  std::ostringstream os;
  obs::write_report(os, report);
  const std::string text = os.str();
  EXPECT_NE(text.find("fault_delay"), std::string::npos);
  EXPECT_NE(text.find("rank 2"), std::string::npos);
}

TEST(CritPath, SingleRankRunHasNoCrossRankSegments) {
  TraceGuard guard;
  simmpi::LaunchStats stats;
  const auto path = traced_run(1, nullptr, stats);

  const double expected_us = stats.makespan() * 1e6;
  ASSERT_GT(expected_us, 0.0);
  EXPECT_NEAR(path.makespan_us, expected_us, 0.01 * expected_us);
  EXPECT_EQ(path.makespan_rank, 0);
  expect_tiling(path);
  for (const auto& s : path.segments) {
    EXPECT_EQ(s.rank, 0);
    EXPECT_NE(s.category, obs::CritCategory::kNetwork);
    EXPECT_NE(s.category, obs::CritCategory::kRecvWait);
  }
}

TEST(CritPath, ExporterRoundTripPreservesThePath) {
  TraceGuard guard;
  simmpi::LaunchStats stats;
  const auto direct = traced_run(2, nullptr, stats);

  std::ostringstream os;
  obs::write_chrome_trace(os, obs::TraceCollector::instance().snapshot_events(), 3);
  obs::ChromeTrace back;
  std::string error;
  ASSERT_TRUE(obs::read_chrome_trace(os.str(), back, &error)) << error;
  EXPECT_EQ(back.dropped_events, 3u);

  const auto reread = obs::extract_critical_path(back.events, back.dropped_events);
  EXPECT_NEAR(reread.makespan_us, direct.makespan_us, 1e-3);
  EXPECT_EQ(reread.makespan_rank, direct.makespan_rank);
  EXPECT_NEAR(reread.path_length_us(), direct.path_length_us(), 1.0);
  expect_tiling(reread);
}

// --- degraded traces --------------------------------------------------------

/// Synthetic-event helpers: hand-built traces pin down the DAG edge cases
/// deterministically (a real dead-rank run cannot control which events
/// survive the ring).
obs::TraceEvent instant(int rank, double ts, const char* name,
                        std::initializer_list<std::pair<const char*, std::int64_t>> args) {
  obs::TraceEvent e;
  e.type = obs::TraceEvent::Type::kInstant;
  e.rank = rank;
  e.tid = static_cast<std::uint32_t>(rank);
  e.ts_us = ts;
  e.name = name;
  e.cat = "mpi";
  for (const auto& [k, v] : args) {
    e.arg_key[e.num_args] = k;
    e.arg_val[e.num_args] = v;
    ++e.num_args;
  }
  return e;
}

obs::TraceEvent span(int rank, double ts, double dur, const char* name, const char* cat,
                     std::initializer_list<std::pair<const char*, std::int64_t>> args) {
  obs::TraceEvent e = instant(rank, ts, name, args);
  e.type = obs::TraceEvent::Type::kComplete;
  e.dur_us = dur;
  e.cat = cat;
  return e;
}

obs::TraceEvent flow(int rank, double ts, bool start, std::uint64_t id) {
  obs::TraceEvent e;
  e.type = start ? obs::TraceEvent::Type::kFlowStart : obs::TraceEvent::Type::kFlowEnd;
  e.rank = rank;
  e.tid = static_cast<std::uint32_t>(rank);
  e.ts_us = ts;
  e.name = "msg";
  e.cat = "mpi";
  e.flow_id = id;
  return e;
}

TEST(CritPath, FlowEndWithoutFlowStartBecomesRecvWait) {
  // Rank 0 received from a rank whose events never made it into the trace
  // (dead sender): the constrained recv cannot jump and degrades.
  std::vector<obs::TraceEvent> events;
  events.push_back(instant(0, 10.0, "rank.begin", {{"vt_ns", 0}}));
  events.push_back(span(0, 20.0, 400.0, "recv", "mpi",
                        {{"tag", 5}, {"vt0_ns", 100000}, {"vt1_ns", 500000}, {"bytes", 8}}));
  events.push_back(flow(0, 380.0, /*start=*/false, 7));  // no matching flow_start
  events.push_back(instant(0, 430.0, "rank.end", {{"vt_ns", 600000}}));

  const auto path = obs::extract_critical_path(events);
  EXPECT_DOUBLE_EQ(path.makespan_us, 600.0);
  EXPECT_EQ(path.makespan_rank, 0);
  expect_tiling(path);

  double recv_wait = 0.0;
  for (const auto& s : path.segments) {
    if (s.category == obs::CritCategory::kRecvWait) recv_wait += s.duration_us();
  }
  EXPECT_NEAR(recv_wait, 400.0, 1e-3);
  ASSERT_FALSE(path.warnings.empty());
  bool warned = false;
  for (const auto& w : path.warnings) {
    if (w.find("recv_wait") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(CritPath, RingWrappedSendSpanDegradesGracefully) {
  // The flow_start survived the ring wrap but the send span (and its
  // dep_vt stamp) did not: the jump target is gone, so the receiver keeps
  // the wait and the tiling invariant still holds.
  std::vector<obs::TraceEvent> events;
  events.push_back(instant(1, 5.0, "rank.begin", {{"vt_ns", 0}}));
  events.push_back(flow(1, 15.0, /*start=*/true, 9));  // orphaned: span dropped
  events.push_back(instant(1, 30.0, "rank.end", {{"vt_ns", 200000}}));
  events.push_back(instant(0, 10.0, "rank.begin", {{"vt_ns", 0}}));
  events.push_back(span(0, 20.0, 300.0, "recv", "mpi",
                        {{"tag", 3}, {"vt0_ns", 50000}, {"vt1_ns", 450000}, {"bytes", 16}}));
  events.push_back(flow(0, 310.0, /*start=*/false, 9));
  events.push_back(instant(0, 340.0, "rank.end", {{"vt_ns", 500000}}));

  const auto path = obs::extract_critical_path(events);
  EXPECT_DOUBLE_EQ(path.makespan_us, 500.0);
  expect_tiling(path);
  double recv_wait = 0.0;
  for (const auto& s : path.segments) {
    if (s.category == obs::CritCategory::kRecvWait) recv_wait += s.duration_us();
  }
  EXPECT_NEAR(recv_wait, 400.0, 1e-3);
}

TEST(CritPath, ResolvedFlowJumpsToSenderAndBillsNetwork) {
  // Control case for the two above: with the send span present, the path
  // crosses to rank 1 and the wait becomes network + sender-side time.
  std::vector<obs::TraceEvent> events;
  events.push_back(instant(1, 5.0, "rank.begin", {{"vt_ns", 0}}));
  events.push_back(
      span(1, 10.0, 20.0, "send", "mpi", {{"tag", 3}, {"bytes", 16}, {"dep_vt_ns", 150000}}));
  events.push_back(flow(1, 15.0, /*start=*/true, 9));
  events.push_back(instant(1, 40.0, "rank.end", {{"vt_ns", 160000}}));
  events.push_back(instant(0, 6.0, "rank.begin", {{"vt_ns", 0}}));
  events.push_back(span(0, 20.0, 300.0, "recv", "mpi",
                        {{"tag", 3}, {"vt0_ns", 50000}, {"vt1_ns", 450000}, {"bytes", 16}}));
  events.push_back(flow(0, 310.0, /*start=*/false, 9));
  events.push_back(instant(0, 340.0, "rank.end", {{"vt_ns", 500000}}));

  const auto path = obs::extract_critical_path(events);
  EXPECT_DOUBLE_EQ(path.makespan_us, 500.0);
  expect_tiling(path);

  double network = 0.0, rank1 = 0.0;
  for (const auto& s : path.segments) {
    if (s.category == obs::CritCategory::kNetwork) {
      network += s.duration_us();
      EXPECT_EQ(s.rank, 1);  // billed to the sender
      EXPECT_EQ(s.peer, 0);
    }
    if (s.rank == 1) rank1 += s.duration_us();
    EXPECT_NE(s.category, obs::CritCategory::kRecvWait);
  }
  EXPECT_NEAR(network, 300.0, 1e-3);  // 450us arrival - 150us departure
  EXPECT_NEAR(rank1, 450.0, 1e-3);    // sender local 150us + transit 300us
}

// A send-side fault delay fires inside the send span, after the span began,
// and is already in the departure stamp.  Rank 1's send departs at 150 us
// after a 100 us delay.
std::vector<obs::TraceEvent> delayed_send_trace(std::int64_t rank1_end_ns,
                                                std::int64_t rank0_end_ns) {
  std::vector<obs::TraceEvent> events;
  events.push_back(instant(1, 5.0, "rank.begin", {{"vt_ns", 0}}));
  events.push_back(
      span(1, 10.0, 40.0, "send", "mpi", {{"tag", 3}, {"bytes", 16}, {"dep_vt_ns", 150000}}));
  events.push_back(instant(1, 30.0, "fault.delay",
                           {{"tag", 3}, {"delay_ns", 100000}, {"vt_ns", 150000}}));
  events.push_back(flow(1, 35.0, /*start=*/true, 9));
  events.push_back(instant(1, 60.0, "rank.end", {{"vt_ns", rank1_end_ns}}));
  events.push_back(instant(0, 6.0, "rank.begin", {{"vt_ns", 0}}));
  events.push_back(span(0, 20.0, 300.0, "recv", "mpi",
                        {{"tag", 3}, {"vt0_ns", 50000}, {"vt1_ns", 450000}, {"bytes", 16}}));
  events.push_back(flow(0, 310.0, /*start=*/false, 9));
  events.push_back(instant(0, 340.0, "rank.end", {{"vt_ns", rank0_end_ns}}));
  return events;
}

/// Rank 1's part of the path: the 100 us fault delay and `compute_us` of
/// compute, with no warnings.
void expect_delay_carved_out(const obs::CritPathResult& path, double compute_us) {
  expect_tiling(path);
  double fault = 0.0, compute = 0.0;
  for (const auto& s : path.segments) {
    if (s.rank != 1) continue;
    if (s.category == obs::CritCategory::kFaultDelay) fault += s.duration_us();
    if (s.category == obs::CritCategory::kCompute) compute += s.duration_us();
  }
  EXPECT_NEAR(fault, 100.0, 1e-3);
  EXPECT_NEAR(compute, compute_us, 1e-3);
  EXPECT_TRUE(path.warnings.empty()) << path.warnings.front();
}

TEST(CritPath, SendDelayIsFaultDelayWhenThePathJumpsToTheSend) {
  // Rank 0 finishes last and its receive waited for the delayed message:
  // the path crosses to rank 1 at the send, below which the delay must
  // still be carved out rather than billed as compute.
  const auto path = obs::extract_critical_path(delayed_send_trace(160000, 500000));
  EXPECT_EQ(path.makespan_rank, 0);
  expect_delay_carved_out(path, 50.0);  // the 150 us departure minus the delay
}

TEST(CritPath, SendDelayIsFaultDelayWhenThePathWalksDownTheSender) {
  // Rank 1 finishes last: the path walks down its own timeline past the
  // send and the delay, and no clock stamp reads as inconsistent.
  const auto path = obs::extract_critical_path(delayed_send_trace(900000, 500000));
  EXPECT_EQ(path.makespan_rank, 1);
  expect_delay_carved_out(path, 800.0);  // 900 us end minus the delay
}

TEST(CritPath, EmptyTraceYieldsWarningNotCrash) {
  const auto path = obs::extract_critical_path({});
  EXPECT_TRUE(path.segments.empty());
  EXPECT_FALSE(path.warnings.empty());
  const auto report = obs::attribute(path);
  std::ostringstream os;
  obs::write_report(os, report);
  obs::write_attribution_json(os, report);
  EXPECT_FALSE(os.str().empty());
}

// --- satellites -------------------------------------------------------------

TEST(CritPath, RecvTimeoutEmitsWaitedInstant) {
  TraceGuard guard;
  obs::TraceCollector::instance().set_enabled(true);
  simmpi::launch(2, [](simmpi::Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW((void)comm.recv_timeout(1, 77, 0.05), simmpi::PeerUnreachable);
    }
    // Rank 1 sends nothing and exits; rank 0's bounded wait expires.
  });
  obs::TraceCollector::instance().set_enabled(false);

  bool found = false;
  for (const auto& e : obs::TraceCollector::instance().snapshot_events()) {
    if (e.type == obs::TraceEvent::Type::kInstant && e.name == "recv.timeout") {
      found = true;
      bool has_waited = false;
      for (std::uint8_t i = 0; i < e.num_args; ++i) {
        if (e.arg_key[i] == "waited_us" && e.arg_val[i] > 0) has_waited = true;
      }
      EXPECT_TRUE(has_waited);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Percentiles, InterpolateWithinBucketsAndClampOverflow) {
  obs::MetricsSnapshot::Histogram h;
  h.name = "lat";
  h.bounds = {10.0, 20.0};
  h.buckets = {10, 10, 0};
  h.count = 20;
  EXPECT_NEAR(h.percentile(0.50), 10.0, 1e-9);
  EXPECT_NEAR(h.percentile(0.25), 5.0, 1e-9);
  EXPECT_NEAR(h.percentile(0.75), 15.0, 1e-9);
  EXPECT_NEAR(h.percentile(0.99), 19.8, 1e-9);
  EXPECT_NEAR(h.percentile(0.0), 0.0, 1e-9);

  // Overflow samples can only clamp to the last finite bound.
  obs::MetricsSnapshot::Histogram over;
  over.bounds = {10.0};
  over.buckets = {0, 5};
  over.count = 5;
  EXPECT_NEAR(over.percentile(0.5), 10.0, 1e-9);

  obs::MetricsSnapshot::Histogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0.0);
}

TEST(Percentiles, AppearInJsonDump) {
  obs::MetricsSnapshot snap;
  obs::MetricsSnapshot::Histogram h;
  h.name = "lat";
  h.bounds = {1.0};
  h.buckets = {4, 0};
  h.count = 4;
  h.sum = 2.0;
  snap.histograms.push_back(h);

  std::ostringstream js;
  snap.dump_json(js);
  EXPECT_NE(js.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(js.str().find("\"p90\""), std::string::npos);
  EXPECT_NE(js.str().find("\"p99\""), std::string::npos);
}

TEST(TraceReader, ParsesWriterOutputIncludingEscapes) {
  TraceGuard guard;
  auto& tc = obs::TraceCollector::instance();
  tc.set_enabled(true);
  tc.instant("na\"me\nwith escapes", "test", {{"k", 42}}, 3);
  tc.complete("work", "sched", tc.now_us(), 12.5, {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}, 1);
  tc.set_enabled(false);

  std::ostringstream os;
  obs::write_chrome_trace(os, tc.snapshot_events());
  obs::ChromeTrace back;
  std::string error;
  ASSERT_TRUE(obs::read_chrome_trace(os.str(), back, &error)) << error;
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.dropped_events, 0u);

  const auto& inst = back.events[0].type == obs::TraceEvent::Type::kInstant ? back.events[0]
                                                                            : back.events[1];
  EXPECT_EQ(inst.name, "na\"me\nwith escapes");
  EXPECT_EQ(inst.rank, 3);
  ASSERT_EQ(inst.num_args, 1);
  EXPECT_EQ(inst.arg_key[0], "k");
  EXPECT_EQ(inst.arg_val[0], 42);

  const auto& sp = back.events[0].type == obs::TraceEvent::Type::kComplete ? back.events[0]
                                                                           : back.events[1];
  EXPECT_EQ(sp.name, "work");
  EXPECT_EQ(sp.cat, "sched");
  EXPECT_NEAR(sp.dur_us, 12.5, 1e-3);
  ASSERT_EQ(sp.num_args, 4);  // four-arg capacity survives the round trip
  EXPECT_EQ(sp.arg_key[3], "d");
  EXPECT_EQ(sp.arg_val[3], 4);
}

TEST(TraceReader, RejectsMalformedJson) {
  obs::ChromeTrace out;
  std::string error;
  EXPECT_FALSE(obs::read_chrome_trace("{\"traceEvents\":[{", out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::read_chrome_trace("not json at all", out, &error));
}

}  // namespace
