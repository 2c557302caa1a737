// Observability subsystem tests: JSON escaping, Chrome-trace export, flow
// pairing across simmpi ranks, the rank-0 trace gather (including a dead
// rank), metric semantics, the RunStats dumpers, the per-phase CSV export,
// and the SMART_TRACE / SMART_CRITPATH / SMART_METRICS at-exit dumps.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/histogram.h"
#include "core/run_stats.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "simmpi/fault.h"
#include "simmpi/world.h"

namespace {

using namespace smart;

// --- a strict little JSON validator (no third-party parser in the image) ---

class MiniJson {
 public:
  explicit MiniJson(std::string_view text) : s_(text) {}

  /// True iff the whole input is exactly one valid JSON value.
  bool valid() {
    pos_ = 0;
    const bool ok = value();
    ws();
    return ok && pos_ == s_.size();
  }

  /// Decodes one quoted JSON string ("..." including the quotes).
  static std::optional<std::string> decode_string(std::string_view quoted) {
    MiniJson p(quoted);
    std::string out;
    if (!p.string(&out) || p.pos_ != quoted.size()) return std::nullopt;
    return out;
  }

 private:
  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool lit(std::string_view w) {
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  bool value() {
    ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string(nullptr);
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!string(nullptr)) return false;
      ws();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      if (!value()) return false;
      ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c != '\\') {
        if (out != nullptr) out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          if (out != nullptr) out->push_back(e);
          break;
        case 'b':
          if (out != nullptr) out->push_back('\b');
          break;
        case 'f':
          if (out != nullptr) out->push_back('\f');
          break;
        case 'n':
          if (out != nullptr) out->push_back('\n');
          break;
        case 'r':
          if (out != nullptr) out->push_back('\r');
          break;
        case 't':
          if (out != nullptr) out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The escaper only emits \u for ASCII control chars, so a 1-byte
          // decode is enough for the round-trip tests.
          if (out != nullptr && cp < 0x80) out->push_back(static_cast<char>(cp));
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    return digits && pos_ > start;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// RAII reset of the process-global trace/metrics state around a test.
struct ObsTestGuard {
  ObsTestGuard() {
    obs::TraceCollector::instance().set_enabled(false);
    obs::TraceCollector::instance().clear();
    obs::set_metrics_enabled(false);
  }
  ~ObsTestGuard() {
    obs::TraceCollector::instance().set_enabled(false);
    obs::TraceCollector::instance().clear();
    obs::set_metrics_enabled(false);
  }
};

// --- JSON escaping ---------------------------------------------------------

TEST(JsonEscape, EscapesSpecialCharacters) {
  EXPECT_EQ(obs::json_escape("plain text 123"), "plain text 123");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::json_escape("\b\f"), "\\b\\f");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonEscape, RoundTripsThroughAParser) {
  const std::string nasty = "q\"uote b\\ack\nnew\tline\r\b\f ctrl:\x02 end";
  const std::string quoted = "\"" + obs::json_escape(nasty) + "\"";
  const auto decoded = MiniJson::decode_string(quoted);
  ASSERT_TRUE(decoded.has_value()) << quoted;
  EXPECT_EQ(*decoded, nasty);
}

// --- trace collection and export -------------------------------------------

TEST(TraceCollector, DisabledRecordsNothing) {
  ObsTestGuard guard;
  auto& tc = obs::TraceCollector::instance();
  ASSERT_FALSE(obs::trace_enabled());
  tc.instant("ignored", "test");
  { obs::TraceSpan span("ignored_span", "test", {{"k", 1}}); }
  EXPECT_TRUE(tc.snapshot_events().empty());
  EXPECT_EQ(tc.dropped_events(), 0u);
}

TEST(TraceCollector, RingOverwritesOldestAndCountsDrops) {
  ObsTestGuard guard;
  auto& tc = obs::TraceCollector::instance();
  tc.set_ring_capacity(4);
  tc.set_enabled(true);
  // A fresh thread gets the small ring (existing threads keep theirs).
  std::thread recorder([&tc] {
    for (int i = 0; i < 6; ++i) tc.instant("e", "test", {{"i", i}});
  });
  recorder.join();
  tc.set_enabled(false);
  tc.set_ring_capacity(std::size_t{1} << 15);  // restore for later tests

  const auto events = tc.snapshot_events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tc.dropped_events(), 2u);
  EXPECT_EQ(events.front().arg_val[0], 2);  // 0 and 1 were overwritten
  EXPECT_EQ(events.back().arg_val[0], 5);
}

TEST(TraceExport, NastyNamesStillProduceValidJson) {
  ObsTestGuard guard;
  auto& tc = obs::TraceCollector::instance();
  tc.set_enabled(true);
  tc.instant("quote\" back\\slash \nnewline", "cat\"egory", {{"k", 7}});
  tc.complete("span\tname", "test", tc.now_us(), 12.5, {{"a", 1}, {"b", 2}});
  tc.set_enabled(false);

  std::ostringstream os;
  obs::write_chrome_trace(os, tc.snapshot_events());
  const std::string json = os.str();
  EXPECT_TRUE(MiniJson(json).valid()) << json;
  EXPECT_NE(json.find("quote\\\""), std::string::npos);
  EXPECT_NE(json.find("\\nnewline"), std::string::npos);
}

TEST(TraceFlow, SendRecvPairsAcrossRanks) {
  ObsTestGuard guard;
  auto& tc = obs::TraceCollector::instance();
  tc.set_enabled(true);
  simmpi::launch(2, [](simmpi::Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, Buffer{std::byte{1}});
    } else {
      (void)comm.recv(0, 7);
    }
  });
  tc.set_enabled(false);

  const auto events = tc.snapshot_events();
  std::set<std::uint64_t> starts_on_rank0, ends_on_rank1;
  bool send_span_rank0 = false, recv_span_rank1 = false;
  for (const auto& e : events) {
    if (e.type == obs::TraceEvent::Type::kFlowStart && e.rank == 0) starts_on_rank0.insert(e.flow_id);
    if (e.type == obs::TraceEvent::Type::kFlowEnd && e.rank == 1) ends_on_rank1.insert(e.flow_id);
    if (e.type == obs::TraceEvent::Type::kComplete && e.name == "send" && e.rank == 0) {
      send_span_rank0 = true;
    }
    if (e.type == obs::TraceEvent::Type::kComplete && e.name == "recv" && e.rank == 1) {
      recv_span_rank1 = true;
    }
  }
  EXPECT_TRUE(send_span_rank0);
  EXPECT_TRUE(recv_span_rank1);
  // At least one flow arrow starts on rank 0 and lands on rank 1 with the
  // same nonzero id.
  bool paired = false;
  for (const std::uint64_t id : starts_on_rank0) {
    if (id != 0 && ends_on_rank1.count(id) > 0) paired = true;
  }
  EXPECT_TRUE(paired);
}

// Ranks are threads of one process, so the trace is exported from the
// global collector once launch has returned, with no gather to wait on a
// dead rank.  A killed rank is told apart by its missing rank.end event:
// its own events up to the kill are in the file, and the ranks that
// finished each end with rank.end.
TEST(TraceGather, DeadRankIsReportedMissingNotHung) {
  ObsTestGuard guard;
  obs::TraceCollector::instance().set_enabled(true);
  auto faults = std::make_shared<simmpi::FaultInjector>();
  // Rank 2 dies on its first send.
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 2,
                    .action = simmpi::FaultAction::kKillRank,
                    .max_fires = 1});
  const simmpi::LaunchStats stats = simmpi::launch(
      3,
      [&](simmpi::Communicator& comm) {
        obs::TraceCollector::instance().instant("tick", "test", {{"rank", comm.rank()}});
        if (comm.rank() == 2) comm.send(0, 7, Buffer{});
      },
      std::nullopt, faults);
  EXPECT_EQ(stats.ranks_killed, (std::vector<int>{2}));

  const std::string path = "/tmp/smart_test_obs_trace_dead_rank.json";
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  ASSERT_TRUE(obs::write_chrome_trace_file(path, tc.snapshot_events(), tc.dropped_events()));
  obs::TraceCollector::instance().set_enabled(false);
  obs::ChromeTrace trace;
  std::string error;
  ASSERT_TRUE(obs::read_chrome_trace_file(path, trace, &error)) << error;
  std::remove(path.c_str());

  std::set<int> ticked, ended, dead;
  for (const auto& e : trace.events) {
    if (e.type != obs::TraceEvent::Type::kInstant) continue;
    if (e.name == "tick") ticked.insert(e.rank);
    if (e.name == "rank.end") ended.insert(e.rank);
    if (e.name == "rank_dead") dead.insert(e.rank);
  }
  EXPECT_EQ(ticked, (std::set<int>{0, 1, 2}));
  EXPECT_EQ(ended, (std::set<int>{0, 1}));
  EXPECT_EQ(dead, (std::set<int>{2}));
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, DisabledUpdatesAreNoops) {
  ObsTestGuard guard;
  obs::Counter c;
  obs::Gauge g;
  obs::FixedHistogram h({1.0});
  c.add(5);
  g.set(3.0);
  g.update_max(9.0);
  h.observe(0.5);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(FixedHistogram, InclusiveUpperBoundsAndOverflow) {
  ObsTestGuard guard;
  obs::set_metrics_enabled(true);
  obs::FixedHistogram h({1.0, 10.0});
  ASSERT_EQ(h.num_buckets(), 3u);
  h.observe(0.5);    // <= 1      -> bucket 0
  h.observe(1.0);    // == bound  -> bucket 0 (inclusive)
  h.observe(1.001);  // > 1       -> bucket 1
  h.observe(10.0);   // == bound  -> bucket 1 (inclusive)
  h.observe(10.5);   // > last    -> overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 23.001, 1e-9);
}

TEST(MetricsSnapshot, DumpJsonIsValidJson) {
  obs::MetricsSnapshot snap;
  snap.counters["c"] = 11;
  snap.gauges["g"] = 2.5;
  snap.histograms.push_back({"h", {1.0}, {4, 2}, 6, 8.5});

  std::ostringstream js;
  snap.dump_json(js);
  EXPECT_TRUE(MiniJson(js.str()).valid()) << js.str();
  EXPECT_NE(js.str().find("\"c\": 11"), std::string::npos) << js.str();
}

// --- RunStats dumpers ------------------------------------------------------

TEST(RunStats, JsonAndCsvDumpersAgree) {
  RunStats rs;
  rs.runs = 3;
  rs.wire_bytes = 123;
  rs.codec_seconds = 0.5;
  rs.ranks_lost = 1;

  std::ostringstream js;
  rs.dump_json(js);
  EXPECT_TRUE(MiniJson(js.str()).valid()) << js.str();
  EXPECT_NE(js.str().find("\"wire_bytes\": 123"), std::string::npos);
  EXPECT_NE(js.str().find("\"ranks_lost\": 1"), std::string::npos);

  std::ostringstream header, row;
  RunStats::csv_header(header);
  rs.dump_csv_row(row);
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header.str()), commas(row.str()));
  EXPECT_GE(commas(header.str()), 20);  // all 21 fields present
  EXPECT_NE(header.str().find("wire_bytes"), std::string::npos);
  EXPECT_EQ(header.str().back(), '\n');
  EXPECT_EQ(row.str().back(), '\n');
}

// --- phase CSV export ------------------------------------------------------

/// Minimal RFC 4180 reader: quoted fields may hold commas, doubled quotes
/// and newlines; every record ends in '\n'.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',' || c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      if (c == '\n') rows.push_back(std::exchange(row, {}));
    } else {
      field += c;
    }
  }
  return rows;
}

const std::vector<std::string> kPhaseCsvHeader = {"phase", "thread", "begin_s", "end_s",
                                                  "duration_s"};

TEST(PhaseCsv, SchedulerPhasesBecomeRows) {
  ObsTestGuard guard;
  auto& tc = obs::TraceCollector::instance();
  tc.set_enabled(true);
  analytics::Histogram<double> hist(SchedArgs(2, 1), 0.0, 1.0, 16);
  std::vector<double> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i) / static_cast<double>(data.size());
  }
  hist.run(data.data(), data.size(), nullptr, 0);
  // Neither a "sched" instant nor a span of another category is a phase.
  tc.instant("not_a_span", "sched");
  tc.complete("other_category", "test", tc.now_us(), 1.0);
  tc.set_enabled(false);

  std::ostringstream os;
  obs::write_phase_csv(os, tc.snapshot_events());
  const auto rows = parse_csv(os.str());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0], kPhaseCsvHeader);
  std::set<std::string> phases;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 5u) << "row " << i;
    phases.insert(rows[i][0]);
    const double begin = std::stod(rows[i][2]);
    const double end = std::stod(rows[i][3]);
    EXPECT_LE(begin, end);
    EXPECT_NEAR(end - begin, std::stod(rows[i][4]), 1e-8);
  }
  EXPECT_TRUE(phases.count("reduction") > 0) << "phases recorded: " << phases.size();
  EXPECT_TRUE(phases.count("local_combine") > 0);
  EXPECT_EQ(phases.count("not_a_span"), 0u);
  EXPECT_EQ(phases.count("other_category"), 0u);
}

TEST(PhaseCsv, ConcurrentThreadsGetDistinctIds) {
  ObsTestGuard guard;
  auto& tc = obs::TraceCollector::instance();
  tc.set_enabled(true);
  // Three concurrently-live threads (the latch keeps them alive together):
  // each row must name its own thread.
  std::latch ready(3);
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&ready] {
      ready.arrive_and_wait();
      obs::TraceSpan span("work", "sched");
    });
  }
  for (auto& t : threads) t.join();
  tc.set_enabled(false);

  std::ostringstream os;
  obs::write_phase_csv(os, tc.snapshot_events());
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 4u);
  std::set<std::string> ids;
  for (std::size_t i = 1; i < rows.size(); ++i) ids.insert(rows[i][1]);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(PhaseCsv, DumpsCsv) {
  // An empty trace still gets the header, so the file always parses.
  std::ostringstream empty;
  obs::write_phase_csv(empty, {});
  EXPECT_EQ(empty.str(), "phase,thread,begin_s,end_s,duration_s\n");

  obs::TraceEvent e;
  e.name = "alpha";
  e.cat = "sched";
  e.ts_us = 0.0;
  e.dur_us = 1500000.0;
  std::ostringstream os;
  obs::write_phase_csv(os, {e});
  // Times are seconds at ns resolution; end_s is begin_s + duration_s.
  EXPECT_EQ(os.str(),
            "phase,thread,begin_s,end_s,duration_s\n"
            "alpha,0,0.000000000,1.500000000,1.500000000\n");
}

TEST(PhaseCsv, QuotesSpecialCharacters) {
  std::vector<obs::TraceEvent> events;
  for (const char* name : {"plain", "step 3, flush", "say \"go\"", "two\nlines"}) {
    obs::TraceEvent e;
    e.name = name;
    e.cat = "sched";
    e.ts_us = 500000.0;
    e.dur_us = 1500000.0;
    events.push_back(e);
  }
  std::ostringstream os;
  obs::write_phase_csv(os, events);
  const std::string csv = os.str();

  // Simple names stay bare; the others are quoted with quotes doubled.
  EXPECT_NE(csv.find("\nplain,0,0.500000000,2.000000000,1.500000000\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("\"step 3, flush\","), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"go\"\"\","), std::string::npos);
  EXPECT_NE(csv.find("\"two\nlines\","), std::string::npos);

  // Every row parses back into five fields with the original name.
  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0], kPhaseCsvHeader);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), 5u) << "row " << i;
    EXPECT_EQ(rows[i][0], events[i - 1].name);
  }
}

// --- zero-code-change env hooks -------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(EnvHooks, ArmedHooksWriteCompleteFilesAtExit) {
  // The hooks read SMART_TRACE / SMART_CRITPATH / SMART_METRICS during
  // static initialization, so the run happens in a child: a "threadsafe"
  // death test re-executes this binary, and the child inherits the
  // environment set here.  It leaves through exit(0), which runs the
  // at-exit dump.
  const std::string base = "/tmp/smart_test_env_hooks_" + std::to_string(::getpid());
  const std::string trace_path = base + "_trace.json";
  const std::string critpath_path = base + "_critpath.txt";
  const std::string metrics_path = base + "_metrics.json";
  ::setenv("SMART_TRACE", trace_path.c_str(), 1);
  ::setenv("SMART_CRITPATH", critpath_path.c_str(), 1);
  ::setenv("SMART_METRICS", metrics_path.c_str(), 1);
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        simmpi::launch(2, [](simmpi::Communicator& comm) {
          std::vector<double> data(4096, 0.25 * comm.rank());
          analytics::Histogram<double> hist(SchedArgs(2, 1), 0.0, 1.0, 16);
          hist.run(data.data(), data.size(), nullptr, 0);
        });
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  ::testing::GTEST_FLAG(death_test_style) = style;
  ::unsetenv("SMART_TRACE");
  ::unsetenv("SMART_CRITPATH");
  ::unsetenv("SMART_METRICS");

  const std::string metrics = slurp(metrics_path);
  EXPECT_TRUE(MiniJson(metrics).valid()) << metrics;
  EXPECT_NE(metrics.find("\"smart.runs\""), std::string::npos) << metrics;
  obs::ChromeTrace trace;
  std::string error;
  EXPECT_TRUE(obs::read_chrome_trace_file(trace_path, trace, &error)) << error;
  EXPECT_FALSE(trace.events.empty());
  EXPECT_NE(slurp(critpath_path).find("critical-path report"), std::string::npos);
  for (const auto& path : {trace_path, critpath_path, metrics_path}) std::remove(path.c_str());
}

}  // namespace
