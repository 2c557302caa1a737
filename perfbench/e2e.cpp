// perfbench_e2e: runs one end-to-end workload and writes its raw
// measurements (and, with --trace 1, its spans) as JSON.
//
//   perfbench_e2e --workload lulesh_median_space --seed 1 --seconds 10 --trace 0
//                 --out raw.json [--spans spans.json]
//
// perfbench/run.py builds this binary, runs it and turns the raw samples
// into the reported metrics.
#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/memory_tracker.h"

namespace {

using perfbench::Config;
using perfbench::Result;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += json_number(static_cast<double>(values[i]));
  }
  return out + "]";
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string provenance() {
  std::ostringstream os;
  os << "{\"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
     << ", \"ndebug\": true"
#else
     << ", \"ndebug\": false"
#endif
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(cpu_model())
     << ", \"l1d_bytes\": " << sysconf(_SC_LEVEL1_DCACHE_SIZE)
     << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE) << "}";
  return os.str();
}

void write_raw(const std::string& path, const Config& cfg, const Result& r) {
  std::ostringstream os;
  os << "{\n\"workload\": " << json_string(cfg.workload) << ",\n\"seed\": " << cfg.seed
     << ",\n\"seconds\": " << json_number(cfg.seconds) << ",\n\"trace\": " << (cfg.trace ? 1 : 0)
     << ",\n\"provenance\": " << provenance() << ",\n\"input\": " << json_string(r.input)
     << ",\n\"ranks\": " << r.ranks << ",\n\"threads_per_rank\": " << r.threads_per_rank
     << ",\n\"warmup_steps\": " << r.warmup_steps << ",\n\"steps\": " << r.steps
     << ",\n\"bytes_per_step\": " << r.bytes_per_step
     << ",\n\"per_rank_working_set\": " << r.per_rank_working_set
     << ",\n\"setup_s\": " << json_array(r.setup_s) << ",\n\"step_s\": " << json_array(r.step_s)
     << ",\n\"traced\": " << json_array(r.traced)
     << ",\n\"interval_s\": " << json_array(r.interval_s)
     << ",\n\"vmakespan_s\": " << json_number(r.vmakespan_s)
     << ",\n\"peak_rss_bytes\": " << smart::process_peak_rss_bytes()
     << ",\n\"smart_call_s\": " << json_array(r.smart_call_s)
     << ",\n\"baseline_call_s\": " << json_array(r.baseline_call_s) << ",\n\"samples\": {";
  const char* sep = "";
  for (const auto& [name, values] : r.samples) {
    os << sep << "\n  " << json_string(name) << ": " << json_array(values);
    sep = ",";
  }
  os << "},\n\"counters\": {";
  sep = "";
  for (const auto& [name, value] : r.counters) {
    os << sep << "\n  " << json_string(name) << ": " << json_number(value);
    sep = ",";
  }
  os << "},\n\"checks\": {\"attempted\": " << r.checks.attempted
     << ", \"failed\": " << r.checks.failed
     << ", \"first_failure\": " << json_string(r.checks.first_failure) << "}\n}\n";
  std::ofstream f(path);
  f << os.str();
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// Spans as {"lanes": [{"rank", "role", "spans": [[name, start_s, end_s,
/// parent, step], ...]}]}; parent indexes the same lane's span list.
void write_spans(const std::string& path, const Result& r) {
  std::ofstream f(path);
  f << "{\"lanes\": [";
  for (std::size_t l = 0; l < r.lanes.size(); ++l) {
    const auto& lane = r.lanes[l];
    f << (l == 0 ? "" : ",") << "\n{\"rank\": " << lane.rank
      << ", \"role\": " << json_string(lane.role) << ", \"spans\": [";
    for (std::size_t i = 0; i < lane.spans.size(); ++i) {
      const auto& s = lane.spans[i];
      f << (i == 0 ? "" : ",") << "\n [" << json_string(s.name) << "," << json_number(s.start)
        << "," << json_number(s.end) << "," << s.parent << "," << s.step << "]";
    }
    f << "]}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::cerr << "usage: perfbench_e2e --workload kmeans_d64|lulesh_median_space"
               " --seed N --seconds S --trace 0|1 --out raw.json [--spans spans.json]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string out_path;
  std::string spans_path;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") cfg.workload = value;
      else if (key == "--seed") cfg.seed = std::stoull(value);
      else if (key == "--seconds") cfg.seconds = std::stod(value);
      else if (key == "--trace") cfg.trace = std::stoi(value) != 0;
      else if (key == "--out") out_path = value;
      else if (key == "--spans") spans_path = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || out_path.empty() || !(cfg.seconds > 0.0)) return usage();
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench_e2e: refusing to run a '" << PERFBENCH_BUILD_TYPE
              << "' build (need Release)\n";
    return 1;
  }

  try {
    perfbench::now();  // start the epoch before any set-up
    Result r;
    if (cfg.workload == "kmeans_d64") r = perfbench::run_kmeans_d64(cfg);
    else if (cfg.workload == "lulesh_median_space") r = perfbench::run_lulesh_median_space(cfg);
    else return usage();
    write_raw(out_path, cfg, r);
    if (cfg.trace && !spans_path.empty()) write_spans(spans_path, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
