// Knobs read from the environment, and the integer parse they share with
// ArgParser.
//
// The paper runs TB-scale workloads on hundreds of cores; the harnesses
// default to MB-scale problems that finish in seconds and multiply every
// size by SMART_BENCH_SCALE when a larger machine is available.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace smart {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return end != v ? parsed : fallback;
}

inline std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::string(v);
}

/// `text` as a whole base-10 integer in [min, max]; anything else throws
/// std::invalid_argument prefixed with `label` (the option or variable).
/// Shared by env_long and ArgParser::get_long.
inline long parse_long(const std::string& text, const std::string& label, long min, long max) {
  const auto reject = [&](const std::string& why) {
    return std::invalid_argument(label + ": " + why);
  };
  const char* v = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') throw reject("'" + text + "' is not an integer");
  if (errno == ERANGE || parsed < min || parsed > max) {
    throw reject(text + " is outside [" + std::to_string(min) + ", " + std::to_string(max) +
                 "]");
  }
  return parsed;
}

/// Integer read: unset or empty gives `fallback`; anything but a whole
/// integer in [min, max] throws std::invalid_argument naming the variable.
inline long env_long(const char* name, long fallback, long min, long max) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_long(v, name, min, max);
}

/// Global workload multiplier for all bench harnesses (default 1.0).
inline double bench_scale() { return env_double("SMART_BENCH_SCALE", 1.0); }

}  // namespace smart
