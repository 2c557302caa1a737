// Knobs read from the environment, and the integer and double parses they
// share with ArgParser.
//
// The paper runs TB-scale workloads on hundreds of cores; the harnesses
// default to MB-scale problems that finish in seconds and multiply every
// size by SMART_BENCH_SCALE when a larger machine is available.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace smart {

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

/// `text` as a whole finite number in [min, max]; anything else (trailing
/// text, inf, nan, a value outside the range of double) throws
/// std::invalid_argument prefixed with `label`.  Shared by env_double and
/// ArgParser::get_double.
inline double parse_double(const std::string& text, const std::string& label, double min,
                           double max) {
  const auto reject = [&](const std::string& why) {
    return std::invalid_argument(label + ": " + why);
  };
  const char* v = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0') throw reject("'" + text + "' is not a number");
  if (errno == ERANGE || !std::isfinite(parsed) || parsed < min || parsed > max) {
    std::ostringstream bounds;
    bounds << "[" << min << ", " << max << "]";
    throw reject(text + " is outside " + bounds.str());
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

/// Double read: unset or empty gives `fallback`; anything but a finite
/// number in [min, max] throws std::invalid_argument naming the variable.
inline double env_double(const char* name, double fallback, double min, double max) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_double(v, name, min, max);
}

/// Global workload multiplier for all bench harnesses (default 1.0).  The
/// bounds keep every scaled size a positive, finite double that converts
/// to std::size_t without overflow.
inline double bench_scale() { return env_double("SMART_BENCH_SCALE", 1.0, 1e-6, 1e6); }

}  // namespace smart
