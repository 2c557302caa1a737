#include "simmpi/network.h"

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/env.h"

namespace smart::simmpi {

void NetworkConfig::validate() const {
  // A zero bandwidth prices every message at infinity, and a negative
  // latency lands a message before it leaves.
  const auto check = [](const char* field, double v, bool zero_ok) {
    if (std::isfinite(v) && (zero_ok ? v >= 0.0 : v > 0.0)) return;
    char text[32];
    std::snprintf(text, sizeof(text), "%g", v);
    throw std::invalid_argument(std::string("simmpi: network config ") + field + " = " + text +
                                " (must be finite and " + (zero_ok ? ">= 0)" : "> 0)"));
  };
  check("alpha_seconds", alpha_seconds, true);
  check("beta_bytes_per_second", beta_bytes_per_second, false);
}

NetworkConfig NetworkConfig::from_env() {
  // A SMART_NET_* variable nothing reads is a typo or a setting of a model
  // that no longer exists; running the flat model anyway would mislabel the
  // run, so it is an error like a malformed value.
  static constexpr std::string_view kNetVars[] = {"SMART_NET_ALPHA", "SMART_NET_BETA",
                                                  "SMART_NET_LANE_CAP",
                                                  "SMART_NET_LANE_CAP_BYTES"};
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    const std::string_view name = var.substr(0, var.find('='));
    // An empty value means unset, as for every variable read below.
    if (!name.starts_with("SMART_NET_") || var.size() <= name.size() + 1) continue;
    if (std::find(std::begin(kNetVars), std::end(kNetVars), name) == std::end(kNetVars)) {
      throw std::invalid_argument(std::string(name) +
                                  ": unknown network setting (known: SMART_NET_ALPHA, "
                                  "SMART_NET_BETA, SMART_NET_LANE_CAP, SMART_NET_LANE_CAP_BYTES)");
    }
  }
  // Every value is range-checked as it is read, so the error names the
  // variable and nothing wraps in a cast; validate() rejects a zero beta.
  const auto env_unsigned = [](const char* name, std::size_t fallback) {
    return static_cast<std::size_t>(env_long(name, static_cast<long>(fallback), 0, LONG_MAX));
  };
  const auto env_real = [](const char* name, double fallback) {
    return env_double(name, fallback, 0.0, std::numeric_limits<double>::max());
  };
  NetworkConfig cfg;
  cfg.alpha_seconds = env_real("SMART_NET_ALPHA", cfg.alpha_seconds);
  cfg.beta_bytes_per_second = env_real("SMART_NET_BETA", cfg.beta_bytes_per_second);
  cfg.lane_capacity_msgs = env_unsigned("SMART_NET_LANE_CAP", cfg.lane_capacity_msgs);
  cfg.lane_capacity_bytes = env_unsigned("SMART_NET_LANE_CAP_BYTES", cfg.lane_capacity_bytes);
  cfg.sched_policy = env_string("SMART_SCHED_POLICY", cfg.sched_policy);
  cfg.sched_seed = env_unsigned("SMART_SCHED_SEED", cfg.sched_seed);
  cfg.sched_trace = env_string("SMART_SCHED_TRACE", cfg.sched_trace);
  return cfg;
}

}  // namespace smart::simmpi
