// Small command-line argument parser for the example drivers: --key value
// and --flag forms, typed getters with defaults, and a usage dump.  No
// external dependencies, strict about unknown keys.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace smart {

class ArgParser {
 public:
  /// Declares an option before parse(); `help` feeds usage().
  ArgParser& option(const std::string& name, const std::string& help,
                    const std::string& default_value = "");
  /// Declares a boolean flag (present/absent).
  ArgParser& flag(const std::string& name, const std::string& help);

  /// Parses argv; throws std::invalid_argument on unknown or malformed
  /// arguments (message includes usage()).
  void parse(int argc, const char* const argv[]);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  /// The option's integer value; throws std::invalid_argument naming the
  /// option when the value is not an integer or lies outside [min, max].
  long get_long(const std::string& name, long min, long max) const;
  /// The option's value as a finite double; throws std::invalid_argument
  /// naming the option when it is not a number or lies outside [min, max].
  double get_double(const std::string& name, double min, double max) const;
  bool get_flag(const std::string& name) const;

  std::string usage(const std::string& program) const;

 private:
  struct Spec {
    std::string help;
    std::string default_value;
    bool is_flag = false;
  };

  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_set_;
};

}  // namespace smart
