#include "common/arg_parser.h"

#include <sstream>
#include <stdexcept>

#include "common/env.h"

namespace smart {

ArgParser& ArgParser::option(const std::string& name, const std::string& help,
                             const std::string& default_value) {
  specs_[name] = Spec{help, default_value, false};
  order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{help, "", true};
  order_.push_back(name);
  return *this;
}

void ArgParser::parse(int argc, const char* const argv[]) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument '" + arg + "'\n" +
                                  usage(argv[0]));
    }
    arg = arg.substr(2);
    // --key=value form.
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      throw std::invalid_argument("unknown option '--" + arg + "'\n" + usage(argv[0]));
    }
    if (it->second.is_flag) {
      if (has_inline) {
        throw std::invalid_argument("flag '--" + arg + "' takes no value");
      }
      flags_set_.insert(arg);
      continue;
    }
    if (has_inline) {
      values_[arg] = inline_value;
    } else {
      if (i + 1 >= argc) {
        throw std::invalid_argument("option '--" + arg + "' needs a value\n" + usage(argv[0]));
      }
      values_[arg] = argv[++i];
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return values_.count(name) != 0 || flags_set_.count(name) != 0;
}

std::string ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  const auto spec = specs_.find(name);
  if (spec == specs_.end()) throw std::logic_error("undeclared option '" + name + "'");
  return spec->second.default_value;
}

long ArgParser::get_long(const std::string& name, long min, long max) const {
  return parse_long(get(name), "option '--" + name + "'", min, max);
}

double ArgParser::get_double(const std::string& name, double min, double max) const {
  return parse_double(get(name), "option '--" + name + "'", min, max);
}

bool ArgParser::get_flag(const std::string& name) const { return flags_set_.count(name) != 0; }

std::string ArgParser::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    os << "  --" << name;
    if (!spec.is_flag) {
      os << " <value>";
      if (!spec.default_value.empty()) os << " (default: " << spec.default_value << ")";
    }
    os << "\n      " << spec.help << "\n";
  }
  return os.str();
}

}  // namespace smart
