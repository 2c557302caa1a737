#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <set>

#include "obs/json.h"

namespace smart::obs {

namespace {

// %.3f without locale surprises: trace timestamps are µs, so ms precision
// inside the fraction is plenty and keeps files compact.
void write_fixed(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  os << buf;
}

void write_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{";
  for (std::uint8_t i = 0; i < e.num_args; ++i) {
    if (i > 0) os << ',';
    write_json_string(os, e.arg_key[i]);
    os << ':' << e.arg_val[i];
  }
  os << '}';
}

void write_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"name\":";
  write_json_string(os, e.name);
  os << ",\"cat\":";
  write_json_string(os, e.cat.empty() ? std::string_view("smart") : std::string_view(e.cat));
  os << ",\"pid\":" << e.rank << ",\"tid\":" << e.tid << ",\"ts\":";
  write_fixed(os, e.ts_us);
  switch (e.type) {
    case TraceEvent::Type::kComplete:
      os << ",\"ph\":\"X\",\"dur\":";
      write_fixed(os, e.dur_us);
      break;
    case TraceEvent::Type::kInstant:
      os << ",\"ph\":\"i\",\"s\":\"t\"";
      break;
    case TraceEvent::Type::kFlowStart:
      os << ",\"ph\":\"s\",\"id\":" << e.flow_id;
      break;
    case TraceEvent::Type::kFlowEnd:
      // bp=e binds the arrow to the enclosing slice (the recv span).
      os << ",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << e.flow_id;
      break;
  }
  if (e.num_args > 0) {
    os << ',';
    write_args(os, e);
  }
  os << '}';
}

void write_csv_field(std::ostream& os, std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    os << field;
    return;
  }
  os << '"';
  for (const char c : field) {
    if (c == '"') os << '"';  // RFC 4180: embedded quotes double up
    os << c;
  }
  os << '"';
}

// Microseconds in, seconds out at ns resolution, so sub-µs spans keep a
// nonzero duration.
void write_seconds(std::ostream& os, double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", us * 1e-6);
  os << buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events,
                        std::size_t dropped_events) {
  os << "{\"traceEvents\":[";
  bool first = true;

  if (dropped_events > 0) {
    os << "\n{\"name\":\"smart_dropped_events\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{"
          "\"dropped\":"
       << dropped_events << "}}";
    first = false;
  }

  // One process_name metadata record per rank so Perfetto labels the lanes.
  std::set<std::int32_t> ranks;
  for (const TraceEvent& e : events) ranks.insert(e.rank);
  for (const std::int32_t rank : ranks) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << rank
       << ",\"tid\":0,\"args\":{\"name\":\"";
    if (rank == kUnattributedRank) {
      os << "unattributed";
    } else {
      os << "rank " << rank;
    }
    os << "\"}}";
  }

  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    os << '\n';
    write_event(os, e);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool write_chrome_trace_file(const std::string& path, const std::vector<TraceEvent>& events,
                             std::size_t dropped_events) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, events, dropped_events);
  return os.good();
}

void write_phase_csv(std::ostream& os, const std::vector<TraceEvent>& events) {
  os << "phase,thread,begin_s,end_s,duration_s\n";
  for (const TraceEvent& e : events) {
    if (e.type != TraceEvent::Type::kComplete || e.cat != "sched") continue;
    write_csv_field(os, e.name);
    os << ',' << e.tid << ',';
    write_seconds(os, e.ts_us);
    os << ',';
    write_seconds(os, e.ts_us + e.dur_us);
    os << ',';
    write_seconds(os, e.dur_us);
    os << '\n';
  }
}

void serialize_events(Writer& w, const std::vector<TraceEvent>& events) {
  w.write<std::uint64_t>(events.size());
  for (const TraceEvent& e : events) {
    w.write<std::uint8_t>(static_cast<std::uint8_t>(e.type));
    w.write<std::int32_t>(e.rank);
    w.write<std::uint32_t>(e.tid);
    w.write<double>(e.ts_us);
    w.write<double>(e.dur_us);
    w.write<std::uint64_t>(e.flow_id);
    w.write_string(e.name);
    w.write_string(e.cat);
    w.write<std::uint8_t>(e.num_args);
    for (std::uint8_t i = 0; i < e.num_args; ++i) {
      w.write_string(e.arg_key[i]);
      w.write<std::int64_t>(e.arg_val[i]);
    }
  }
}

namespace {

// Hand-rolled recursive-descent JSON reader, scoped to what the Chrome
// trace shape needs: objects, arrays, strings with escapes, numbers,
// true/false/null.  Unknown structure is skipped, not rejected, so traces
// post-processed by other tools still load.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : p_(s.data()), end_(s.data() + s.size()) {}

  bool failed() const { return failed_; }
  const char* fail_reason() const { return reason_; }

  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }

  bool peek(char c) {
    skip_ws();
    return p_ < end_ && *p_ == c;
  }

  bool consume(char c) {
    skip_ws();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return fail("expected punctuation");
  }

  bool parse_string(std::string& out) {
    out.clear();
    skip_ws();
    if (p_ >= end_ || *p_ != '"') return fail("expected string");
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ >= end_) return fail("truncated escape");
        const char esc = *p_++;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (end_ - p_ < 4) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p_++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // The writer only escapes control characters, so a one-byte
            // mapping covers round-trips; other code points degrade to '?'.
            c = code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: return fail("unknown escape");
        }
      }
      out += c;
    }
    if (p_ >= end_) return fail("unterminated string");
    ++p_;  // closing quote
    return true;
  }

  bool parse_number(double& out) {
    skip_ws();
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    if (p_ == start) return fail("expected number");
    out = std::strtod(std::string(start, p_).c_str(), nullptr);
    return true;
  }

  bool skip_value() {
    skip_ws();
    if (p_ >= end_) return fail("truncated value");
    switch (*p_) {
      case '{': {
        ++p_;
        if (peek('}')) return consume('}');
        while (true) {
          std::string key;
          if (!parse_string(key) || !consume(':') || !skip_value()) return false;
          if (peek(',')) {
            consume(',');
            continue;
          }
          return consume('}');
        }
      }
      case '[': {
        ++p_;
        if (peek(']')) return consume(']');
        while (true) {
          if (!skip_value()) return false;
          if (peek(',')) {
            consume(',');
            continue;
          }
          return consume(']');
        }
      }
      case '"': {
        std::string s;
        return parse_string(s);
      }
      case 't':
      case 'f':
      case 'n': {
        while (p_ < end_ && *p_ >= 'a' && *p_ <= 'z') ++p_;
        return true;
      }
      default: {
        double d = 0.0;
        return parse_number(d);
      }
    }
  }

  bool at_end() {
    skip_ws();
    return p_ >= end_;
  }

  bool fail(const char* why) {
    if (!failed_) {
      failed_ = true;
      reason_ = why;
    }
    return false;
  }

 private:
  const char* p_;
  const char* end_;
  bool failed_ = false;
  const char* reason_ = "ok";
};

/// One event object from the traceEvents array.  Returns false on a parse
/// failure; events with foreign phases set `keep` false.
bool parse_trace_event(JsonCursor& cur, TraceEvent& e, bool& keep, std::size_t& dropped) {
  if (!cur.consume('{')) return false;
  keep = true;
  std::string ph;
  std::string name;
  bool is_meta_dropped = false;
  if (cur.peek('}')) {
    keep = false;
    return cur.consume('}');
  }
  while (true) {
    std::string key;
    if (!cur.parse_string(key) || !cur.consume(':')) return false;
    if (key == "name") {
      if (!cur.parse_string(name)) return false;
      e.name = name;
    } else if (key == "cat") {
      std::string cat;
      if (!cur.parse_string(cat)) return false;
      e.cat = cat;
    } else if (key == "ph") {
      if (!cur.parse_string(ph)) return false;
    } else if (key == "pid" || key == "tid" || key == "ts" || key == "dur" || key == "id") {
      double v = 0.0;
      if (!cur.parse_number(v)) return false;
      if (key == "pid") e.rank = static_cast<std::int32_t>(v);
      else if (key == "tid") e.tid = static_cast<std::uint32_t>(v);
      else if (key == "ts") e.ts_us = v;
      else if (key == "dur") e.dur_us = v;
      else e.flow_id = static_cast<std::uint64_t>(v);
    } else if (key == "args") {
      if (!cur.consume('{')) return false;
      if (!cur.peek('}')) {
        while (true) {
          std::string akey;
          if (!cur.parse_string(akey) || !cur.consume(':')) return false;
          if (cur.peek('"') || cur.peek('{') || cur.peek('[') || cur.peek('t') ||
              cur.peek('f') || cur.peek('n')) {
            if (!cur.skip_value()) return false;  // non-integer arg: tolerated, dropped
          } else {
            double v = 0.0;
            if (!cur.parse_number(v)) return false;
            if (akey == "dropped") is_meta_dropped = true, dropped = static_cast<std::size_t>(v);
            if (e.num_args < kMaxTraceArgs) {
              e.arg_key[e.num_args] = akey;
              e.arg_val[e.num_args] = static_cast<std::int64_t>(v);
              ++e.num_args;
            }
          }
          if (cur.peek(',')) {
            cur.consume(',');
            continue;
          }
          break;
        }
      }
      if (!cur.consume('}')) return false;
    } else {
      if (!cur.skip_value()) return false;
    }
    if (cur.peek(',')) {
      cur.consume(',');
      continue;
    }
    break;
  }
  if (!cur.consume('}')) return false;

  if (ph == "X") {
    e.type = TraceEvent::Type::kComplete;
  } else if (ph == "i" || ph == "I") {
    e.type = TraceEvent::Type::kInstant;
  } else if (ph == "s") {
    e.type = TraceEvent::Type::kFlowStart;
  } else if (ph == "f") {
    e.type = TraceEvent::Type::kFlowEnd;
  } else {
    keep = false;  // metadata and foreign phases
    if (!is_meta_dropped || e.name != "smart_dropped_events") dropped = 0;
  }
  return true;
}

}  // namespace

bool read_chrome_trace(std::string_view json, ChromeTrace& out, std::string* error) {
  out = ChromeTrace{};
  JsonCursor cur(json);
  const auto set_error = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };

  // Accept either the object wrapper or a bare event array.
  bool found_array = false;
  if (cur.peek('{')) {
    cur.consume('{');
    if (cur.peek('}')) {
      cur.consume('}');
      return true;  // empty document
    }
    while (true) {
      std::string key;
      if (!cur.parse_string(key) || !cur.consume(':')) return set_error(cur.fail_reason());
      if (key == "traceEvents") {
        found_array = true;
        break;
      }
      if (!cur.skip_value()) return set_error(cur.fail_reason());
      if (cur.peek(',')) {
        cur.consume(',');
        continue;
      }
      return set_error("no traceEvents array");
    }
  }
  if (!cur.consume('[')) return set_error("expected traceEvents array");
  if (!cur.peek(']')) {
    while (true) {
      TraceEvent e;
      bool keep = false;
      std::size_t meta_dropped = 0;
      if (!parse_trace_event(cur, e, keep, meta_dropped)) return set_error(cur.fail_reason());
      if (e.name == "smart_dropped_events" && meta_dropped > 0) {
        out.dropped_events = meta_dropped;
      } else if (keep) {
        out.events.push_back(std::move(e));
      }
      if (cur.peek(',')) {
        cur.consume(',');
        continue;
      }
      break;
    }
  }
  if (!cur.consume(']')) return set_error(cur.fail_reason());
  (void)found_array;
  return true;
}

bool read_chrome_trace_file(const std::string& path, ChromeTrace& out, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string contents((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  return read_chrome_trace(contents, out, error);
}

std::vector<TraceEvent> deserialize_events(Reader& r) {
  const auto n = r.read<std::uint64_t>();
  std::vector<TraceEvent> events;
  events.reserve(std::min<std::uint64_t>(n, 1u << 20));
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceEvent e;
    e.type = static_cast<TraceEvent::Type>(r.read<std::uint8_t>());
    e.rank = r.read<std::int32_t>();
    e.tid = r.read<std::uint32_t>();
    e.ts_us = r.read<double>();
    e.dur_us = r.read<double>();
    e.flow_id = r.read<std::uint64_t>();
    e.name = r.read_string();
    e.cat = r.read_string();
    e.num_args = std::min<std::uint8_t>(r.read<std::uint8_t>(), kMaxTraceArgs);
    for (std::uint8_t a = 0; a < e.num_args; ++a) {
      e.arg_key[a] = r.read_string();
      e.arg_val[a] = r.read<std::int64_t>();
    }
    events.push_back(std::move(e));
  }
  return events;
}

}  // namespace smart::obs
