#include "obs/critpath.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <utility>

namespace smart::obs {

namespace {

constexpr double kNsToUs = 1e-3;

/// Absolute slop for virtual-time comparisons: vt stamps are int64
/// nanoseconds, so two stamps of the same instant differ by < 1ns = 1e-3µs.
constexpr double kEpsUs = 2e-3;

const std::int64_t* find_arg(const TraceEvent& e, const char* key) {
  for (std::uint8_t i = 0; i < e.num_args; ++i) {
    if (e.arg_key[i] == key) return &e.arg_val[i];
  }
  return nullptr;
}

/// One point where a rank's virtual clock is known from the trace.
struct Checkpoint {
  enum class Kind : std::uint8_t { kBegin, kSend, kRecv, kFaultDelay, kEnd };
  Kind kind = Kind::kBegin;
  double wall_begin_us = 0.0;  ///< span begin (instants: == wall_us)
  double wall_us = 0.0;        ///< span end / instant timestamp
  double vt_pre = 0.0;         ///< clock before the event's own charges
  double vt_post = 0.0;        ///< clock after the event completed
  double stall_us = 0.0;       ///< send: backpressure charge (vt_post = dep + stall)
  double delay_us = 0.0;       ///< fault.delay: injected charge
  double dep_vt_us = 0.0;      ///< send: departure stamp
  std::uint64_t flow_id = 0;   ///< recv: flow edge consumed (0 = none seen)
  bool constrained = false;    ///< recv: clock jumped to arrival_vtime
};

/// Wall-time span feeding local-time sub-attribution (higher pri wins).
struct WallCat {
  double b = 0.0, e = 0.0;
  CritCategory cat = CritCategory::kCompute;
  int pri = 0;
};

struct WallPhase {
  double b = 0.0, e = 0.0;
  std::string name;
};

struct WallRound {
  double b = 0.0, e = 0.0;
  std::int64_t round = -1;
};

struct RankInfo {
  std::vector<Checkpoint> ckpts;  ///< wall-ordered clock checkpoints
  std::size_t session_start = 0;  ///< index of the last rank.begin (multi-launch traces)
  double session_wall_begin = 0.0;
  std::vector<WallCat> cats;
  std::vector<WallPhase> phases;
  std::vector<WallRound> rounds;
};

/// Span index for flow matching: which send/recv span (by checkpoint
/// index) contains a given wall timestamp on a given (rank, tid) lane.
struct SpanRef {
  double b = 0.0, e = 0.0;
  std::size_t ckpt = 0;
};

bool is_phase_name(const std::string& name) {
  static const char* kPhases[] = {"feed_copy",      "copy_input", "reduction",
                                  "local_combine",  "global_combine", "checkpoint"};
  for (const char* p : kPhases) {
    if (name == p) return true;
  }
  return false;
}

double overlap(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

/// Phase span with the largest wall overlap with [wa, wb] ("" if none).
std::string phase_of(const RankInfo& info, double wa, double wb) {
  const std::string* best = nullptr;
  double best_ov = 0.0;
  for (const WallPhase& p : info.phases) {
    // Point queries (instants) resolve by containment.
    const double ov = wa == wb ? (p.b <= wa && wa <= p.e ? 1.0 : 0.0) : overlap(wa, wb, p.b, p.e);
    if (ov > best_ov) {
      best_ov = ov;
      best = &p.name;
    }
  }
  return best != nullptr ? *best : std::string();
}

std::int64_t round_of(const RankInfo& info, double wa, double wb) {
  std::int64_t best = -1;
  double best_ov = 0.0;
  for (const WallRound& r : info.rounds) {
    const double ov = wa == wb ? (r.b <= wa && wa <= r.e ? 1.0 : 0.0) : overlap(wa, wb, r.b, r.e);
    if (ov > best_ov) {
      best_ov = ov;
      best = r.round;
    }
  }
  return best;
}

/// Builder that accumulates segments in reverse path order (the walk runs
/// backward from the makespan) and merges adjacent same-bucket segments.
struct SegmentSink {
  std::vector<CritSegment> rev;

  void push(int rank, int peer, double vt_a, double vt_b, CritCategory cat,
            std::string phase, std::int64_t round) {
    if (vt_b - vt_a <= 0.0) return;
    if (!rev.empty()) {
      CritSegment& last = rev.back();
      if (last.rank == rank && last.peer == peer && last.category == cat &&
          last.phase == phase && last.round == round && std::abs(last.vt_begin_us - vt_b) < kEpsUs) {
        last.vt_begin_us = vt_a;
        return;
      }
    }
    CritSegment s;
    s.rank = rank;
    s.peer = peer;
    s.vt_begin_us = vt_a;
    s.vt_end_us = vt_b;
    s.category = cat;
    s.phase = std::move(phase);
    s.round = round;
    rev.push_back(std::move(s));
  }

  std::vector<CritSegment> finish() {
    std::reverse(rev.begin(), rev.end());
    // Force exact tiling: rounding in sub-attribution must never open a
    // gap between adjacent segments (the sum-equals-path invariant).
    for (std::size_t i = 1; i < rev.size(); ++i) {
      rev[i].vt_begin_us = rev[i - 1].vt_end_us;
    }
    return std::move(rev);
  }
};

/// Attributes a local (single-rank) virtual interval [vt_a, vt_b] that was
/// observed over the wall window [wa, wb]: categorized wall coverage
/// (checkpoint > recovery > serialize) prorates the virtual duration, the
/// remainder is compute.
void emit_local(SegmentSink& sink, const RankInfo& info, int rank, double vt_a, double vt_b,
                double wa, double wb) {
  if (vt_b - vt_a <= 0.0) return;
  std::string phase = phase_of(info, std::min(wa, wb), std::max(wa, wb));
  const std::int64_t round = round_of(info, std::min(wa, wb), std::max(wa, wb));

  std::array<double, kNumCritCategories> wall_by_cat{};
  double covered = 0.0;
  if (wb > wa) {
    // Boundary sweep over the clipped category spans; highest priority
    // wins where spans overlap.
    std::vector<const WallCat*> active;
    std::vector<double> bounds{wa, wb};
    for (const WallCat& c : info.cats) {
      if (c.e <= wa || c.b >= wb) continue;
      active.push_back(&c);
      if (c.b > wa) bounds.push_back(c.b);
      if (c.e < wb) bounds.push_back(c.e);
    }
    if (!active.empty()) {
      std::sort(bounds.begin(), bounds.end());
      bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
      for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double mid = 0.5 * (bounds[i] + bounds[i + 1]);
        const WallCat* winner = nullptr;
        for (const WallCat* c : active) {
          if (c->b <= mid && mid < c->e && (winner == nullptr || c->pri > winner->pri)) {
            winner = c;
          }
        }
        if (winner != nullptr) {
          const double len = bounds[i + 1] - bounds[i];
          wall_by_cat[static_cast<std::size_t>(winner->cat)] += len;
          covered += len;
        }
      }
    }
  }

  const double vt_len = vt_b - vt_a;
  if (covered <= 0.0 || wb <= wa) {
    sink.push(rank, -1, vt_a, vt_b, CritCategory::kCompute, std::move(phase), round);
    return;
  }
  const double scale = vt_len / (wb - wa);
  // The walk emits in reverse (descending vt), so lay the sub-intervals
  // out from vt_b downward: compute first (top), then the categorized
  // shares.  Boundaries inside the window are synthetic; the endpoints are
  // exact.
  double hi = vt_b;
  const double compute_vt = std::max(0.0, vt_len - covered * scale);
  if (compute_vt > 0.0) {
    sink.push(rank, -1, hi - compute_vt, hi, CritCategory::kCompute, phase, round);
    hi -= compute_vt;
  }
  for (std::size_t ci = 0; ci < wall_by_cat.size(); ++ci) {
    if (wall_by_cat[ci] <= 0.0) continue;
    double lo = hi - wall_by_cat[ci] * scale;
    if (ci + 1 == wall_by_cat.size() || lo < vt_a) lo = vt_a;  // absorb rounding
    sink.push(rank, -1, lo, hi, static_cast<CritCategory>(ci), phase, round);
    hi = lo;
  }
  if (hi > vt_a + kEpsUs) {
    sink.push(rank, -1, vt_a, hi, CritCategory::kCompute, phase, round);
  }
}

}  // namespace

const char* to_string(CritCategory c) {
  switch (c) {
    case CritCategory::kCompute: return "compute";
    case CritCategory::kSerialize: return "serialize";
    case CritCategory::kSendStall: return "send_stall";
    case CritCategory::kNetwork: return "network";
    case CritCategory::kRecvWait: return "recv_wait";
    case CritCategory::kCheckpoint: return "checkpoint";
    case CritCategory::kRecovery: return "recovery";
    case CritCategory::kFaultDelay: return "fault_delay";
  }
  return "unknown";
}

double CritPathResult::path_length_us() const {
  double total = 0.0;
  for (const CritSegment& s : segments) total += s.duration_us();
  return total;
}

CritPathResult extract_critical_path(const std::vector<TraceEvent>& events,
                                     std::size_t dropped_events) {
  CritPathResult result;
  result.dropped_events = dropped_events;
  if (dropped_events > 0) {
    result.warnings.push_back(
        std::to_string(dropped_events) +
        " trace event(s) were dropped by full ring buffers; the reconstruction may be degraded "
        "(raise SMART_TRACE_EVENTS)");
  }

  // Wall-order the trace (snapshots already are; re-read files may not be).
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const TraceEvent& e : events) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) { return a->ts_us < b->ts_us; });

  std::map<int, RankInfo> ranks;
  // Per (rank, tid): wall-ordered send/recv span windows for flow matching.
  std::map<std::pair<int, std::uint32_t>, std::vector<SpanRef>> send_spans;
  std::map<std::pair<int, std::uint32_t>, std::vector<SpanRef>> recv_spans;
  std::vector<const TraceEvent*> flow_starts;
  std::vector<const TraceEvent*> flow_ends;

  for (const TraceEvent* ep : ordered) {
    const TraceEvent& e = *ep;
    RankInfo& info = ranks[e.rank];
    switch (e.type) {
      case TraceEvent::Type::kFlowStart:
        flow_starts.push_back(ep);
        continue;
      case TraceEvent::Type::kFlowEnd:
        flow_ends.push_back(ep);
        continue;
      case TraceEvent::Type::kInstant: {
        if (e.name == "rank.begin") {
          if (const std::int64_t* vt = find_arg(e, "vt_ns")) {
            Checkpoint c;
            c.kind = Checkpoint::Kind::kBegin;
            c.wall_begin_us = c.wall_us = e.ts_us;
            c.vt_pre = c.vt_post = static_cast<double>(*vt) * kNsToUs;
            info.ckpts.push_back(c);
          }
        } else if (e.name == "rank.end") {
          if (const std::int64_t* vt = find_arg(e, "vt_ns")) {
            Checkpoint c;
            c.kind = Checkpoint::Kind::kEnd;
            c.wall_begin_us = c.wall_us = e.ts_us;
            c.vt_pre = c.vt_post = static_cast<double>(*vt) * kNsToUs;
            info.ckpts.push_back(c);
          }
        } else if (e.name == "fault.delay") {
          const std::int64_t* vt = find_arg(e, "vt_ns");
          const std::int64_t* delay = find_arg(e, "delay_ns");
          if (vt != nullptr && delay != nullptr) {
            Checkpoint c;
            c.kind = Checkpoint::Kind::kFaultDelay;
            c.wall_begin_us = c.wall_us = e.ts_us;
            c.vt_post = static_cast<double>(*vt) * kNsToUs;
            c.delay_us = static_cast<double>(*delay) * kNsToUs;
            c.vt_pre = c.vt_post - c.delay_us;
            info.ckpts.push_back(c);
            // A send-side delay fires inside its send span, so wall order
            // files it after the send's checkpoint, yet it charges the clock
            // before departure (dep_vt includes it).  File it just before
            // the send: a walk that jumps to the send over the message's
            // flow edge then carves it out as fault delay instead of billing
            // it as compute, and a walk down this rank meets the departure
            // stamp before the delay that produced it.
            const auto lane = send_spans.find({e.rank, e.tid});
            if (lane != send_spans.end() && !lane->second.empty()) {
              SpanRef& send = lane->second.back();
              if (send.ckpt + 2 == info.ckpts.size() && e.ts_us >= send.b &&
                  e.ts_us <= send.e + kEpsUs) {
                std::swap(info.ckpts[send.ckpt], info.ckpts[send.ckpt + 1]);
                ++send.ckpt;
              }
            }
          }
        }
        continue;
      }
      case TraceEvent::Type::kComplete:
        break;
    }

    const double wall_b = e.ts_us;
    const double wall_e = e.ts_us + e.dur_us;
    if (e.cat == "mpi" && e.name == "send") {
      if (const std::int64_t* dep = find_arg(e, "dep_vt_ns")) {
        Checkpoint c;
        c.kind = Checkpoint::Kind::kSend;
        c.wall_begin_us = wall_b;
        c.wall_us = wall_e;
        c.dep_vt_us = static_cast<double>(*dep) * kNsToUs;
        const std::int64_t* stall = find_arg(e, "stall_ns");
        c.stall_us = stall != nullptr ? static_cast<double>(*stall) * kNsToUs : 0.0;
        c.vt_pre = c.dep_vt_us;
        c.vt_post = c.dep_vt_us + c.stall_us;
        send_spans[{e.rank, e.tid}].push_back({wall_b, wall_e, info.ckpts.size()});
        info.ckpts.push_back(c);
      }
    } else if (e.cat == "mpi" && e.name == "recv") {
      const std::int64_t* vt0 = find_arg(e, "vt0_ns");
      const std::int64_t* vt1 = find_arg(e, "vt1_ns");
      if (vt0 != nullptr && vt1 != nullptr) {
        Checkpoint c;
        c.kind = Checkpoint::Kind::kRecv;
        c.wall_begin_us = wall_b;
        c.wall_us = wall_e;
        c.vt_pre = static_cast<double>(*vt0) * kNsToUs;
        c.vt_post = static_cast<double>(*vt1) * kNsToUs;
        c.constrained = c.vt_post > c.vt_pre + kEpsUs;
        recv_spans[{e.rank, e.tid}].push_back({wall_b, wall_e, info.ckpts.size()});
        info.ckpts.push_back(c);
      }
    }

    // Wall-coverage tables for local sub-attribution.
    if (e.cat == "codec") {
      info.cats.push_back({wall_b, wall_e, CritCategory::kSerialize, 2});
    } else if (e.cat == "sched" && e.name == "checkpoint") {
      info.cats.push_back({wall_b, wall_e, CritCategory::kCheckpoint, 3});
      info.phases.push_back({wall_b, wall_e, e.name});
    } else if (e.cat == "sched") {
      const std::int64_t* attempt = find_arg(e, "attempt");
      if ((e.name == "combine.attempt" && attempt != nullptr && *attempt >= 2) ||
          (e.name == "combine.ft_tree" && find_arg(e, "survivors") != nullptr)) {
        info.cats.push_back({wall_b, wall_e, CritCategory::kRecovery, 4});
      }
      if (is_phase_name(e.name)) info.phases.push_back({wall_b, wall_e, e.name});
      const std::int64_t* round = find_arg(e, "round");
      if (round != nullptr && e.name.rfind("combine.", 0) == 0) {
        info.rounds.push_back({wall_b, wall_e, *round});
      }
    }
  }

  // Flow edges: match flow_start/flow_end to the enclosing send/recv span
  // on the same (rank, tid) lane (spans on one lane never overlap).
  const auto containing = [](const std::vector<SpanRef>& spans, double ts) -> const SpanRef* {
    auto it = std::upper_bound(spans.begin(), spans.end(), ts,
                               [](double t, const SpanRef& s) { return t < s.b; });
    if (it == spans.begin()) return nullptr;
    --it;
    return ts <= it->e + kEpsUs ? &*it : nullptr;
  };
  struct SendRef {
    int rank = -1;
    std::size_t ckpt = 0;
  };
  std::map<std::uint64_t, SendRef> flow_to_send;
  for (const TraceEvent* ep : flow_starts) {
    const auto it = send_spans.find({ep->rank, ep->tid});
    if (it == send_spans.end()) continue;
    if (const SpanRef* s = containing(it->second, ep->ts_us)) {
      flow_to_send.emplace(ep->flow_id, SendRef{ep->rank, s->ckpt});
    }
  }
  for (const TraceEvent* ep : flow_ends) {
    const auto it = recv_spans.find({ep->rank, ep->tid});
    if (it == recv_spans.end()) continue;
    if (const SpanRef* s = containing(it->second, ep->ts_us)) {
      ranks[ep->rank].ckpts[s->ckpt].flow_id = ep->flow_id;
    }
  }

  // Sessions: a trace holding several launches restarts every rank's clock
  // at zero.  Analyze the last launch only.
  bool multi_session = false;
  for (auto& [rank, info] : ranks) {
    std::size_t begins = 0;
    for (std::size_t i = 0; i < info.ckpts.size(); ++i) {
      if (info.ckpts[i].kind == Checkpoint::Kind::kBegin) {
        info.session_start = i;
        ++begins;
      }
    }
    if (begins > 1) multi_session = true;
    info.session_wall_begin = info.ckpts.empty()
                                  ? 0.0
                                  : info.ckpts[info.session_start].wall_begin_us;
  }
  if (multi_session) {
    result.warnings.push_back(
        "trace contains multiple launches; analyzing the most recent one only");
  }

  // Makespan anchor: the largest final-session rank.end clock.
  int end_rank = -1;
  std::size_t end_idx = 0;
  double end_vt = -1.0;
  bool have_rank_end = false;
  for (const auto& [rank, info] : ranks) {
    for (std::size_t i = info.session_start; i < info.ckpts.size(); ++i) {
      const Checkpoint& c = info.ckpts[i];
      const bool is_end = c.kind == Checkpoint::Kind::kEnd;
      if (is_end && (!have_rank_end || c.vt_post > end_vt)) {
        have_rank_end = true;
        end_rank = rank;
        end_vt = c.vt_post;
        end_idx = i;
      }
    }
  }
  if (!have_rank_end) {
    // Degraded trace (older file, or a rank died before launch wrapped
    // up): anchor on the largest clock stamp seen anywhere.
    for (const auto& [rank, info] : ranks) {
      for (std::size_t i = info.session_start; i < info.ckpts.size(); ++i) {
        if (info.ckpts[i].vt_post > end_vt) {
          end_rank = rank;
          end_vt = info.ckpts[i].vt_post;
          end_idx = i;
        }
      }
    }
    if (end_rank >= 0 || end_vt > 0.0) {
      result.warnings.push_back(
          "no rank.end anchor in trace; makespan approximated from the last clock stamp");
    }
  }
  if (end_rank < 0 || end_vt <= 0.0) {
    result.warnings.push_back("trace carries no virtual-clock stamps; nothing to attribute");
    return result;
  }

  result.makespan_us = end_vt;
  result.makespan_rank = end_rank;

  // Backward walk from the anchor.
  SegmentSink sink;
  int cur_rank = end_rank;
  RankInfo* info = &ranks[cur_rank];
  std::size_t idx = end_idx;
  bool exhausted = false;
  double cur_vt = end_vt;
  double upper_wall = info->ckpts[end_idx].wall_us;
  std::size_t unresolved_recvs = 0;
  std::size_t inconsistent = 0;
  bool missing_begin = false;
  // Each checkpoint is visited at most once per flow edge that reaches it;
  // the generous cap only guards degenerate (corrupt-trace) cycles.
  std::size_t guard = 4 * events.size() + 64;

  while (guard-- > 0) {
    if (exhausted || idx + 1 == 0 || idx < info->session_start) {
      // Ran out of checkpoints below: the rest is local time back to zero.
      if (cur_vt > 0.0) {
        if (!exhausted && info->ckpts.empty()) missing_begin = true;
        emit_local(sink, *info, cur_rank, 0.0, cur_vt, info->session_wall_begin, upper_wall);
      }
      cur_vt = 0.0;
      break;
    }
    const Checkpoint c = info->ckpts[idx];  // copy: sink ops never invalidate, but be safe
    if (c.vt_post > cur_vt + kEpsUs) {
      // A later stamp exceeding the current clock means dropped or
      // interleaved events; skip it rather than fabricate negative time.
      ++inconsistent;
      --idx;
      continue;
    }
    emit_local(sink, *info, cur_rank, std::min(c.vt_post, cur_vt), cur_vt, c.wall_us, upper_wall);
    cur_vt = std::min(c.vt_post, cur_vt);

    switch (c.kind) {
      case Checkpoint::Kind::kBegin:
        // Path start reached.
        guard = 0;
        break;
      case Checkpoint::Kind::kEnd:
        upper_wall = c.wall_us;
        --idx;
        break;
      case Checkpoint::Kind::kFaultDelay: {
        const double lo = std::max(0.0, cur_vt - c.delay_us);
        sink.push(cur_rank, -1, lo, cur_vt, CritCategory::kFaultDelay,
                  phase_of(*info, c.wall_us, c.wall_us), round_of(*info, c.wall_us, c.wall_us));
        cur_vt = lo;
        // A send-side delay sits below its send, whose span began earlier.
        upper_wall = std::min(upper_wall, c.wall_us);
        --idx;
        break;
      }
      case Checkpoint::Kind::kSend: {
        if (c.stall_us > 0.0 && cur_vt > c.dep_vt_us) {
          sink.push(cur_rank, -1, std::max(0.0, c.dep_vt_us), cur_vt, CritCategory::kSendStall,
                    phase_of(*info, c.wall_begin_us, c.wall_us),
                    round_of(*info, c.wall_begin_us, c.wall_us));
        }
        cur_vt = std::min(cur_vt, c.dep_vt_us);
        upper_wall = c.wall_begin_us;
        --idx;
        break;
      }
      case Checkpoint::Kind::kRecv: {
        if (!c.constrained) {
          upper_wall = c.wall_begin_us;
          --idx;
          break;
        }
        const auto fit = c.flow_id != 0 ? flow_to_send.find(c.flow_id) : flow_to_send.end();
        bool jumped = false;
        if (fit != flow_to_send.end()) {
          RankInfo& src = ranks[fit->second.rank];
          if (fit->second.ckpt < src.ckpts.size() && fit->second.ckpt >= src.session_start) {
            const Checkpoint& s = src.ckpts[fit->second.ckpt];
            if (s.dep_vt_us <= cur_vt + kEpsUs) {
              // Network transit: sender's departure to this arrival, billed
              // to the sending rank and its link.
              sink.push(fit->second.rank, cur_rank, std::min(s.dep_vt_us, cur_vt), cur_vt,
                        CritCategory::kNetwork, phase_of(src, s.wall_begin_us, s.wall_us),
                        round_of(src, s.wall_begin_us, s.wall_us));
              cur_rank = fit->second.rank;
              info = &src;
              cur_vt = std::min(s.dep_vt_us, cur_vt);
              upper_wall = s.wall_begin_us;
              idx = fit->second.ckpt;
              if (idx == 0) {
                exhausted = true;
              } else {
                --idx;
              }
              jumped = true;
            }
          }
        }
        if (!jumped) {
          // Dead sender, ring-wrapped send span, or single-sided trace:
          // the wait is real but unattributable — charge the receiver.
          ++unresolved_recvs;
          sink.push(cur_rank, -1, std::max(0.0, c.vt_pre), cur_vt, CritCategory::kRecvWait,
                    phase_of(*info, c.wall_begin_us, c.wall_us),
                    round_of(*info, c.wall_begin_us, c.wall_us));
          cur_vt = std::min(cur_vt, std::max(0.0, c.vt_pre));
          upper_wall = c.wall_begin_us;
          --idx;
        }
        break;
      }
    }
  }

  if (cur_vt > kEpsUs) {
    // Guard tripped or walk ended above zero: close the path so segments
    // still tile [0, makespan].
    emit_local(sink, *info, cur_rank, 0.0, cur_vt, info->session_wall_begin, upper_wall);
    result.warnings.push_back("walk terminated early; leading time attributed as local compute");
  }
  if (missing_begin) {
    result.warnings.push_back("no rank.begin anchor; leading time attributed as local compute");
  }
  if (unresolved_recvs > 0) {
    result.warnings.push_back(
        std::to_string(unresolved_recvs) +
        " arrival-constrained receive(s) had no usable flow edge (dead sender or dropped "
        "events); charged as recv_wait on the receiver");
  }
  if (inconsistent > 0) {
    result.warnings.push_back(std::to_string(inconsistent) +
                              " clock stamp(s) were inconsistent and skipped (ring drops?)");
  }

  result.segments = sink.finish();
  return result;
}

}  // namespace smart::obs
