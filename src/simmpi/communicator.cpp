#include "simmpi/communicator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simmpi/fault.h"
#include "simmpi/world.h"

namespace smart::simmpi {

namespace {
// Internal tag space for collectives; user tags must be >= 0.  Every
// collective receive names its exact source, so per-(source, tag) FIFO
// keeps a fast rank's next round behind the current one.
constexpr int kBarrierBase = -1000;
constexpr int kBcastTag = -2000;
constexpr int kSplitTag = -3000;
constexpr int kReduceTag = -4000;

std::atomic<std::uint64_t> g_payload_bytes_copied{0};

/// One physical copy of wire bytes happened.  The relaxed atomic is always
/// on (copies are per-message); the registry counter rides the usual
/// metrics gate.
void count_payload_copy(std::size_t bytes) {
  g_payload_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    static obs::Counter& copied =
        obs::MetricsRegistry::global().counter("simmpi.payload_bytes_copied");
    copied.add(static_cast<std::int64_t>(bytes));
  }
}

/// Copies `src` into a pooled buffer (the counted slow path every shared or
/// lvalue payload goes through exactly once).
Buffer pooled_copy(const Buffer& src) {
  Buffer out = BufferPool::acquire(src.size());
  out.assign(src.begin(), src.end());
  count_payload_copy(src.size());
  return out;
}

/// Same, from a shared payload.
Buffer pooled_copy(const SharedBuffer& src) {
  Buffer out = BufferPool::acquire(src.size());
  out.assign(src.data(), src.data() + src.size());
  count_payload_copy(src.size());
  return out;
}

/// Message-latency buckets for simmpi.recv_wait_us: 1µs .. 1s in decades.
const std::vector<double>& recv_wait_bounds() {
  static const std::vector<double> bounds{1, 10, 100, 1000, 10000, 100000, 1000000};
  return bounds;
}

void observe_recv_wait(std::chrono::steady_clock::time_point wait_start) {
  static obs::FixedHistogram& hist =
      obs::MetricsRegistry::global().histogram("simmpi.recv_wait_us", recv_wait_bounds());
  const double waited_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - wait_start)
          .count();
  hist.observe(waited_us);
}

/// Sender-side backpressure stalls, same 1µs .. 1s decade buckets.
void observe_send_stall(double stalled_seconds) {
  static obs::FixedHistogram& hist =
      obs::MetricsRegistry::global().histogram("simmpi.send_stall_us", recv_wait_bounds());
  hist.observe(stalled_seconds * 1e6);
}

/// Virtual-clock stamp as an integer trace arg.  Nanoseconds keep the
/// critical-path reconstruction (obs/critpath.h) exact to well under the
/// microsecond even on second-scale virtual makespans.
std::int64_t vt_ns(double seconds) { return static_cast<std::int64_t>(seconds * 1e9); }
}  // namespace

std::uint64_t payload_bytes_copied() {
  return g_payload_bytes_copied.load(std::memory_order_relaxed);
}

Communicator::Communicator(World& world, int world_rank)
    : world_(world),
      world_rank_(world_rank),
      rank_(world_rank),
      state_(std::make_shared<detail::RankState>()) {
  state_->last_cpu = thread_cpu_seconds();
}

Communicator::Communicator(World& world, int world_rank, std::vector<int> group,
                           std::shared_ptr<detail::RankState> state)
    : world_(world),
      world_rank_(world_rank),
      group_(std::move(group)),
      state_(std::move(state)) {
  const auto it = std::find(group_.begin(), group_.end(), world_rank_);
  if (it == group_.end()) {
    throw std::logic_error("simmpi: split communicator does not contain this rank");
  }
  rank_ = static_cast<int>(it - group_.begin());
}

int Communicator::size() const {
  return group_.empty() ? world_.size() : static_cast<int>(group_.size());
}

int Communicator::to_world(int rank_in_comm) const {
  if (group_.empty()) return rank_in_comm;
  return group_.at(static_cast<std::size_t>(rank_in_comm));
}

int Communicator::from_world(int world_rank) const {
  if (group_.empty()) return world_rank;
  const auto it = std::find(group_.begin(), group_.end(), world_rank);
  if (it == group_.end()) return kAnySource;  // message from outside the group
  return static_cast<int>(it - group_.begin());
}

void Communicator::charge_own_cpu() {
  const double now = thread_cpu_seconds();
  state_->vclock += now - state_->last_cpu;
  state_->last_cpu = now;
}

void Communicator::advance(double seconds) {
  charge_own_cpu();
  state_->vclock += seconds;
}

void Communicator::advance_region(const std::vector<double>& busy) {
  const double leg0 = busy.at(0);
  advance(*std::max_element(busy.begin(), busy.end()) - leg0);
}

double Communicator::vclock() {
  charge_own_cpu();
  return state_->vclock;
}

void Communicator::send_envelope(int dest, int tag, SharedBuffer payload, bool shared) {
  if (dest < 0 || dest >= size()) {
    throw std::out_of_range("simmpi::send: destination rank out of range");
  }
  const std::size_t nbytes = payload.size();
  obs::TraceSpan span("send", "mpi",
                      {{"tag", tag}, {"bytes", static_cast<std::int64_t>(nbytes)}});
  if (obs::metrics_enabled()) {
    static obs::Counter& msgs = obs::MetricsRegistry::global().counter("simmpi.messages_sent");
    static obs::Counter& bytes = obs::MetricsRegistry::global().counter("simmpi.bytes_sent");
    msgs.add(1);
    bytes.add(static_cast<std::int64_t>(nbytes));
  }
  charge_own_cpu();
  const int world_dest = to_world(dest);
  bool duplicate = false;
  if (auto* faults = world_.faults()) {
    if (const auto rule = faults->on_operation(FaultOp::kSend, world_rank_, world_dest, tag)) {
      switch (rule->action) {
        case FaultAction::kKillRank:
          if (obs::trace_enabled()) {
            obs::TraceCollector::instance().instant("fault.kill", "fault", {{"tag", tag}});
          }
          // Mark dead *before* unwinding so peers' timed receives resolve
          // immediately instead of waiting out their full deadline.
          world_.mark_rank_dead(world_rank_);
          throw detail::RankKilled{world_rank_};
        case FaultAction::kDrop:
          if (obs::trace_enabled()) {
            obs::TraceCollector::instance().instant(
                "fault.drop", "fault",
                {{"tag", tag}, {"bytes", static_cast<std::int64_t>(nbytes)}});
          }
          // The NIC "sent" it; it just never arrives.
          state_->bytes_sent += nbytes;
          return;
        case FaultAction::kDelay:
          // Deterministic mode: the delay is purely virtual — charging the
          // clock shifts this message's arrival_vtime (computed below from
          // vclock) so the delay is a *scheduled* event the policies can
          // reorder, with no wall sleep to make replays timing-dependent.
          if (world_.schedule() == nullptr) {
            std::this_thread::sleep_for(std::chrono::duration<double>(rule->delay_seconds));
          }
          state_->vclock += rule->delay_seconds;
          if (obs::trace_enabled()) {
            // vt_ns is the post-delay clock, so the profiler can carve
            // [vt − delay, vt] out of local time as injected fault delay.
            obs::TraceCollector::instance().instant(
                "fault.delay", "fault",
                {{"tag", tag},
                 {"delay_ns", vt_ns(rule->delay_seconds)},
                 {"vt_ns", vt_ns(state_->vclock)}});
          }
          break;
        case FaultAction::kDuplicate:
          duplicate = true;
          break;
      }
    }
  }
  state_->bytes_sent += nbytes;  // wire traffic counts the logical message once
  Envelope e;
  e.source = world_rank_;
  e.tag = tag;
  e.vtime = state_->vclock;
  // The interconnect prices the transfer once, at departure; the
  // receiver's clock can never observe the payload earlier.
  e.arrival_vtime = world_.network().arrival_vtime(nbytes, state_->vclock);
  // Departure stamp on the span: the profiler jumps from an
  // arrival-constrained recv back to this clock value on this rank.
  span.arg("dep_vt_ns", vt_ns(e.vtime));
  e.payload = std::move(payload);
  e.shared_payload = shared;
  if (obs::trace_enabled()) {
    // The flow arrow starts inside this send span and ends inside the
    // matching recv span on the destination rank (deliver_shared()).
    auto& tc = obs::TraceCollector::instance();
    e.flow_id = tc.next_flow_id();
    tc.flow_start("msg", "mpi", e.flow_id);
  }
  // Deterministic mode: the delivery decision belongs to the schedule
  // controller, not to whichever thread reaches the mailbox first.  Submit
  // never blocks (backpressure stalls are wall-clock effects the mode
  // excludes), so stall accounting stays zero.
  ScheduleController* sched = world_.schedule();
  double stalled_seconds = 0.0;
  if (duplicate) {
    // Both envelopes reference the same immutable bytes; copying the
    // Envelope only bumps the refcount.  Mark both shared so neither
    // receive steals the storage out from under the other.
    e.shared_payload = true;
    Envelope copy = e;
    if (sched != nullptr) {
      sched->submit(world_dest, std::move(copy));
    } else {
      stalled_seconds += world_.mailbox(world_dest).post(std::move(copy));
    }
  }
  if (sched != nullptr) {
    sched->submit(world_dest, std::move(e));
  } else {
    stalled_seconds += world_.mailbox(world_dest).post(std::move(e));
  }
  if (stalled_seconds > 0.0) {
    // Backpressure: the destination lane was full and this rank's send
    // blocked until the receiver drained it.  The stall is real sender
    // wall time with no CPU burned, so charge it to the virtual clock
    // explicitly (like a fault delay) and surface it in metrics.
    state_->vclock += stalled_seconds;
    state_->send_stall_seconds += stalled_seconds;
    state_->last_cpu = thread_cpu_seconds();
    span.arg("stall_ns", vt_ns(stalled_seconds));
    if (obs::metrics_enabled()) {
      static obs::Counter& stalls = obs::MetricsRegistry::global().counter("simmpi.send_stalls");
      stalls.add(1);
      observe_send_stall(stalled_seconds);
    }
  }
}

void Communicator::send(int dest, int tag, const Buffer& payload) {
  SharedBuffer data;
  if (!payload.empty()) data = make_shared_buffer(pooled_copy(payload));
  send_envelope(dest, tag, std::move(data), /*shared=*/false);
}

void Communicator::send(int dest, int tag, Buffer&& payload) {
  SharedBuffer data;
  if (!payload.empty()) data = make_shared_buffer(std::move(payload));
  send_envelope(dest, tag, std::move(data), /*shared=*/false);
}

void Communicator::send_shared(int dest, int tag, SharedBuffer payload) {
  send_envelope(dest, tag, std::move(payload), /*shared=*/true);
}

void Communicator::inject_recv_faults(int world_source, int tag) {
  auto* faults = world_.faults();
  if (faults == nullptr) return;
  const int peer = world_source == kAnySource ? kAnyRank : world_source;
  if (const auto rule = faults->on_operation(FaultOp::kRecv, world_rank_, peer, tag)) {
    switch (rule->action) {
      case FaultAction::kKillRank:
        if (obs::trace_enabled()) {
          obs::TraceCollector::instance().instant("fault.kill", "fault", {{"tag", tag}});
        }
        world_.mark_rank_dead(world_rank_);
        throw detail::RankKilled{world_rank_};
      case FaultAction::kDelay:
        // Virtual under a schedule controller; see send_envelope's kDelay.
        if (world_.schedule() == nullptr) {
          std::this_thread::sleep_for(std::chrono::duration<double>(rule->delay_seconds));
        }
        state_->vclock += rule->delay_seconds;
        if (obs::trace_enabled()) {
          obs::TraceCollector::instance().instant(
              "fault.delay", "fault",
              {{"tag", tag},
               {"delay_ns", vt_ns(rule->delay_seconds)},
               {"vt_ns", vt_ns(state_->vclock)}});
        }
        break;
      case FaultAction::kDrop:
      case FaultAction::kDuplicate:
        break;  // message-level actions have no receive-side meaning
    }
  }
}

SharedBuffer Communicator::deliver_shared(Envelope& e, int* actual_source, int* actual_tag) {
  // Message arrival: send_envelope stamped the alpha-beta arrival time at
  // departure — the receiver cannot observe the data earlier than that.
  if (e.arrival_vtime > state_->vclock) state_->vclock = e.arrival_vtime;
  if (actual_source != nullptr) *actual_source = from_world(e.source);
  if (actual_tag != nullptr) *actual_tag = e.tag;
  if (e.flow_id != 0 && obs::trace_enabled()) {
    obs::TraceCollector::instance().flow_end("msg", "mpi", e.flow_id);
  }
  // Blocking in receive costs no CPU, so reset the CPU baseline here.
  state_->last_cpu = thread_cpu_seconds();
  return e.payload ? std::move(e.payload) : shared_empty_buffer();
}

Buffer Communicator::deliver(Envelope e, int* actual_source, int* actual_tag) {
  // An exclusive payload (plain send, never fanned out or duplicated) is
  // this envelope's alone by construction, so the bytes can be stolen; a
  // shared one must be copied — checking the flag instead of use_count()
  // keeps the decision deterministic and race-free (a sibling receiver may
  // be dropping its reference concurrently).
  const bool steal = static_cast<bool>(e.payload) && !e.shared_payload;
  SharedBuffer data = deliver_shared(e, actual_source, actual_tag);
  if (steal) return std::move(*const_cast<Buffer*>(data.storage().get()));
  if (data.empty()) return Buffer{};
  return pooled_copy(data);
}

Envelope Communicator::recv_envelope(int source, int tag) {
  charge_own_cpu();
  const int world_source = source == kAnySource ? kAnySource : to_world(source);
  inject_recv_faults(world_source, tag);
  const bool measure = obs::metrics_enabled();
  const auto wait_start = std::chrono::steady_clock::now();
  Envelope e = world_.mailbox(world_rank_).receive(world_source, tag);
  if (measure) observe_recv_wait(wait_start);
  return e;
}

Envelope Communicator::recv_envelope_timeout(int source, int tag, double timeout_seconds) {
  charge_own_cpu();
  const int world_source = source == kAnySource ? kAnySource : to_world(source);
  inject_recv_faults(world_source, tag);
  const bool measure = obs::metrics_enabled();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double>(timeout_seconds));
  auto& box = world_.mailbox(world_rank_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const double waited = std::chrono::duration<double>(now - start).count();
    // A message already queued always wins, even from a freshly dead peer:
    // its data was on the wire before the death.
    if (auto e = box.try_receive(world_source, tag)) {
      if (measure) observe_recv_wait(start);
      return std::move(*e);
    }
    if (world_source != kAnySource && world_.rank_dead(world_source)) {
      if (obs::trace_enabled()) {
        obs::TraceCollector::instance().instant("peer_unreachable", "fault",
                                                {{"source", source}, {"tag", tag}});
      }
      state_->last_cpu = thread_cpu_seconds();
      throw PeerUnreachable(source, tag, waited, "peer rank is dead");
    }
    if (now >= deadline) {
      if (obs::trace_enabled()) {
        obs::TraceCollector::instance().instant("peer_unreachable", "fault",
                                                {{"source", source}, {"tag", tag}});
      }
      state_->last_cpu = thread_cpu_seconds();
      throw PeerUnreachable(source, tag, waited, "timed out waiting for message");
    }
    // Bounded wait slices keep dead-peer detection prompt even when the
    // mark_rank_dead poke races with this receiver entering its wait.
    const auto slice = std::min<std::chrono::steady_clock::duration>(
        deadline - now, std::chrono::milliseconds(5));
    if (auto e = box.receive_for(world_source, tag,
                                 std::chrono::duration_cast<std::chrono::nanoseconds>(slice))) {
      if (measure) observe_recv_wait(start);
      return std::move(*e);
    }
  }
}

Buffer Communicator::recv(int source, int tag, int* actual_source, int* actual_tag) {
  obs::TraceSpan span("recv", "mpi", {{"tag", tag}});
  Envelope e = recv_envelope(source, tag);
  span.arg("vt0_ns", vt_ns(state_->vclock));
  Buffer out = deliver(std::move(e), actual_source, actual_tag);
  // vt1 > vt0 means this receive was arrival-constrained: the rank's clock
  // jumped forward to the message's arrival_vtime (the profiler's cue to
  // follow the flow edge back to the sender).
  span.arg("vt1_ns", vt_ns(state_->vclock));
  span.arg("bytes", static_cast<std::int64_t>(out.size()));
  return out;
}

SharedBuffer Communicator::recv_shared(int source, int tag, int* actual_source, int* actual_tag) {
  obs::TraceSpan span("recv", "mpi", {{"tag", tag}});
  Envelope e = recv_envelope(source, tag);
  span.arg("vt0_ns", vt_ns(state_->vclock));
  SharedBuffer out = deliver_shared(e, actual_source, actual_tag);
  span.arg("vt1_ns", vt_ns(state_->vclock));
  span.arg("bytes", static_cast<std::int64_t>(out.size()));
  return out;
}

Buffer Communicator::recv_timeout(int source, int tag, double timeout_seconds, int* actual_source,
                                  int* actual_tag) {
  obs::TraceSpan span("recv", "mpi", {{"tag", tag}});
  Envelope e = recv_envelope_timeout(source, tag, timeout_seconds);
  span.arg("vt0_ns", vt_ns(state_->vclock));
  Buffer out = deliver(std::move(e), actual_source, actual_tag);
  span.arg("vt1_ns", vt_ns(state_->vclock));
  span.arg("bytes", static_cast<std::int64_t>(out.size()));
  return out;
}

SharedBuffer Communicator::recv_shared_timeout(int source, int tag, double timeout_seconds,
                                               int* actual_source, int* actual_tag) {
  obs::TraceSpan span("recv", "mpi", {{"tag", tag}});
  Envelope e = recv_envelope_timeout(source, tag, timeout_seconds);
  span.arg("vt0_ns", vt_ns(state_->vclock));
  SharedBuffer out = deliver_shared(e, actual_source, actual_tag);
  span.arg("vt1_ns", vt_ns(state_->vclock));
  span.arg("bytes", static_cast<std::int64_t>(out.size()));
  return out;
}

bool Communicator::peer_alive(int rank) const { return !world_.rank_dead(to_world(rank)); }

std::vector<int> Communicator::alive_ranks() const {
  std::vector<int> out;
  const int n = size();
  out.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (peer_alive(r)) out.push_back(r);
  }
  return out;
}

void Communicator::barrier() {
  // Dissemination barrier: ceil(log2(n)) rounds of shifted exchanges.
  const int n = size();
  for (int round = 0, dist = 1; dist < n; ++round, dist <<= 1) {
    const int to = (rank_ + dist) % n;
    // The % must apply to the whole difference: unparenthesized
    // `rank_ - dist % n` binds the % to dist alone, which mispairs
    // partners the moment dist can reach n.
    const int from = ((rank_ - dist) % n + n) % n;
    send(to, kBarrierBase - round, Buffer{});
    (void)recv(from, kBarrierBase - round);
  }
}

void Communicator::bcast_shared(SharedBuffer& data, int root) {
  // Binomial tree rooted at `root`, over rotated ranks.  Every hop forwards
  // the same SharedBuffer, so the whole tree moves zero payload bytes.
  const int n = size();
  const int rel = (rank_ - root + n) % n;
  if (rel != 0) {
    int mask = 1;
    while ((rel & mask) == 0) mask <<= 1;
    const int parent_rel = rel & ~mask;
    data = recv_shared((parent_rel + root) % n, kBcastTag);
    // Children live at rel + m for m below the bit we received on.
    for (int m = mask >> 1; m >= 1; m >>= 1) {
      if (rel + m < n) send_shared((rel + m + root) % n, kBcastTag, data);
    }
  } else {
    int top = 1;
    while (top < n) top <<= 1;
    for (int m = top >> 1; m >= 1; m >>= 1) {
      if (m < n) send_shared((m + root) % n, kBcastTag, data);
    }
  }
}

Buffer Communicator::reduce(Buffer local,
                            int root,
                            const std::function<Buffer(const Buffer&, const Buffer&)>& combine) {
  // Binomial tree over rotated ranks; at each round the lower partner
  // absorbs the upper partner's partial result.
  const int n = size();
  const int rel = (rank_ - root + n) % n;
  for (int dist = 1; dist < n; dist <<= 1) {
    if (rel % (2 * dist) == 0) {
      if (rel + dist < n) {
        Buffer other = recv(((rel + dist) + root) % n, kReduceTag);
        Buffer merged = combine(local, other);
        BufferPool::release(std::move(other));
        BufferPool::release(std::move(local));
        local = std::move(merged);
      }
    } else {
      send(((rel - dist) + root) % n, kReduceTag, std::move(local));
      return {};
    }
  }
  return local;
}

SharedBuffer Communicator::allreduce_shared(
    Buffer local, const std::function<Buffer(const Buffer&, const Buffer&)>& combine) {
  // Reduce-then-broadcast with a zero-copy broadcast phase: the reduce
  // tree's sends are all rvalue moves and its receives steal exclusive
  // payloads, and the root hands the final result straight to
  // bcast_shared — no rank materializes a private copy.
  Buffer reduced = reduce(std::move(local), 0, combine);
  SharedBuffer data;
  if (rank_ == 0 && !reduced.empty()) data = make_shared_buffer(std::move(reduced));
  bcast_shared(data, 0);
  if (!data) data = shared_empty_buffer();
  return data;
}

Communicator Communicator::split(int color, int key) {
  // Every rank sends its (color, key, world rank) entry to rank 0, which
  // packs the table in rank order and broadcasts it; each rank carves out
  // its same-color group sorted by (key, world rank) — MPI_Comm_split
  // semantics.  Entries move into their sends and the table is one shared
  // payload, so nothing is copied.
  struct Entry {
    int color, key, world_rank;
  };
  SharedBuffer table;
  if (rank_ != 0) {
    Buffer mine;
    Writer(mine).write(Entry{color, key, world_rank_});
    send(0, kSplitTag, std::move(mine));
  } else {
    Buffer packed;
    Writer w(packed);
    w.write(Entry{color, key, world_rank_});
    for (int peer = 1; peer < size(); ++peer) {
      const SharedBuffer entry = recv_shared(peer, kSplitTag);
      w.write(Reader(entry).read<Entry>());
    }
    table = make_shared_buffer(std::move(packed));
  }
  bcast_shared(table, 0);

  std::vector<Entry> group;
  Reader r(table);
  for (int i = 0; i < size(); ++i) {
    const auto e = r.read<Entry>();
    if (e.color == color) group.push_back(e);
  }
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.world_rank < b.world_rank;
  });
  std::vector<int> world_ranks;
  world_ranks.reserve(group.size());
  for (const auto& e : group) world_ranks.push_back(e.world_rank);
  // A barrier keeps successive collectives on parent and child communicators
  // from interleaving their fixed-source internal tags across groups.
  barrier();
  return Communicator(world_, world_rank_, std::move(world_ranks), state_);
}

}  // namespace smart::simmpi
