#include "simmpi/world.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace smart::simmpi {

namespace {
thread_local Communicator* g_current = nullptr;
}  // namespace

World::World(int nranks, NetworkConfig net) : net_(std::move(net)) {
  if (nranks <= 0) throw std::invalid_argument("simmpi::World: nranks must be positive");
  net_.validate();
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) mailboxes_.push_back(std::make_unique<Mailbox>());
  dead_.assign(static_cast<std::size_t>(nranks), false);
  // Deterministic mode straight from the network config (SMART_SCHED_* /
  // CLI flags); an explicitly injected controller (set_schedule) replaces
  // this one before traffic flows.
  set_schedule(make_schedule_controller(net_));
}

void World::set_schedule(std::shared_ptr<ScheduleController> sched) {
  sched_ = std::move(sched);
  if (sched_) {
    std::vector<Mailbox*> boxes;
    boxes.reserve(mailboxes_.size());
    for (auto& box : mailboxes_) boxes.push_back(box.get());
    sched_->attach(std::move(boxes));
  }
  for (int r = 0; r < static_cast<int>(mailboxes_.size()); ++r) {
    mailboxes_[static_cast<std::size_t>(r)]->set_schedule(sched_.get(), r);
  }
}

void World::mark_rank_dead(int rank) {
  {
    std::lock_guard<std::mutex> lock(dead_mu_);
    dead_.at(static_cast<std::size_t>(rank)) = true;
  }
  if (obs::trace_enabled()) {
    obs::TraceCollector::instance().instant("rank_dead", "fault", {{"rank", rank}}, rank);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& deaths = obs::MetricsRegistry::global().counter("simmpi.rank_deaths");
    deaths.add(1);
  }
  // Blocked timed receivers re-check their peer's liveness on wake-up.
  for (auto& box : mailboxes_) box->poke();
}

bool World::rank_dead(int rank) const {
  std::lock_guard<std::mutex> lock(dead_mu_);
  return dead_.at(static_cast<std::size_t>(rank));
}

double LaunchStats::makespan() const {
  double m = 0.0;
  for (double t : rank_vtime) m = std::max(m, t);
  return m;
}

std::size_t LaunchStats::total_bytes_sent() const {
  return std::accumulate(rank_bytes_sent.begin(), rank_bytes_sent.end(), std::size_t{0});
}

Communicator* current() { return g_current; }

namespace detail {
CurrentGuard::CurrentGuard(Communicator* comm) : previous_(g_current) { g_current = comm; }
CurrentGuard::~CurrentGuard() { g_current = previous_; }
}  // namespace detail

LaunchStats launch(int nranks, const std::function<void(Communicator&)>& fn,
                   std::optional<NetworkConfig> net, std::shared_ptr<FaultInjector> faults,
                   std::shared_ptr<ScheduleController> sched) {
  World world(nranks, net ? std::move(*net) : NetworkConfig::from_env());
  world.set_fault_injector(std::move(faults));
  if (sched) world.set_schedule(std::move(sched));
  if (world.schedule() != nullptr && obs::trace_enabled()) {
    // Stamp the schedule identity into the trace so a recorded failure
    // names the policy/seed that produced it.
    obs::TraceCollector::instance().instant(
        std::string("schedule.") + world.schedule()->policy_name(), "schedule",
        {{"seed", static_cast<std::int64_t>(world.schedule()->seed())}});
  }
  LaunchStats stats;
  stats.rank_vtime.assign(static_cast<std::size_t>(nranks), 0.0);
  stats.rank_bytes_sent.assign(static_cast<std::size_t>(nranks), 0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<char> killed(static_cast<std::size_t>(nranks), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));

  WallTimer wall;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      // Attribute every trace event this thread records to its rank, so the
      // exporter's pid=rank lanes line up without simmpi-specific plumbing.
      obs::ThreadRankGuard rank_guard(r);
      Communicator comm(world, r);
      detail::CurrentGuard guard(&comm);
      if (obs::trace_enabled()) {
        obs::TraceCollector::instance().instant("rank.begin", "mpi", {{"vt_ns", 0}});
      }
      try {
        fn(comm);
      } catch (const detail::RankKilled&) {
        // The kill site already marked the rank dead; a killed rank is a
        // simulated crash, not a program error.
        killed[static_cast<std::size_t>(r)] = 1;
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
      stats.rank_vtime[static_cast<std::size_t>(r)] = comm.vclock();
      stats.rank_bytes_sent[static_cast<std::size_t>(r)] = comm.bytes_sent();
      if (obs::trace_enabled() && !killed[static_cast<std::size_t>(r)]) {
        // Same value LaunchStats::makespan() sees, so the trace-side
        // reconstruction (obs/critpath.h) anchors on the exact makespan.
        // A killed rank never ends: its trace stops at its rank_dead event.
        obs::TraceCollector::instance().instant(
            "rank.end", "mpi",
            {{"vt_ns", static_cast<std::int64_t>(
                  stats.rank_vtime[static_cast<std::size_t>(r)] * 1e9)}});
      }
    });
  }
  for (auto& t : threads) t.join();
  stats.wall_seconds = wall.seconds();

  for (int r = 0; r < nranks; ++r) {
    if (killed[static_cast<std::size_t>(r)]) stats.ranks_killed.push_back(r);
  }
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return stats;
}

}  // namespace smart::simmpi
