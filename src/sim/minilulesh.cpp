#include "sim/minilulesh.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/serialize.h"
#include "obs/trace.h"

namespace smart::sim {

namespace {
constexpr int kPlaneUpTag = 110;    // top planes traveling to rank + 1
constexpr int kPlaneDownTag = 111;  // bottom planes traveling to rank - 1

/// Rejects bad parameters before any member allocates, including a cube
/// whose five fields of edge^3 doubles overflow size_t.
const MiniLulesh::Params& validated(const MiniLulesh::Params& p) {
  if (p.edge < 2) throw std::invalid_argument("MiniLulesh: edge must be >= 2");
  if (p.gamma <= 1.0) throw std::invalid_argument("MiniLulesh: gamma must exceed 1");
  if (p.courant <= 0.0 || p.courant > 1.0 / 6.0) {
    throw std::invalid_argument("MiniLulesh: courant must be in (0, 1/6]");
  }
  std::size_t cells = 0;
  if (__builtin_mul_overflow(p.edge, p.edge, &cells) ||
      __builtin_mul_overflow(cells, p.edge, &cells) || cells > SIZE_MAX / (5 * sizeof(double))) {
    throw std::invalid_argument("MiniLulesh: edge^3 elements overflow");
  }
  return p;
}

/// Ideal-gas pressure p = (gamma - 1) e / v plus the artificial viscosity
/// q = q_coeff p max(0, 1 - v), which resists further compression of
/// already compressed (v < 1) elements; stores what the flux sweep reads,
/// P = p + q and the flux bound e/6.
void eos_kernel(std::size_t count, double gamma_minus_1, double q_coeff,
                const double* __restrict e, const double* __restrict v,
                double* __restrict ptot, double* __restrict bound) {
  for (std::size_t i = 0; i < count; ++i) {  // vec-probe: must vectorize
    const double p = gamma_minus_1 * e[i] / v[i];
    ptot[i] = p + q_coeff * p * std::max(0.0, 1.0 - v[i]);
    bound[i] = e[i] / 6.0;
  }
}

/// Element i's side of the pair exchange with neighbour j: the pressure-
/// driven inflow clamped to [lo, hi] = [-e_i/6, e_j/6].
inline double inflow(double courant, double p_i, double lo, double p_j, double hi) {
  return std::clamp(courant * (p_j - p_i), lo, hi);
}

/// One row's (P, e/6) values, from the fields or from a halo payload.
struct Row {
  const double* p;
  const double* b;
};

/// Net inflow of the row's elements x in [x_begin, x_end), none of them at
/// either end of the row.  Terms are summed in the per-element order: x - 1,
/// x + 1, y - 1, y + 1, then the two Z slots.  A neighbour row the element
/// does not have is passed as the element's own row, whose term is exactly
/// +0.0 (P_i - P_i = 0, clamped to [-e_i/6, e_i/6] with e_i >= 0), and
/// adding +0.0 leaves `net` as it was: `net` starts at +0.0 and a
/// round-to-nearest sum never yields -0.0.  The read-only rows may alias
/// one another; only `flux`, the one written, must not alias them.
void interior_row(std::size_t x_begin, std::size_t x_end, double courant,
                  const double* __restrict p, const double* __restrict b,
                  const double* __restrict p_ym, const double* __restrict b_ym,
                  const double* __restrict p_yp, const double* __restrict b_yp,
                  const double* __restrict p_z0, const double* __restrict b_z0,
                  const double* __restrict p_z1, const double* __restrict b_z1,
                  double* __restrict flux) {
  for (std::size_t x = x_begin; x < x_end; ++x) {  // vec-probe: must vectorize
    const double pi = p[x];
    const double lo = -b[x];
    double net = 0.0;
    net += inflow(courant, pi, lo, p[x - 1], b[x - 1]);
    net += inflow(courant, pi, lo, p[x + 1], b[x + 1]);
    net += inflow(courant, pi, lo, p_ym[x], b_ym[x]);
    net += inflow(courant, pi, lo, p_yp[x], b_yp[x]);
    net += inflow(courant, pi, lo, p_z0[x], b_z0[x]);
    net += inflow(courant, pi, lo, p_z1[x], b_z1[x]);
    flux[x] = net;
  }
}
}  // namespace

MiniLulesh::MiniLulesh(const Params& params, simmpi::Communicator* comm, ThreadPool* pool)
    : p_(validated(params)),
      comm_(comm),
      pool_(pool),
      e_(params.edge * params.edge * params.edge, 1.0),
      v_(e_.size(), 1.0),
      ptot_(e_.size(), 0.0),
      bound_(e_.size(), 0.0),
      flux_(e_.size(), 0.0),
      halo_(comm != nullptr && comm->size() > 1 ? 4 * params.edge * params.edge : 0),
      mem_charge_(MemCategory::kSimulation,
                  5 * params.edge * params.edge * params.edge * sizeof(double)) {
  // Sedov-like deposition: a point blast at the global origin corner.
  if (comm_ == nullptr || comm_->rank() == 0) {
    e_[0] += p_.blast_energy;
  }
}

void MiniLulesh::parallel_over_z(const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t n = p_.edge;
  if (pool_ == nullptr) {
    body(0, n);
    return;
  }
  const int nw = pool_->size();
  const auto busy = pool_->parallel_region([&](int w) {
    const std::size_t per = n / static_cast<std::size_t>(nw);
    const std::size_t extra = n % static_cast<std::size_t>(nw);
    const auto uw = static_cast<std::size_t>(w);
    const std::size_t begin = uw * per + std::min(uw, extra);
    const std::size_t end = begin + per + (uw < extra ? 1 : 0);
    body(begin, end);
  });
  if (comm_ != nullptr) comm_->advance_region(busy);
}

void MiniLulesh::compute_eos(std::size_t z_begin, std::size_t z_end) {
  const std::size_t plane = p_.edge * p_.edge;
  const std::size_t at = z_begin * plane;
  eos_kernel((z_end - z_begin) * plane, p_.gamma - 1.0, p_.q_coeff, e_.data() + at,
             v_.data() + at, ptot_.data() + at, bound_.data() + at);
}

void MiniLulesh::exchange_boundary_planes() {
  if (halo_.empty()) return;

  const int rank = comm_->rank();
  const bool below = rank > 0;
  const bool above = rank + 1 < comm_->size();
  const std::size_t plane = p_.edge * p_.edge;
  const std::size_t plane_bytes = plane * sizeof(double);

  // A boundary plane travels as [P..., e/6...]: the neighbour evaluates the
  // identical clamped pair term, so the cross-rank pair still cancels.
  auto pack = [&](std::size_t z) {
    Buffer out = BufferPool::acquire(2 * plane_bytes);
    for (const double* field : {ptot_.data(), bound_.data()}) {
      const auto* bytes = reinterpret_cast<const std::byte*>(field + z * plane);
      out.insert(out.end(), bytes, bytes + plane_bytes);
    }
    return out;
  };
  // Copied, not read in place: the payload holds bytes, not doubles.
  auto unpack = [&](int from, int tag, double* planes) {
    const SharedBuffer halo = comm_->recv_shared(from, tag);
    if (halo.size() != 2 * plane_bytes) {
      throw std::runtime_error("MiniLulesh: rank " + std::to_string(from) + " sent a " +
                               std::to_string(halo.size()) + "-byte halo, expected " +
                               std::to_string(2 * plane_bytes));
    }
    std::memcpy(planes, halo.data(), 2 * plane_bytes);
  };

  // Both sends go out before either receive (a send never blocks), so the
  // step waits for one message latency, not one per neighbour in turn.
  if (below) comm_->send(rank - 1, kPlaneDownTag, pack(0));
  if (above) comm_->send(rank + 1, kPlaneUpTag, pack(p_.edge - 1));
  if (below) unpack(rank - 1, kPlaneUpTag, halo_.data());
  if (above) unpack(rank + 1, kPlaneDownTag, halo_.data() + 2 * plane);
}

void MiniLulesh::gather_fluxes(std::size_t z_begin, std::size_t z_end) {
  const std::size_t n = p_.edge;
  const std::size_t plane = n * n;
  const double courant = p_.courant;
  const double* ptot = ptot_.data();
  const double* bound = bound_.data();
  auto field_row = [&](std::size_t at) { return Row{ptot + at, bound + at}; };
  // Each neighbour's halo is a P plane then an e/6 plane; null where this
  // rank has no neighbour.
  const bool halos = !halo_.empty();
  const double* below = halos && comm_->rank() > 0 ? halo_.data() : nullptr;
  const double* above =
      halos && comm_->rank() + 1 < comm_->size() ? halo_.data() + 2 * plane : nullptr;
  auto halo_row = [&](const double* planes, std::size_t y) {
    return Row{planes + y * n, planes + plane + y * n};
  };

  // Gather form: each element sums its own side of the pairwise exchange.
  // For neighbors i, j the pair terms are exact negatives (the clamp is
  // antisymmetric), so global conservation is exact and the sweep is
  // race-free under any Z split.
  for (std::size_t z = z_begin; z < z_end; ++z) {
    for (std::size_t y = 0; y < n; ++y) {
      const std::size_t at = (z * n + y) * n;
      const Row own = field_row(at);
      const Row ym = y > 0 ? field_row(at - n) : own;
      const Row yp = y + 1 < n ? field_row(at + n) : own;
      // The two Z slots, in the order the terms are summed: z - 1, then
      // z + 1 (the rank above's plane when z is the top), then the rank
      // below's plane when z is the bottom.  The bottom has no z - 1 term,
      // so z + 1 moves down a slot to make room for the halo.
      Row z0 = z > 0 ? field_row(at - plane) : own;
      Row z1 = z + 1 < n ? field_row(at + plane) : above != nullptr ? halo_row(above, y) : own;
      if (z == 0 && below != nullptr) {
        z0 = z1;
        z1 = halo_row(below, y);
      }

      double* flux = flux_.data() + at;
      interior_row(1, n - 1, courant, own.p, own.b, ym.p, ym.b, yp.p, yp.b, z0.p, z0.b, z1.p,
                   z1.b, flux);
      // The row's two ends have one X neighbour each.
      for (const std::size_t x : {std::size_t{0}, n - 1}) {
        const double pi = own.p[x];
        const double lo = -own.b[x];
        double net = 0.0;
        if (x > 0) net += inflow(courant, pi, lo, own.p[x - 1], own.b[x - 1]);
        if (x + 1 < n) net += inflow(courant, pi, lo, own.p[x + 1], own.b[x + 1]);
        for (const Row& r : {ym, yp, z0, z1}) net += inflow(courant, pi, lo, r.p[x], r.b[x]);
        flux[x] = net;
      }
    }
  }
}

void MiniLulesh::integrate(std::size_t z_begin, std::size_t z_end) {
  const std::size_t plane = p_.edge * p_.edge;
  for (std::size_t i = z_begin * plane; i < z_end * plane; ++i) {
    e_[i] += flux_[i];
    // Volume responds weakly to net in/outflow; clamped so the EOS stays
    // well behaved over long runs.
    v_[i] = std::clamp(v_[i] * (1.0 + 0.01 * std::tanh(flux_[i])), 0.5, 2.0);
  }
}

void MiniLulesh::step() {
  obs::TraceSpan span("simulate", "sched");
  parallel_over_z([this](std::size_t lo, std::size_t hi) { compute_eos(lo, hi); });
  exchange_boundary_planes();
  parallel_over_z([this](std::size_t lo, std::size_t hi) { gather_fluxes(lo, hi); });
  parallel_over_z([this](std::size_t lo, std::size_t hi) { integrate(lo, hi); });
  ++steps_;
}

double MiniLulesh::local_energy() const {
  double total = 0.0;
  for (double e : e_) total += e;
  return total;
}

}  // namespace smart::sim
