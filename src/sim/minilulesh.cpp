#include "sim/minilulesh.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace smart::sim {

namespace {
constexpr int kPresUpTag = 110;
constexpr int kPresDownTag = 111;

Buffer plane_buffer(const double* data, std::size_t count) {
  const auto* p = reinterpret_cast<const std::byte*>(data);
  return Buffer(p, p + count * sizeof(double));
}

void unpack_plane(const Buffer& buf, std::vector<double>& dst) {
  dst.resize(buf.size() / sizeof(double));
  std::memcpy(dst.data(), buf.data(), buf.size());
}

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
}  // namespace

MiniLulesh::MiniLulesh(const Params& params, simmpi::Communicator* comm, ThreadPool* pool)
    : p_(validated(params)),
      comm_(comm),
      pool_(pool),
      e_(params.edge * params.edge * params.edge, 1.0),
      v_(e_.size(), 1.0),
      pres_(e_.size(), 0.0),
      q_(e_.size(), 0.0),
      flux_(e_.size(), 0.0),
      mem_charge_(MemCategory::kSimulation,
                  5 * params.edge * params.edge * params.edge * sizeof(double)) {
  // Sedov-like deposition: a point blast at the global origin corner.
  if (comm_ == nullptr || comm_->rank() == 0) {
    e_[idx(0, 0, 0)] += p_.blast_energy;
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
  for (std::size_t i = z_begin * plane; i < z_end * plane; ++i) {
    pres_[i] = (p_.gamma - 1.0) * e_[i] / v_[i];
    // Artificial viscosity: resists further compression of already
    // compressed (v < 1) elements, a von-Neumann-style q proxy.
    q_[i] = p_.q_coeff * pres_[i] * std::max(0.0, 1.0 - v_[i]);
  }
}

void MiniLulesh::exchange_boundary_pressure() {
  halo_below_.clear();
  halo_above_.clear();
  e_halo_below_.clear();
  e_halo_above_.clear();
  if (comm_ == nullptr || comm_->size() == 1) return;

  const int rank = comm_->rank();
  const int size = comm_->size();
  const std::size_t plane = p_.edge * p_.edge;
  const std::size_t top = (p_.edge - 1) * plane;

  // Total pressure plane P = p + q plus the energy plane (for the
  // symmetric positivity clamp); packed as [P..., e...].
  std::vector<double> bottom_pack(2 * plane);
  std::vector<double> top_pack(2 * plane);
  for (std::size_t i = 0; i < plane; ++i) {
    bottom_pack[i] = pres_[i] + q_[i];
    bottom_pack[plane + i] = e_[i];
    top_pack[i] = pres_[top + i] + q_[top + i];
    top_pack[plane + i] = e_[top + i];
  }

  for (int phase = 0; phase < 2; ++phase) {
    const bool talk_up = (rank % 2 == phase % 2);
    if (talk_up) {
      if (rank + 1 < size) {
        comm_->send(rank + 1, kPresUpTag, plane_buffer(top_pack.data(), top_pack.size()));
        std::vector<double> pack;
        unpack_plane(comm_->recv(rank + 1, kPresDownTag), pack);
        halo_above_.assign(pack.begin(), pack.begin() + static_cast<std::ptrdiff_t>(plane));
        e_halo_above_.assign(pack.begin() + static_cast<std::ptrdiff_t>(plane), pack.end());
      }
    } else {
      if (rank - 1 >= 0) {
        std::vector<double> pack;
        unpack_plane(comm_->recv(rank - 1, kPresUpTag), pack);
        halo_below_.assign(pack.begin(), pack.begin() + static_cast<std::ptrdiff_t>(plane));
        e_halo_below_.assign(pack.begin() + static_cast<std::ptrdiff_t>(plane), pack.end());
        comm_->send(rank - 1, kPresDownTag, plane_buffer(bottom_pack.data(), bottom_pack.size()));
      }
    }
  }
}

void MiniLulesh::gather_fluxes(std::size_t z_begin, std::size_t z_end) {
  const std::size_t n = p_.edge;
  const std::size_t plane = n * n;

  // Gather form: each element sums its own side of the pairwise exchange.
  // For neighbors i, j the pair terms are exact negatives (the clamp is
  // antisymmetric), so global conservation is exact and the sweep is
  // race-free under any Z split.
  auto inflow = [&](double p_i, double e_i, double p_j, double e_j) {
    return std::clamp(p_.courant * (p_j - p_i), -e_i / 6.0, e_j / 6.0);
  };

  for (std::size_t z = z_begin; z < z_end; ++z) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        const std::size_t i = idx(x, y, z);
        const double pi = pres_[i] + q_[i];
        const double ei = e_[i];
        double net = 0.0;
        auto add_neighbor = [&](std::size_t j) {
          net += inflow(pi, ei, pres_[j] + q_[j], e_[j]);
        };
        if (x > 0) add_neighbor(i - 1);
        if (x + 1 < n) add_neighbor(i + 1);
        if (y > 0) add_neighbor(i - n);
        if (y + 1 < n) add_neighbor(i + n);
        if (z > 0) add_neighbor(i - plane);
        if (z + 1 < n) add_neighbor(i + plane);
        // Cross-rank faces: both sides evaluate the identical clamped term
        // from the exchanged (P, e) planes, so the pair still cancels.
        if (z == 0 && !halo_below_.empty()) {
          net += inflow(pi, ei, halo_below_[y * n + x], e_halo_below_[y * n + x]);
        }
        if (z + 1 == n && !halo_above_.empty()) {
          net += inflow(pi, ei, halo_above_[y * n + x], e_halo_above_[y * n + x]);
        }
        flux_[i] = net;
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
  parallel_over_z([this](std::size_t lo, std::size_t hi) { compute_eos(lo, hi); });
  exchange_boundary_pressure();
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
