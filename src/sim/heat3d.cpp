#include "sim/heat3d.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/memory_tracker.h"
#include "common/serialize.h"
#include "obs/trace.h"

namespace smart::sim {

namespace {
constexpr int kHaloUpTag = 100;    // plane traveling to the rank above (higher z)
constexpr int kHaloDownTag = 101;  // plane traveling to the rank below

/// Rejects bad parameters before any member allocates, including a domain
/// whose two grids of (nz_local + 2) * nx * ny doubles overflow size_t.
const Heat3D::Params& validated(const Heat3D::Params& p) {
  if (p.nx < 3 || p.ny < 3 || p.nz_local < 1) {
    throw std::invalid_argument("Heat3D: domain too small (need nx,ny >= 3, nz_local >= 1)");
  }
  if (p.alpha <= 0.0 || p.alpha >= 1.0 / 6.0) {
    throw std::invalid_argument("Heat3D: alpha must be in (0, 1/6) for stability");
  }
  std::size_t elems = 0;
  if (p.nz_local > SIZE_MAX - 2 || __builtin_mul_overflow(p.nx, p.ny, &elems) ||
      __builtin_mul_overflow(elems, p.nz_local + 2, &elems) ||
      elems > SIZE_MAX / (2 * sizeof(double))) {
    throw std::invalid_argument("Heat3D: (nz_local + 2) * nx * ny elements overflow");
  }
  return p;
}
}  // namespace

Heat3D::Heat3D(const Params& params, simmpi::Communicator* comm, ThreadPool* pool)
    : p_(validated(params)),
      comm_(comm),
      pool_(pool),
      plane_(params.nx * params.ny),
      grid_a_((params.nz_local + 2) * params.nx * params.ny, 0.0),
      grid_b_((params.nz_local + 2) * params.nx * params.ny, 0.0),
      mem_charge_(MemCategory::kSimulation,
                  2 * (params.nz_local + 2) * params.nx * params.ny * sizeof(double)) {
  apply_boundaries(grid_a_);
  apply_boundaries(grid_b_);
}

Heat3D::~Heat3D() = default;

void Heat3D::apply_boundaries(std::vector<double>& grid) {
  // Global bottom plane held hot (Dirichlet); all other outer faces cold.
  const bool is_bottom_rank = comm_ == nullptr || comm_->rank() == 0;
  if (is_bottom_rank) {
    for (std::size_t i = 0; i < plane_; ++i) grid[i] = p_.hot_value;  // z = 0 halo plane
  }
}

void Heat3D::exchange_halos() {
  if (comm_ == nullptr || comm_->size() == 1) return;
  const int rank = comm_->rank();
  const bool below = rank > 0;
  const bool above = rank + 1 < comm_->size();
  double* grid = current().data();
  const std::size_t plane_bytes = plane_ * sizeof(double);

  auto pack = [&](std::size_t z) {
    Buffer out = BufferPool::acquire(plane_bytes);
    const auto* bytes = reinterpret_cast<const std::byte*>(grid + z * plane_);
    out.insert(out.end(), bytes, bytes + plane_bytes);
    return out;
  };
  auto unpack = [&](int from, int tag, std::size_t z) {
    const SharedBuffer halo = comm_->recv_shared(from, tag);
    if (halo.size() != plane_bytes) {
      throw std::runtime_error("Heat3D: rank " + std::to_string(from) + " sent a " +
                               std::to_string(halo.size()) + "-byte halo, expected " +
                               std::to_string(plane_bytes));
    }
    std::memcpy(grid + z * plane_, halo.data(), plane_bytes);
  };

  // Both boundary planes go out before either halo is received (a send
  // never blocks), so the step waits for one message latency, as an
  // Isend/Irecv/Waitall exchange does.
  if (below) comm_->send(rank - 1, kHaloDownTag, pack(1));
  if (above) comm_->send(rank + 1, kHaloUpTag, pack(p_.nz_local));
  if (below) unpack(rank - 1, kHaloUpTag, 0);
  if (above) unpack(rank + 1, kHaloDownTag, p_.nz_local + 1);
}

void Heat3D::sweep_planes(std::size_t z_begin, std::size_t z_end) {
  const auto& cur = current();
  auto& nxt = next();
  const std::size_t nx = p_.nx;
  const std::size_t ny = p_.ny;
  const double a = p_.alpha;
  for (std::size_t z = z_begin; z < z_end; ++z) {
    for (std::size_t y = 1; y + 1 < ny; ++y) {
      const std::size_t row = z * plane_ + y * nx;
      for (std::size_t x = 1; x + 1 < nx; ++x) {
        const std::size_t i = row + x;
        const double c = cur[i];
        nxt[i] = c + a * (cur[i - 1] + cur[i + 1] + cur[i - nx] + cur[i + nx] +
                          cur[i - plane_] + cur[i + plane_] - 6.0 * c);
      }
    }
  }
}

void Heat3D::step() {
  obs::TraceSpan span("simulate", "sched");
  exchange_halos();
  // The global top face is cold Dirichlet: the top rank's outermost
  // interior plane keeps its halo (initialized to 0) as neighbor.
  if (pool_ != nullptr) {
    // Jacobi writes to a disjoint grid, so a plane split is race-free.
    const int nw = pool_->size();
    const auto busy = pool_->parallel_region([&](int w) {
      const std::size_t per = p_.nz_local / static_cast<std::size_t>(nw);
      const std::size_t extra = p_.nz_local % static_cast<std::size_t>(nw);
      const auto uw = static_cast<std::size_t>(w);
      const std::size_t begin = 1 + uw * per + std::min(uw, extra);
      const std::size_t end = begin + per + (uw < extra ? 1 : 0);
      sweep_planes(begin, end);
    });
    if (comm_ != nullptr) comm_->advance_region(busy);
  } else {
    sweep_planes(1, p_.nz_local + 1);
  }
  auto& nxt = next();
  apply_boundaries(nxt);
  flip_ = !flip_;
  ++steps_;
}

}  // namespace smart::sim
