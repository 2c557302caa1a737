// Heat3D: 3D heat-diffusion simulation (7-point Jacobi stencil), the
// paper's "large output per time-step" simulation (reference [2]).
//
// The global domain is partitioned along Z across simmpi ranks; each step
// exchanges one-plane halos with the Z neighbors (both sends before either
// receive, so a step costs one message latency) and applies an explicit
// Euler update.  The per-step output — the rank's interior slab — is a
// contiguous range inside the live grid, so Smart's time-sharing mode can
// analyze it with zero copy, exactly the read-pointer arrangement of the
// paper's Figure 3.
#pragma once

#include <cstddef>
#include <vector>

#include "common/memory_tracker.h"
#include "simmpi/world.h"
#include "threading/thread_pool.h"

namespace smart::sim {

class Heat3D {
 public:
  struct Params {
    std::size_t nx = 32;        ///< grid points in X
    std::size_t ny = 32;        ///< grid points in Y
    std::size_t nz_local = 32;  ///< interior Z planes owned by this rank
    double alpha = 0.12;        ///< diffusion number (stability requires < 1/6)
    double hot_value = 1.0;     ///< Dirichlet temperature of the global bottom plane
  };

  /// comm may be nullptr for a single-process run (no halo neighbors);
  /// pool may be nullptr for a serial sweep.  With a pool, the Jacobi
  /// sweep is split over Z planes across the workers (the simulation's
  /// OpenMP-style parallelism in the paper) and the critical path is
  /// charged to the rank's virtual clock.
  Heat3D(const Params& params, simmpi::Communicator* comm, ThreadPool* pool = nullptr);
  ~Heat3D();

  Heat3D(const Heat3D&) = delete;
  Heat3D& operator=(const Heat3D&) = delete;

  /// Advances one time-step (halo exchange + Jacobi sweep), traced as one
  /// `simulate` span (category "sched").
  void step();

  /// Zero-copy view of this rank's interior slab after the last step:
  /// nx*ny*nz_local doubles, Z-major contiguous.
  const double* output() const { return current().data() + plane_; }
  std::size_t output_len() const { return p_.nz_local * plane_; }

  const Params& params() const { return p_; }
  std::size_t step_count() const { return steps_; }

  /// Bytes of simulation state (both grids), for the memory experiments.
  std::size_t state_bytes() const { return 2 * grid_a_.size() * sizeof(double); }

  double at(std::size_t x, std::size_t y, std::size_t z_interior) const {
    return current()[(z_interior + 1) * plane_ + y * p_.nx + x];
  }

 private:
  const std::vector<double>& current() const { return flip_ ? grid_b_ : grid_a_; }
  std::vector<double>& current() { return flip_ ? grid_b_ : grid_a_; }
  std::vector<double>& next() { return flip_ ? grid_a_ : grid_b_; }

  void exchange_halos();
  void apply_boundaries(std::vector<double>& grid);
  void sweep_planes(std::size_t z_begin, std::size_t z_end);

  Params p_;
  simmpi::Communicator* comm_;
  ThreadPool* pool_;
  std::size_t plane_;  ///< nx*ny
  std::vector<double> grid_a_;
  std::vector<double> grid_b_;
  bool flip_ = false;
  std::size_t steps_ = 0;
  ScopedMemCharge mem_charge_;
};

}  // namespace smart::sim
