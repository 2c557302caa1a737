// MiniLulesh: a LULESH-shaped proxy simulation (paper reference [3]).
//
// The paper uses LULESH as the "moderate output per step, cubic memory
// growth with edge size" simulation for Figures 8, 9(b), 10 and 11(b).
// What those experiments exercise is LULESH's *resource profile*, not its
// hydrodynamics, so this proxy implements a conservative explicit-flux
// blast relaxation on a structured hex mesh:
//
//   * each rank owns an edge^3 element cube (the paper varies exactly this
//     edge size); cubes are stacked along Z with one-plane halo exchange;
//   * per element we carry energy e, relative volume v, total pressure
//     P = p + q (an ideal-gas p plus a von-Neumann-style artificial
//     viscosity q for compressing cells), the flux bound e/6 and the net
//     flux — five edge^3 double fields, so memory grows cubically in
//     `edge` just like LULESH;
//   * a Sedov-like point energy deposition initializes the corner of rank
//     0's cube; each step evaluates the EOS, exchanges the (P, e/6)
//     boundary planes with the Z neighbours, and moves energy between
//     neighbor elements in flux form (antisymmetric), so total energy is
//     conserved exactly — the invariant the test suite checks;
//   * the exchange posts both sends before either receive, so a step costs
//     one message latency of virtual time, as LULESH's Isend/Irecv/Waitall
//     does;
//   * the EOS and the flux sweep's row interiors are branch-free kernels
//     GCC vectorizes at -O3 (scripts/check.sh's vec probe checks both),
//     and every field is bit-identical to the per-element form they
//     replaced (MiniLulesh.StepMatchesParentBitForBit keeps that form as
//     its reference);
//   * each step is one `simulate` trace span (category "sched"), which the
//     critical-path report counts as a phase;
//   * the per-step analytics input is the energy field (edge^3 doubles),
//     contiguous and zero-copy, matching the paper's "typically smaller
//     than 100 MB per node" output.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/memory_tracker.h"
#include "simmpi/world.h"
#include "threading/thread_pool.h"

namespace smart::sim {

class MiniLulesh {
 public:
  struct Params {
    std::size_t edge = 24;      ///< elements per cube edge on this rank
    double gamma = 1.4;         ///< ideal-gas EOS constant
    double courant = 0.05;      ///< flux limiter (fraction of energy moved per step)
    double q_coeff = 0.3;       ///< artificial-viscosity strength
    double blast_energy = 1.0e3;///< Sedov deposition at rank 0's origin corner
  };

  /// pool may be nullptr for a serial update; with a pool the EOS and flux
  /// sweeps split over Z slabs (the flux is computed in gather form — each
  /// element sums the exactly antisymmetric pair terms itself — so the
  /// parallel sweep is race-free and conservation stays exact).
  MiniLulesh(const Params& params, simmpi::Communicator* comm, ThreadPool* pool = nullptr);

  MiniLulesh(const MiniLulesh&) = delete;
  MiniLulesh& operator=(const MiniLulesh&) = delete;

  void step();

  /// Zero-copy view of the energy field after the last step (edge^3).
  const double* output() const { return e_.data(); }
  std::size_t output_len() const { return e_.size(); }

  const Params& params() const { return p_; }
  std::size_t step_count() const { return steps_; }

  /// All five fields, for the memory experiments (grows as edge^3).
  std::size_t state_bytes() const {
    return (e_.size() + v_.size() + ptot_.size() + bound_.size() + flux_.size()) * sizeof(double);
  }

  /// Rank-local total energy; allreduced across ranks it is conserved.
  double local_energy() const;

 private:
  /// Reads every field (tests/test_sims.cpp).
  friend struct MiniLuleshFields;

  void compute_eos(std::size_t z_begin, std::size_t z_end);
  void exchange_boundary_planes();
  void gather_fluxes(std::size_t z_begin, std::size_t z_end);
  void integrate(std::size_t z_begin, std::size_t z_end);
  void parallel_over_z(const std::function<void(std::size_t, std::size_t)>& body);

  Params p_;
  simmpi::Communicator* comm_;
  ThreadPool* pool_;
  std::vector<double> e_;      ///< element energy
  std::vector<double> v_;      ///< relative volume
  std::vector<double> ptot_;   ///< total pressure P = p + q
  std::vector<double> bound_;  ///< flux bound e/6 (the most one face may move)
  std::vector<double> flux_;   ///< per-element net flux scratch
  /// The Z neighbours' boundary planes, copied out of each step's halo
  /// messages: rank-1's top P and e/6 planes, then rank+1's bottom ones.
  /// Empty without a communicator or on one rank.
  std::vector<double> halo_;
  std::size_t steps_ = 0;
  ScopedMemCharge mem_charge_;
};

}  // namespace smart::sim
