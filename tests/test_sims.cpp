// Simulation substrate tests: Heat3D physics invariants and rank-count
// determinism; MiniLulesh conservation/positivity and bit-identity with
// its per-element form; both sims' one-latency halo exchange; emulator
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "sim/emulator.h"
#include "sim/heat3d.h"
#include "sim/minilulesh.h"
#include "simmpi/network.h"
#include "simmpi/world.h"

namespace smart::sim {

/// Every MiniLulesh field, for the bit-identity test.
struct MiniLuleshFields {
  static const std::vector<double>& energy(const MiniLulesh& s) { return s.e_; }
  static const std::vector<double>& volume(const MiniLulesh& s) { return s.v_; }
  static const std::vector<double>& total_pressure(const MiniLulesh& s) { return s.ptot_; }
  static const std::vector<double>& flux_bound(const MiniLulesh& s) { return s.bound_; }
  static const std::vector<double>& flux(const MiniLulesh& s) { return s.flux_; }
};

namespace {

/// Runs `steps` steps of a sim on 2, 3 and 4 ranks with a one-second
/// message latency and returns each launch's final rank clocks.  The
/// steps' own CPU time is a few milliseconds, so a clock reads the number
/// of latencies the steps waited for.
template <typename MakeSim>
std::vector<std::vector<double>> clocks_with_one_second_latency(int steps, MakeSim make_sim) {
  simmpi::NetworkConfig net;
  net.alpha_seconds = 1.0;
  std::vector<std::vector<double>> clocks;
  for (int ranks = 2; ranks <= 4; ++ranks) {
    const simmpi::LaunchStats stats = simmpi::launch(
        ranks,
        [&](simmpi::Communicator& comm) {
          auto sim = make_sim(comm);
          for (int s = 0; s < steps; ++s) sim->step();
        },
        net);
    clocks.push_back(stats.rank_vtime);
  }
  return clocks;
}

void expect_one_latency_per_step(const std::vector<std::vector<double>>& clocks) {
  for (const auto& launch : clocks) {
    for (std::size_t r = 0; r < launch.size(); ++r) {
      EXPECT_GE(launch[r], 2.0) << launch.size() << " ranks, rank " << r;
      EXPECT_LT(launch[r], 2.5) << launch.size() << " ranks, rank " << r;
    }
  }
}

TEST(Heat3D, RejectsBadParameters) {
  EXPECT_THROW(Heat3D({.nx = 2, .ny = 8, .nz_local = 4}, nullptr), std::invalid_argument);
  EXPECT_THROW(Heat3D({.nx = 8, .ny = 8, .nz_local = 4, .alpha = 0.2}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(Heat3D({.nx = 8, .ny = 8, .nz_local = 4, .alpha = -0.1}, nullptr),
               std::invalid_argument);
  // Grid sizes that wrap size_t: nz_local + 2 wraps to 1 (a 1024-element
  // grid every later step overruns) or to 0 (an empty grid the hot-plane
  // write overruns), and the plane product wraps past SIZE_MAX.
  constexpr std::size_t kMax = SIZE_MAX;
  EXPECT_THROW(Heat3D({.nx = 32, .ny = 32, .nz_local = kMax}, nullptr), std::invalid_argument);
  EXPECT_THROW(Heat3D({.nx = 32, .ny = 32, .nz_local = kMax - 1}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(Heat3D({.nx = 32, .ny = 32, .nz_local = kMax / 64}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(Heat3D({.nx = std::size_t{1} << 32, .ny = std::size_t{1} << 32, .nz_local = 1},
                      nullptr),
               std::invalid_argument);
}

TEST(Heat3D, MaxPrincipleHolds) {
  // Diffusion cannot create values outside [cold, hot].
  Heat3D sim({.nx = 12, .ny = 12, .nz_local = 12}, nullptr);
  for (int s = 0; s < 50; ++s) sim.step();
  const double* out = sim.output();
  for (std::size_t i = 0; i < sim.output_len(); ++i) {
    EXPECT_GE(out[i], 0.0);
    EXPECT_LE(out[i], 1.0);
  }
}

TEST(Heat3D, HeatFlowsUpward) {
  // With a hot bottom plane, lower interior planes warm sooner.
  Heat3D sim({.nx = 10, .ny = 10, .nz_local = 10}, nullptr);
  for (int s = 0; s < 80; ++s) sim.step();
  const double bottom = sim.at(5, 5, 0);
  const double top = sim.at(5, 5, 9);
  EXPECT_GT(bottom, top);
  EXPECT_GT(bottom, 0.0);
}

TEST(Heat3D, XYSymmetryPreserved) {
  Heat3D sim({.nx = 9, .ny = 9, .nz_local = 6}, nullptr);
  for (int s = 0; s < 30; ++s) sim.step();
  // The setup is symmetric under x <-> (nx-1-x) and x <-> y.
  for (std::size_t z = 0; z < 6; ++z) {
    EXPECT_NEAR(sim.at(2, 4, z), sim.at(6, 4, z), 1e-12);
    EXPECT_NEAR(sim.at(2, 4, z), sim.at(4, 2, z), 1e-12);
  }
}

TEST(Heat3D, OutputIsZeroCopyView) {
  Heat3D sim({.nx = 8, .ny = 8, .nz_local = 4}, nullptr);
  sim.step();
  const double* a = sim.output();
  sim.step();
  EXPECT_EQ(sim.output_len(), 8u * 8u * 4u);
  // Double buffering flips between two grids; the pointer alternates but
  // never dangles and never requires a copy.
  sim.step();
  EXPECT_EQ(sim.output(), a);
}

TEST(Heat3D, RankCountInvariance) {
  // The same global domain split over 1 vs 3 ranks must evolve identically.
  constexpr std::size_t kNx = 8, kNy = 8, kNzGlobal = 12;
  constexpr int kSteps = 25;

  Heat3D serial({.nx = kNx, .ny = kNy, .nz_local = kNzGlobal}, nullptr);
  for (int s = 0; s < kSteps; ++s) serial.step();

  std::vector<double> gathered(kNx * kNy * kNzGlobal, 0.0);
  simmpi::launch(3, [&](simmpi::Communicator& comm) {
    Heat3D local({.nx = kNx, .ny = kNy, .nz_local = kNzGlobal / 3}, &comm);
    for (int s = 0; s < kSteps; ++s) local.step();
    Buffer mine;
    Writer(mine).write_span(local.output(), local.output_len());
    if (comm.rank() != 0) {
      comm.send(0, 0, std::move(mine));
      return;
    }
    std::size_t at = 0;
    for (int src = 0; src < comm.size(); ++src) {
      const Buffer buf = src == 0 ? std::move(mine) : comm.recv(src, 0);
      Reader r(buf);
      at += r.read_span(gathered.data() + at, gathered.size() - at);
    }
  });

  const double* expected = serial.output();
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    ASSERT_NEAR(gathered[i], expected[i], 1e-12) << "i=" << i;
  }
}

TEST(Heat3D, HaloExchangeCostsOneLatency) {
  // Both boundary planes go out before either halo is received, so two
  // steps wait for two latencies on every rank; an even/odd exchange, in
  // which one side receives before it sends, charged 3-5.
  expect_one_latency_per_step(clocks_with_one_second_latency(2, [](simmpi::Communicator& comm) {
    return std::make_unique<Heat3D>(Heat3D::Params{.nx = 8, .ny = 8, .nz_local = 4}, &comm);
  }));
}

TEST(Heat3D, StateBytesScaleWithDomain) {
  Heat3D small({.nx = 8, .ny = 8, .nz_local = 8}, nullptr);
  Heat3D large({.nx = 8, .ny = 8, .nz_local = 16}, nullptr);
  EXPECT_GT(large.state_bytes(), small.state_bytes());
}

TEST(MiniLulesh, RejectsBadParameters) {
  EXPECT_THROW(MiniLulesh({.edge = 1}, nullptr), std::invalid_argument);
  EXPECT_THROW(MiniLulesh({.edge = 4, .gamma = 0.9}, nullptr), std::invalid_argument);
  EXPECT_THROW(MiniLulesh({.edge = 4, .courant = 0.5}, nullptr), std::invalid_argument);
  // edge^3 wraps to 0 at 2^22: the blast deposit would write into an empty
  // field.  At 2^21 the count fits but five fields' bytes do not.
  EXPECT_THROW(MiniLulesh({.edge = std::size_t{1} << 22}, nullptr), std::invalid_argument);
  EXPECT_THROW(MiniLulesh({.edge = std::size_t{1} << 21}, nullptr), std::invalid_argument);
  EXPECT_THROW(MiniLulesh({.edge = SIZE_MAX}, nullptr), std::invalid_argument);
}

TEST(MiniLulesh, EnergyConservedSingleRank) {
  MiniLulesh sim({.edge = 10}, nullptr);
  const double initial = sim.local_energy();
  for (int s = 0; s < 100; ++s) sim.step();
  EXPECT_NEAR(sim.local_energy(), initial, initial * 1e-12);
}

TEST(MiniLulesh, EnergyStaysPositive) {
  MiniLulesh sim({.edge = 8}, nullptr);
  for (int s = 0; s < 200; ++s) sim.step();
  const double* e = sim.output();
  for (std::size_t i = 0; i < sim.output_len(); ++i) EXPECT_GE(e[i], 0.0) << i;
}

TEST(MiniLulesh, BlastSpreadsOutward) {
  MiniLulesh sim({.edge = 12}, nullptr);
  const double* e0 = sim.output();
  const double corner_before = e0[0];
  for (int s = 0; s < 50; ++s) sim.step();
  const double* e1 = sim.output();
  // Energy leaves the deposition corner and reaches distant elements.
  EXPECT_LT(e1[0], corner_before);
  EXPECT_GT(e1[sim.output_len() - 1], 0.9);  // background was 1.0; stays near it or grows
}

TEST(MiniLulesh, EnergyConservedAcrossRanks) {
  constexpr int kRanks = 3;
  std::vector<double> final_energy(kRanks, 0.0);
  simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
    MiniLulesh sim({.edge = 8}, &comm);
    for (int s = 0; s < 60; ++s) sim.step();
    final_energy[static_cast<std::size_t>(comm.rank())] = sim.local_energy();
  });
  const double total = std::accumulate(final_energy.begin(), final_energy.end(), 0.0);
  // 3 ranks x edge^3 background 1.0 + blast 1000 on rank 0.
  const double expected = 3 * 8.0 * 8.0 * 8.0 + 1000.0;
  EXPECT_NEAR(total, expected, expected * 1e-12);
}

/// The per-element MiniLulesh step the kernels replaced, kept as the
/// reference: an EOS into separate p and q fields, an even/odd two-phase
/// halo exchange of (P, e) planes on its own tags, and a gather that
/// evaluates every neighbour term with std::clamp.  It runs serially: each
/// phase reads only the fields the phase before it wrote, so a Z split
/// changes no bit.
class ReferenceLulesh {
  MiniLulesh::Params p_;
  simmpi::Communicator* comm_;

 public:
  ReferenceLulesh(const MiniLulesh::Params& params, simmpi::Communicator* comm)
      : p_(params),
        comm_(comm),
        e_(params.edge * params.edge * params.edge, 1.0),
        v_(e_.size(), 1.0),
        pres_(e_.size(), 0.0),
        q_(e_.size(), 0.0),
        flux_(e_.size(), 0.0) {
    if (comm_ == nullptr || comm_->rank() == 0) e_[idx(0, 0, 0)] += p_.blast_energy;
  }

  void step() {
    for (std::size_t i = 0; i < e_.size(); ++i) {
      pres_[i] = (p_.gamma - 1.0) * e_[i] / v_[i];
      q_[i] = p_.q_coeff * pres_[i] * std::max(0.0, 1.0 - v_[i]);
    }
    exchange();
    gather();
    for (std::size_t i = 0; i < e_.size(); ++i) {
      e_[i] += flux_[i];
      v_[i] = std::clamp(v_[i] * (1.0 + 0.01 * std::tanh(flux_[i])), 0.5, 2.0);
    }
  }

  std::vector<double> e_, v_, pres_, q_, flux_;

 private:
  static constexpr int kUpTag = 210;
  static constexpr int kDownTag = 211;

  std::size_t idx(std::size_t x, std::size_t y, std::size_t z) const {
    return (z * p_.edge + y) * p_.edge + x;
  }

  void exchange() {
    halo_below_.clear();
    halo_above_.clear();
    e_halo_below_.clear();
    e_halo_above_.clear();
    if (comm_ == nullptr || comm_->size() == 1) return;
    const int rank = comm_->rank();
    const int size = comm_->size();
    const std::size_t plane = p_.edge * p_.edge;
    const std::size_t top = (p_.edge - 1) * plane;
    std::vector<double> bottom_pack(2 * plane);
    std::vector<double> top_pack(2 * plane);
    for (std::size_t i = 0; i < plane; ++i) {
      bottom_pack[i] = pres_[i] + q_[i];
      bottom_pack[plane + i] = e_[i];
      top_pack[i] = pres_[top + i] + q_[top + i];
      top_pack[plane + i] = e_[top + i];
    }
    auto unpack = [&](const std::vector<double>& pack, std::vector<double>& p,
                      std::vector<double>& e) {
      p.assign(pack.begin(), pack.begin() + static_cast<std::ptrdiff_t>(plane));
      e.assign(pack.begin() + static_cast<std::ptrdiff_t>(plane), pack.end());
    };
    for (int phase = 0; phase < 2; ++phase) {
      if (rank % 2 == phase % 2) {
        if (rank + 1 < size) {
          comm_->send_vector(rank + 1, kUpTag, top_pack);
          unpack(comm_->recv_vector<double>(rank + 1, kDownTag), halo_above_, e_halo_above_);
        }
      } else if (rank - 1 >= 0) {
        unpack(comm_->recv_vector<double>(rank - 1, kUpTag), halo_below_, e_halo_below_);
        comm_->send_vector(rank - 1, kDownTag, bottom_pack);
      }
    }
  }

  void gather() {
    const std::size_t n = p_.edge;
    const std::size_t plane = n * n;
    auto inflow = [&](double p_i, double e_i, double p_j, double e_j) {
      return std::clamp(p_.courant * (p_j - p_i), -e_i / 6.0, e_j / 6.0);
    };
    for (std::size_t z = 0; z < n; ++z) {
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

  std::vector<double> halo_below_, halo_above_, e_halo_below_, e_halo_above_;
};

/// "" when the two fields hold the same bits, else where they first differ.
std::string bit_mismatch(const char* name, const std::vector<double>& got,
                         const std::vector<double>& want) {
  if (got.size() == want.size() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0) {
    return "";
  }
  std::size_t i = 0;
  while (i < std::min(got.size(), want.size()) &&
         std::memcmp(&got[i], &want[i], sizeof(double)) == 0) {
    ++i;
  }
  return std::string(name) + " differs at element " + std::to_string(i) + " of " +
         std::to_string(got.size()) + "; ";
}

TEST(MiniLulesh, StepMatchesParentBitForBit) {
  // Edge 2 leaves the interior row kernel empty; 3 gives it one element;
  // 17 leaves a remainder after any vector width.  Every rank count puts
  // a halo on both sides of some rank but the first and last.
  constexpr int kSteps = 300;
  for (const std::size_t edge : {2, 3, 8, 17}) {
    for (const int ranks : {1, 2, 3}) {
      for (const int legs : {0, 1, 3}) {
        const MiniLulesh::Params params{.edge = edge};
        std::vector<std::string> mismatch(static_cast<std::size_t>(ranks));
        simmpi::launch(ranks, [&](simmpi::Communicator& comm) {
          std::unique_ptr<ThreadPool> pool;
          if (legs > 0) pool = std::make_unique<ThreadPool>(legs);
          MiniLulesh sim(params, &comm, pool.get());
          ReferenceLulesh ref(params, &comm);
          std::vector<double> e_before_last;
          for (int s = 0; s < kSteps; ++s) {
            if (s + 1 == kSteps) e_before_last = ref.e_;
            sim.step();
            ref.step();
          }
          std::vector<double> ptot(ref.e_.size());
          std::vector<double> bound(ref.e_.size());
          for (std::size_t i = 0; i < ptot.size(); ++i) {
            ptot[i] = ref.pres_[i] + ref.q_[i];
            bound[i] = e_before_last[i] / 6.0;
          }
          mismatch[static_cast<std::size_t>(comm.rank())] =
              bit_mismatch("e", MiniLuleshFields::energy(sim), ref.e_) +
              bit_mismatch("v", MiniLuleshFields::volume(sim), ref.v_) +
              bit_mismatch("P", MiniLuleshFields::total_pressure(sim), ptot) +
              bit_mismatch("e/6", MiniLuleshFields::flux_bound(sim), bound) +
              bit_mismatch("flux", MiniLuleshFields::flux(sim), ref.flux_);
        });
        for (int r = 0; r < ranks; ++r) {
          EXPECT_EQ(mismatch[static_cast<std::size_t>(r)], "")
              << "edge " << edge << ", " << ranks << " ranks, pool legs " << legs << ", rank "
              << r;
        }
      }
    }
  }
}

TEST(MiniLulesh, HaloExchangeCostsOneLatency) {
  // Both (P, e/6) boundary planes go out before either is received, so
  // two steps wait for two latencies on every rank; the even/odd
  // exchange charged 3-5.
  expect_one_latency_per_step(clocks_with_one_second_latency(2, [](simmpi::Communicator& comm) {
    return std::make_unique<MiniLulesh>(MiniLulesh::Params{.edge = 8}, &comm);
  }));
}

TEST(MiniLulesh, StateGrowsCubically) {
  MiniLulesh small({.edge = 8}, nullptr);
  MiniLulesh large({.edge = 16}, nullptr);
  EXPECT_EQ(large.state_bytes(), small.state_bytes() * 8);
}

TEST(Emulator, GaussianMoments) {
  Emulator emu({.step_len = 100000, .mean = 2.0, .stddev = 3.0, .seed = 8});
  const double* data = emu.step();
  double mean = 0.0;
  for (std::size_t i = 0; i < emu.step_len(); ++i) mean += data[i];
  mean /= static_cast<double>(emu.step_len());
  double var = 0.0;
  for (std::size_t i = 0; i < emu.step_len(); ++i) var += (data[i] - mean) * (data[i] - mean);
  var /= static_cast<double>(emu.step_len());
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Emulator, StepsDiffer) {
  Emulator emu({.step_len = 16, .seed = 9});
  emu.step();
  const std::vector<double> first = emu.buffer();
  emu.step();
  const std::vector<double> second = emu.buffer();
  EXPECT_NE(first, second);
  EXPECT_EQ(emu.step_count(), 2u);
}

TEST(LabeledEmulator, LabelsCorrelateWithTruth) {
  LabeledEmulator emu({.records_per_step = 5000, .dim = 4, .seed = 10});
  const double* data = emu.step();
  const auto& truth = emu.truth();
  // The sign of w.x should predict the label much better than chance.
  int correct = 0;
  for (std::size_t r = 0; r < 5000; ++r) {
    const double* x = data + r * 5;
    double dot = 0.0;
    for (std::size_t d = 0; d < 4; ++d) dot += truth[d] * x[d];
    const bool predicted = dot > 0.0;
    const bool actual = x[4] > 0.5;
    if (predicted == actual) ++correct;
  }
  EXPECT_GT(correct, 3500);
}

}  // namespace
}  // namespace smart::sim
