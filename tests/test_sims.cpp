// Simulation substrate tests: Heat3D physics invariants and rank-count
// determinism; MiniLulesh conservation/positivity; emulator statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>

#include "sim/emulator.h"
#include "sim/heat3d.h"
#include "sim/minilulesh.h"
#include "simmpi/world.h"

namespace smart::sim {
namespace {

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
