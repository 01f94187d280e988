// Tests for the resistive-grid nodal solver against hand-solvable circuits.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "wsp/common/error.hpp"
#include "wsp/pdn/resistive_grid.hpp"

namespace wsp::pdn {
namespace {

template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "(no wsp::Error thrown)";
}

TEST(ResistiveGrid, RejectsDegenerateGrids) {
  EXPECT_THROW(ResistiveGrid(1, 5), Error);
  EXPECT_NO_THROW(ResistiveGrid(2, 2));
}

TEST(ResistiveGrid, VoltageDividerTwoNodes) {
  // 3x2 grid as two independent 1-D dividers: each row is a chain of two
  // 1-ohm resistors from 1 V to 0 V, so both midpoints sit at 0.5 V.
  // (Both rows are driven: an undriven row would be a floating island.)
  ResistiveGrid g(3, 2);
  g.fill_conductances(1.0, 0.0);  // horizontal chains only
  for (int y = 0; y < 2; ++y) {
    g.set_dirichlet(0, y, 1.0);
    g.set_dirichlet(2, y, 0.0);
  }
  const SolveStats stats = g.solve({.tol = 1e-10});
  EXPECT_TRUE(stats.converged);
  EXPECT_NEAR(g.voltage(1, 0), 0.5, 1e-8);
  EXPECT_NEAR(g.voltage(1, 1), 0.5, 1e-8);
}

TEST(ResistiveGrid, FloatingRegionIsRejected) {
  // A connected region no Dirichlet node or shunt reaches has no unique
  // solution; the solve names the defect instead of returning an
  // arbitrary offset.  With these conductances the island's last Cholesky
  // pivot cancels to a tiny positive rounding residue, not exactly zero.
  ResistiveGrid g(3, 2);
  g.fill_conductances(0.137, 0.0);
  g.set_conductance_east(0, 1, 0.1);
  g.set_conductance_east(1, 1, 0.113);
  g.set_dirichlet(0, 0, 1.0);  // row 1 stays an ungrounded island
  EXPECT_EQ(thrown_message([&] { g.solve(); }),
            "multigrid coarsest operator is not positive definite — the "
            "grid has a floating region no Dirichlet node or shunt grounds");
}

TEST(ResistiveGrid, OhmsLawSingleSink) {
  // One source node, one load node, single 2-S conductance between them:
  // drawing 1 A must drop 0.5 V.
  ResistiveGrid g(2, 2);
  g.set_conductance_east(0, 0, 2.0);
  g.set_dirichlet(0, 0, 1.0);
  g.set_current_sink(1, 0, 1.0);
  const SolveStats stats = g.solve({.tol = 1e-12});
  EXPECT_TRUE(stats.converged);
  EXPECT_NEAR(g.voltage(1, 0), 0.5, 1e-9);
  // KCL at the supply: it must deliver exactly the sink current.
  EXPECT_NEAR(g.total_supply_current(), 1.0, 1e-6);
  // P = I^2 / G = 0.5 W dissipated in the resistor.
  EXPECT_NEAR(g.dissipated_power(), 0.5, 1e-6);
}

TEST(ResistiveGrid, SymmetricLoadGivesSymmetricSolution) {
  ResistiveGrid g(9, 9);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 9; ++x) {
    g.set_dirichlet(x, 0, 1.0);
    g.set_dirichlet(x, 8, 1.0);
  }
  for (int y = 0; y < 9; ++y) {
    g.set_dirichlet(0, y, 1.0);
    g.set_dirichlet(8, y, 1.0);
  }
  g.set_current_sink(4, 4, 0.1);
  ASSERT_TRUE(g.solve({.tol = 1e-11}).converged);
  // 4-fold symmetry of the Laplace solution.
  EXPECT_NEAR(g.voltage(3, 4), g.voltage(5, 4), 1e-8);
  EXPECT_NEAR(g.voltage(4, 3), g.voltage(4, 5), 1e-8);
  EXPECT_NEAR(g.voltage(2, 4), g.voltage(4, 2), 1e-8);
  // The minimum sits at the sink.
  for (int y = 1; y < 8; ++y)
    for (int x = 1; x < 8; ++x)
      EXPECT_GE(g.voltage(x, y), g.voltage(4, 4) - 1e-9);
}

TEST(ResistiveGrid, MaximumPrincipleNoSinks) {
  // With no current sinks, interior voltages must lie between the
  // boundary extremes (discrete maximum principle).
  ResistiveGrid g(6, 6);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 6; ++x) {
    g.set_dirichlet(x, 0, 1.0);
    g.set_dirichlet(x, 5, 2.0);
  }
  ASSERT_TRUE(g.solve({.tol = 1e-11}).converged);
  for (int y = 1; y < 5; ++y)
    for (int x = 0; x < 6; ++x) {
      EXPECT_GE(g.voltage(x, y), 1.0 - 1e-9);
      EXPECT_LE(g.voltage(x, y), 2.0 + 1e-9);
    }
}

TEST(ResistiveGrid, CurrentConservationManySinks) {
  ResistiveGrid g(12, 12);
  g.fill_conductances(3.0, 2.0);
  for (int x = 0; x < 12; ++x) g.set_dirichlet(x, 0, 2.5);
  double total_load = 0.0;
  for (int y = 2; y < 11; ++y)
    for (int x = 1; x < 11; ++x) {
      g.set_current_sink(x, y, 0.01);
      total_load += 0.01;
    }
  ASSERT_TRUE(g.solve({.tol = 1e-11}).converged);
  EXPECT_NEAR(g.total_supply_current(), total_load, 1e-5);
}

TEST(ResistiveGrid, DeeperNodesDroopMore) {
  // Edge-fed grid with uniform load: voltage decreases monotonically with
  // distance from the powered edge.
  ResistiveGrid g(8, 8);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 8; ++x) g.set_dirichlet(x, 0, 1.0);
  for (int y = 1; y < 8; ++y)
    for (int x = 0; x < 8; ++x) g.set_current_sink(x, y, 0.001);
  ASSERT_TRUE(g.solve({.tol = 1e-11}).converged);
  for (int y = 1; y < 7; ++y)
    EXPECT_GT(g.voltage(4, y), g.voltage(4, y + 1));
}

TEST(ResistiveGrid, SolverSeedsFromPreviousSolution) {
  ResistiveGrid g(10, 10);
  g.fill_conductances(1.0, 1.0);
  for (int x = 0; x < 10; ++x) g.set_dirichlet(x, 0, 1.0);
  g.set_current_sink(5, 5, 0.01);
  const SolveStats cold = g.solve({.tol = 1e-10});
  ASSERT_TRUE(cold.converged);
  // Re-solving the identical system from the converged state is ~free.
  const SolveStats warm = g.solve({.tol = 1e-10});
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);
}

TEST(ResistiveGrid, ResidualReportsKirchhoffCurrentLaw) {
  // SolveStats.residual is the max nodal current-balance error in amperes
  // (not the omega-scaled update delta).  Recompute KCL by hand at every
  // non-Dirichlet node and compare.
  ResistiveGrid g(8, 8);
  g.fill_conductances(2.0, 3.0);
  for (int x = 0; x < 8; ++x) g.set_dirichlet(x, 0, 1.5);
  for (int y = 1; y < 8; ++y)
    for (int x = 0; x < 8; ++x) g.set_current_sink(x, y, 0.002);
  const SolveStats stats = g.solve({.tol = 1e-12});
  ASSERT_TRUE(stats.converged);

  double max_kcl = 0.0;
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      if (g.is_dirichlet(x, y)) continue;
      double balance = -g.current_sink(x, y);
      if (x > 0) balance += 2.0 * (g.voltage(x - 1, y) - g.voltage(x, y));
      if (x < 7) balance += 2.0 * (g.voltage(x + 1, y) - g.voltage(x, y));
      if (y > 0) balance += 3.0 * (g.voltage(x, y - 1) - g.voltage(x, y));
      if (y < 7) balance += 3.0 * (g.voltage(x, y + 1) - g.voltage(x, y));
      max_kcl = std::max(max_kcl, std::abs(balance));
    }
  // Same quantity, modulo FP association in the by-hand recomputation.
  EXPECT_NEAR(stats.residual, max_kcl, 1e-12);
  // Converged to 1e-12 V updates => nodal balances are tight in amperes.
  EXPECT_LT(stats.residual, 1e-9);
  // And it is NOT the voltage update (which is reported separately).
  EXPECT_GE(stats.max_delta_v, 0.0);
  EXPECT_LT(stats.max_delta_v, 1e-12);
}

TEST(ResistiveGrid, InvalidArgumentsThrow) {
  ResistiveGrid g(4, 4);
  EXPECT_THROW(g.set_conductance_east(3, 0, 1.0), Error);  // off the edge
  EXPECT_THROW(g.set_conductance_north(0, 3, 1.0), Error);
  EXPECT_THROW(g.set_conductance_east(0, 0, -1.0), Error);

  // A NaN tolerance used to spin the iteration to its cap; every
  // non-finite or non-positive value is now rejected by name.
  g.fill_conductances(1.0, 1.0);
  g.set_dirichlet(0, 0, 1.0);
  std::vector<double> v(g.node_count(), 0.0);
  const std::vector<double> sink(g.node_count(), 0.0);
  const RhsView view{sink, v};
  SolveStats stats;
  for (const double tol : {std::nan(""), 0.0, -1.0}) {
    EXPECT_EQ(thrown_message([&] { g.solve({.tol = tol}); }),
              "solver.tol must be finite and positive")
        << "tol=" << tol;
    EXPECT_EQ(thrown_message([&] {
                g.solve_batch({&view, 1}, {&stats, 1}, {.tol = tol});
              }),
              "solver.tol must be finite and positive")
        << "tol=" << tol;
  }
}

}  // namespace
}  // namespace wsp::pdn
