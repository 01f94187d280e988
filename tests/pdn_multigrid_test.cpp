// Tests for the geometric multigrid PDN solver: agreement with an exact
// dense direct solve on mixed Dirichlet/shunt/sink problems, KCL closure
// and the Fig. 2 bounds on the paper-prototype wafer, grid-size-independent
// V-cycle counts, batched multi-RHS equivalence, and bit-identical results
// at every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "wsp/exec/thread_pool.hpp"
#include "wsp/pdn/resistive_grid.hpp"
#include "wsp/pdn/wafer_pdn.hpp"

namespace wsp::pdn {
namespace {

SolverConfig multigrid_config(double tol = 1e-9) { return {.tol = tol}; }

// Solve tolerance for the exact-oracle comparisons: the stopping rule
// bounds the error only up to its contraction-rate estimate, so the solve
// runs 10x tighter than the 1e-9 V agreement it must show.
constexpr double kOracleTol = 1e-10;

/// A resistor-grid circuit held as plain data, so the same description
/// builds the ResistiveGrid under test and the exact reference solve.
struct Circuit {
  int w = 0;
  int h = 0;
  // Per node, indexed by at(): conductance to the east / north neighbour
  // (unused on the last column / row), shunt to shunt_v, sink, and the
  // Dirichlet voltage (NaN for a free node).
  std::vector<double> g_east, g_north, shunt_g, shunt_v, sink, fixed;

  Circuit(int width, int height, double gx, double gy)
      : w(width),
        h(height),
        g_east(static_cast<std::size_t>(width) * height, gx),
        g_north(g_east.size(), gy),
        shunt_g(g_east.size(), 0.0),
        shunt_v(g_east.size(), 0.0),
        sink(g_east.size(), 0.0),
        fixed(g_east.size(), std::numeric_limits<double>::quiet_NaN()) {}

  std::size_t at(int x, int y) const {
    return static_cast<std::size_t>(y) * w + x;
  }

  ResistiveGrid build() const {
    ResistiveGrid g(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        if (x + 1 < w) g.set_conductance_east(x, y, g_east[at(x, y)]);
        if (y + 1 < h) g.set_conductance_north(x, y, g_north[at(x, y)]);
        if (shunt_g[at(x, y)] > 0.0)
          g.set_shunt(x, y, shunt_g[at(x, y)], shunt_v[at(x, y)]);
        if (!std::isnan(fixed[at(x, y)]))
          g.set_dirichlet(x, y, fixed[at(x, y)]);
      }
    g.set_current_sinks(sink);
    return g;
  }

  /// Exact node voltages: the nodal matrix over the free nodes, assembled
  /// from the circuit description and solved by dense Cholesky.  Sized for
  /// grids up to ~1k free nodes.
  std::vector<double> exact() const {
    std::vector<int> unknown(fixed.size(), -1);
    std::vector<std::size_t> node_of;
    for (std::size_t i = 0; i < fixed.size(); ++i)
      if (std::isnan(fixed[i])) {
        unknown[i] = static_cast<int>(node_of.size());
        node_of.push_back(i);
      }
    const std::size_t n = node_of.size();
    std::vector<double> a(n * n, 0.0), b(n, 0.0);
    const auto couple = [&](std::size_t i, std::size_t j, double g) {
      // Edge i-j of conductance g, stamped into row i.
      const int r = unknown[i];
      if (r < 0 || g == 0.0) return;
      a[r * n + r] += g;
      if (unknown[j] >= 0)
        a[r * n + unknown[j]] -= g;
      else
        b[r] += g * fixed[j];
    };
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        const std::size_t i = at(x, y);
        if (x + 1 < w) {
          couple(i, i + 1, g_east[i]);
          couple(i + 1, i, g_east[i]);
        }
        if (y + 1 < h) {
          couple(i, i + w, g_north[i]);
          couple(i + w, i, g_north[i]);
        }
        if (const int r = unknown[i]; r >= 0) {
          a[r * n + r] += shunt_g[i];
          b[r] += shunt_g[i] * shunt_v[i] - sink[i];
        }
      }
    // In-place lower Cholesky, then forward and back substitution.
    for (std::size_t j = 0; j < n; ++j) {
      double* row_j = &a[j * n];
      for (std::size_t k = 0; k < j; ++k) row_j[j] -= row_j[k] * row_j[k];
      row_j[j] = std::sqrt(row_j[j]);
      for (std::size_t i = j + 1; i < n; ++i) {
        double* row_i = &a[i * n];
        for (std::size_t k = 0; k < j; ++k) row_i[j] -= row_i[k] * row_j[k];
        row_i[j] /= row_j[j];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < i; ++k) b[i] -= a[i * n + k] * b[k];
      b[i] /= a[i * n + i];
    }
    for (std::size_t i = n; i-- > 0;) {
      for (std::size_t k = i + 1; k < n; ++k) b[i] -= a[k * n + i] * b[k];
      b[i] /= a[i * n + i];
    }
    std::vector<double> v = fixed;
    for (std::size_t r = 0; r < n; ++r) v[node_of[r]] = b[r];
    return v;
  }
};

/// Edge-supplied power plane: Dirichlet ring at 2.5 V, uniform interior
/// draw — the wafer solve's structure at grid level.
Circuit plane_circuit(int n) {
  Circuit c(n, n, 5.0, 5.0);
  for (int i = 0; i < n; ++i) {
    c.fixed[c.at(i, 0)] = c.fixed[c.at(i, n - 1)] = 2.5;
    c.fixed[c.at(0, i)] = c.fixed[c.at(n - 1, i)] = 2.5;
  }
  for (int y = 1; y < n - 1; ++y)
    for (int x = 1; x < n - 1; ++x) c.sink[c.at(x, y)] = 0.02;
  return c;
}

ResistiveGrid make_plane(int n) { return plane_circuit(n).build(); }

double max_voltage_diff(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  return max_diff;
}

TEST(Multigrid, MatchesDirectSolveOnDirichletRing) {
  // Odd size exercises the no-2^k+1-requirement coarsening path.
  const Circuit c = plane_circuit(33);
  ResistiveGrid mg = c.build();
  ASSERT_TRUE(mg.solve(multigrid_config(kOracleTol)).converged);
  EXPECT_LE(max_voltage_diff(mg.voltages(), c.exact()), 1e-9);
}

TEST(Multigrid, MatchesDirectSolveWithShuntsSinksAndInjection) {
  // Mixed boundary conditions: interior Dirichlet posts, shunts to two
  // different references (loads to ground and a thermal-style path), point
  // draws and a current injection, on a non-square odd-sized grid.
  Circuit c(35, 29, 2.0, 3.5);
  for (int x = 0; x < 35; ++x) c.fixed[c.at(x, 0)] = 2.5;
  c.fixed[c.at(10, 20)] = 2.4;  // interior supply post
  c.shunt_g[c.at(20, 24)] = 0.8;
  c.shunt_g[c.at(30, 5)] = 0.3;
  c.shunt_v[c.at(30, 5)] = 1.2;
  c.sink[c.at(25, 18)] = 0.5;
  c.sink[c.at(5, 27)] = 0.2;
  c.sink[c.at(33, 24)] = -0.1;  // injection
  ResistiveGrid mg = c.build();
  ASSERT_TRUE(mg.solve(multigrid_config(kOracleTol)).converged);
  EXPECT_LE(max_voltage_diff(mg.voltages(), c.exact()), 1e-9);
}

TEST(Multigrid, PaperPrototypeWaferClosesKclWithinFig2Bounds) {
  // The full 32x32-tile wafer (64x64 plane nodes) is past the dense
  // oracle's reach, so the check is physical: every node's current
  // balance closes, the supply delivers exactly the load, and the droop
  // profile sits inside the paper's Fig. 2 bounds.
  const SystemConfig cfg = SystemConfig::paper_prototype();
  WaferPdn pdn(cfg, {});
  const std::vector<std::vector<double>> peak(
      1, std::vector<double>(cfg.total_tiles(), cfg.tile_peak_power_w));
  std::vector<std::vector<double>> seeds(1);
  std::vector<SolveStats> stats;
  const PdnReport r = pdn.solve_batch_warm(peak, seeds, &stats)[0];
  ASSERT_TRUE(r.solver_converged);

  const double load_a =
      cfg.total_tiles() * (cfg.tile_peak_power_w / cfg.ff_corner_voltage_v +
                           pdn.options().ldo.quiescent_a);
  const double node_load_a = load_a / pdn.node_count();
  EXPECT_LT(stats[0].residual, 1e-4 * node_load_a);
  EXPECT_NEAR(r.total_supply_current_a, load_a, 1e-6 * load_a);

  EXPECT_NEAR(r.max_supply_v, cfg.edge_supply_voltage_v,
              0.01 * cfg.edge_supply_voltage_v);
  EXPECT_GE(r.min_supply_v, 1.35);
  EXPECT_LE(r.min_supply_v, 1.55);
  EXPECT_EQ(r.tiles_out_of_regulation, 0);
}

TEST(Multigrid, VCycleCountIsGridSizeIndependent) {
  // The whole point of the method: where a relaxation solver's sweep count
  // grows with resolution, the V-cycle count stays flat from 16x16 to
  // 128x128.
  int min_cycles = 1 << 20;
  int max_cycles = 0;
  for (const int n : {16, 32, 64, 128}) {
    ResistiveGrid g = make_plane(n);
    const SolveStats stats = g.solve(multigrid_config(1e-7));
    ASSERT_TRUE(stats.converged) << "n=" << n;
    min_cycles = std::min(min_cycles, stats.iterations);
    max_cycles = std::max(max_cycles, stats.iterations);
  }
  EXPECT_LE(max_cycles, 10);
  EXPECT_LE(max_cycles - min_cycles, 4);
}

TEST(Multigrid, ConvergedSolveCostsFewSweepEquivalents) {
  // Plain relaxation needs hundreds of fine sweeps on a 64x64 plane, and
  // more as the grid grows; a converged multigrid solve costs a small,
  // resolution-independent number of fine-sweep equivalents.
  for (const int n : {16, 32, 64, 128}) {
    ResistiveGrid g = make_plane(n);
    const SolveStats stats = g.solve(multigrid_config(1e-7));
    ASSERT_TRUE(stats.converged) << "n=" << n;
    EXPECT_LE(stats.fine_sweep_equivalents, 40.0) << "n=" << n;
  }
}

TEST(Multigrid, HierarchySurvivesSinkUpdatesAndTracksTopologyEdits) {
  // Sink updates reuse the cached hierarchy (solve 2 must still be right);
  // a topology edit must rebuild it (solve 3 must match the exact solve of
  // the edited circuit).
  Circuit c = plane_circuit(33);
  ResistiveGrid mg = c.build();
  ASSERT_TRUE(mg.solve(multigrid_config()).converged);

  for (double& s : c.sink) s *= 2.0;
  mg.set_current_sinks(c.sink);
  mg.reset_voltages(0.0);
  ASSERT_TRUE(mg.solve(multigrid_config(kOracleTol)).converged);
  EXPECT_LE(max_voltage_diff(mg.voltages(), c.exact()), 1e-9);

  c.g_east[c.at(10, 10)] = 0.01;
  mg.set_conductance_east(10, 10, 0.01);  // topology change
  mg.reset_voltages(0.0);
  ASSERT_TRUE(mg.solve(multigrid_config(kOracleTol)).converged);
  EXPECT_LE(max_voltage_diff(mg.voltages(), c.exact()), 1e-9);
}

TEST(Multigrid, BitIdenticalAcrossThreadCounts) {
  std::vector<double> baseline;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    ResistiveGrid g = make_plane(64);
    ASSERT_TRUE(g.solve(multigrid_config(1e-7)).converged);
    if (baseline.empty()) {
      baseline = g.voltages();
    } else {
      EXPECT_EQ(g.voltages(), baseline) << "threads=" << threads;
    }
  }
  exec::set_shared_threads(0);
}

TEST(SolveBatch, MultigridMatchesSequentialSolves) {
  ResistiveGrid grid = make_plane(33);
  const SolverConfig cfg = multigrid_config(1e-7);
  const std::size_t nodes = grid.node_count();
  constexpr int kRhs = 8;

  std::vector<std::vector<double>> sinks(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    sinks[m] = grid.current_sinks();
    for (double& s : sinks[m]) s *= 0.5 + 0.25 * m;
    sinks[m][grid.index(4 + 2 * m, 16)] += 0.3;
  }

  std::vector<std::vector<double>> expected(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    grid.set_current_sinks(sinks[m]);
    grid.reset_voltages(0.0);
    ASSERT_TRUE(grid.solve(cfg).converged);
    expected[m] = grid.voltages();
  }

  std::vector<std::vector<double>> got(kRhs, std::vector<double>(nodes, 0.0));
  std::vector<SolveStats> stats(kRhs);
  std::vector<RhsView> views(kRhs);
  for (int m = 0; m < kRhs; ++m) views[m] = RhsView{sinks[m], got[m]};
  grid.solve_batch(views, stats, cfg);
  for (int m = 0; m < kRhs; ++m) {
    EXPECT_TRUE(stats[m].converged) << "rhs " << m;
    EXPECT_EQ(got[m], expected[m]) << "rhs " << m;  // bitwise
  }
}

TEST(SolveBatch, BitIdenticalAcrossThreadCounts) {
  ResistiveGrid grid = make_plane(33);
  const SolverConfig cfg = multigrid_config(1e-7);
  const std::size_t nodes = grid.node_count();
  constexpr int kRhs = 6;

  std::vector<std::vector<double>> sinks(kRhs);
  for (int m = 0; m < kRhs; ++m) {
    sinks[m] = grid.current_sinks();
    sinks[m][grid.index(8 + 3 * m, 20)] += 0.2;
  }

  std::vector<std::vector<double>> baseline;
  for (const int threads : {1, 2, 8}) {
    exec::set_shared_threads(threads);
    std::vector<std::vector<double>> got(kRhs,
                                         std::vector<double>(nodes, 0.0));
    std::vector<SolveStats> stats(kRhs);
    std::vector<RhsView> views(kRhs);
    for (int m = 0; m < kRhs; ++m) views[m] = RhsView{sinks[m], got[m]};
    grid.solve_batch(views, stats, cfg);
    if (baseline.empty()) {
      baseline = got;
    } else {
      EXPECT_EQ(got, baseline) << "threads=" << threads;
    }
  }
  exec::set_shared_threads(0);
}

}  // namespace
}  // namespace wsp::pdn
