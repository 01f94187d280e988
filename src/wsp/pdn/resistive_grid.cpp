#include "wsp/pdn/resistive_grid.hpp"

#include <algorithm>
#include <cmath>

#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/error.hpp"
#include "wsp/exec/parallel_for.hpp"
#include "wsp/obs/trace.hpp"
#include "wsp/pdn/multigrid.hpp"

namespace wsp::pdn {

namespace {
// Minimum stencil nodes per parallel chunk.  A sweep node costs ~10 flops,
// so below this the dispatch handshake outweighs the work; grids whose
// per-color count falls under one grain (anything smaller than ~23x23)
// solve entirely on the calling thread.  At 256 the 64x64 wafer grid still
// fans out to 8 chunks per color — enough for an 8-thread pool.
constexpr std::size_t kSweepGrain = 256;
}  // namespace

void SolverConfig::validate() const {
  require(std::isfinite(tol) && tol > 0.0,
          "solver.tol must be finite and positive");
}

ResistiveGrid::ResistiveGrid(int width, int height)
    : width_(width), height_(height) {
  require(width >= 2 && height >= 2, "ResistiveGrid needs at least 2x2 nodes");
  const auto nodes = static_cast<std::size_t>(width) * height;
  g_east_.assign(static_cast<std::size_t>(width - 1) * height, 0.0);
  g_north_.assign(static_cast<std::size_t>(width) * (height - 1), 0.0);
  sink_.assign(nodes, 0.0);
  shunt_g_.assign(nodes, 0.0);
  shunt_v_.assign(nodes, 0.0);
  dirichlet_.assign(nodes, 0);
  v_.assign(nodes, 0.0);
}

// Out-of-line where MultigridHierarchy is complete.
ResistiveGrid::~ResistiveGrid() = default;
ResistiveGrid::ResistiveGrid(ResistiveGrid&&) noexcept = default;
ResistiveGrid& ResistiveGrid::operator=(ResistiveGrid&&) noexcept = default;

void ResistiveGrid::set_conductance_east(int x, int y, double siemens) {
  require(x >= 0 && x < width_ - 1 && y >= 0 && y < height_,
          "east edge out of range");
  require(siemens >= 0.0, "conductance must be non-negative");
  g_east_[east_index(x, y)] = siemens;
  invalidate_topology();
}

void ResistiveGrid::set_conductance_north(int x, int y, double siemens) {
  require(x >= 0 && x < width_ && y >= 0 && y < height_ - 1,
          "north edge out of range");
  require(siemens >= 0.0, "conductance must be non-negative");
  g_north_[north_index(x, y)] = siemens;
  invalidate_topology();
}

void ResistiveGrid::fill_conductances(double gx, double gy) {
  std::fill(g_east_.begin(), g_east_.end(), gx);
  std::fill(g_north_.begin(), g_north_.end(), gy);
  invalidate_topology();
}

void ResistiveGrid::set_dirichlet(int x, int y, double volts) {
  const auto i = index(x, y);
  dirichlet_[i] = 1;
  v_[i] = volts;
  invalidate_topology();
}

void ResistiveGrid::clear_dirichlet(int x, int y) {
  dirichlet_[index(x, y)] = 0;
  invalidate_topology();
}

void ResistiveGrid::set_current_sink(int x, int y, double amperes) {
  // Sinks enter only the right-hand side (read live during sweeps), so the
  // stencil and multigrid hierarchy survive per-solve load updates — the
  // WaferPdn constant-power loop re-solves with new sinks on an unchanged
  // topology.
  sink_[index(x, y)] = amperes;
}

void ResistiveGrid::set_current_sinks(const std::vector<double>& amperes) {
  require(amperes.size() == sink_.size(),
          "sink vector must cover every grid node");
  sink_ = amperes;  // right-hand side only: stencil and hierarchy survive
}

void ResistiveGrid::set_shunt(int x, int y, double siemens, double v_ref) {
  require(siemens >= 0.0, "shunt conductance must be non-negative");
  const auto i = index(x, y);
  shunt_g_[i] = siemens;
  shunt_v_[i] = v_ref;
  invalidate_topology();
}

void ResistiveGrid::rebuild_stencil() {
  stencil_[0].clear();
  stencil_[1].clear();
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const auto i = index(x, y);
      if (dirichlet_[i]) continue;
      StencilNode n{};
      n.node = static_cast<std::uint32_t>(i);
      // Absent neighbours alias the node itself with g = 0: the flow term
      // contributes exactly 0.0 and the sweep body stays branch-free.
      for (int k = 0; k < 4; ++k) {
        n.nbr[k] = static_cast<std::uint32_t>(i);
        n.g[k] = 0.0;
      }
      if (x > 0) {
        n.g[0] = g_east_[east_index(x - 1, y)];
        n.nbr[0] = static_cast<std::uint32_t>(i - 1);
      }
      if (x < width_ - 1) {
        n.g[1] = g_east_[east_index(x, y)];
        n.nbr[1] = static_cast<std::uint32_t>(i + 1);
      }
      if (y > 0) {
        n.g[2] = g_north_[north_index(x, y - 1)];
        n.nbr[2] = static_cast<std::uint32_t>(i - width_);
      }
      if (y < height_ - 1) {
        n.g[3] = g_north_[north_index(x, y)];
        n.nbr[3] = static_cast<std::uint32_t>(i + width_);
      }
      n.shunt_flow = shunt_g_[i] * shunt_v_[i];
      n.gsum = n.g[0] + n.g[1] + n.g[2] + n.g[3] + shunt_g_[i];
      if (n.gsum <= 0.0) continue;  // isolated node: leave as-is
      n.inv_gsum = 1.0 / n.gsum;
      stencil_[(x + y) & 1].push_back(n);
    }
  }
  stencil_valid_ = true;
}

void ResistiveGrid::invalidate_topology() {
  stencil_valid_ = false;
  hierarchy_.reset();
}

void ResistiveGrid::prepare_solvers() {
  if (!stencil_valid_) rebuild_stencil();
  if (hierarchy_ == nullptr)
    hierarchy_ = std::make_unique<MultigridHierarchy>(*this);
}

double ResistiveGrid::sweep_color(const std::vector<StencilNode>& nodes,
                                  double omega, double* v,
                                  const double* sink) {
  WSP_TRACE_SPAN("pdn.mg.smooth");
  // Every node of one color reads only other-color neighbours (and its own
  // previous value) and writes only itself, so chunks are data-independent
  // and the half-sweep is bit-identical for any thread count.  The grain
  // keeps sub-1k-node grids (campaign-sized) on the serial inline path —
  // two pool dispatches per sweep would dwarf the arithmetic there.
  return exec::parallel_reduce<double>(
      nodes.size(), 0.0,
      [&](std::size_t b, std::size_t e) {
        double local_max = 0.0;
        for (std::size_t k = b; k < e; ++k) {
          const StencilNode& s = nodes[k];
          const double flow = s.g[0] * v[s.nbr[0]] + s.g[1] * v[s.nbr[1]] +
                              s.g[2] * v[s.nbr[2]] + s.g[3] * v[s.nbr[3]] +
                              s.shunt_flow;
          const double v_new = (flow - sink[s.node]) * s.inv_gsum;
          const double old = v[s.node];
          const double updated = old + omega * (v_new - old);
          local_max = std::max(local_max, std::abs(updated - old));
          v[s.node] = updated;
        }
        return local_max;
      },
      [](double a, double b) { return std::max(a, b); }, kSweepGrain);
}

double ResistiveGrid::sweep_color_residual(const std::vector<StencilNode>& nodes,
                                           double omega, double* v,
                                           const double* sink, double* r) {
  // Identical to sweep_color, but also stores each node's post-update
  // residual.  On a 5-point stencil the neighbours of a node are all the
  // other color, so once this (second) half-sweep runs, flow is final and
  // r = flow - gsum * v_new - sink = gsum * (v_gs - v_new) falls out of
  // values already in registers — the multigrid cycle gets the residual of
  // this color for free instead of re-walking the stencil.
  return exec::parallel_reduce<double>(
      nodes.size(), 0.0,
      [&](std::size_t b, std::size_t e) {
        double local_max = 0.0;
        for (std::size_t k = b; k < e; ++k) {
          const StencilNode& s = nodes[k];
          const double flow = s.g[0] * v[s.nbr[0]] + s.g[1] * v[s.nbr[1]] +
                              s.g[2] * v[s.nbr[2]] + s.g[3] * v[s.nbr[3]] +
                              s.shunt_flow;
          const double v_new = (flow - sink[s.node]) * s.inv_gsum;
          const double old = v[s.node];
          const double updated = old + omega * (v_new - old);
          local_max = std::max(local_max, std::abs(updated - old));
          v[s.node] = updated;
          r[s.node] = s.gsum * (v_new - updated);
        }
        return local_max;
      },
      [](double a, double b) { return std::max(a, b); }, kSweepGrain);
}

double ResistiveGrid::max_kcl_residual(std::span<const double> v,
                                       std::span<const double> sink) const {
  // True nodal current residual: |sum_j g_ij (v_j - v_i) + shunt - sink_i|,
  // amperes — zero at the exact solution of every balanced node.
  auto color_max = [&](const std::vector<StencilNode>& nodes) {
    return exec::parallel_reduce<double>(
        nodes.size(), 0.0,
        [&](std::size_t b, std::size_t e) {
          double local_max = 0.0;
          for (std::size_t k = b; k < e; ++k) {
            const StencilNode& s = nodes[k];
            const double flow = s.g[0] * v[s.nbr[0]] +
                                s.g[1] * v[s.nbr[1]] +
                                s.g[2] * v[s.nbr[2]] +
                                s.g[3] * v[s.nbr[3]] + s.shunt_flow;
            const double r = flow - s.gsum * v[s.node] - sink[s.node];
            local_max = std::max(local_max, std::abs(r));
          }
          return local_max;
        },
        [](double a, double b) { return std::max(a, b); }, kSweepGrain);
  };
  return std::max(color_max(stencil_[0]), color_max(stencil_[1]));
}

void ResistiveGrid::bind_metrics(obs::MetricsRegistry* registry,
                                 const std::string& prefix) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.solves = &registry->counter(prefix + "solves");
  metrics_.cycles = &registry->counter(prefix + "cycles");
  metrics_.converged = &registry->counter(prefix + "converged");
  metrics_.residual_a = &registry->gauge(prefix + "residual_a");
  metrics_.max_delta_v = &registry->gauge(prefix + "max_delta_v");
}

void ResistiveGrid::record_solve(const SolveStats& stats) {
  if (metrics_.solves == nullptr) return;
  metrics_.solves->add();
  metrics_.cycles->add(static_cast<std::uint64_t>(stats.iterations));
  if (stats.converged) metrics_.converged->add();
  metrics_.residual_a->set(stats.residual);
  metrics_.max_delta_v->set(stats.max_delta_v);
}

SolveStats ResistiveGrid::solve_on(std::span<double> v,
                                   std::span<const double> sink, double tol) {
  WSP_TRACE_SPAN("pdn.mg.solve");
  SolveStats stats = hierarchy_->solve(v.data(), sink.data(), tol);
  stats.residual = max_kcl_residual(v, sink);
  return stats;
}

SolveStats ResistiveGrid::solve(const SolverConfig& config) {
  config.validate();
  prepare_solvers();
  const SolveStats stats = solve_on(v_, sink_, config.tol);
  record_solve(stats);
  return stats;
}

void ResistiveGrid::solve_batch(std::span<const RhsView> rhs,
                                std::span<SolveStats> stats,
                                const SolverConfig& config) {
  WSP_TRACE_SPAN("pdn.solve_batch");
  config.validate();
  require(stats.size() == rhs.size(),
          "solve_batch needs one SolveStats per RhsView");
  const std::size_t nodes = node_count();
  for (const RhsView& r : rhs) {
    require(r.sink.size() == nodes && r.v.size() == nodes,
            "RhsView spans must cover every grid node");
  }
  prepare_solvers();

  // Reset the Dirichlet entries of every seed from the grid's fixed values
  // up front — the solvers assume they hold and never write them.
  for (const RhsView& r : rhs) {
    for (std::size_t i = 0; i < nodes; ++i)
      if (dirichlet_[i]) r.v[i] = v_[i];
  }

  // One task per right-hand side (grain 1).  Inside a pool worker, the
  // nested sweeps and reductions execute inline with the same chunk
  // boundaries as a 1-thread run, so each RHS's result is bit-identical to
  // a sequential solve(config) — regardless of thread count or how the
  // batch is distributed.
  exec::parallel_for(
      rhs.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) {
          stats[k] = solve_on(rhs[k].v, rhs[k].sink, config.tol);
        }
      },
      1);

  // Metrics aggregate serially after the fan-out (counters are atomic, but
  // serial recording keeps gauge "last solve" semantics deterministic).
  for (const SolveStats& s : stats) record_solve(s);
}

void ResistiveGrid::reset_voltages(double volts) {
  for (std::size_t i = 0; i < v_.size(); ++i)
    if (!dirichlet_[i]) v_[i] = volts;
}

double ResistiveGrid::total_supply_current(std::span<const double> v,
                                           std::span<const double> sink) const {
  // Current flowing out of every Dirichlet node into the grid.
  double total = 0.0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const auto i = index(x, y);
      if (!dirichlet_[i]) continue;
      double out = 0.0;
      if (x > 0)
        out += g_east_[east_index(x - 1, y)] * (v[i] - v[i - 1]);
      if (x < width_ - 1)
        out += g_east_[east_index(x, y)] * (v[i] - v[i + 1]);
      if (y > 0)
        out += g_north_[north_index(x, y - 1)] *
               (v[i] - v[i - static_cast<std::size_t>(width_)]);
      if (y < height_ - 1)
        out += g_north_[north_index(x, y)] *
               (v[i] - v[i + static_cast<std::size_t>(width_)]);
      // Subtract any sink placed directly on the Dirichlet node.
      total += out + sink[i];
    }
  }
  return total;
}

double ResistiveGrid::dissipated_power(std::span<const double> v) const {
  double p = 0.0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_ - 1; ++x) {
      const double dv = v[index(x, y)] - v[index(x + 1, y)];
      p += g_east_[east_index(x, y)] * dv * dv;
    }
  }
  for (int y = 0; y < height_ - 1; ++y) {
    for (int x = 0; x < width_; ++x) {
      const double dv = v[index(x, y)] - v[index(x, y + 1)];
      p += g_north_[north_index(x, y)] * dv * dv;
    }
  }
  return p;
}

void ResistiveGrid::save_state(ckpt::Writer& w) const {
  w.tag(ckpt::fourcc("PGRD"));
  w.i32(width_);
  w.i32(height_);
  for (double g : g_east_) w.f64(g);
  for (double g : g_north_) w.f64(g);
  for (double s : sink_) w.f64(s);
  for (double g : shunt_g_) w.f64(g);
  for (double v : shunt_v_) w.f64(v);
  for (char d : dirichlet_) w.b(d != 0);
  for (double v : v_) w.f64(v);
}

void ResistiveGrid::load_state(ckpt::Reader& r) {
  r.expect_tag(ckpt::fourcc("PGRD"), "ResistiveGrid");
  const int gw = r.i32();
  const int gh = r.i32();
  if (gw != width_ || gh != height_)
    throw ckpt::Error(ckpt::ErrorKind::TopologyMismatch,
                      "PDN grid " + std::to_string(gw) + "x" +
                          std::to_string(gh) + " vs live " +
                          std::to_string(width_) + "x" +
                          std::to_string(height_));
  for (double& g : g_east_) g = r.f64();
  for (double& g : g_north_) g = r.f64();
  for (double& s : sink_) s = r.f64();
  for (double& g : shunt_g_) g = r.f64();
  for (double& v : shunt_v_) v = r.f64();
  for (char& d : dirichlet_) d = r.b() ? 1 : 0;
  for (double& v : v_) v = r.f64();
  // Conductances/Dirichlet set may have changed; rebuild both caches lazily.
  invalidate_topology();
}

}  // namespace wsp::pdn
