// cosim_spiking_32x32: the PDN<->NoC epoch-coupled loop on 32x32 under
// spiking-burst traffic, link integrity on, with an in-memory checkpoint
// round trip every 16 epochs.  Traffic is light, so the coupling step (the
// warm PDN re-solve above all) dominates host time; the pool runs one
// thread, so intra-cycle parallelism must read "no change" here.
#include <algorithm>
#include <limits>
#include <optional>

#include "bench.hpp"
#include "workload.hpp"
#include "stats.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/exec/thread_pool.hpp"

namespace perfbench {

using namespace wsp;

CosimSetup cosim_spiking_setup(std::uint64_t seed) {
  CosimSetup s;
  cosim::CosimOptions& o = s.options;
  o.config = SystemConfig::reduced(32, 32);
  o.epoch_cycles = 32;
  o.seed = seed;
  // bench_cosim's amplified voltage->BER coupling: supply droop reaches the
  // regulated rail and moves the BER off its floor.
  o.noc.mesh.integrity.enabled = true;
  o.pdn.ldo.line_regulation = 0.1;
  o.ber.floor_ber = 1e-6;
  o.ber.volts_per_decade = 0.003;
  // bench_workloads' spiking spec: sparse background firing plus a centre
  // avalanche every 256 cycles.
  workloads::WorkloadSpec& w = o.workload;
  w.cls = workloads::WorkloadClass::SpikingBurst;
  w.seed = seed;
  w.spiking.background_rate = 0.002;
  w.spiking.burst_interval = 256;
  w.spiking.hotspot = {16, 16};
  w.spiking.burst_radius = 3;
  w.spiking.burst_cycles = 48;
  w.spiking.burst_intensity = 0.6;
  return s;
}

CosimRep cosim_library_rep(const CosimSetup& setup, double& setup_s,
                           std::vector<double>& epoch_ms) {
  const Clock::time_point t0 = Clock::now();
  exec::set_shared_threads(1);
  cosim::CosimLoop loop(setup.options);
  setup_s = seconds_since(t0);
  for (std::uint64_t e = 1; e <= setup.epochs; ++e) {
    const Clock::time_point te = Clock::now();
    loop.run_epochs(1);
    if (e % setup.checkpoint_every == 0) {
      ckpt::Writer w;
      loop.save_state(w);
      ckpt::Reader r(w.bytes());
      loop.load_state(r);
    }
    epoch_ms.push_back(seconds_since(te) * 1e3);
  }
  CosimRep rep;
  rep.epochs = loop.epochs();
  rep.stats = loop.noc().stats();
  return rep;
}

namespace {

/// The replica's state: exactly what CosimLoop owns.
struct Replica {
  const cosim::CosimOptions& o;
  FaultMap faults;
  std::optional<noc::NocSystem> noc;
  std::optional<pdn::WaferPdn> pdn;
  std::unique_ptr<workloads::TrafficGenerator> gen;
  cosim::ActivityTracker tracker;
  std::vector<std::vector<double>> seeds{2};
  std::vector<std::vector<double>> power_maps{2};

  Replica(const cosim::CosimOptions& opts, SpanRecorder& rec)
      : o(opts), faults(opts.config.grid()) {
    {
      Scope s(rec, "noc.construct");
      noc.emplace(faults, o.noc);
    }
    {
      Scope s(rec, "pdn.construct");
      pdn.emplace(o.config, o.pdn);
    }
    {
      Scope s(rec, "workloads.make_generator");
      gen = workloads::make_generator(o.workload, o.config, faults);
    }
    Scope s(rec, "cosim.power_map");
    power_maps[1] = cosim::activity_power_map(
        std::vector<noc::TileActivity>(faults.grid().tile_count()), faults,
        o.config.tile_peak_power_w, o.epoch_cycles, o.scale);
  }
};

/// The epoch-boundary coupling step, call for call as CosimLoop::couple.
cosim::EpochReport couple(Replica& x, std::uint64_t index, SpanRecorder& rec,
                          CosimRep& rep) {
  Scope couple_span(rec, "cosim.couple");
  const TileGrid& grid = x.faults.grid();
  cosim::EpochReport e;
  e.epoch = index;
  e.end_cycle = x.noc->now();
  {
    Scope s(rec, "cosim.harvest");
    const std::vector<noc::TileActivity>& delta = x.tracker.harvest(*x.noc);
    for (const noc::TileActivity& a : delta) {
      e.injections += a.injections;
      e.traversals += a.traversals;
      e.retransmits += a.retransmits;
    }
    Scope p(rec, "cosim.power_map");
    x.power_maps[0] = cosim::activity_power_map(
        delta, x.faults, x.o.config.tile_peak_power_w, x.o.epoch_cycles,
        x.o.scale);
  }
  for (const double p : x.power_maps[0]) e.total_power_w += p;

  std::vector<pdn::SolveStats> stats;
  std::vector<pdn::PdnReport> reports;
  {
    Scope s(rec, "pdn.solve");
    reports = x.pdn->solve_batch_warm(x.power_maps, x.seeds, &stats);
  }
  rep.solve_stats.insert(rep.solve_stats.end(), stats.begin(), stats.end());
  const pdn::PdnReport& coupled = reports[0];
  const pdn::PdnReport& baseline = reports[1];
  e.min_supply_v = coupled.min_supply_v;
  e.coupled_iterations = stats[0].iterations;
  std::vector<double> regulated(grid.tile_count(), 0.0);
  double min_reg = std::numeric_limits<double>::infinity();
  double excess = 0.0;
  for (std::size_t i = 0; i < regulated.size(); ++i) {
    regulated[i] = coupled.tiles[i].regulated_v;
    min_reg = std::min(min_reg, regulated[i]);
    excess = std::max(excess,
                      baseline.tiles[i].supply_v - coupled.tiles[i].supply_v);
  }
  e.min_regulated_v = regulated.empty() ? 0.0 : min_reg;
  e.max_excess_droop_v = excess;

  if (x.o.noc.mesh.integrity.enabled) {
    Scope s(rec, "noc.ber_rebind");
    const noc::LinkBerMap ber =
        noc::LinkBerMap::from_tile_voltages(grid, regulated, x.o.ber);
    double sum = 0.0;
    std::size_t links = 0;
    grid.for_each([&](TileCoord c) {
      for (Direction d : kAllDirections) {
        if (!grid.contains(step(c, d))) continue;
        const double b = ber.ber(c, d);
        sum += b;
        e.max_ber = std::max(e.max_ber, b);
        ++links;
      }
    });
    e.mean_ber = links ? sum / static_cast<double>(links) : 0.0;
    x.noc->set_link_ber(ber);
  }
  return e;
}

void round_trip(Replica& x, SpanRecorder& rec, CosimRep& rep) {
  ckpt::Writer w;
  {
    Scope s(rec, "ckpt.save");
    x.gen->save_state(w);
    x.tracker.save_state(w);
    for (const std::vector<double>& seed : x.seeds) {
      w.u64(seed.size());
      for (const double v : seed) w.f64(v);
    }
    x.noc->save_state(w);
  }
  rep.checkpoint_bytes.push_back(static_cast<double>(w.size()));
  Scope s(rec, "ckpt.load");
  ckpt::Reader r(w.bytes());
  x.gen->load_state(r);
  x.tracker.load_state(r);
  for (std::vector<double>& seed : x.seeds) {
    seed.resize(r.length(8));
    for (double& v : seed) v = r.f64();
  }
  x.noc->load_state(r);
}

}  // namespace

CosimRep cosim_replica_rep(const CosimSetup& setup, SpanRecorder& rec) {
  Scope root(rec, "bench.rep");
  {
    Scope s(rec, "exec.set_threads");
    exec::set_shared_threads(1);
  }
  Replica x(setup.options, rec);
  CosimRep rep;
  std::vector<workloads::Injection> pending;
  std::vector<noc::CompletedTransaction> done;
  const auto collect = [&] {
    for (const noc::CompletedTransaction& t : done)
      rep.latencies.push_back(static_cast<double>(t.latency()));
    done.clear();
  };
  for (std::uint64_t e = 1; e <= setup.epochs; ++e) {
    for (std::uint64_t c = 0; c < setup.options.epoch_cycles; ++c) {
      pending.clear();
      {
        Scope s(rec, "workloads.emit");
        x.gen->emit(pending);
      }
      {
        Scope s(rec, "noc.issue");
        for (const workloads::Injection& inj : pending) {
          if (inj.dst == inj.src) continue;  // as CosimLoop: not a transaction
          ++rep.emitted;
          (void)x.noc->issue(inj.src, inj.dst, inj.type, inj.payload);
        }
      }
      {
        Scope s(rec, "noc.step");
        x.noc->step(done);
      }
      rep.inflight_sum += static_cast<double>(x.noc->inflight_transactions());
      collect();
    }
    rep.epochs.push_back(couple(x, e - 1, rec, rep));
    if (e % setup.checkpoint_every == 0) round_trip(x, rec, rep);
  }
  rep.stats = x.noc->stats();
  const std::uint64_t before_drain = x.noc->now();
  {
    Scope s(rec, "noc.drain");
    x.noc->drain(done);
  }
  collect();
  rep.drain_cycles = x.noc->now() - before_drain;
  rep.drained_stats = x.noc->stats();
  rep.inflight_after = x.noc->inflight_transactions();
  Scope s(rec, "noc.activity");
  std::vector<noc::TileActivity> act;
  x.noc->accumulate_tile_activity(act);
  for (const noc::TileActivity& a : act) rep.flit_hops += a.traversals;
  return rep;
}

std::uint64_t cosim_failed_ops(const CosimRep& replica) {
  return replica.emitted -
         std::min(replica.emitted, replica.drained_stats.completed);
}

bool same_outputs(const CosimRep& library, const CosimRep& replica) {
  const noc::NocStats& a = library.stats;
  const noc::NocStats& b = replica.stats;
  return library.epochs == replica.epochs && a.issued == b.issued &&
         a.completed == b.completed && a.unreachable == b.unreachable &&
         a.lost == b.lost && a.latency_sum == b.latency_sum &&
         a.crc_detected == b.crc_detected &&
         a.link_retransmits == b.link_retransmits;
}

Outcome run_cosim_spiking(const RunConfig& config) {
  Outcome out;
  out.pool_threads = 1;
  const CosimSetup setup = cosim_spiking_setup(config.seed);

  SpanRecorder off(false);
  const CosimRep ref = cosim_replica_rep(setup, off);
  const noc::NocStats& d = ref.drained_stats;
  out.gate(ref.inflight_after == 0 &&
               ref.emitted == d.issued + d.unreachable &&
               d.issued == d.completed + d.lost,
           "cosim: emitted != completed + unreachable + lost after drain");

  SpanRecorder rec(config.trace);
  std::vector<double> epoch_ms;
  const Measurement m = measure(
      config, out, rec,
      [&](double& setup_s) {
        const CosimRep lib = cosim_library_rep(setup, setup_s, epoch_ms);
        out.gate(same_outputs(lib, ref),
                 "cosim: CosimLoop epoch reports differ from the replica");
        return RepSample{
            0.0,
            static_cast<double>(setup.epochs * setup.options.epoch_cycles),
            static_cast<double>(lib.stats.completed)};
      },
      [&] {
        const CosimRep traced = cosim_replica_rep(setup, rec);
        out.gate(same_outputs(traced, ref) &&
                     traced.drained_stats.completed == d.completed,
                 "cosim: traced replica differs from CosimLoop");
      });
  out.attempted = m.reps * ref.emitted;
  out.failed = m.reps * cosim_failed_ops(ref);
  out.notes.push_back(
      "repetition: " + std::to_string(setup.epochs) + " epochs of " +
      std::to_string(setup.options.epoch_cycles) +
      " cycles, checkpoint round trip every " +
      std::to_string(setup.checkpoint_every) + " epochs");

  if (!config.trace) {
    add_end_to_end(out, m);
    return out;
  }

  const std::vector<Span>& spans = rec.spans();
  const auto totals = totals_by_name(spans);
  const auto get = [&](const char* n, bool self) {
    const auto it = totals.find(n);
    if (it == totals.end()) return 0.0;
    return static_cast<double>(self ? it->second.self_ns
                                    : it->second.total_ns);
  };
  const double traced_ns = get("bench.rep", false);
  const double reps = static_cast<double>(m.reps);
  const double epochs_run = reps * static_cast<double>(setup.epochs);
  const double cycles_run = epochs_run * setup.options.epoch_cycles;
  const double round_trips =
      reps * static_cast<double>(setup.epochs / setup.checkpoint_every);
  const std::vector<double> steps = durations_of(spans, "noc.step");

  double iterations = 0.0, sweeps = 0.0, residual = 0.0;
  for (std::size_t i = 0; i < ref.solve_stats.size(); ++i) {
    const pdn::SolveStats& s = ref.solve_stats[i];
    if (i % 2 == 0) iterations += s.iterations;  // the coupled map
    sweeps += s.fine_sweep_equivalents;
    residual = std::max(residual, s.residual);
  }
  const double ref_epochs = static_cast<double>(ref.epochs.size());

  out.add("workloads.emit_ns_per_cycle", "ns",
          get("workloads.emit", true) / cycles_run);
  out.add("workloads.injections", "count", static_cast<double>(ref.emitted));
  out.add("noc.issue_ns_per_txn", "ns",
          get("noc.issue", true) / (reps * static_cast<double>(ref.emitted)));
  out.add("noc.step_ns_p50", "ns", percentile(steps, 50));
  out.add("noc.step_ns_p95", "ns", percentile(steps, 95));
  out.add("noc.step_share", "ratio", get("noc.step", true) / traced_ns);
  out.add("noc.step_ns_per_flit_hop", "ns",
          get("noc.step", true) / (reps * static_cast<double>(ref.flit_hops)));
  out.add("noc.inflight_mean", "count",
          ref.inflight_sum / (cycles_run / reps));
  out.add("noc.drain_cycles", "cycles", static_cast<double>(ref.drain_cycles));
  out.add("noc.ber_rebind_ns", "ns", get("noc.ber_rebind", true) / epochs_run);
  add_noc_counts(out, ref.drained_stats);
  add_noc_traffic(out, ref.flit_hops, ref.latencies);
  out.add("cosim.harvest_ns", "ns", get("cosim.harvest", true) / epochs_run);
  out.add("cosim.power_map_ns", "ns",
          get("cosim.power_map", true) / epochs_run);
  out.add("cosim.coupling_share", "ratio",
          get("cosim.couple", false) / traced_ns);
  out.add("pdn.solve_ms_per_epoch", "ms",
          get("pdn.solve", true) / epochs_run / 1e6);
  out.add("pdn.solve_share", "ratio", get("pdn.solve", true) / traced_ns);
  out.add("pdn.iterations_per_epoch", "count", iterations / ref_epochs);
  out.add("pdn.sweep_equivalents_per_epoch", "count", sweeps / ref_epochs);
  out.add("pdn.max_kcl_residual_a", "A", residual);
  out.add("ckpt.save_ms", "ms", get("ckpt.save", true) / round_trips / 1e6);
  out.add("ckpt.load_ms", "ms", get("ckpt.load", true) / round_trips / 1e6);
  out.add("ckpt.bytes", "B", mean(ref.checkpoint_bytes));
  out.add("cosim.epoch_ms_p50", "ms", percentile(epoch_ms, 50));
  out.add("cosim.epoch_ms_p95", "ms", percentile(epoch_ms, 95));
  out.notes.push_back(
      "cosim.epoch_ms_* over " + std::to_string(epoch_ms.size()) +
      " untraced CosimLoop epochs" +
      (tail_supported(epoch_ms.size(), 95) ? "" : " (too few for a p95)"));
  add_trace_summary(out, spans, percentile(m.traced_s, 50),
                    percentile(m.library_s, 50));
  write_trace(config, spans, m.first_rep_spans, out);
  return out;
}

}  // namespace perfbench
