// noc_uniform_32x32: a fault-free 32x32 dual-network NoC under uniform
// random open-loop traffic, then drained, on one thread.  NocSystem::step
// dominates host time and the PDN never runs, so this workload shows NoC
// and generator speed-ups and must read "no change" for PDN work.
#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "workload.hpp"
#include "stats.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/exec/thread_pool.hpp"

namespace perfbench {

using namespace wsp;

namespace {

/// Appends completions to a delivery trace exactly as run_workload_traffic
/// serialises them.
void record_deliveries(ckpt::Writer& trace,
                       const std::vector<noc::CompletedTransaction>& done,
                       std::vector<double>& latencies) {
  for (const noc::CompletedTransaction& t : done) {
    trace.i32(t.src.x);
    trace.i32(t.src.y);
    trace.i32(t.dst.x);
    trace.i32(t.dst.y);
    trace.u64(t.issue_cycle);
    trace.u64(t.complete_cycle);
    trace.b(t.relayed);
    latencies.push_back(static_cast<double>(t.latency()));
  }
}

void finish(NocRep& rep, const noc::NocSystem& noc, const NocSetup& setup) {
  rep.stats = noc.stats();
  rep.inflight_after = noc.inflight_transactions();
  rep.cycles = noc.now();
  rep.drain_cycles = noc.now() - setup.cycles;
  std::vector<noc::TileActivity> act;
  noc.accumulate_tile_activity(act);
  for (const noc::TileActivity& a : act) rep.flit_hops += a.traversals;
}

}  // namespace

NocSetup noc_uniform_setup(std::uint64_t seed, int threads) {
  NocSetup s;
  s.threads = threads;
  s.spec.cls = workloads::WorkloadClass::Synthetic;
  s.spec.seed = seed;
  s.spec.synthetic.pattern = noc::TrafficPattern::UniformRandom;
  s.spec.synthetic.injection_rate = 0.02;
  return s;
}

NocRep noc_library_rep(const NocSetup& setup, double& setup_s) {
  const Clock::time_point t0 = Clock::now();
  exec::set_shared_threads(setup.threads);
  const SystemConfig config = SystemConfig::reduced(setup.grid, setup.grid);
  const FaultMap faults(config.grid());
  noc::NocSystem noc(faults);
  const auto gen = workloads::make_generator(setup.spec, config, faults);
  setup_s = seconds_since(t0);

  const workloads::WorkloadRunResult r =
      workloads::run_workload_traffic(noc, *gen, setup.cycles);
  NocRep rep;
  rep.digest = r.delivery_digest;
  rep.injections = r.injections;
  finish(rep, noc, setup);
  return rep;
}

NocRep noc_replica_rep(const NocSetup& setup, SpanRecorder& rec) {
  Scope root(rec, "bench.rep");
  {
    Scope s(rec, "exec.set_threads");
    exec::set_shared_threads(setup.threads);
  }
  const SystemConfig config = SystemConfig::reduced(setup.grid, setup.grid);
  const FaultMap faults(config.grid());
  std::optional<noc::NocSystem> noc;
  {
    Scope s(rec, "noc.construct");
    noc.emplace(faults);
  }
  std::unique_ptr<workloads::TrafficGenerator> gen;
  {
    Scope s(rec, "workloads.make_generator");
    gen = workloads::make_generator(setup.spec, config, faults);
  }

  NocRep rep;
  ckpt::Writer trace;
  std::vector<workloads::Injection> pending;
  std::vector<noc::CompletedTransaction> done;
  for (std::uint64_t c = 0; c < setup.cycles; ++c) {
    pending.clear();
    {
      Scope s(rec, "workloads.emit");
      gen->emit(pending);
    }
    rep.injections += pending.size();
    {
      Scope s(rec, "noc.issue");
      for (const workloads::Injection& inj : pending)
        (void)noc->issue(inj.src, inj.dst, inj.type, inj.payload);
    }
    {
      Scope s(rec, "noc.step");
      noc->step(done);
    }
    rep.inflight_sum += static_cast<double>(noc->inflight_transactions());
    {
      Scope s(rec, "ckpt.write");
      record_deliveries(trace, done, rep.latencies);
    }
    done.clear();
  }
  {
    Scope s(rec, "noc.drain");
    noc->drain(done);
  }
  {
    Scope s(rec, "ckpt.write");
    record_deliveries(trace, done, rep.latencies);
  }
  {
    Scope s(rec, "ckpt.crc32");
    rep.digest = ckpt::crc32(trace.bytes().data(), trace.size());
  }
  Scope s(rec, "noc.finish");
  finish(rep, *noc, setup);
  return rep;
}

std::uint64_t noc_failed_ops(const NocRep& rep) {
  return rep.injections - std::min(rep.injections, rep.stats.completed);
}

bool noc_accounting_holds(const NocRep& rep) {
  const noc::NocStats& s = rep.stats;
  return rep.inflight_after == 0 &&
         rep.injections == s.issued + s.unreachable &&
         s.issued == s.completed + s.lost;
}

bool same_outputs(const NocRep& a, const NocRep& b) {
  return a.digest == b.digest && a.injections == b.injections &&
         a.stats.issued == b.stats.issued &&
         a.stats.completed == b.stats.completed &&
         a.stats.latency_sum == b.stats.latency_sum &&
         a.cycles == b.cycles && a.flit_hops == b.flit_hops;
}

Outcome run_noc_uniform(const RunConfig& config) {
  Outcome out;
  // One thread: at 4 threads the per-cycle pool dispatches make host time
  // swing with every neighbour on a shared host (and run slower than one
  // thread there), which no bound could hold.
  out.pool_threads = 1;
  const NocSetup setup = noc_uniform_setup(config.seed, out.pool_threads);

  SpanRecorder off(false);
  const NocRep ref = noc_replica_rep(setup, off);
  out.gate(noc_accounting_holds(ref),
           "noc: issue calls != completed + unreachable + lost after drain");

  SpanRecorder rec(config.trace);
  const Measurement m = measure(
      config, out, rec,
      [&](double& setup_s) {
        const NocRep lib = noc_library_rep(setup, setup_s);
        out.gate(same_outputs(lib, ref),
                 "noc: run_workload_traffic digest differs from the replica");
        return RepSample{0.0, static_cast<double>(lib.cycles),
                         static_cast<double>(lib.stats.completed)};
      },
      [&] {
        out.gate(same_outputs(noc_replica_rep(setup, rec), ref),
                 "noc: traced replica differs from the untraced replica");
      });
  out.attempted = m.reps * ref.injections;
  out.failed = m.reps * noc_failed_ops(ref);
  out.notes.push_back("repetition: " + std::to_string(setup.cycles) +
                      " traffic cycles, then drain (" +
                      std::to_string(ref.drain_cycles) + " cycles)");

  if (!config.trace) {
    add_end_to_end(out, m);
    return out;
  }

  const std::vector<Span>& spans = rec.spans();
  const auto totals = totals_by_name(spans);
  const auto self = [&](const char* n) {
    const auto it = totals.find(n);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const double reps = static_cast<double>(m.reps);
  const double traced_ns =
      static_cast<double>(totals.at("bench.rep").total_ns);
  const double cycles_run = reps * static_cast<double>(setup.cycles);
  const std::vector<double> steps = durations_of(spans, "noc.step");
  out.add("workloads.emit_ns_per_cycle", "ns",
          self("workloads.emit") / cycles_run);
  out.add("workloads.injections", "count",
          static_cast<double>(ref.injections));
  out.add("noc.issue_ns_per_txn", "ns",
          self("noc.issue") / (reps * static_cast<double>(ref.injections)));
  out.add("noc.step_ns_p50", "ns", percentile(steps, 50));
  out.add("noc.step_ns_p95", "ns", percentile(steps, 95));
  out.add("noc.step_share", "ratio", self("noc.step") / traced_ns);
  out.add("noc.step_ns_per_flit_hop", "ns",
          self("noc.step") / (reps * static_cast<double>(ref.flit_hops)));
  out.add("noc.inflight_mean", "count",
          ref.inflight_sum / static_cast<double>(setup.cycles));
  out.add("noc.drain_cycles", "cycles", static_cast<double>(ref.drain_cycles));
  add_noc_counts(out, ref.stats);
  add_noc_traffic(out, ref.flit_hops, ref.latencies);
  add_trace_summary(out, spans, percentile(m.traced_s, 50),
                    percentile(m.library_s, 50));
  write_trace(config, spans, m.first_rep_spans, out);
  return out;
}

}  // namespace perfbench
