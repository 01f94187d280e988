// campaign_16x16: a Monte Carlo degradation campaign on 16x16 with tile
// deaths, link failures, an LDO brownout and packet corruptions, link
// integrity and link health on, trials dispatched over the exec pool.  The
// only workload with faults, timeouts, retries, relays, clock re-selection
// and brownout re-solves, and the only one whose parallelism is coarse.
#include <algorithm>

#include "bench.hpp"
#include "workload.hpp"
#include "stats.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/exec/thread_pool.hpp"

namespace perfbench {

using namespace wsp;

CampaignSetup campaign_setup(std::uint64_t seed, int threads) {
  CampaignSetup s;
  s.threads = threads;
  resilience::CampaignOptions& o = s.options;
  o.config = SystemConfig::reduced(16, 16);
  o.seed = seed;
  o.run_cycles = 1200;
  o.fault_horizon = 800;
  o.pattern = noc::TrafficPattern::UniformRandom;
  o.injection_rate = 0.01;
  // bench_resilience's mix plus two packet corruptions.
  o.mix.tile_deaths = 4;
  o.mix.link_failures = 2;
  o.mix.ldo_brownouts = 1;
  o.mix.packet_corruptions = 2;
  // Link integrity on; the campaign then also runs link-health scrubbing.
  o.noc.mesh.integrity.enabled = true;
  return s;
}

bool campaign_trial_failed(const resilience::DegradationReport& r) {
  const noc::NocStats& s = r.noc_stats;
  return !r.drained || s.issued != s.completed + s.lost;
}

std::vector<std::vector<std::uint8_t>> report_bytes(
    const std::vector<resilience::DegradationReport>& reports) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const resilience::DegradationReport& r : reports) {
    ckpt::Writer w;
    resilience::save_report(w, r);
    out.push_back(w.bytes());
  }
  return out;
}

namespace {

/// The trials one at a time through run_trial_range(t, 1), each in its own
/// span; `trial_s` receives each trial's wall.
std::vector<std::vector<std::uint8_t>> serial_trials(
    const CampaignSetup& setup, SpanRecorder& rec,
    std::vector<resilience::DegradationReport>& reports,
    std::vector<double>& trial_s) {
  Scope root(rec, "bench.rep");
  {
    Scope s(rec, "exec.set_threads");
    exec::set_shared_threads(setup.threads);
  }
  const resilience::DegradationCampaign campaign(setup.options);
  for (int t = 0; t < setup.trials; ++t) {
    const Clock::time_point t0 = Clock::now();
    Scope s(rec, "resilience.trial");
    reports.push_back(std::move(campaign.run_trial_range(t, 1).front()));
    trial_s.push_back(seconds_since(t0));
  }
  Scope s(rec, "resilience.save_report");
  return report_bytes(reports);
}

}  // namespace

Outcome run_campaign(const RunConfig& config) {
  Outcome out;
  out.pool_threads = std::min(4, config.hw_threads);
  const CampaignSetup setup = campaign_setup(config.seed, out.pool_threads);

  SpanRecorder off(false);
  std::vector<resilience::DegradationReport> ref;
  std::vector<double> ref_trial_s;
  const auto ref_bytes = serial_trials(setup, off, ref, ref_trial_s);
  const auto failed_trials = static_cast<std::uint64_t>(
      std::count_if(ref.begin(), ref.end(), campaign_trial_failed));
  std::uint64_t sim_cycles = 0;
  noc::NocStats sum;
  std::size_t events = 0, recovered = 0;
  double recovery = 0.0;
  for (const resilience::DegradationReport& r : ref) {
    sim_cycles += r.total_cycles;
    const noc::NocStats& s = r.noc_stats;
    sum.issued += s.issued;
    sum.completed += s.completed;
    sum.unreachable += s.unreachable;
    sum.lost += s.lost;
    sum.timeouts += s.timeouts;
    sum.retries += s.retries;
    sum.relayed += s.relayed;
    sum.crc_detected += s.crc_detected;
    sum.link_retransmits += s.link_retransmits;
    events += r.events.size();
    for (const resilience::EventOutcome& e : r.events)
      if (e.recovered) {
        ++recovered;
        recovery += static_cast<double>(e.recovery_cycles);
      }
  }

  SpanRecorder rec(config.trace);
  std::vector<double> pool_s, efficiency, serial_s, traced_s;
  const Measurement m = measure(
      config, out, rec,
      [&](double& setup_s) {
        const Clock::time_point t0 = Clock::now();
        exec::set_shared_threads(setup.threads);
        const resilience::DegradationCampaign campaign(setup.options);
        setup_s = seconds_since(t0);
        const Clock::time_point t1 = Clock::now();
        const auto reports = campaign.run_trials(setup.trials);
        pool_s.push_back(seconds_since(t1));
        out.gate(report_bytes(reports) == ref_bytes,
                 "campaign: run_trials reports differ from serial trials");
        return RepSample{0.0, static_cast<double>(sim_cycles),
                         static_cast<double>(sum.completed)};
      },
      [&] {
        // The same trials serially, untraced and then traced: their walls
        // give the parallel efficiency and the tracing overhead.
        std::vector<resilience::DegradationReport> serial;
        std::vector<double> trial_s;
        Clock::time_point t0 = Clock::now();
        out.gate(serial_trials(setup, off, serial, trial_s) == ref_bytes,
                 "campaign: serial trials are not reproducible");
        serial_s.push_back(seconds_since(t0));
        double trial_sum = 0.0;
        for (const double t : trial_s) trial_sum += t;
        efficiency.push_back(trial_sum / (setup.threads * pool_s.back()));
        serial.clear();
        trial_s.clear();
        t0 = Clock::now();
        out.gate(serial_trials(setup, rec, serial, trial_s) == ref_bytes,
                 "campaign: traced serial trials differ from run_trials");
        traced_s.push_back(seconds_since(t0));
      });
  out.attempted = m.reps * static_cast<std::uint64_t>(setup.trials);
  out.failed = m.reps * failed_trials;
  out.notes.push_back("repetition: run_trials(" +
                      std::to_string(setup.trials) + ") on " +
                      std::to_string(setup.threads) + " pool threads");

  if (!config.trace) {
    add_end_to_end(out, m);
    return out;
  }

  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> trials = durations_of(spans, "resilience.trial");
  out.add("resilience.trial_ms_p50", "ms", percentile(trials, 50) / 1e6);
  out.add("resilience.trial_ms_max", "ms", percentile(trials, 100) / 1e6);
  out.add("resilience.trials_per_s", "1/s",
          setup.trials / percentile(pool_s, 50));
  out.add("resilience.fault_events", "count", static_cast<double>(events));
  out.add("resilience.recovery_cycles_mean", "cycles",
          recovered ? recovery / static_cast<double>(recovered) : 0.0);
  out.add("resilience.sim_cycles", "cycles", static_cast<double>(sim_cycles));
  add_noc_counts(out, sum);
  out.add("exec.trial_parallel_efficiency", "ratio",
          percentile(efficiency, 50));
  add_trace_summary(out, spans, percentile(traced_s, 50),
                    percentile(serial_s, 50));
  write_trace(config, spans, m.first_rep_spans, out);
  return out;
}

}  // namespace perfbench
