#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>

#include "stats.hpp"

namespace perfbench {

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Measurement measure(const RunConfig& config, const Outcome& out,
                    const SpanRecorder& rec,
                    const std::function<RepSample(double& setup_s)>& library_rep,
                    const std::function<void()>& traced_rep) {
  Measurement m;
  const Clock::time_point start = Clock::now();
  while (m.reps == 0 || seconds_since(start) < config.seconds) {
    const Clock::time_point t0 = Clock::now();
    double setup = 0.0;
    RepSample sample = library_rep(setup);
    const double total = seconds_since(t0);
    sample.wall_s = total - setup;
    m.samples.push_back(sample);
    m.library_s.push_back(total);
    m.setup_s.push_back(setup);
    if (config.trace) {
      const Clock::time_point t1 = Clock::now();
      traced_rep();
      m.traced_s.push_back(seconds_since(t1));
      if (m.reps == 0) m.first_rep_spans = rec.spans().size();
    }
    ++m.reps;
    if (!out.correct) break;
  }
  return m;
}

void add_end_to_end(Outcome& out, const Measurement& m) {
  std::vector<RepSample> fast = m.samples;
  std::sort(fast.begin(), fast.end(),
            [](const RepSample& a, const RepSample& b) {
              return a.wall_s < b.wall_s;
            });
  fast.resize((fast.size() + 3) / 4);
  RepSample sum;
  for (const RepSample& r : fast) {
    sum.wall_s += r.wall_s;
    sum.sim_cycles += r.sim_cycles;
    sum.completed_txns += r.completed_txns;
  }
  out.add("setup_s", "s", percentile(m.setup_s, 50));
  out.add("sim_cycles_per_s", "1/s", sum.sim_cycles / sum.wall_s);
  out.add("host_ns_per_txn", "ns", sum.wall_s * 1e9 / sum.completed_txns);
  out.add("peak_rss_mb", "MiB", peak_rss_mb());
  out.notes.push_back(
      "rates over the fastest " + std::to_string(fast.size()) + " of " +
      std::to_string(m.samples.size()) + " repetitions; setup_s is the "
      "median of " + std::to_string(m.setup_s.size()) + " set-ups");
}

void add_noc_counts(Outcome& out, const wsp::noc::NocStats& s) {
  const auto count = [&](const char* name, std::uint64_t v) {
    out.add(name, "count", static_cast<double>(v));
  };
  count("noc.issued", s.issued);
  count("noc.completed", s.completed);
  count("noc.unreachable", s.unreachable);
  count("noc.lost", s.lost);
  count("noc.timeouts", s.timeouts);
  count("noc.retries", s.retries);
  count("noc.relayed", s.relayed);
  count("noc.crc_detected", s.crc_detected);
  count("noc.link_retransmits", s.link_retransmits);
}

void add_noc_traffic(Outcome& out, std::uint64_t flit_hops,
                     const std::vector<double>& latencies) {
  out.add("noc.flit_hops", "count", static_cast<double>(flit_hops));
  out.add("noc.latency_p50_cycles", "cycles", percentile(latencies, 50));
  out.add("noc.latency_p99_cycles", "cycles", percentile(latencies, 99));
}

void add_trace_summary(Outcome& out, const std::vector<Span>& spans,
                       double traced_rep_s_median,
                       double untraced_rep_s_median) {
  const auto layers = self_ns_by_layer(spans);
  double wall = 0.0;
  for (const Span& s : spans)
    if (s.parent < 0) wall += static_cast<double>(s.duration());
  const auto bench = layers.find("bench");
  const double uncovered =
      bench == layers.end() ? 0.0 : static_cast<double>(bench->second);
  out.add("exec.pool_threads", "count", out.pool_threads);
  out.add("trace.overhead_pct", "%",
          (traced_rep_s_median / untraced_rep_s_median - 1.0) * 100.0);
  out.add("trace.uncovered_pct", "%", uncovered / wall * 100.0);
  std::string shares = "layer self-time shares:";
  for (const auto& [layer, ns] : layers)
    shares += " " + layer + "=" +
              std::to_string(static_cast<double>(ns) / wall * 100.0) + "%";
  out.notes.push_back(shares);
}

void write_trace(const RunConfig& config, const std::vector<Span>& spans,
                 std::size_t count, Outcome& out) {
  if (config.trace_out.empty()) return;
  std::ofstream f(config.trace_out, std::ios::binary | std::ios::trunc);
  f << chrome_trace_json(spans, count);
  f.close();
  out.gate(static_cast<bool>(f), "could not write " + config.trace_out);
  out.notes.push_back("trace of the first traced repetition (" +
                      std::to_string(count) + " spans) in " +
                      config.trace_out);
}

}  // namespace perfbench
