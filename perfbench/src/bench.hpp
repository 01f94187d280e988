// Shared shapes of the three benchmark workloads: what a run is asked to
// do, what it reports, and the wall-clock helpers they time with.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "wsp/noc/noc_system.hpp"

namespace perfbench {

/// One benchmark run's parameters (all from the command line).
struct RunConfig {
  std::uint64_t seed = 0;   ///< workload seed; the library sees only the
                            ///< spec generated from it
  double seconds = 10.0;    ///< measurement window
  bool trace = false;       ///< traced run: per-layer metrics instead of
                            ///< end-to-end ones
  std::string trace_out;    ///< Chrome trace file (traced runs)
  int hw_threads = 1;       ///< host cores available
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a run reports.  A failed correctness gate sets `correct` to false
/// and names itself in `gate_failures`; it never becomes a metric.
struct Outcome {
  bool correct = true;
  std::vector<std::string> gate_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int pool_threads = 1;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< sample counts and other context

  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      gate_failures.push_back(what);
    }
  }
  void add(const std::string& name, const std::string& unit, double v) {
    metrics.push_back({name, unit, v});
  }
};

Outcome run_noc_uniform(const RunConfig& config);
Outcome run_cosim_spiking(const RunConfig& config);
Outcome run_campaign(const RunConfig& config);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// One library repetition's simulated work and host wall (set-up
/// excluded).
struct RepSample {
  double wall_s = 0.0;
  double sim_cycles = 0.0;
  double completed_txns = 0.0;
};

/// What a workload's measurement loop collected.
struct Measurement {
  std::uint64_t reps = 0;
  std::vector<double> setup_s;      ///< per library repetition
  std::vector<RepSample> samples;   ///< per library repetition
  std::vector<double> library_s;    ///< set-up + work, per library repetition
  std::vector<double> traced_s;     ///< per traced repetition
  std::size_t first_rep_spans = 0;  ///< spans of the first traced repetition
};

/// Repeats `library_rep` and, in a traced run, `traced_rep` after each
/// one, until config.seconds have passed; stops early once a gate has
/// failed.  `library_rep` reports its set-up wall through its argument and
/// returns its work counts; measure() fills in the wall.
Measurement measure(const RunConfig& config, const Outcome& out,
                    const SpanRecorder& rec,
                    const std::function<RepSample(double& setup_s)>& library_rep,
                    const std::function<void()>& traced_rep);

/// Adds the end-to-end metrics every workload reports: the median set-up,
/// peak RSS, and simulated cycles per second and host ns per completed
/// transaction over the fastest quarter of repetitions.  The host is
/// shared, so its speed drifts; contention only ever adds time, and the
/// fastest quarter measures the program rather than its neighbours while
/// still pooling many repetitions.
void add_end_to_end(Outcome& out, const Measurement& m);

/// Adds exec.pool_threads, trace.overhead_pct (traced versus untraced
/// repetition wall) and trace.uncovered_pct (root self time: traced wall
/// outside every layer span), and notes each layer's self-time share.
void add_trace_summary(Outcome& out, const std::vector<Span>& spans,
                       double traced_rep_s_median,
                       double untraced_rep_s_median);

/// Adds the exact simulated NoC counts (identical on every run of one
/// seed, whatever the host): transaction outcomes, resilience and
/// link-integrity events.
void add_noc_counts(Outcome& out, const wsp::noc::NocStats& s);
/// Adds link traversals and round-trip latency percentiles, where the
/// benchmark can observe them (not inside a campaign trial).
void add_noc_traffic(Outcome& out, std::uint64_t flit_hops,
                     const std::vector<double>& latencies);

/// Writes spans [0, count) as Chrome trace JSON to config.trace_out.
void write_trace(const RunConfig& config, const std::vector<Span>& spans,
                 std::size_t count, Outcome& out);

}  // namespace perfbench
