// The three workloads' building blocks, shared by the benchmark binary and
// its tests.  Each workload has a library run (the public entry point the
// workload measures, untraced) and a replica that re-drives the same
// simulation through the layers' public calls with a span around each
// call.  The two must produce identical outputs; that equality is one of
// the benchmark's correctness gates.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/workloads/traffic_gen.hpp"

namespace perfbench {

// --- noc_uniform ------------------------------------------------------------

struct NocSetup {
  int grid = 32;
  std::uint64_t cycles = 1024;  ///< traffic window per repetition
  int threads = 1;              ///< exec pool size
  wsp::workloads::WorkloadSpec spec;
};

/// Fault-free NoC driven by uniform random Synthetic traffic at 0.02
/// transactions per tile per cycle.
NocSetup noc_uniform_setup(std::uint64_t seed, int threads);

struct NocRep {
  std::uint32_t digest = 0;      ///< run_workload_traffic's delivery digest
  std::uint64_t injections = 0;  ///< transactions the generator emitted
  wsp::noc::NocStats stats;      ///< after the drain
  std::uint64_t inflight_after = 0;
  std::uint64_t cycles = 0;      ///< simulated, drain included
  std::uint64_t drain_cycles = 0;
  std::uint64_t flit_hops = 0;   ///< link traversals, both networks
  // Replica only:
  std::vector<double> latencies;  ///< round-trip cycles of completions
  double inflight_sum = 0.0;      ///< in-flight count summed per cycle
};

/// The library run: pool sizing, NocSystem and generator (the set-up,
/// whose wall goes to `setup_s`), then one run_workload_traffic call with
/// its drain.
NocRep noc_library_rep(const NocSetup& setup, double& setup_s);
/// The replica: emit/issue/step/drain re-driven call by call, with the
/// delivery digest recomputed exactly as run_workload_traffic does.
NocRep noc_replica_rep(const NocSetup& setup, SpanRecorder& rec);

/// Emitted transactions not completed after the drain (unreachable, lost
/// or stranded).
std::uint64_t noc_failed_ops(const NocRep& rep);
/// Issue calls = completed + unreachable + lost, nothing left in flight.
bool noc_accounting_holds(const NocRep& rep);
bool same_outputs(const NocRep& a, const NocRep& b);

// --- cosim_spiking ----------------------------------------------------------

struct CosimSetup {
  wsp::cosim::CosimOptions options;
  std::uint64_t epochs = 64;          ///< coupled epochs per repetition
  std::uint64_t checkpoint_every = 16;  ///< epochs between round trips
};

CosimSetup cosim_spiking_setup(std::uint64_t seed);

struct CosimRep {
  std::vector<wsp::cosim::EpochReport> epochs;
  wsp::noc::NocStats stats;        ///< at the end of the last epoch
  std::uint64_t emitted = 0;       ///< generator transactions issued
  // Replica only (after its drain):
  wsp::noc::NocStats drained_stats;
  std::uint64_t inflight_after = 0;
  std::uint64_t drain_cycles = 0;
  std::uint64_t flit_hops = 0;
  std::vector<double> latencies;
  double inflight_sum = 0.0;
  std::vector<wsp::pdn::SolveStats> solve_stats;  ///< 2 per epoch
  std::vector<double> checkpoint_bytes;
};

/// The library run: CosimLoop epoch by epoch, with an in-memory
/// save_state/load_state round trip every checkpoint_every epochs.
CosimRep cosim_library_rep(const CosimSetup& setup, double& setup_s,
                           std::vector<double>& epoch_ms);
/// The replica: the coupled loop rebuilt from emit/issue/step, harvest,
/// activity_power_map, solve_batch_warm and the BER rebind, with the same
/// round trips; then drained to account every emitted transaction.
CosimRep cosim_replica_rep(const CosimSetup& setup, SpanRecorder& rec);

std::uint64_t cosim_failed_ops(const CosimRep& replica);
bool same_outputs(const CosimRep& library, const CosimRep& replica);

// --- campaign ---------------------------------------------------------------

struct CampaignSetup {
  wsp::resilience::CampaignOptions options;
  int trials = 16;  ///< trials per batch
  int threads = 1;
};

CampaignSetup campaign_setup(std::uint64_t seed, int threads);

/// A trial fails when its traffic did not drain or its transactions do not
/// balance: issued = completed + lost (unreachable ones are never issued).
bool campaign_trial_failed(const wsp::resilience::DegradationReport& r);
/// save_report bytes of each report.
std::vector<std::vector<std::uint8_t>> report_bytes(
    const std::vector<wsp::resilience::DegradationReport>& reports);

}  // namespace perfbench
