// Tests of the benchmark's own machinery: percentile and tail rules, span
// self time, failure accounting, and the replicas' equality with the
// library entry points they shadow (on small grids).
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "workload.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

void test_nearest_rank_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(percentile(v, 50) == 50);
  CHECK(percentile(v, 95) == 95);
  CHECK(percentile(v, 99) == 99);
  CHECK(percentile(v, 100) == 100);
  CHECK(percentile({7.0}, 1) == 7.0);
  CHECK(percentile({3.0, 1.0}, 50) == 1.0);  // rank ceil(1.0) = 1
  CHECK(percentile({}, 50) == 0.0);
  CHECK(nearest_rank(200, 95) == 190);  // exact, no floating round-up
  CHECK(nearest_rank(199, 95) == 190);
  CHECK(nearest_rank(1, 1) == 1);
}

void test_tail_rule() {
  CHECK(tail_supported(200, 95));   // 10 samples beyond rank 190
  CHECK(!tail_supported(199, 95));  // rank 190, only 9 beyond
  CHECK(tail_supported(1000, 99));
  CHECK(!tail_supported(999, 99));
  CHECK(!tail_supported(0, 50));
  CHECK(tail_supported(20, 50) && !tail_supported(19, 50));
}

Span span(const char* name, std::uint64_t b, std::uint64_t e, int parent) {
  Span s;
  s.name = name;
  s.start_ns = b;
  s.end_ns = e;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // Parent [0,100]; children [10,20] and [20,35] are adjacent, [30,40]
  // overlaps the second, [90,130] runs past the parent's end; [12,18] is a
  // grandchild and must not count against the parent.
  const std::vector<Span> spans = {
      span("bench.rep", 0, 100, -1), span("noc.step", 10, 20, 0),
      span("noc.issue", 20, 35, 0),  span("pdn.solve", 30, 40, 0),
      span("ckpt.save", 90, 130, 0), span("exec.chunk", 12, 18, 1)};
  const std::vector<std::uint64_t> self = self_times(spans);
  CHECK(self[0] == 100 - 30 - 10);  // [10,40] and [90,100] covered
  CHECK(self[1] == 10 - 6);
  CHECK(self[2] == 15);
  CHECK(self[5] == 6);
  const auto layers = self_ns_by_layer(spans);
  CHECK(layers.at("bench") == 60);
  CHECK(layers.at("noc") == 4 + 15);
  CHECK(layers.at("exec") == 6);
  CHECK(layer_of("resilience.trial") == "resilience");

  // A recorder's spans nest by call order and their self times add up to
  // the root's duration.
  SpanRecorder rec(true);
  {
    Scope root(rec, "bench.rep");
    { Scope a(rec, "noc.step"); }
    {
      Scope b(rec, "pdn.solve");
      Scope c(rec, "exec.chunk");
    }
  }
  const std::vector<Span>& got = rec.spans();
  CHECK(got.size() == 4);
  CHECK(got[0].parent == -1 && got[1].parent == 0 && got[2].parent == 0 &&
        got[3].parent == 2);
  std::uint64_t sum = 0;
  for (const std::uint64_t s : self_times(got)) sum += s;
  CHECK(sum == got[0].duration());
  SpanRecorder off(false);
  { Scope s(off, "noc.step"); }
  CHECK(off.spans().empty());
  const std::string json = chrome_trace_json(got, 2);
  CHECK(json.find("\"noc.step\"") != std::string::npos);
  CHECK(json.find("\"pdn.solve\"") == std::string::npos);
}

void test_failure_accounting() {
  NocRep noc;
  noc.injections = 10;
  noc.stats.issued = 9;
  noc.stats.unreachable = 1;
  noc.stats.completed = 8;
  noc.stats.lost = 1;
  CHECK(noc_failed_ops(noc) == 2);  // one unreachable, one lost
  CHECK(noc_accounting_holds(noc));
  noc.inflight_after = 1;  // stranded after the drain
  noc.stats.lost = 0;
  CHECK(noc_failed_ops(noc) == 2);
  CHECK(!noc_accounting_holds(noc));

  CosimRep cosim;
  cosim.emitted = 5;
  cosim.drained_stats.completed = 5;
  CHECK(cosim_failed_ops(cosim) == 0);
  cosim.drained_stats.completed = 3;
  CHECK(cosim_failed_ops(cosim) == 2);

  wsp::resilience::DegradationReport trial;
  trial.drained = true;
  trial.noc_stats.issued = 10;
  trial.noc_stats.completed = 9;
  trial.noc_stats.lost = 1;
  trial.noc_stats.unreachable = 3;  // rejected at issue, never issued
  CHECK(!campaign_trial_failed(trial));
  trial.drained = false;
  CHECK(campaign_trial_failed(trial));
  trial.drained = true;
  trial.noc_stats.lost = 0;
  CHECK(campaign_trial_failed(trial));
}

void test_noc_digest_replica_4x4() {
  NocSetup setup = noc_uniform_setup(5, 1);
  setup.grid = 4;
  setup.cycles = 64;
  setup.spec.synthetic.injection_rate = 0.1;
  double setup_s = -1.0;
  const NocRep lib = noc_library_rep(setup, setup_s);
  SpanRecorder rec(true);
  const NocRep replica = noc_replica_rep(setup, rec);
  CHECK(setup_s >= 0.0);
  CHECK(lib.injections > 0);
  CHECK(lib.digest == replica.digest);
  CHECK(same_outputs(lib, replica));
  CHECK(noc_accounting_holds(replica));
  CHECK(noc_failed_ops(replica) == 0);
  CHECK(!rec.spans().empty());

  // A different seed changes the delivery trace, so the gate can fail.
  NocSetup other = setup;
  other.spec.seed = 6;
  SpanRecorder off(false);
  CHECK(noc_replica_rep(other, off).digest != lib.digest);
}

void test_cosim_replica_8x8() {
  CosimSetup setup = cosim_spiking_setup(3);
  setup.options.config = wsp::SystemConfig::reduced(8, 8);
  setup.options.workload.spiking.hotspot = {4, 4};
  setup.options.workload.spiking.burst_interval = 32;
  setup.epochs = 6;
  setup.checkpoint_every = 2;
  double setup_s = 0.0;
  std::vector<double> epoch_ms;
  const CosimRep lib = cosim_library_rep(setup, setup_s, epoch_ms);
  SpanRecorder rec(true);
  const CosimRep replica = cosim_replica_rep(setup, rec);
  CHECK(lib.epochs.size() == 6);
  CHECK(same_outputs(lib, replica));
  CHECK(replica.checkpoint_bytes.size() == 3);
  CHECK(replica.solve_stats.size() == 12);
  CHECK(cosim_failed_ops(replica) == 0);
}

}  // namespace

int main() {
  test_nearest_rank_percentiles();
  test_tail_rule();
  test_self_time();
  test_failure_accounting();
  test_noc_digest_replica_4x4();
  test_cosim_replica_8x8();
  if (failures) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all perfbench tests passed\n");
  return 0;
}
