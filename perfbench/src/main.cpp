// Benchmark binary: runs one workload for a fixed wall-clock window
// and prints a human-readable report followed by one JSON line that
// perfbench/run.py checks and relays.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Exit status: 0 when every correctness gate held, 1 when one failed,
// 2 on bad arguments or an unusable build/environment.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<noc_uniform_32x32|cosim_spiking_32x32|campaign_16x16> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      config.seed = std::strtoull(v, &end, 10);
      if (*v == '-' || end == v || *end != '\0')
        return usage("--seed must be a non-negative integer");
      have_seed = true;
    } else if (a == "--seconds") {
      config.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(config.seconds > 0.0) ||
          config.seconds > 3600.0)
        return usage("--seconds must be a number in (0, 3600]");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace must be 0 or 1");
      config.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--trace-out") {
      config.trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_trace)
    return usage("--workload, --seed and --trace are required");

#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: built without NDEBUG (assertions on); refusing "
               "to report timings from a debug build\n");
  return 2;
#endif
  const char* env_trace = std::getenv("WSP_TRACE");
  if (!config.trace && env_trace != nullptr && *env_trace != '\0' &&
      std::strcmp(env_trace, "0") != 0) {
    std::fprintf(stderr,
                 "perfbench: WSP_TRACE is set; refusing to report an "
                 "untraced run with library tracing on\n");
    return 2;
  }
  config.hw_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  Outcome out;
  try {
    if (workload == "noc_uniform_32x32") {
      out = run_noc_uniform(config);
    } else if (workload == "cosim_spiking_32x32") {
      out = run_cosim_spiking(config);
    } else if (workload == "campaign_16x16") {
      out = run_campaign(config);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("workload %s  seed %llu  %s run\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced");
  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  for (const std::string& g : out.gate_failures)
    std::printf("  GATE FAILED: %s\n", g.c_str());
  std::printf("  operations attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const Metric& m : out.metrics)
    std::printf("  %-34s %20.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  std::string json = "{\"correct\":";
  json += out.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" + buf +
            ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "},\"stamp\":{\"workload\":\"" + json_escape(workload) +
          "\",\"seed\":" + std::to_string(config.seed) +
          ",\"nproc\":" + std::to_string(config.hw_threads) +
          ",\"pool_threads\":" + std::to_string(out.pool_threads) +
          ",\"compiler\":\"" + json_escape(__VERSION__) +
          "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE +
          "\",\"ndebug\":true,\"trace\":" + (config.trace ? "true" : "false") +
          "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
