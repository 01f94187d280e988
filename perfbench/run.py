#!/usr/bin/env python3
"""Repository benchmark runner.

Builds perfbench/ (an optimized, assertion-free build of the wsp libraries
plus the benchmark binary) under .bench_build/, runs one workload for a
fixed wall-clock window and prints a report whose last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --list          # workloads, seeds and metric map
  python3 perfbench/run.py --self-test     # build and run the benchmark's tests

--trace 0 reports every end-to-end metric of BENCHMARK.json, measured with
no tracing.  --trace 1 reports every per-layer metric from a traced run,
writes its spans as Chrome trace JSON under .bench_build/traces/ and
validates that file with tools/validate_json.py.  Exit status: 0 when all
correctness gates held, 1 when one failed, 2 when the benchmark could not
run (no sources, failed build, bad arguments).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170

NOC = "noc_uniform_32x32"
COSIM = "cosim_spiking_32x32"
CAMPAIGN = "campaign_16x16"
ALL = (NOC, COSIM, CAMPAIGN)

# Seed each workload runs when --seed is not given.
DEFAULT_SEEDS = {NOC: 7, COSIM: 2021, CAMPAIGN: 11}

# Per-layer metric -> (the end-to-end metric and workload it should move,
# the workloads that measure it).  On any other workload the metric is
# reported as 0.
NOC_STEP = ("sim_cycles_per_s and host_ns_per_txn on %s; sim_cycles_per_s "
            "on %s at about 1/3 weight" % (NOC, COSIM))
COSIM_RATE = "sim_cycles_per_s on %s" % COSIM
EXACT = "exact simulated count: a simulator-only change must leave it identical"
LAYER_MAP = {
    "workloads.emit_ns_per_cycle": (
        "sim_cycles_per_s on %s and %s" % (NOC, COSIM), (NOC, COSIM)),
    "workloads.injections": (EXACT, (NOC, COSIM)),
    "noc.issue_ns_per_txn": (NOC_STEP, (NOC, COSIM)),
    "noc.step_ns_p50": (NOC_STEP, (NOC, COSIM)),
    "noc.step_ns_p95": (NOC_STEP, (NOC, COSIM)),
    "noc.step_share": (NOC_STEP, (NOC, COSIM)),
    "noc.step_ns_per_flit_hop": ("host_ns_per_txn on %s" % NOC, (NOC, COSIM)),
    "noc.inflight_mean": (
        "load level behind host_ns_per_txn on %s (exact)" % NOC, (NOC, COSIM)),
    "noc.drain_cycles": (EXACT, (NOC, COSIM)),
    "noc.ber_rebind_ns": (COSIM_RATE, (COSIM,)),
    "noc.flit_hops": (EXACT, (NOC, COSIM)),
    "noc.issued": (EXACT, ALL),
    "noc.completed": (EXACT, ALL),
    "noc.unreachable": (EXACT, ALL),
    "noc.lost": (EXACT, ALL),
    "noc.timeouts": (EXACT, ALL),
    "noc.retries": (EXACT, ALL),
    "noc.relayed": (EXACT, ALL),
    "noc.crc_detected": (EXACT, ALL),
    "noc.link_retransmits": (EXACT, ALL),
    "noc.latency_p50_cycles": (EXACT, (NOC, COSIM)),
    "noc.latency_p99_cycles": (EXACT, (NOC, COSIM)),
    "cosim.harvest_ns": (COSIM_RATE, (COSIM,)),
    "cosim.power_map_ns": (COSIM_RATE, (COSIM,)),
    "cosim.coupling_share": (COSIM_RATE, (COSIM,)),
    "cosim.epoch_ms_p50": (COSIM_RATE, (COSIM,)),
    "cosim.epoch_ms_p95": (
        COSIM_RATE + ": checkpoint epochs (1 in 16) sit in this tail", (COSIM,)),
    "pdn.solve_ms_per_epoch": (
        COSIM_RATE + "; no change on %s" % NOC, (COSIM,)),
    "pdn.solve_share": (COSIM_RATE + "; no change on %s" % NOC, (COSIM,)),
    "pdn.iterations_per_epoch": (EXACT, (COSIM,)),
    "pdn.sweep_equivalents_per_epoch": (EXACT, (COSIM,)),
    "pdn.max_kcl_residual_a": ("solver accuracy on %s" % COSIM, (COSIM,)),
    "ckpt.save_ms": ("cosim.epoch_ms_p95, hence " + COSIM_RATE, (COSIM,)),
    "ckpt.load_ms": ("cosim.epoch_ms_p95, hence " + COSIM_RATE, (COSIM,)),
    "ckpt.bytes": ("cosim.epoch_ms_p95, hence " + COSIM_RATE, (COSIM,)),
    "resilience.trial_ms_p50": ("sim_cycles_per_s on %s" % CAMPAIGN, (CAMPAIGN,)),
    "resilience.trial_ms_max": (
        "sim_cycles_per_s on %s: the slowest trial sets the batch" % CAMPAIGN,
        (CAMPAIGN,)),
    "resilience.trials_per_s": ("sim_cycles_per_s on %s" % CAMPAIGN, (CAMPAIGN,)),
    "resilience.fault_events": (EXACT, (CAMPAIGN,)),
    "resilience.recovery_cycles_mean": (EXACT, (CAMPAIGN,)),
    "resilience.sim_cycles": (EXACT, (CAMPAIGN,)),
    "exec.pool_threads": ("host setting behind every parallel number", ALL),
    "exec.trial_parallel_efficiency": (
        "sim_cycles_per_s on %s" % CAMPAIGN, (CAMPAIGN,)),
    "trace.overhead_pct": ("traced versus untraced wall (no end-to-end effect)", ALL),
    "trace.uncovered_pct": ("traced wall outside every layer's spans", ALL),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(names) != sorted(LAYER_MAP):
        fail("per-layer metrics of BENCHMARK.json and LAYER_MAP differ: %s"
             % sorted(set(names) ^ set(LAYER_MAP)))
    if sorted(w["name"] for w in spec["workloads"]) != sorted(ALL):
        fail("workloads of BENCHMARK.json differ from run.py's")
    return spec


def list_workloads(spec):
    print("workloads:")
    for w in spec["workloads"]:
        print("  %-22s default seed %-5d %s"
              % (w["name"], DEFAULT_SEEDS[w["name"]], w["why"]))
    print("\nend-to-end metrics (--trace 0, untraced, every workload):")
    for m in spec["end_to_end"]:
        print("  %-22s %-6s %-6s bound %.2f"
              % (m["name"], m["unit"], m["better"], m["bound"]))
    print("\nper-layer metrics (--trace 1) -> what they should move:")
    for m in spec["per_layer"]:
        moves, where = LAYER_MAP[m["name"]]
        measured = "all" if len(where) == len(ALL) else ", ".join(where)
        print("  %-34s %-6s [%s]\n      %s" % (m["name"], m["unit"], measured, moves))


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(r.stdout)
    return r.returncode == 0


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", target]):
        fail("build failed")
    return BUILD / target


def check_metrics(spec, workload, trace, metrics):
    """Returns the result's metrics in BENCHMARK.json order, or exits."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in declared:
        name = m["name"]
        measured = not trace or workload in LAYER_MAP[name][1]
        if name not in metrics:
            if measured:
                fail("binary did not report %s" % name)
            out[name] = {"value": 0, "unit": m["unit"]}
            continue
        if not measured:
            fail("binary reported %s, which LAYER_MAP says %s does not measure"
                 % (name, workload))
        if metrics[name]["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], m["unit"]))
        out[name] = metrics[name]
    extra = set(metrics) - set(out)
    if extra:
        fail("binary reported undeclared metrics %s" % sorted(extra))
    return out


def validate_trace(path):
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "validate_json.py"),
                        str(ROOT / "schemas" / "trace.schema.json"), str(path)],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print("  " + r.stdout.strip().replace(str(ROOT) + os.sep, ""))
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=ALL)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.list:
        list_workloads(spec)
        return 0
    if args.self_test:
        return subprocess.run([str(build("perfbench_tests"))]).returncode
    if args.workload is None:
        fail("--workload is required")
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        fail("--seed must be non-negative")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_file = ROOT / ".bench_build" / "traces" / (
            "TRACE_%s_seed%d.json" % (args.workload, seed))
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail("benchmark binary exited with status %d" % r.returncode)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    correct = bool(result["correct"]) and r.returncode == 0
    if trace_file is not None and not validate_trace(trace_file):
        correct = False
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": check_metrics(spec, args.workload, args.trace,
                                 result["metrics"]),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
