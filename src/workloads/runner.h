// Workload runner: boots a World in a given evaluation mode, runs one workload
// end-to-end (init -> client data -> processing -> output) and reports cycle counts
// plus the Table-6 execution statistics.
#ifndef EREBOR_SRC_WORKLOADS_RUNNER_H_
#define EREBOR_SRC_WORKLOADS_RUNNER_H_

#include "src/sim/world.h"
#include "src/workloads/workload.h"

namespace erebor {

struct RunReport {
  std::string workload;
  SimMode mode = SimMode::kNative;
  bool ok = false;
  std::string error;

  Cycles init_cycles = 0;  // program launch -> ready for client data
  Cycles run_cycles = 0;   // client data installed -> output produced
  Bytes output;

  // Table 6 statistics (rates are per simulated second at 2.1 GHz).
  double pf_per_sec = 0;
  double timer_per_sec = 0;
  double ve_per_sec = 0;
  double total_exits_per_sec = 0;
  double emc_per_sec = 0;
  double run_seconds = 0;
  uint64_t confined_bytes = 0;
  uint64_t common_bytes = 0;
  uint64_t emc_total = 0;
  // Mitigation activity during the processing phase.
  uint64_t mitigation_stalls = 0;
  uint64_t mitigation_flushes = 0;
  uint64_t mitigation_quantized = 0;

  // Observability (filled when the global tracer is enabled): trace-measured EMC gate
  // entries over the processing phase — must equal emc_total exactly — plus the
  // per-phase event summary.
  uint64_t trace_emc_enter = 0;
  std::string trace_summary;

  double GhzSeconds(Cycles c) const { return static_cast<double>(c) / 2.1e9; }
};

struct RunnerOptions {
  uint64_t memory_frames = 48 * 1024;  // 192 MiB guest
  int num_cpus = 2;
  uint64_t input_seed = 42;
  uint64_t max_slices = 4'000'000;
  // Optional section-12 side-channel mitigations (Erebor modes only).
  MitigationConfig mitigations;
};

// Defaults for the single-process microbenchmark entry points (lmbench,
// fileserver): one vCPU, everything else as RunnerOptions. The figures those
// benches reproduce are single-core measurements, so 1 stays the documented
// default — but it is now an option, not a hardcode, and multi-vCPU scaling
// runs (bench/emc_scaling) can raise it.
inline RunnerOptions SingleCpuRunnerOptions() {
  RunnerOptions options;
  options.num_cpus = 1;
  return options;
}

// Runs `workload` under `mode` and returns the report.
RunReport RunWorkload(Workload& workload, SimMode mode, const RunnerOptions& options = {});

// Convenience: runs all modes of the Figure-9 ablation and returns reports in order
// {Native, LibOS-only, MMU, Exit, Full}.
std::vector<RunReport> RunAblation(Workload& workload, const RunnerOptions& options = {});

}  // namespace erebor

#endif  // EREBOR_SRC_WORKLOADS_RUNNER_H_
