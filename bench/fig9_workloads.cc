// Figure 9: normalized runtime of the five real-world service workloads under the
// evaluation ablation (LibOS-only / +MMU isolation / +exit protection / full Erebor),
// relative to Native = 1.0.
//
// The software TLB stays on; that it changes no simulated cycle is
// TlbCycleNeutralityTest's check (tests/tlb_test.cc), on the same five apps at
// reduced sizes. With EREBOR_BENCH_JSON set, the normalized runtimes land in
// BENCH_fig9.json.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench/bench_json.h"
#include "src/hw/tlb.h"
#include "src/workloads/runner.h"

using namespace erebor;

int main() {
  Tlb::ResetGlobalStats();
  std::printf("=== Figure 9: normalized runtime (Native = 1.000) ===\n");
  std::printf("%-12s %10s %12s %12s %12s %10s\n", "workload", "LibOS-only", "Erebor-MMU",
              "Erebor-Exit", "Erebor", "status");
  double geo_product[4] = {1, 1, 1, 1};
  int ok_count = 0;
  double wall_on_ns = 0;
  Json workloads = Json::Array();
  for (auto& workload : MakePaperWorkloads()) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<RunReport> reports = RunAblation(*workload);
    wall_on_ns += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    if (!reports[0].ok) {
      std::printf("%-12s native failed: %s\n", workload->name().c_str(),
                  reports[0].error.c_str());
      continue;
    }
    const double native = static_cast<double>(reports[0].run_cycles);
    double rel[4] = {0, 0, 0, 0};
    bool all_ok = true;
    for (int i = 1; i <= 4; ++i) {
      if (!reports[i].ok) {
        all_ok = false;
        continue;
      }
      rel[i - 1] = reports[i].run_cycles / native;
    }
    std::printf("%-12s %10.3f %12.3f %12.3f %12.3f %10s\n", workload->name().c_str(),
                rel[0], rel[1], rel[2], rel[3], all_ok ? "ok" : "PARTIAL");
    workloads.Push(Json::Object()
                       .Set("name", workload->name())
                       .Set("libos_only", rel[0])
                       .Set("erebor_mmu", rel[1])
                       .Set("erebor_exit", rel[2])
                       .Set("erebor_full", rel[3])
                       .Set("emc_per_sec", reports[4].emc_per_sec)
                       .Set("complete", all_ok));
    if (all_ok) {
      for (int i = 0; i < 4; ++i) {
        geo_product[i] *= rel[i];
      }
      ++ok_count;
    }
  }
  double geomean[4] = {0, 0, 0, 0};
  if (ok_count > 0) {
    for (int i = 0; i < 4; ++i) {
      geomean[i] = std::pow(geo_product[i], 1.0 / ok_count);
    }
    std::printf("%-12s %10.3f %12.3f %12.3f %12.3f\n", "geomean", geomean[0], geomean[1],
                geomean[2], geomean[3]);
  }
  const Tlb::Stats& tlb = Tlb::GlobalStats();
  const uint64_t lookups = tlb.hits + tlb.psc_hits + tlb.misses;
  const double hit_rate =
      lookups == 0 ? 0 : static_cast<double>(tlb.hits + tlb.psc_hits) / lookups;
  std::printf("\nsoftware TLB: hit-rate=%.1f%%\n", 100.0 * hit_rate);
  // Host timing on its own line: everything else in this bench's output is
  // deterministic, so invariance checks can filter this prefix.
  std::printf("host wall clock: %.0fms\n", wall_on_ns / 1e6);
  std::printf("\npaper: LibOS-only geomean 1.017; Erebor geomean 1.081; per-workload "
              "1.045-1.132 with llama.cpp highest\n");

  Json root = Json::Object();
  root.Set("bench", "fig9")
      .Set("workloads", std::move(workloads))
      .Set("geomean_libos_only", geomean[0])
      .Set("geomean_erebor_mmu", geomean[1])
      .Set("geomean_erebor_exit", geomean[2])
      .Set("geomean_erebor_full", geomean[3])
      .Set("tlb_hit_rate", hit_rate)
      .Set("wall_ms_tlb_on", wall_on_ns / 1e6);
  std::string json_path;
  if (WriteBenchJson("fig9", root, &json_path)) {
    std::printf("bench JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
