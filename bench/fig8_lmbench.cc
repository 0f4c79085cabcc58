// Figure 8: Erebor's overhead on LMBench-style system microbenchmarks, reported as
// latency relative to Native (1.0x) plus the EMC/second rate of each benchmark.
//
// The event tracer runs throughout (observational only — it never charges simulated
// cycles, so the cyc/op columns are identical with tracing on or off). After the
// table it prints the per-phase event summary, verifies that the trace-measured EMC
// gate count equals the monitor's emc_total counter for every Erebor run, and writes
// the Chrome trace_event JSON (EREBOR_TRACE_JSON, default fig8_trace.json).
//
// The software TLB stays on; the bench reports its counters and the walker's Read64
// count. That the TLB changes no simulated count, and cuts the walker's reads at
// least 5x, is TlbCycleNeutralityTest's check (tests/tlb_test.cc), on every
// benchmark here at reduced iterations. With EREBOR_BENCH_JSON set, the per-bench
// numbers land in BENCH_fig8.json.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_json.h"
#include "src/common/trace.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"
#include "src/workloads/lmbench.h"

using namespace erebor;

namespace {

struct Sample {
  LmbenchResult native;
  LmbenchResult erebor;
  uint64_t walk_reads = 0;  // walker Read64s across the native and Erebor runs
  double wall_ns = 0;       // host wall-clock for the native and Erebor runs
};

StatusOr<Sample> RunOnce(const std::string& name, uint64_t iterations) {
  Sample sample;
  const uint64_t reads_before = PageTableWalkReads();
  const auto wall_before = std::chrono::steady_clock::now();
  auto native = RunLmbench(name, SimMode::kNative, iterations);
  if (!native.ok()) {
    return native.status();
  }
  auto erebor = RunLmbench(name, SimMode::kEreborFull, iterations);
  if (!erebor.ok()) {
    return erebor.status();
  }
  const auto wall_after = std::chrono::steady_clock::now();
  sample.native = *native;
  sample.erebor = *erebor;
  sample.walk_reads = PageTableWalkReads() - reads_before;
  sample.wall_ns = std::chrono::duration<double, std::nano>(wall_after - wall_before).count();
  return sample;
}

}  // namespace

int main() {
  Tracer& tracer = Tracer::Global();
  tracer.EnableFromEnv();  // honor EREBOR_TRACE_JSON
  tracer.Enable();
  if (tracer.json_path().empty()) {
    tracer.set_json_path("fig8_trace.json");
  }

  std::printf("=== Figure 8: LMBench relative latency (Erebor / Native) ===\n");
  std::printf("%-10s %14s %14s %9s %12s\n", "bench", "native cyc/op", "erebor cyc/op",
              "relative", "EMC/s");
  double worst = 0;
  std::string worst_name;
  bool all_match = true;
  uint64_t trace_emc = 0;
  uint64_t monitor_emc = 0;
  uint64_t reads_on = 0;
  double wall_on_ns = 0;
  Tlb::ResetGlobalStats();
  Json benches = Json::Array();
  for (const std::string& name : LmbenchNames()) {
    tracer.MarkPhase(name);
    const uint64_t iterations = (name == "fork" || name == "mmap") ? 600 : 2000;
    const auto on = RunOnce(name, iterations);
    if (!on.ok()) {
      std::printf("%-10s FAILED: %s\n", name.c_str(), on.status().ToString().c_str());
      continue;
    }
    reads_on += on->walk_reads;
    wall_on_ns += on->wall_ns;
    all_match = all_match && on->erebor.trace_emc_enter == on->erebor.emc_count &&
                on->native.trace_emc_enter == on->native.emc_count;
    trace_emc += on->erebor.trace_emc_enter;
    monitor_emc += on->erebor.emc_count;
    const double relative = on->erebor.cycles_per_op() / on->native.cycles_per_op();
    if (relative > worst) {
      worst = relative;
      worst_name = name;
    }
    std::printf("%-10s %14.0f %14.0f %8.2fx %11.0fk\n", name.c_str(),
                on->native.cycles_per_op(), on->erebor.cycles_per_op(), relative,
                on->erebor.emc_per_sec() / 1000.0);
    const uint64_t total_ops = on->native.operations + on->erebor.operations;
    benches.Push(Json::Object()
                     .Set("name", name)
                     .Set("native_cyc_per_op", on->native.cycles_per_op())
                     .Set("erebor_cyc_per_op", on->erebor.cycles_per_op())
                     .Set("relative_overhead", relative)
                     .Set("emc_per_sec", on->erebor.emc_per_sec())
                     .Set("wall_ns_per_op_tlb_on",
                          total_ops == 0 ? 0.0 : on->wall_ns / total_ops)
                     .Set("walk_read64s_tlb_on", on->walk_reads));
  }
  std::printf("\nworst case: %s at %.2fx (paper: pagefault at ~3.8x; "
              "fork/mmap also elevated; EMC/s 0.9M-3.6M)\n",
              worst_name.c_str(), worst);

  // ---- software-TLB report: counters, walker reads, wall clock ----
  const Tlb::Stats& tlb = Tlb::GlobalStats();
  const uint64_t lookups = tlb.hits + tlb.psc_hits + tlb.misses;
  const double hit_rate =
      lookups == 0 ? 0 : static_cast<double>(tlb.hits + tlb.psc_hits) / lookups;
  std::printf("\n--- software TLB ---\n");
  std::printf("page-table walker Read64s: %llu\n",
              static_cast<unsigned long long>(reads_on));
  std::printf("tlb: hits=%llu psc_hits=%llu misses=%llu hit-rate=%.1f%% "
              "flushes=%llu invlpg=%llu shootdowns=%llu\n",
              static_cast<unsigned long long>(tlb.hits),
              static_cast<unsigned long long>(tlb.psc_hits),
              static_cast<unsigned long long>(tlb.misses), 100.0 * hit_rate,
              static_cast<unsigned long long>(tlb.flushes),
              static_cast<unsigned long long>(tlb.invlpg),
              static_cast<unsigned long long>(tlb.shootdowns));
  std::printf("host wall clock: %.0fms\n", wall_on_ns / 1e6);

  std::printf("\n--- per-phase event summary (one phase per benchmark) ---\n%s",
              tracer.SummaryTable().c_str());
  std::printf("trace cross-check: tracer saw %llu EMC gate entries, monitor counted "
              "%llu -> %s\n",
              static_cast<unsigned long long>(trace_emc),
              static_cast<unsigned long long>(monitor_emc),
              all_match ? "MATCH" : "MISMATCH (instrumentation bug)");
  const Status st = tracer.WriteChromeTrace(tracer.json_path());
  if (st.ok()) {
    std::printf("Chrome trace written to %s (load via chrome://tracing / Perfetto)\n",
                tracer.json_path().c_str());
  } else {
    std::printf("Chrome trace export failed: %s\n", st.ToString().c_str());
  }

  Json root = Json::Object();
  root.Set("bench", "fig8")
      .Set("benches", std::move(benches))
      .Set("walk_read64s_tlb_on", reads_on)
      .Set("tlb_hit_rate", hit_rate)
      .Set("tlb_hits", tlb.hits)
      .Set("tlb_psc_hits", tlb.psc_hits)
      .Set("tlb_misses", tlb.misses)
      .Set("wall_ms_tlb_on", wall_on_ns / 1e6)
      .Set("worst_case", worst_name)
      .Set("worst_relative", worst)
      .Set("trace_cross_check", all_match);
  std::string json_path;
  if (WriteBenchJson("fig8", root, &json_path)) {
    std::printf("bench JSON written to %s\n", json_path.c_str());
  }
  return !all_match;
}
