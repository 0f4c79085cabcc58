// Table 7 (section 10): the cross-CVM architectural features Erebor relies on,
// extended into an isolation-backend ablation now that the monitor's protection
// mechanism is pluggable (src/monitor/isolation.h):
//
//   pks      - the paper's design: PKS tags in PTE bits 59-62, PKRS gate writes,
//              11 sandbox domains.
//   tme-mk   - TME-Box-style keyID confinement: keyIDs in PTE bits 52-62 bound
//              per-frame at the memory controller, no PKRS gate writes, ~2K
//              sandbox domains, PCONFIG + per-frame binding setup costs.
//   cet-only - SEV-style fallback: no protection keys at all, Nested-Kernel
//              private page tables + CR0.WP toggling (SevCycleModel), CET is the
//              only hardware assist left.
//
// Three measurements on top of the static feature table:
//   1. Per-op model + a measured end-to-end gated PTE write under each backend,
//      which must equal the model's PTE total.
//   2. TME-MK max-tenant scaling sweep: 16/64/256 live sandboxes in one world,
//      all sealed, with a full invariant sweep (families 1-7) at each level.
//   3. PKS at its domain ceiling: the 12th concurrent sandbox must be refused
//      with kUnavailable and counted in fleet.domain_exhausted.
//
// Any failed check fails the exit code and the JSON's "pass" verdict, which
// scripts/bench.sh re-checks in BENCH_tab7_platforms.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/metrics.h"
#include "src/hw/platform.h"
#include "src/libos/libos.h"
#include "src/monitor/invariants.h"
#include "src/sim/world.h"

using namespace erebor;

namespace {

struct BackendRow {
  std::string name;
  uint64_t emc_round_trip = 0;
  uint64_t monitor_pte_op = 0;
  uint64_t pte_total = 0;  // model: emc_round_trip + monitor_pte_op
  uint64_t int_gate_overhead = 0;
  uint64_t domain_setup = 0;  // one-time per-domain cost (PCONFIG for TME-MK)
  uint64_t max_domains = 0;
  uint64_t measured_pte_write = 0;  // end-to-end gated PTE write in a booted world
  bool ok = false;
};

// Boots a world and measures one monitor-gated PTE write end to end. The
// per-backend cost models are applied by the World constructor (TME-MK) or via
// an explicit cycle override (the SEV fallback keeps the PKS backend but pays
// the Nested-Kernel prices).
bool MeasureGatedPteWrite(IsolationKind isolation, const CycleModel* override_cycles,
                          uint64_t* out) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.isolation = isolation;
  if (override_cycles != nullptr) {
    config.machine.cycles = *override_cycles;
  }
  World world(config);
  if (!world.Boot().ok()) {
    return false;
  }
  Cpu& cpu = world.machine().cpu(0);
  const auto ptp = world.kernel().pool().Alloc();
  if (!ptp.ok() ||
      !world.privops().RegisterPtp(cpu, *ptp, AddrOf(*ptp)).ok()) {
    return false;
  }
  const Cycles before = cpu.cycles().now();
  if (!world.privops().WritePte(cpu, AddrOf(*ptp), 0).ok()) {
    return false;
  }
  *out = cpu.cycles().now() - before;
  return true;
}

// Launches `count` sandboxes into `world`, each with a small confined heap,
// runs them up, and seals every one with a client's first sealed record over
// an attested session. Returns how many came up sealed.
int LaunchSealedSandboxes(World& world, int count, const std::string& prefix) {
  int sealed = 0;
  Cpu& cpu = world.machine().cpu(0);
  for (int i = 0; i < count; ++i) {
    SandboxSpec spec;
    spec.name = prefix + std::to_string(i);
    spec.confined_budget_bytes = 1ull << 20;
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = spec.name, .heap_bytes = 64 * 1024},
        LibosBackend::kSandboxed);
    bool up = false;
    auto sandbox = world.LaunchSandboxProcess(
        spec.name, spec, [env, &up](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            (void)env->Initialize(ctx);
            up = true;
          }
          return StepOutcome::kYield;
        });
    if (!sandbox.ok() || !world.RunUntil([&] { return up; }).ok()) {
      std::printf("  launch %s failed: %s\n", spec.name.c_str(),
                  sandbox.ok() ? "run wedged" : sandbox.status().ToString().c_str());
      return sealed;
    }
    // Handshake, then one record in to seal: the confined write + state
    // transition every live tenant performs before serving.
    ClientSession session(world, (*sandbox)->id, static_cast<uint64_t>(i + 1), &cpu);
    if (!session.Handshake().ok() || !session.Send(Bytes(256, 0x5A)).ok()) {
      std::printf("  seal %s failed\n", spec.name.c_str());
      return sealed;
    }
    ++sealed;
  }
  return sealed;
}

struct ScalingCell {
  int target = 0;
  int sealed = 0;
  uint64_t domains_in_use = 0;
  uint64_t total_cycles = 0;
  bool invariants_ok = false;
  std::string violation;
};

}  // namespace

int main() {
  bool pass = true;

  std::printf("=== Table 7: cross-CVM architectural features for Erebor ===\n");
  std::printf("%-5s %-9s %-6s %-8s %-11s %-20s %-5s %-5s\n", "Plat", "Registers",
              "Ctxt.", "GHCI", "K/U sep.", "Prot. key", "Fwd", "Back");
  for (const PlatformFeatures& row : CvmPlatformTable()) {
    std::printf("%-5s %-9s %-6s %-8s %-11s %-20s %-5s %-5s\n", row.name.c_str(),
                row.registers.c_str(), row.context_switch.c_str(), row.ghci.c_str(),
                row.ku_separation.c_str(), row.protection_key.c_str(),
                row.cfi_forward.c_str(), row.cfi_backward.c_str());
  }

  // ---- Part 1: isolation-backend per-op ablation ----
  const CycleModel pks_model;
  const CycleModel tmemk_model = TmeMkCycleModel();
  const CycleModel sev_model = SevCycleModel();
  std::vector<BackendRow> rows(3);
  rows[0].name = "pks";
  rows[0].emc_round_trip = pks_model.emc_round_trip;
  rows[0].monitor_pte_op = pks_model.monitor_pte_op;
  rows[0].pte_total = pks_model.EreborPteTotal();
  rows[0].int_gate_overhead = pks_model.int_gate_overhead;
  rows[0].domain_setup = 0;
  rows[1].name = "tme-mk";
  rows[1].emc_round_trip = tmemk_model.emc_round_trip;
  rows[1].monitor_pte_op = tmemk_model.monitor_pte_op;
  rows[1].pte_total = tmemk_model.EreborPteTotal();
  rows[1].int_gate_overhead = tmemk_model.int_gate_overhead;
  rows[1].domain_setup = tmemk_model.pconfig_key_program;
  rows[2].name = "cet-only";
  rows[2].emc_round_trip = sev_model.emc_round_trip;
  rows[2].monitor_pte_op = sev_model.monitor_pte_op;
  rows[2].pte_total = sev_model.EreborPteTotal();
  rows[2].int_gate_overhead = sev_model.int_gate_overhead;
  rows[2].domain_setup = 0;

  rows[0].ok = MeasureGatedPteWrite(IsolationKind::kPks, nullptr,
                                    &rows[0].measured_pte_write);
  rows[1].ok = MeasureGatedPteWrite(IsolationKind::kTmeMk, nullptr,
                                    &rows[1].measured_pte_write);
  rows[2].ok = MeasureGatedPteWrite(IsolationKind::kPks, &sev_model,
                                    &rows[2].measured_pte_write);
  {
    // Domain budgets come from the backends themselves, not the cost models.
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    World pks_world(config);
    config.isolation = IsolationKind::kTmeMk;
    World tme_world(config);
    if (pks_world.Boot().ok() && tme_world.Boot().ok()) {
      rows[0].max_domains = pks_world.monitor()->isolation().max_sandbox_domains();
      rows[1].max_domains = tme_world.monitor()->isolation().max_sandbox_domains();
      rows[2].max_domains = rows[0].max_domains;  // fallback keeps the PKS seam
    }
  }

  std::printf("\n=== Isolation-backend per-op costs (cycles) ===\n");
  std::printf("%-10s %10s %10s %10s %10s %12s %8s %10s\n", "backend", "EMC trip",
              "PTE op", "PTE total", "#INT gate", "domain setup", "domains",
              "meas. PTE");
  for (const BackendRow& row : rows) {
    pass = pass && row.ok && row.measured_pte_write == row.pte_total;
    std::printf("%-10s %10llu %10llu %10llu %10llu %12llu %8llu %10llu\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.emc_round_trip),
                static_cast<unsigned long long>(row.monitor_pte_op),
                static_cast<unsigned long long>(row.pte_total),
                static_cast<unsigned long long>(row.int_gate_overhead),
                static_cast<unsigned long long>(row.domain_setup),
                static_cast<unsigned long long>(row.max_domains),
                static_cast<unsigned long long>(row.measured_pte_write));
  }

  // ---- Part 2: TME-MK max-tenant scaling sweep ----
  std::printf("\n=== TME-MK scaling: live sealed sandboxes in one world ===\n");
  std::printf("%-8s %8s %10s %14s %10s\n", "target", "sealed", "domains",
              "Mcycles", "invariants");
  std::vector<ScalingCell> scaling;
  for (const int n : {16, 64, 256}) {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.isolation = IsolationKind::kTmeMk;
    config.machine.memory_frames = 128 * 1024;
    World world(config);
    ScalingCell cell;
    cell.target = n;
    if (!world.Boot().ok()) {
      std::printf("  boot failed at %d\n", n);
      pass = false;
      scaling.push_back(cell);
      continue;
    }
    cell.sealed = LaunchSealedSandboxes(world, n, "t" + std::to_string(n) + "_");
    cell.domains_in_use = world.monitor()->isolation().sandbox_domains_in_use();
    cell.total_cycles = world.machine().TotalCycles();
    InvariantChecker checker(world.monitor());
    const Status inv = checker.CheckAll();
    cell.invariants_ok = inv.ok();
    if (!inv.ok()) {
      cell.violation = inv.ToString();
    }
    std::printf("%-8d %8d %10llu %14.1f %10s\n", n, cell.sealed,
                static_cast<unsigned long long>(cell.domains_in_use),
                cell.total_cycles / 1e6, cell.invariants_ok ? "clean" : "VIOLATION");
    if (!cell.invariants_ok) {
      std::printf("  %s\n", cell.violation.c_str());
    }
    pass = pass && cell.sealed == n && cell.domains_in_use == static_cast<uint64_t>(n) &&
           cell.invariants_ok;
    scaling.push_back(cell);
  }

  // ---- Part 3: PKS at its ceiling ----
  std::printf("\n=== PKS domain ceiling: admission past the key budget ===\n");
  uint64_t pks_admitted = 0;
  bool pks_refused_unavailable = false;
  const uint64_t exhausted_before =
      *MetricsRegistry::Global().Counter("fleet.domain_exhausted");
  {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    World world(config);
    if (world.Boot().ok()) {
      const uint64_t budget = world.monitor()->isolation().max_sandbox_domains();
      pks_admitted = LaunchSealedSandboxes(
          world, static_cast<int>(budget), "pks_");
      // One more than the budget: must be a clean kUnavailable refusal, not a
      // crash or a silently shared key.
      SandboxSpec spec;
      spec.name = "pks_overflow";
      auto extra = world.LaunchSandboxProcess(spec.name, spec,
                                              [](SyscallContext&) -> StepOutcome {
                                                return StepOutcome::kYield;
                                              });
      pks_refused_unavailable =
          !extra.ok() && extra.status().code() == ErrorCode::kUnavailable;
      std::printf("admitted %llu/%llu, overflow launch -> %s\n",
                  static_cast<unsigned long long>(pks_admitted),
                  static_cast<unsigned long long>(budget),
                  extra.ok() ? "ADMITTED (bug)" : extra.status().ToString().c_str());
      pass = pass && pks_admitted == budget && pks_refused_unavailable;
    } else {
      std::printf("PKS world failed to boot\n");
      pass = false;
    }
  }
  const uint64_t exhausted_delta =
      *MetricsRegistry::Global().Counter("fleet.domain_exhausted") - exhausted_before;
  std::printf("fleet.domain_exhausted incremented by %llu\n",
              static_cast<unsigned long long>(exhausted_delta));
  pass = pass && exhausted_delta == 1;
  // The row order and sweep targets that readers of the JSON index by.
  pass = pass && rows[0].name == "pks" && rows[1].name == "tme-mk" &&
         rows[2].name == "cet-only" && scaling.size() == 3 && scaling[0].target == 16 &&
         scaling[1].target == 64 && scaling[2].target == 256;

  std::printf("\npaper: SEV lacks PKS; Nested-Kernel-style write protection gives the "
              "same policy at slightly higher cost. TME-MK trades the PKRS gate "
              "writes for per-frame keyID bindings and lifts the 11-domain fleet "
              "ceiling to ~2K.\n");
  std::printf("\ntab7_platforms: %s\n", pass ? "PASS" : "FAIL");

  // ---- JSON emission ----
  Json backends = Json::Array();
  for (const BackendRow& row : rows) {
    backends.Push(Json::Object()
                      .Set("name", row.name)
                      .Set("emc_round_trip", row.emc_round_trip)
                      .Set("monitor_pte_op", row.monitor_pte_op)
                      .Set("pte_total", row.pte_total)
                      .Set("int_gate_overhead", row.int_gate_overhead)
                      .Set("domain_setup_cycles", row.domain_setup)
                      .Set("max_sandbox_domains", row.max_domains)
                      .Set("measured_gated_pte_write", row.measured_pte_write)
                      .Set("measured_ok", row.ok));
  }
  Json scaling_json = Json::Array();
  for (const ScalingCell& cell : scaling) {
    scaling_json.Push(Json::Object()
                          .Set("live_sandboxes", cell.target)
                          .Set("sealed", cell.sealed)
                          .Set("domains_in_use", cell.domains_in_use)
                          .Set("total_cycles", cell.total_cycles)
                          .Set("invariants_ok", cell.invariants_ok));
  }
  Json root = Json::Object()
                  .Set("bench", "tab7_platforms")
                  .Set("backends", std::move(backends))
                  .Set("tme_mk_scaling", std::move(scaling_json))
                  .Set("pks_exhaustion",
                       Json::Object()
                           .Set("admitted", pks_admitted)
                           .Set("overflow_unavailable", pks_refused_unavailable)
                           .Set("domain_exhausted_delta", exhausted_delta))
                  .Set("pass", pass);
  std::string json_path;
  if (WriteBenchJson("tab7_platforms", root, &json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
