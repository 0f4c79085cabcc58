// Fleet-churn bench (ROADMAP item 2 follow-on): warm starts at fleet scale.
//
// One template sandbox is booted, frozen (SnapshotTemplate) and cloned 1k+
// times copy-on-write. The bench reports:
//
//   - launches/sec: simulated clone-launch rate (SpawnProcess + CloneFromTemplate,
//     whose cost is one monitor PTE op per shared page + one EMC dispatch) against
//     the 10k/sec target, plus the cold-boot baseline for the speedup;
//   - bounded residency: dormant clones pin zero confined frames — the only
//     per-clone frames are page-table pages — so 1k+ live sandboxes share one
//     template arena;
//   - real promotions: a handful of clones are promoted (ActivateClone allocates
//     the deferred isolation domain), handshaken over the attested channel through
//     the untrusted proxy, and served; their CoW breaks are counted;
//   - quarantine churn: promoted clones are quarantined and replaced from the
//     dormant pool, template accounting intact;
//   - invariants: every family audited clean at each phase boundary;
//   - a small FleetSupervisor run with warm_clone_pool on: a hostile tenant forces
//     quarantine-and-replace, the replacement promoting a pooled clone.
//
// With EREBOR_BENCH_JSON set, everything lands in BENCH_churn.json.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/metrics.h"
#include "src/fleet/supervisor.h"
#include "src/libos/libos.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

constexpr int kCloneStorm = 1100;       // dormant clones (live sandboxes >= 1k)
constexpr int kPromotions = 4;          // real promote+handshake+serve cycles
constexpr int kQuarantines = 2;         // quarantine-and-replace churn
constexpr uint64_t kSeed = 1234;
constexpr uint64_t kHeapBytes = 1 << 20;
constexpr double kGhz = 2.1e9;
constexpr double kLaunchTarget = 10'000.0;  // simulated launches/sec
static_assert(kCloneStorm >= 1000, "the churn fleet must hold 1k+ live sandboxes");
static_assert(kPromotions >= 1 && kQuarantines >= 1,
              "promotion and quarantine churn must both run");

struct CloneSlot {
  Sandbox* sandbox = nullptr;
  std::shared_ptr<std::atomic<bool>> promoted;
  std::shared_ptr<LibosEnv> env;
};

// Parked-until-promoted echo clone, mirroring the fleet's standby program.
ProgramFn CloneProgram(CloneSlot& slot, std::shared_ptr<LibosEnv> tmpl_env) {
  auto env = slot.env;
  auto promoted = slot.promoted;
  return [env, promoted, tmpl_env](SyscallContext& ctx) -> StepOutcome {
    if (!promoted->load(std::memory_order_relaxed)) {
      return StepOutcome::kYield;  // dormant: no fd, no memory, no domain
    }
    if (!env->initialized()) {
      env->AdoptTemplateState(*tmpl_env);
      if (!env->AttachClone(ctx).ok()) {
        return StepOutcome::kExited;
      }
      return StepOutcome::kYield;
    }
    auto input = env->RecvInput(ctx, 64 * 1024);
    if (!input.ok()) {
      return StepOutcome::kYield;
    }
    Bytes out = *input;
    for (uint8_t& b : out) {
      b ^= 0x5A;
    }
    (void)env->SendOutput(ctx, out);
    return StepOutcome::kYield;
  };
}

// Attested handshake + sealed record + verified echo over the proxy.
bool PromoteAndServe(World& world, CloneSlot& slot, uint64_t seed) {
  if (!world.monitor()->ActivateClone(world.machine().cpu(0), *slot.sandbox).ok()) {
    return false;
  }
  slot.promoted->store(true, std::memory_order_relaxed);
  ClientSession session(world, slot.sandbox->id, seed);
  Bytes payload(4096, 0x33);
  Bytes expected = payload;
  for (uint8_t& b : expected) {
    b ^= 0x5A;
  }
  if (!session.Handshake().ok() || !session.Send(payload).ok()) {
    return false;
  }
  const StatusOr<Bytes> result = session.Receive();
  return result.ok() && *result == expected;
}

bool CheckInvariants(World& world, uint64_t* checks, uint64_t* violations,
                     std::string* first_error) {
  InvariantChecker checker(world.monitor());
  const Status st = checker.CheckAll();
  ++*checks;
  if (!st.ok()) {
    ++*violations;
    if (first_error->empty()) {
      *first_error = st.ToString();
    }
    return false;
  }
  return true;
}

}  // namespace
}  // namespace erebor

int main() {
  using namespace erebor;
  bool ok = true;
  uint64_t invariant_checks = 0;
  uint64_t invariant_violations = 0;
  std::string first_error;

  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  // PKS's 11 domains cannot hold a 1k-clone fleet's promotions; model TME-MK.
  config.isolation = IsolationKind::kTmeMk;
  config.machine.memory_frames = 128 * 1024;
  World world(config);
  if (!world.Boot().ok() || !world.StartProxy().ok()) {
    std::printf("churn: boot failed\n");
    return 1;
  }
  Machine& machine = world.machine();
  FrameTable& frames = world.monitor()->frame_table();

  // -- template boot + freeze --
  auto tmpl_env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "tmpl", .heap_bytes = kHeapBytes},
      LibosBackend::kSandboxed);
  bool tmpl_up = false;
  SandboxSpec tmpl_spec;
  tmpl_spec.name = "tmpl";
  tmpl_spec.confined_budget_bytes = kHeapBytes + (2 << 20);
  auto tmpl = world.LaunchSandboxProcess(
      "tmpl", tmpl_spec, [tmpl_env, &tmpl_up](SyscallContext& ctx) -> StepOutcome {
        if (tmpl_up) {
          return StepOutcome::kYield;  // parked: pages are frozen read-only
        }
        if (!tmpl_env->initialized() && !tmpl_env->Initialize(ctx).ok()) {
          return StepOutcome::kExited;
        }
        tmpl_up = true;
        return StepOutcome::kYield;
      });
  if (!tmpl.ok() || !world.RunUntil([&] { return tmpl_up; }).ok() || !tmpl_up ||
      !world.monitor()->SnapshotTemplate(machine.cpu(0), **tmpl).ok()) {
    std::printf("churn: template freeze failed\n");
    return 1;
  }
  const uint64_t template_frames = frames.CountType(FrameType::kSandboxTemplate);

  // -- cold-boot baseline (one full bring-up for the speedup denominator) --
  auto cold_env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "cold", .heap_bytes = kHeapBytes},
      LibosBackend::kSandboxed);
  bool cold_up = false;
  SandboxSpec cold_spec = tmpl_spec;
  cold_spec.name = "cold";
  const Cycles cold_start = machine.TotalCycles();
  auto cold = world.LaunchSandboxProcess(
      "cold", cold_spec, [cold_env, &cold_up](SyscallContext& ctx) -> StepOutcome {
        if (!cold_env->initialized()) {
          if (!cold_env->Initialize(ctx).ok()) {
            return StepOutcome::kExited;
          }
          cold_up = true;
        }
        return StepOutcome::kYield;
      });
  if (!cold.ok() || !world.RunUntil([&] { return cold_up; }).ok() || !cold_up) {
    std::printf("churn: cold baseline failed\n");
    return 1;
  }
  const Cycles cold_cycles = machine.TotalCycles() - cold_start;

  // -- clone storm: 1k+ dormant warm clones --
  std::vector<CloneSlot> slots(kCloneStorm);
  const uint64_t confined_before = frames.CountType(FrameType::kSandboxConfined);
  const uint64_t ptp_before = frames.CountType(FrameType::kPtp);
  const Cycles storm_start = machine.TotalCycles();
  for (int i = 0; i < kCloneStorm; ++i) {
    CloneSlot& slot = slots[static_cast<size_t>(i)];
    slot.promoted = std::make_shared<std::atomic<bool>>(false);
    slot.env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "clone", .heap_bytes = kHeapBytes},
        LibosBackend::kSandboxed);
    SandboxSpec spec = tmpl_spec;
    spec.name = "clone-" + std::to_string(i);
    auto sandbox = world.LaunchCloneProcess(spec.name, **tmpl, spec,
                                            CloneProgram(slot, tmpl_env));
    if (!sandbox.ok()) {
      std::printf("churn: clone %d failed: %s\n", i,
                  sandbox.status().ToString().c_str());
      return 1;
    }
    slot.sandbox = *sandbox;
  }
  const Cycles storm_cycles = machine.TotalCycles() - storm_start;
  const double cycles_per_clone =
      static_cast<double>(storm_cycles) / kCloneStorm;
  const double launches_per_sec = kGhz / cycles_per_clone;
  const double clone_speedup = static_cast<double>(cold_cycles) / cycles_per_clone;
  const uint64_t dormant_confined =
      frames.CountType(FrameType::kSandboxConfined) - confined_before;
  const uint64_t ptp_per_clone =
      (frames.CountType(FrameType::kPtp) - ptp_before) / kCloneStorm;
  ok &= CheckInvariants(world, &invariant_checks, &invariant_violations,
                        &first_error);

  std::printf("=== Fleet churn (warm clones at scale) ===\n");
  std::printf("template frames:     %llu (%.1f MB shared by every clone)\n",
              static_cast<unsigned long long>(template_frames),
              template_frames * 4096.0 / 1048576);
  std::printf("clones launched:     %d\n", kCloneStorm);
  std::printf("cycles/clone:        %.0f (cold boot: %llu -> %.0fx speedup)\n",
              cycles_per_clone, static_cast<unsigned long long>(cold_cycles),
              clone_speedup);
  std::printf("launches/sec:        %.0f (target %.0f)\n", launches_per_sec,
              kLaunchTarget);
  std::printf("dormant residency:   %llu confined frames, %llu page-table frames "
              "per clone\n",
              static_cast<unsigned long long>(dormant_confined),
              static_cast<unsigned long long>(ptp_per_clone));
  ok &= launches_per_sec >= kLaunchTarget;
  // Bounded residency: a dormant clone pins no confined frames at all.
  ok &= dormant_confined == 0;

  // -- real promotions: domain allocation + attested handshake + serve --
  uint64_t cow_broken = 0;
  int promoted_ok = 0;
  for (int i = 0; i < kPromotions; ++i) {
    CloneSlot& slot = slots[static_cast<size_t>(i)];
    if (PromoteAndServe(world, slot, kSeed + static_cast<uint64_t>(i))) {
      ++promoted_ok;
      cow_broken += slot.sandbox->cow_broken_pages;
    }
  }
  ok &= promoted_ok == kPromotions;
  ok &= CheckInvariants(world, &invariant_checks, &invariant_violations,
                        &first_error);
  std::printf("promotions:          %d/%d served+verified, %llu CoW pages broken "
              "(%.1f/page budget of %llu template pages)\n",
              promoted_ok, kPromotions,
              static_cast<unsigned long long>(cow_broken),
              static_cast<double>(cow_broken) / std::max(promoted_ok, 1),
              static_cast<unsigned long long>(template_frames));
  // CoW stays sparse: serving breaks the io pages, not the whole arena.
  ok &= promoted_ok == 0 ||
        cow_broken < static_cast<uint64_t>(promoted_ok) * template_frames / 4;

  // -- quarantine-and-replace churn --
  int replaced_ok = 0;
  for (int i = 0; i < kQuarantines; ++i) {
    CloneSlot& victim = slots[static_cast<size_t>(i)];
    if (!world.monitor()
             ->sandboxes()
             .Quarantine(machine.cpu(0), *victim.sandbox, "churn bench")
             .ok()) {
      continue;
    }
    // Refill: promote a fresh clone from the dormant pool in its place.
    CloneSlot& refill = slots[static_cast<size_t>(kPromotions + i)];
    if (PromoteAndServe(world, refill, kSeed ^ (0xD00Du + static_cast<uint64_t>(i)))) {
      ++replaced_ok;
    }
  }
  ok &= replaced_ok == kQuarantines;
  ok &= CheckInvariants(world, &invariant_checks, &invariant_violations,
                        &first_error);
  std::printf("quarantine churn:    %d/%d quarantined and replaced from the pool\n",
              replaced_ok, kQuarantines);
  std::printf("live clones on tmpl: %u\n", (*tmpl)->live_clones);

  // -- fleet supervisor with the warm pool on: hostile tenant forces a
  //    quarantine-and-replace that promotes a pooled clone --
  const uint64_t pool_promotions_before =
      MetricsRegistry::Global().Value("fleet.pool.promotions");
  FleetConfig fleet_config;
  fleet_config.num_vcpus = 2;
  fleet_config.num_tenants = 4;
  fleet_config.standby_pool = 2;
  fleet_config.requests_per_tenant = 6;
  fleet_config.seed = kSeed;
  fleet_config.isolation = IsolationKind::kTmeMk;
  fleet_config.warm_clone_pool = true;
  fleet_config.attacks.assign(4, AttackClass::kNone);
  fleet_config.attacks[1] = AttackClass::kGateProbe;
  FleetSupervisor fleet(fleet_config);
  bool fleet_ok = fleet.Start().ok() && fleet.RunServing().ok();
  FleetReport fleet_report;
  if (fleet_ok) {
    fleet_report = fleet.Report();
    fleet_ok = fleet_report.ok && fleet_report.containment &&
               fleet_report.invariant_violations == 0 &&
               fleet_report.replacements >= 1;
  }
  const uint64_t pool_promotions =
      MetricsRegistry::Global().Value("fleet.pool.promotions") -
      pool_promotions_before;
  fleet_ok &= pool_promotions >= 1;
  ok &= fleet_ok;
  std::printf("fleet pool mode:     %s (replacements %llu, pool promotions %llu, "
              "containment %s)\n",
              fleet_ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(fleet_report.replacements),
              static_cast<unsigned long long>(pool_promotions),
              fleet_report.containment ? "yes" : "no");

  if (invariant_violations != 0) {
    std::printf("churn: FAIL invariants: %s\n", first_error.c_str());
  }
  ok &= invariant_violations == 0;

  Json root = Json::Object();
  root.Set("bench", "churn")
      .Set("clones_launched", kCloneStorm)
      .Set("live_sandboxes", kCloneStorm)
      .Set("template_frames", template_frames)
      .Set("cold_boot_cycles", static_cast<uint64_t>(cold_cycles))
      .Set("cycles_per_clone", cycles_per_clone)
      .Set("launches_per_sec", launches_per_sec)
      .Set("launch_target", kLaunchTarget)
      .Set("clone_speedup", clone_speedup)
      .Set("dormant_confined_frames", dormant_confined)
      .Set("ptp_frames_per_clone", ptp_per_clone)
      .Set("promotions", promoted_ok)
      .Set("cow_broken_pages", cow_broken)
      .Set("quarantine_replacements", replaced_ok)
      .Set("fleet_pool_promotions", pool_promotions)
      .Set("fleet_replacements", fleet_report.replacements)
      .Set("fleet_containment", fleet_report.containment)
      .Set("invariant_checks", invariant_checks)
      .Set("invariant_violations", invariant_violations)
      .Set("pass", ok);
  std::string path;
  if (WriteBenchJson("churn", root, &path)) {
    std::printf("churn: JSON written to %s\n", path.c_str());
  }
  return ok ? 0 : 1;
}
