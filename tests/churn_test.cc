// Fleet-churn soak (ctest label: churn; scripts/check.sh runs it plain and
// under TSan).
//
// Covers the warm-clone pool under sustained churn:
//  - pool-mode serving with a hostile mix + chaos engine: attacked tenants are
//    quarantined and replaced by promoting pooled clones, containment holds,
//    invariant families stay clean;
//  - engine equivalence of the pool-mode threaded burst (RunBurstIngest on
//    kRealThreads is the path TSan exercises): identical fingerprints and
//    per-tenant record counts on both engines;
//  - quarantine-mid-clone containment at the world level: killing a promoted
//    clone mid-session under the chaos engine leaves the template, the dormant
//    siblings, and every invariant family intact, and a sibling promotes into
//    the vacancy.
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/client/client.h"
#include "src/common/faultpoint.h"
#include "src/common/metrics.h"
#include "src/fleet/supervisor.h"
#include "src/libos/libos.h"
#include "src/monitor/invariants.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

constexpr uint64_t kHeapBytes = 1 << 20;

struct FaultGuard {
  ~FaultGuard() {
    FaultInjector::Global().SetObserver(nullptr);
    FaultInjector::Global().Disarm();
  }
};

FleetConfig PoolConfig(uint64_t seed) {
  FleetConfig config;
  config.num_vcpus = 2;
  config.num_tenants = 4;
  config.standby_pool = 2;
  config.requests_per_tenant = 6;
  config.seed = seed;
  // PKS's 11 keys would be tight for tenants + replacements; churn runs TME-MK.
  config.isolation = IsolationKind::kTmeMk;
  config.warm_clone_pool = true;
  config.attacks = MixedAttacks(config.num_tenants, 0.25, seed);
  return config;
}

struct PoolRun {
  bool ok = false;
  FleetReport report;
  std::vector<uint64_t> burst;
  uint64_t pool_promotions = 0;
};

PoolRun RunPoolSeed(const FleetConfig& config, int burst_rounds) {
  PoolRun run;
  const uint64_t promotions_before =
      MetricsRegistry::Global().Value("fleet.pool.promotions");
  FleetSupervisor fleet(config);
  Status st = fleet.Start();
  if (!st.ok()) {
    ADD_FAILURE() << "seed " << config.seed << " start: " << st.ToString();
    return run;
  }
  EXPECT_NE(fleet.template_sandbox(), nullptr);
  EXPECT_EQ(fleet.standby_count(), static_cast<size_t>(config.standby_pool));
  st = fleet.RunServing();
  if (!st.ok()) {
    ADD_FAILURE() << "seed " << config.seed << " serving: " << st.ToString();
    return run;
  }
  if (burst_rounds > 0) {
    auto burst = fleet.RunBurstIngest(burst_rounds);
    if (!burst.ok()) {
      ADD_FAILURE() << "seed " << config.seed
                    << " burst: " << burst.status().ToString();
      return run;
    }
    run.burst = *burst;
  }
  run.report = fleet.Report();
  run.pool_promotions =
      MetricsRegistry::Global().Value("fleet.pool.promotions") -
      promotions_before;
  run.ok = true;
  return run;
}

// Pool-mode serving under a hostile mix with the chaos engine armed: every
// replacement promotes a pooled clone instead of cold-booting, and the
// containment contract is unchanged from the cold-standby supervisor.
TEST(ChurnSoakTest, WarmPoolContainsHostileTenantsUnderChaos) {
  FaultGuard guard;
  for (uint64_t seed : {3u, 11u}) {
    FleetConfig config = PoolConfig(seed);
    config.chaos = true;
    config.chaos_seed = seed;
    const PoolRun run = RunPoolSeed(config, /*burst_rounds=*/0);
    ASSERT_TRUE(run.ok) << "seed " << seed;
    EXPECT_TRUE(run.report.ok) << "seed " << seed << ": " << run.report.error;
    EXPECT_TRUE(run.report.containment) << "seed " << seed;
    EXPECT_EQ(run.report.invariant_violations, 0u) << "seed " << seed;
    EXPECT_GE(run.report.replacements, 1u) << "seed " << seed;
    // Every replacement was a pool promotion, not a cold boot.
    EXPECT_GE(run.pool_promotions, run.report.replacements) << "seed " << seed;
  }
}

// Determinism: a pool-mode seed replays the same per-tenant outcome
// fingerprint bit-for-bit.
TEST(ChurnSoakTest, PoolModeSeedReplaysIdenticalFingerprint) {
  FaultGuard guard;
  const FleetConfig config = PoolConfig(7);
  const PoolRun a = RunPoolSeed(config, /*burst_rounds=*/0);
  const PoolRun b = RunPoolSeed(config, /*burst_rounds=*/0);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.report.fingerprint, b.report.fingerprint);
  EXPECT_EQ(a.pool_promotions, b.pool_promotions);
}

// The threaded churn soak TSan runs: pool-mode serving followed by the
// parallel burst on real threads must match the deterministic oracle.
TEST(ChurnEngineOracleTest, PoolBurstMatchesAcrossEngines) {
  FaultGuard guard;
  FleetConfig config = PoolConfig(13);
  config.exec = ExecMode::kDeterministic;
  const PoolRun oracle = RunPoolSeed(config, /*burst_rounds=*/24);
  config.exec = ExecMode::kRealThreads;
  const PoolRun threaded = RunPoolSeed(config, /*burst_rounds=*/24);
  ASSERT_TRUE(oracle.ok && threaded.ok);
  EXPECT_EQ(oracle.report.fingerprint, threaded.report.fingerprint)
      << "pool-mode per-tenant outcomes diverged across engines";
  EXPECT_EQ(oracle.burst, threaded.burst)
      << "pool-mode burst ingested different per-tenant record counts";
  EXPECT_EQ(oracle.report.invariant_violations, 0u);
  EXPECT_EQ(threaded.report.invariant_violations, 0u);
}

// ---- World-level quarantine-mid-clone containment under the chaos engine ----

struct CloneSlot {
  Sandbox* sandbox = nullptr;
  std::shared_ptr<std::atomic<bool>> promoted;
  std::shared_ptr<LibosEnv> env;
};

ProgramFn CloneProgram(CloneSlot& slot, std::shared_ptr<LibosEnv> tmpl_env) {
  auto env = slot.env;
  auto promoted = slot.promoted;
  return [env, promoted, tmpl_env](SyscallContext& ctx) -> StepOutcome {
    if (!promoted->load(std::memory_order_relaxed)) {
      return StepOutcome::kYield;
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

// Bounded promote+serve: under the chaos engine a serve may legitimately die
// mid-clone (the monitor quarantines the sandbox); cap the pumping so a killed
// serve fails fast instead of draining the scheduler budget.
bool PromoteAndServe(World& world, CloneSlot& slot, uint64_t seed) {
  constexpr uint64_t kMaxSlices = 60'000;
  if (!world.monitor()->ActivateClone(world.machine().cpu(0), *slot.sandbox).ok()) {
    return false;
  }
  slot.promoted->store(true, std::memory_order_relaxed);
  ClientSession session(world, slot.sandbox->id, seed);
  Bytes payload(1024, 0x44);
  Bytes expected = payload;
  for (uint8_t& b : expected) {
    b ^= 0x5A;
  }
  if (!session.Handshake(kMaxSlices).ok() || !session.Send(payload).ok()) {
    return false;
  }
  const StatusOr<Bytes> result = session.Receive(kMaxSlices);
  return result.ok() && *result == expected;
}

TEST(ChurnQuarantineTest, QuarantineMidCloneContainedUnderChaos) {
  FaultGuard guard;
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.isolation = IsolationKind::kTmeMk;
  config.machine.memory_frames = 32 * 1024;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  ASSERT_TRUE(world.StartProxy().ok());
  Cpu& cpu = world.machine().cpu(0);

  // Template up + frozen.
  auto tmpl_env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "tmpl", .heap_bytes = kHeapBytes},
      LibosBackend::kSandboxed);
  auto tmpl_up = std::make_shared<std::atomic<bool>>(false);
  SandboxSpec tmpl_spec;
  tmpl_spec.name = "tmpl";
  tmpl_spec.confined_budget_bytes = kHeapBytes + (2 << 20);
  auto tmpl = world.LaunchSandboxProcess(
      "tmpl", tmpl_spec,
      [tmpl_env, tmpl_up](SyscallContext& ctx) -> StepOutcome {
        if (tmpl_up->load(std::memory_order_relaxed)) {
          return StepOutcome::kYield;
        }
        if (!tmpl_env->initialized() && !tmpl_env->Initialize(ctx).ok()) {
          return StepOutcome::kExited;
        }
        tmpl_up->store(true, std::memory_order_relaxed);
        return StepOutcome::kYield;
      });
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  ASSERT_TRUE(world.RunUntil([&] { return tmpl_up->load(); }).ok());
  ASSERT_TRUE(world.monitor()->SnapshotTemplate(cpu, **tmpl).ok());

  // A small dormant pool.
  std::vector<CloneSlot> slots(3);
  for (size_t i = 0; i < slots.size(); ++i) {
    CloneSlot& slot = slots[i];
    slot.promoted = std::make_shared<std::atomic<bool>>(false);
    slot.env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "clone", .heap_bytes = kHeapBytes},
        LibosBackend::kSandboxed);
    SandboxSpec spec = tmpl_spec;
    spec.name = "clone-" + std::to_string(i);
    auto sandbox =
        world.LaunchCloneProcess(spec.name, **tmpl, spec,
                                 CloneProgram(slot, tmpl_env));
    ASSERT_TRUE(sandbox.ok()) << sandbox.status().ToString();
    slot.sandbox = *sandbox;
  }
  EXPECT_EQ((*tmpl)->live_clones, 3u);

  // Arm the chaos engine for everything that follows: promotion, serving,
  // the mid-session quarantine, and the refill all run with host probes and
  // fault injection live.
  ChaosOptions chaos;
  chaos.seed = 29;
  chaos.check_every_slices = 32;
  ASSERT_TRUE(world.EnableChaos(chaos).ok());

  // Walk the pool under chaos. Each promoted clone either serves — in which
  // case we quarantine it mid-session ourselves — or the chaos engine kills
  // it mid-clone first (an injected fault during a CoW break or the serve
  // path) and the monitor must already have quarantined it. Either way the
  // event is a quarantine-mid-clone, and containment means the template and
  // the remaining dormant siblings survive to promote into the vacancy.
  uint32_t quarantined = 0;
  uint32_t served_after_quarantine = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    CloneSlot& slot = slots[i];
    if (PromoteAndServe(world, slot, 101 + static_cast<uint64_t>(i))) {
      EXPECT_GT(slot.sandbox->cow_broken_pages, 0u);
      if (quarantined > 0) {
        ++served_after_quarantine;
        continue;  // vacancy refilled: leave this one serving
      }
      // First successful serve: kill it mid-session ourselves.
      ASSERT_TRUE(world.monitor()
                      ->sandboxes()
                      .Quarantine(cpu, *slot.sandbox, "churn test kill")
                      .ok());
      ++quarantined;
    } else if (slot.sandbox->state == SandboxState::kQuarantined) {
      // The chaos engine beat us to it: an injected fault mid-clone (e.g. a
      // failed CoW break) and the monitor quarantined the sandbox.
      ++quarantined;
    } else {
      // A chaos-dropped packet can time the client out with the sandbox still
      // healthy. That is a client-side retry case, not a containment breach —
      // but the sandbox must be alive, never wedged half-dead.
      EXPECT_NE(slot.sandbox->state, SandboxState::kTornDown)
          << "clone " << i << " torn down without a quarantine";
    }
  }
  EXPECT_GE(quarantined, 1u);
  EXPECT_GE(served_after_quarantine, 1u)
      << "no sibling promoted into the vacancy after a mid-clone quarantine";
  // Every quarantined clone released its template reference; the survivors
  // (serving or parked) still share the untouched template.
  EXPECT_EQ((*tmpl)->live_clones, 3u - quarantined);

  // Invariants: nothing the chaos engine threw at this run broke a family,
  // and a full audit is clean after the churn.
  EXPECT_EQ(world.invariant_violations(), 0u)
      << world.first_violation().ToString();
  InvariantChecker checker(world.monitor());
  const Status audit = checker.CheckAll();
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  world.DisableChaos();
}

}  // namespace
}  // namespace erebor
