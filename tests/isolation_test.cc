// Isolation-backend seam tests (src/monitor/isolation.h):
//
//  - Backend equivalence: under a randomized PTE-write / sandbox-lifecycle /
//    quarantine workload, the PKS and TME-MK backends must return identical
//    policy verdicts and leave identical page-table state modulo the tag bits
//    (PKS: PTE bits 59-62; TME-MK: PTE bits 52-62).
//  - PKS golden bit-identity: the PKS backend must reproduce the pre-seam cost
//    model and gate register discipline exactly — the fig8/fig9/tab3/tab6
//    goldens all ride on these numbers.
//  - Domain budgets: PKS refuses the 12th concurrent sandbox with a clean
//    kUnavailable (counted in fleet.domain_exhausted) and recovers once a key
//    frees up; TME-MK sustains well past 16 live sandboxes with all invariant
//    families clean.
//  - MSR discipline is a deliberate seam difference: TME-MK tolerates inert
//    IA32_PKRS writes that PKS must refuse; both refuse the CET family.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/hw/platform.h"
#include "src/libos/libos.h"
#include "src/monitor/gates.h"
#include "src/monitor/invariants.h"
#include "src/monitor/isolation.h"
#include "src/sim/world.h"
#include "tests/client_data.h"

namespace erebor {
namespace {

// Bits 52-62: the union of both backends' tag fields. Equivalence comparisons
// mask them out; everything else in a PTE must match bit-for-bit.
constexpr Pte kAnyTagMask = ((1ull << 11) - 1) << 52;

std::unique_ptr<World> BootWorld(IsolationKind isolation) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.isolation = isolation;
  auto world = std::make_unique<World>(config);
  EXPECT_TRUE(world->Boot().ok());
  return world;
}

// Launches one sandbox with a small confined heap, runs it up, and seals it.
// Returns nullptr (with the status in *out) if any stage refuses.
Sandbox* LaunchSealed(World& world, const std::string& name, Status* out) {
  SandboxSpec spec;
  spec.name = name;
  spec.confined_budget_bytes = 1ull << 20;
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = name, .heap_bytes = 64 * 1024},
      LibosBackend::kSandboxed);
  bool up = false;
  auto sandbox = world.LaunchSandboxProcess(
      name, spec, [env, &up](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          (void)env->Initialize(ctx);
          up = true;
        }
        return StepOutcome::kYield;
      });
  if (!sandbox.ok()) {
    *out = sandbox.status();
    return nullptr;
  }
  Status run = world.RunUntil([&] { return up; });
  if (!run.ok()) {
    *out = run;
    return nullptr;
  }
  *out = InstallClientData(world, **sandbox, Bytes(128, 0x33));
  return out->ok() ? *sandbox : nullptr;
}

// ---- Backend equivalence under a randomized workload ----

// One pre-generated op stream applied to both worlds; per-op verdicts recorded
// for comparison. Tag-bit probes use the 59-62 nibble, which is tag territory
// under *both* backends (PKS pkey; TME-MK keyID bits 52-62 cover it), so the
// refusal verdict is comparable.
struct WorkloadOp {
  enum Kind { kWritePte, kLaunch, kTeardown, kQuarantine } kind;
  uint64_t a = 0;  // kWritePte: entry index; kTeardown/kQuarantine: victim index
  Pte value = 0;   // kWritePte only
};

std::vector<WorkloadOp> GenerateWorkload(uint64_t seed, int ops) {
  Rng rng(seed);
  std::vector<WorkloadOp> workload;
  // Track expected live sandboxes so launches stay inside *both* backends'
  // budgets — admission refusals past PKS's 11 keys are a deliberate seam
  // difference covered by DomainBudgetTest, not an equivalence property.
  int live = 0;
  for (int i = 0; i < ops; ++i) {
    WorkloadOp op;
    uint64_t roll = rng.NextBelow(100);
    if (roll >= 70 && roll < 85 && live >= 8) {
      roll = 0;  // at the cap: fold the launch into a PTE write
    }
    if (roll < 70) {
      op.kind = WorkloadOp::kWritePte;
      op.a = rng.NextBelow(512);
      // A mapping of a random frame with random low-bit flags; ~1 in 8 carries
      // a deliberate tag-bit probe that both backends must refuse.
      Pte value = AddrOf(rng.NextBelow(48 * 1024)) | pte::kPresent;
      if (rng.NextBelow(2)) value |= pte::kWritable;
      if (rng.NextBelow(2)) value |= pte::kUser;
      if (rng.NextBelow(2)) value |= pte::kNoExecute;
      if (rng.NextBelow(8) == 0) {
        value |= (1ull + rng.NextBelow(15)) << 59;
      }
      op.value = value;
    } else if (roll < 85) {
      op.kind = WorkloadOp::kLaunch;
      ++live;
    } else if (roll < 93) {
      op.kind = WorkloadOp::kTeardown;
      op.a = rng.NextBelow(64);
      live = live > 0 ? live - 1 : 0;
    } else {
      op.kind = WorkloadOp::kQuarantine;
      op.a = rng.NextBelow(64);
      live = live > 0 ? live - 1 : 0;
    }
    workload.push_back(op);
  }
  return workload;
}

// Applies the workload to one world, returning the per-op verdict codes and the
// masked final contents of the probe PTP.
struct WorkloadResult {
  std::vector<ErrorCode> verdicts;
  std::vector<Pte> masked_ptp;
  uint64_t live_sandboxes = 0;
  bool invariants_ok = false;
};

WorkloadResult RunWorkload(World& world, const std::vector<WorkloadOp>& workload) {
  WorkloadResult result;
  Cpu& cpu = world.machine().cpu(0);
  const auto ptp = world.kernel().pool().Alloc();
  EXPECT_TRUE(ptp.ok());
  EXPECT_TRUE(world.privops().RegisterPtp(cpu, *ptp, AddrOf(*ptp)).ok());
  std::vector<Sandbox*> live;
  int launched = 0;
  for (const WorkloadOp& op : workload) {
    switch (op.kind) {
      case WorkloadOp::kWritePte: {
        const Status st =
            world.privops().WritePte(cpu, AddrOf(*ptp) + 8 * op.a, op.value);
        result.verdicts.push_back(st.code());
        break;
      }
      case WorkloadOp::kLaunch: {
        Status st;
        Sandbox* sandbox =
            LaunchSealed(world, "eq" + std::to_string(launched++), &st);
        result.verdicts.push_back(st.code());
        if (sandbox != nullptr) {
          live.push_back(sandbox);
        }
        break;
      }
      case WorkloadOp::kTeardown:
      case WorkloadOp::kQuarantine: {
        if (live.empty()) {
          result.verdicts.push_back(ErrorCode::kOk);  // no victim: no-op on both
          break;
        }
        Sandbox* victim = live[op.a % live.size()];
        live.erase(live.begin() + static_cast<long>(op.a % live.size()));
        const Status st =
            op.kind == WorkloadOp::kTeardown
                ? world.monitor()->TeardownSandbox(cpu, *victim)
                : world.monitor()->sandboxes().Quarantine(cpu, *victim,
                                                          "equivalence probe");
        result.verdicts.push_back(st.code());
        break;
      }
    }
  }
  for (int i = 0; i < 512; ++i) {
    result.masked_ptp.push_back(
        world.machine().memory().Read64(AddrOf(*ptp) + 8 * i) & ~kAnyTagMask);
  }
  result.live_sandboxes = world.monitor()->isolation().sandbox_domains_in_use();
  InvariantChecker checker(world.monitor());
  result.invariants_ok = checker.CheckAll().ok();
  return result;
}

class BackendEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BackendEquivalenceTest, VerdictsAndStateMatchModuloTagBits) {
  const std::vector<WorkloadOp> workload = GenerateWorkload(GetParam(), 120);
  auto pks_world = BootWorld(IsolationKind::kPks);
  auto tme_world = BootWorld(IsolationKind::kTmeMk);
  ASSERT_NE(pks_world, nullptr);
  ASSERT_NE(tme_world, nullptr);
  const WorkloadResult pks = RunWorkload(*pks_world, workload);
  const WorkloadResult tme = RunWorkload(*tme_world, workload);
  ASSERT_EQ(pks.verdicts.size(), tme.verdicts.size());
  for (size_t i = 0; i < pks.verdicts.size(); ++i) {
    EXPECT_EQ(pks.verdicts[i], tme.verdicts[i])
        << "op " << i << " verdict diverged between backends";
  }
  EXPECT_EQ(pks.masked_ptp, tme.masked_ptp);
  EXPECT_EQ(pks.live_sandboxes, tme.live_sandboxes);
  EXPECT_TRUE(pks.invariants_ok);
  EXPECT_TRUE(tme.invariants_ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         testing::Values(1u, 7u, 42u));

// ---- PKS golden bit-identity ----

TEST(PksGoldenTest, CostModelAndGatePathMatchPreSeamNumbers) {
  // The numbers the figure goldens (fig8/fig9/tab3/tab6) are pinned against.
  const CycleModel model;
  EXPECT_EQ(model.emc_round_trip, 1224u);
  EXPECT_EQ(model.EreborPteTotal(), 1345u);
  auto world = BootWorld(IsolationKind::kPks);
  ASSERT_NE(world, nullptr);
  Cpu& cpu = world->machine().cpu(0);
  // Gate register discipline: at a safe point every CPU sits in the kernel view.
  EXPECT_EQ(cpu.pkrs(), KernelModePkrs());
  // End-to-end gated PTE write costs exactly the modelled total.
  const auto ptp = world->kernel().pool().Alloc();
  ASSERT_TRUE(ptp.ok());
  ASSERT_TRUE(world->privops().RegisterPtp(cpu, *ptp, AddrOf(*ptp)).ok());
  const Cycles before = cpu.cycles().now();
  ASSERT_TRUE(world->privops().WritePte(cpu, AddrOf(*ptp), 0).ok());
  EXPECT_EQ(cpu.cycles().now() - before, model.EreborPteTotal());
}

// ---- Domain budgets ----

TEST(DomainBudgetTest, PksRefusesPastElevenKeysAndRecovers) {
  auto world = BootWorld(IsolationKind::kPks);
  ASSERT_NE(world, nullptr);
  const uint64_t budget = world->monitor()->isolation().max_sandbox_domains();
  EXPECT_EQ(budget, 11u);
  const uint64_t exhausted_before =
      MetricsRegistry::Global().Value("fleet.domain_exhausted");
  std::vector<Sandbox*> live;
  for (uint64_t i = 0; i < budget; ++i) {
    SandboxSpec spec;
    spec.name = "cap" + std::to_string(i);
    auto sandbox = world->LaunchSandboxProcess(
        spec.name, spec, [](SyscallContext&) { return StepOutcome::kYield; });
    ASSERT_TRUE(sandbox.ok()) << sandbox.status().ToString();
    live.push_back(*sandbox);
  }
  // Admission-side refusal: one past the budget is kUnavailable, not a crash,
  // a shared key, or a quarantine.
  SandboxSpec spec;
  spec.name = "cap_overflow";
  auto overflow = world->LaunchSandboxProcess(
      spec.name, spec, [](SyscallContext&) { return StepOutcome::kYield; });
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(MetricsRegistry::Global().Value("fleet.domain_exhausted"),
            exhausted_before + 1);
  // Releasing one domain reopens admission.
  Cpu& cpu = world->machine().cpu(0);
  ASSERT_TRUE(world->monitor()->TeardownSandbox(cpu, *live.back()).ok());
  live.pop_back();
  auto retry = world->LaunchSandboxProcess(
      "cap_retry", spec, [](SyscallContext&) { return StepOutcome::kYield; });
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  InvariantChecker checker(world->monitor());
  EXPECT_TRUE(checker.CheckAll().ok());
}

TEST(DomainBudgetTest, TmeMkSustainsWellPastSixteenDomains) {
  auto world = BootWorld(IsolationKind::kTmeMk);
  ASSERT_NE(world, nullptr);
  EXPECT_GT(world->monitor()->isolation().max_sandbox_domains(), 16u);
  constexpr int kLive = 24;
  for (int i = 0; i < kLive; ++i) {
    Status st;
    ASSERT_NE(LaunchSealed(*world, "wide" + std::to_string(i), &st), nullptr)
        << st.ToString();
  }
  EXPECT_EQ(world->monitor()->isolation().sandbox_domains_in_use(),
            static_cast<uint64_t>(kLive));
  InvariantChecker checker(world->monitor());
  const Status st = checker.CheckAll();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// ---- Seam differences that are deliberate ----

TEST(MsrDisciplineTest, TmeMkToleratesInertPkrsWritesPksRefusesThem) {
  auto pks_world = BootWorld(IsolationKind::kPks);
  auto tme_world = BootWorld(IsolationKind::kTmeMk);
  ASSERT_NE(pks_world, nullptr);
  ASSERT_NE(tme_world, nullptr);
  Cpu& pks_cpu = pks_world->machine().cpu(0);
  Cpu& tme_cpu = tme_world->machine().cpu(0);
  // PKRS is monitor-owned under PKS; with TME-MK the register is inert (CR4.PKS
  // never set), so a legacy kernel poking it only wastes its own cycles.
  EXPECT_EQ(pks_world->privops().WriteMsr(pks_cpu, msr::kIa32Pkrs, 0).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(tme_world->privops().WriteMsr(tme_cpu, msr::kIa32Pkrs, 0).ok());
  // The CET family stays monitor-owned under both backends.
  for (const uint32_t index : {msr::kIa32SCet, msr::kIa32Pl0Ssp}) {
    EXPECT_EQ(pks_world->privops().WriteMsr(pks_cpu, index, 0).code(),
              ErrorCode::kPermissionDenied);
    EXPECT_EQ(tme_world->privops().WriteMsr(tme_cpu, index, 0).code(),
              ErrorCode::kPermissionDenied);
  }
}

}  // namespace
}  // namespace erebor
