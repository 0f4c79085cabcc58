// Template-snapshot / copy-on-write clone tests (ROADMAP item 2).
//
// The property that matters: a promoted CoW clone is indistinguishable from a
// cold-booted sandbox once its first request has broken the io pages — same
// served bytes, same steady-state page-fault and EMC profile, same invariant
// audit — on both isolation backends. Plus the warm-pool regressions: parked
// clones pin no isolation domain (PKS has 11 keys), exhaustion is surfaced as
// fleet.domain_exhausted, and template/clone teardown accounting holds.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>

#include "src/client/client.h"
#include "src/common/metrics.h"
#include "src/libos/libos.h"
#include "src/monitor/invariants.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

constexpr uint64_t kHeapBytes = 1 << 20;
constexpr uint64_t kSeed = 77;

Bytes EchoExpected(const Bytes& payload) {
  Bytes out = payload;
  for (uint8_t& b : out) {
    b ^= 0x5A;
  }
  return out;
}

// One serve measured against the world: request in, verified echo out.
struct ServeStats {
  bool ok = false;
  Bytes output;
  uint64_t emc_delta = 0;
  uint64_t usercopy_delta = 0;
  uint64_t pf_delta = 0;
  uint64_t cow_delta = 0;
};

class CloneTest : public testing::Test {
 protected:
  void Boot(IsolationKind isolation) {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.isolation = isolation;
    config.machine.memory_frames = 32 * 1024;
    world_ = std::make_unique<World>(config);
    ASSERT_TRUE(world_->Boot().ok());
    ASSERT_TRUE(world_->StartProxy().ok());
  }

  Cpu& cpu() { return world_->machine().cpu(0); }

  SandboxSpec Spec(const std::string& name) {
    SandboxSpec spec;
    spec.name = name;
    spec.confined_budget_bytes = kHeapBytes + (2 << 20);
    return spec;
  }

  // Boots one sandbox to full LibOS init, parks it, and freezes it as the
  // clone template.
  void BootTemplate() {
    tmpl_env_ = std::make_shared<LibosEnv>(
        LibosManifest{.name = "tmpl", .heap_bytes = kHeapBytes},
        LibosBackend::kSandboxed);
    auto up = std::make_shared<std::atomic<bool>>(false);
    auto env = tmpl_env_;
    auto tmpl = world_->LaunchSandboxProcess(
        "tmpl", Spec("tmpl"), [env, up](SyscallContext& ctx) -> StepOutcome {
          if (up->load(std::memory_order_relaxed)) {
            return StepOutcome::kYield;  // frozen: pages are read-only now
          }
          if (!env->initialized() && !env->Initialize(ctx).ok()) {
            return StepOutcome::kExited;
          }
          up->store(true, std::memory_order_relaxed);
          return StepOutcome::kYield;
        });
    ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
    ASSERT_TRUE(world_->RunUntil([&] { return up->load(); }).ok());
    ASSERT_TRUE(world_->monitor()->SnapshotTemplate(cpu(), **tmpl).ok());
    tmpl_ = *tmpl;
  }

  // Parked-until-promoted echo clone (the fleet's standby shape).
  Sandbox* MakeClone(const std::string& name,
                     std::shared_ptr<std::atomic<bool>>* latch_out) {
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = name, .heap_bytes = kHeapBytes},
        LibosBackend::kSandboxed);
    auto promoted = std::make_shared<std::atomic<bool>>(false);
    auto tmpl_env = tmpl_env_;
    auto sandbox = world_->LaunchCloneProcess(
        name, *tmpl_, Spec(name),
        [env, promoted, tmpl_env](SyscallContext& ctx) -> StepOutcome {
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
          Bytes out = EchoExpected(*input);
          (void)env->SendOutput(ctx, out);
          return StepOutcome::kYield;
        });
    EXPECT_TRUE(sandbox.ok()) << sandbox.status().ToString();
    if (latch_out != nullptr) {
      *latch_out = promoted;
    }
    return sandbox.ok() ? *sandbox : nullptr;
  }

  // Cold-booted echo service with the same serving body as the clone.
  Sandbox* LaunchCold(const std::string& name) {
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = name, .heap_bytes = kHeapBytes},
        LibosBackend::kSandboxed);
    auto sandbox = world_->LaunchSandboxProcess(
        name, Spec(name), [env](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            if (!env->Initialize(ctx).ok()) {
              return StepOutcome::kExited;
            }
            return StepOutcome::kYield;
          }
          auto input = env->RecvInput(ctx, 64 * 1024);
          if (!input.ok()) {
            return StepOutcome::kYield;
          }
          Bytes out = EchoExpected(*input);
          (void)env->SendOutput(ctx, out);
          return StepOutcome::kYield;
        });
    EXPECT_TRUE(sandbox.ok()) << sandbox.status().ToString();
    return sandbox.ok() ? *sandbox : nullptr;
  }

  // Sends one sealed record and measures the serve against the sandbox.
  ServeStats ServeOnce(ClientSession& session, Sandbox& sandbox,
                       const Bytes& payload) {
    ServeStats stats;
    const uint64_t emc_before = world_->monitor()->counters().emc_total;
    const uint64_t uc_before = world_->monitor()->counters().emc_usercopy;
    const uint64_t pf_before = sandbox.exits.page_faults;
    const uint64_t cow_before = sandbox.cow_broken_pages;
    EXPECT_TRUE(session.Send(payload).ok());
    const StatusOr<Bytes> result = session.Receive();
    stats.ok = result.ok() && *result == EchoExpected(payload);
    stats.output = result.ok() ? *result : Bytes{};
    stats.emc_delta = world_->monitor()->counters().emc_total - emc_before;
    stats.usercopy_delta =
        world_->monitor()->counters().emc_usercopy - uc_before;
    stats.pf_delta = sandbox.exits.page_faults - pf_before;
    stats.cow_delta = sandbox.cow_broken_pages - cow_before;
    return stats;
  }

  bool InvariantsClean() {
    InvariantChecker checker(world_->monitor());
    const Status st = checker.CheckAll();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return st.ok();
  }

  std::unique_ptr<World> world_;
  std::shared_ptr<LibosEnv> tmpl_env_;
  Sandbox* tmpl_ = nullptr;
};

// The bugfix property: after promotion plus one warm-up request (which breaks
// the io CoW pages), a clone's steady-state serving fingerprint matches a
// cold-booted sandbox's exactly — served bytes, page faults, per-request EMC
// traffic — and the invariant families stay clean. Run on both backends.
class CloneEquivalenceTest : public CloneTest,
                             public testing::WithParamInterface<IsolationKind> {};

TEST_P(CloneEquivalenceTest, SteadyStateFingerprintMatchesColdBoot) {
  Boot(GetParam());
  BootTemplate();

  const Bytes payload(2048, 0x33);

  // Bring BOTH sandboxes fully up before measuring either: each one's idle
  // polling contributes background EMC traffic during the other's serve, so
  // the two measurements must run against the same task population.
  Sandbox* cold = LaunchCold("cold");
  ASSERT_NE(cold, nullptr);
  ClientSession cold_client(*world_, cold->id, kSeed);
  ASSERT_TRUE(cold_client.Handshake().ok());

  std::shared_ptr<std::atomic<bool>> latch;
  Sandbox* clone = MakeClone("clone", &latch);
  ASSERT_NE(clone, nullptr);
  EXPECT_TRUE(clone->domain_deferred);
  ASSERT_TRUE(world_->monitor()->ActivateClone(cpu(), *clone).ok());
  EXPECT_FALSE(clone->domain_deferred);
  EXPECT_NE(clone->domain_tag, 0u);
  latch->store(true, std::memory_order_relaxed);
  ClientSession clone_client(*world_, clone->id, kSeed + 1);
  ASSERT_TRUE(clone_client.Handshake().ok());

  // Warm-up request each: seals both, and the clone's privatizes its io pages.
  ASSERT_TRUE(ServeOnce(cold_client, *cold, payload).ok);
  const ServeStats first = ServeOnce(clone_client, *clone, payload);
  ASSERT_TRUE(first.ok);
  EXPECT_GT(clone->cow_broken_pages, 0u);

  // Steady-state measurement.
  const ServeStats cold_stats = ServeOnce(cold_client, *cold, payload);
  ASSERT_TRUE(cold_stats.ok);
  const ServeStats clone_stats = ServeOnce(clone_client, *clone, payload);
  ASSERT_TRUE(clone_stats.ok);
  // Steady state breaks no more shares.
  EXPECT_EQ(clone_stats.cow_delta, 0u);

  // The equivalence fingerprint.
  EXPECT_EQ(clone_stats.output, cold_stats.output);
  EXPECT_EQ(clone_stats.output, EchoExpected(payload));
  EXPECT_EQ(clone_stats.pf_delta, cold_stats.pf_delta);
  EXPECT_EQ(clone_stats.usercopy_delta, cold_stats.usercopy_delta);
  EXPECT_EQ(clone_stats.emc_delta, cold_stats.emc_delta);

  // Both sandboxes are sealed and isolated under distinct domains.
  EXPECT_EQ(clone->state, SandboxState::kSealed);
  EXPECT_EQ(cold->state, SandboxState::kSealed);
  EXPECT_NE(clone->domain_tag, cold->domain_tag);
  EXPECT_TRUE(InvariantsClean());
}

INSTANTIATE_TEST_SUITE_P(Backends, CloneEquivalenceTest,
                         testing::Values(IsolationKind::kPks,
                                         IsolationKind::kTmeMk),
                         [](const testing::TestParamInfo<IsolationKind>& info) {
                           return info.param == IsolationKind::kPks ? "Pks"
                                                                    : "TmeMk";
                         });

// Satellite 2 regression: parked standbys must not pin one of PKS's 11 keys.
// Creating far more clones than keys succeeds; the domain is only claimed at
// promotion, and exhaustion there is a counted, recoverable refusal.
TEST_F(CloneTest, ParkedClonesDoNotExhaustPksDomains) {
  Boot(IsolationKind::kPks);
  BootTemplate();

  const uint32_t capacity = world_->monitor()->isolation().max_sandbox_domains();
  const uint32_t in_use = world_->monitor()->isolation().sandbox_domains_in_use();
  const int kClones = static_cast<int>(capacity) + 5;  // 16 on PKS

  std::vector<Sandbox*> clones;
  for (int i = 0; i < kClones; ++i) {
    Sandbox* clone = MakeClone("standby-" + std::to_string(i), nullptr);
    ASSERT_NE(clone, nullptr) << "parked clone " << i << " must not need a key";
    EXPECT_TRUE(clone->domain_deferred);
    EXPECT_EQ(clone->domain_tag, 0u);
    clones.push_back(clone);
  }
  // Creation pinned nothing.
  EXPECT_EQ(world_->monitor()->isolation().sandbox_domains_in_use(), in_use);

  const uint64_t exhausted_before =
      MetricsRegistry::Global().Value("fleet.domain_exhausted");
  uint32_t promoted = 0;
  uint64_t refused = 0;
  for (Sandbox* clone : clones) {
    const Status st = world_->monitor()->ActivateClone(cpu(), *clone);
    if (st.ok()) {
      ++promoted;
      EXPECT_NE(clone->domain_tag, 0u);
    } else {
      ++refused;
      EXPECT_EQ(st.code(), ErrorCode::kUnavailable) << st.ToString();
      EXPECT_TRUE(clone->domain_deferred);  // still a valid parked standby
    }
  }
  EXPECT_EQ(promoted, capacity - in_use);
  EXPECT_GE(refused, 1u);
  EXPECT_EQ(MetricsRegistry::Global().Value("fleet.domain_exhausted") -
                exhausted_before,
            refused);
  EXPECT_TRUE(InvariantsClean());

  // Releasing one promoted clone frees its key for a previously refused one.
  ASSERT_TRUE(
      world_->monitor()->sandboxes().Teardown(cpu(), *clones.front()).ok());
  EXPECT_TRUE(world_->monitor()->ActivateClone(cpu(), *clones.back()).ok());
  EXPECT_TRUE(InvariantsClean());
}

// CoW break mechanics: breaking a shared page privatizes exactly one frame
// under the clone's own (lazily allocated) domain, leaves the template and
// sibling clones untouched, and the teardown accounting holds.
TEST_F(CloneTest, CowBreakPrivatizesOnePageAndTeardownAccountingHolds) {
  Boot(IsolationKind::kTmeMk);
  BootTemplate();

  Sandbox* a = MakeClone("clone-a", nullptr);
  Sandbox* b = MakeClone("clone-b", nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(tmpl_->live_clones, 2u);

  FrameTable& frames = world_->monitor()->frame_table();
  const uint64_t tmpl_frames = frames.CountType(FrameType::kSandboxTemplate);
  const uint64_t confined_before = frames.CountType(FrameType::kSandboxConfined);
  ASSERT_FALSE(tmpl_->template_ranges.empty());
  const Vaddr page_va = tmpl_->template_ranges.front().va;

  // First break on a parked clone lazily activates it (a write is imminent; it
  // cannot run untagged), then privatizes exactly one page.
  EXPECT_TRUE(a->domain_deferred);
  ASSERT_TRUE(world_->monitor()->sandboxes().BreakCowShare(cpu(), *a, page_va).ok());
  EXPECT_FALSE(a->domain_deferred);
  EXPECT_NE(a->domain_tag, 0u);
  EXPECT_EQ(a->cow_broken_pages, 1u);
  EXPECT_EQ(frames.CountType(FrameType::kSandboxConfined), confined_before + 1);
  // The shared template frame itself is never retyped by a break.
  EXPECT_EQ(frames.CountType(FrameType::kSandboxTemplate), tmpl_frames);
  // The sibling still shares everything and still parks without a domain.
  EXPECT_EQ(b->cow_broken_pages, 0u);
  EXPECT_TRUE(b->domain_deferred);

  // The page is private now: the #PF entry point no longer claims it.
  auto again = world_->monitor()->sandboxes().HandleCowWrite(cpu(), *a, page_va);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ(a->cow_broken_pages, 1u);
  EXPECT_TRUE(InvariantsClean());

  // A template with live clones must refuse teardown.
  EXPECT_FALSE(world_->monitor()->sandboxes().Teardown(cpu(), *tmpl_).ok());

  // Clone teardown releases the private frame and the clone reference.
  ASSERT_TRUE(world_->monitor()->sandboxes().Teardown(cpu(), *a).ok());
  EXPECT_EQ(tmpl_->live_clones, 1u);
  EXPECT_EQ(frames.CountType(FrameType::kSandboxConfined), confined_before);
  ASSERT_TRUE(world_->monitor()->sandboxes().Teardown(cpu(), *b).ok());
  EXPECT_EQ(tmpl_->live_clones, 0u);

  // Now the template can go, returning its frames.
  ASSERT_TRUE(world_->monitor()->sandboxes().Teardown(cpu(), *tmpl_).ok());
  EXPECT_EQ(frames.CountType(FrameType::kSandboxTemplate), 0u);
  EXPECT_TRUE(InvariantsClean());
}

// Sealing an unpromoted clone (first client record) must allocate the deferred
// domain: a sealed sandbox never serves untagged.
TEST_F(CloneTest, SealPromotesDeferredClone) {
  Boot(IsolationKind::kTmeMk);
  BootTemplate();

  std::shared_ptr<std::atomic<bool>> latch;
  Sandbox* clone = MakeClone("clone", &latch);
  ASSERT_NE(clone, nullptr);
  EXPECT_TRUE(clone->domain_deferred);

  // No explicit ActivateClone: the handshake + first record path seals it.
  latch->store(true, std::memory_order_relaxed);
  ClientSession client(*world_, clone->id, kSeed);
  ASSERT_TRUE(client.Handshake().ok());
  const Bytes payload(512, 0x21);
  const ServeStats stats = ServeOnce(client, *clone, payload);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(clone->state, SandboxState::kSealed);
  EXPECT_FALSE(clone->domain_deferred);
  EXPECT_NE(clone->domain_tag, 0u);
  EXPECT_TRUE(InvariantsClean());
}

// The sandbox table is indexed by id. Every launch consumes the next id: cold
// ones, a cold one the backend refuses (PKS runs out of keys), and standby
// clones after it. Find returns exactly the sandbox holding an id, torn-down
// and quarantined ones included, and nullptr for every id none holds.
TEST_F(CloneTest, SandboxTableFindsEveryIdAndOnlyThose) {
  Boot(IsolationKind::kPks);
  BootTemplate();
  SandboxManager& table = world_->monitor()->sandboxes();
  std::vector<Sandbox*> launched = {tmpl_};
  int next_id = tmpl_->id + 1;
  int refused_id = -1;
  for (int i = 0; refused_id < 0; ++i) {
    ASSERT_LT(i, 32) << "PKS must run out of keys";
    const auto cold = world_->LaunchSandboxProcess(
        "cold-" + std::to_string(i), Spec("cold"),
        [](SyscallContext&) { return StepOutcome::kYield; });
    if (!cold.ok()) {
      EXPECT_EQ(cold.status().code(), ErrorCode::kUnavailable) << cold.status().ToString();
      refused_id = next_id++;
      break;
    }
    EXPECT_EQ((*cold)->id, next_id++);
    launched.push_back(*cold);
  }
  EXPECT_EQ(table.Find(refused_id), nullptr);
  for (int i = 0; i < 3; ++i) {
    Sandbox* clone = MakeClone("standby-" + std::to_string(i), nullptr);
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(clone->id, next_id++);
    launched.push_back(clone);
  }

  ASSERT_TRUE(table.Teardown(cpu(), *launched[1]).ok());
  ASSERT_TRUE(table.Quarantine(cpu(), *launched[2], "table test").ok());
  EXPECT_EQ(launched[1]->state, SandboxState::kTornDown);
  EXPECT_EQ(launched[2]->state, SandboxState::kQuarantined);
  for (Sandbox* sandbox : launched) {
    EXPECT_EQ(table.Find(sandbox->id), sandbox) << "id " << sandbox->id;
    EXPECT_EQ(table.FindByTask(*sandbox->leader), sandbox) << "id " << sandbox->id;
  }
  for (const int id : {-1, 0, next_id, next_id + 1000, std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max()}) {
    EXPECT_EQ(table.Find(id), nullptr) << "id " << id;
  }
  EXPECT_TRUE(InvariantsClean());
}

}  // namespace
}  // namespace erebor
