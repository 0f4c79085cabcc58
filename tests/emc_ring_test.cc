// Hostile-descriptor property tests for the MMU submission/completion rings
// (src/kernel/mmu_ring.h + src/monitor/emc_ring.{h,cc}).
//
// The ring's SQ slots and the kernel-written indexes (sq_tail, cq_head) are
// untrusted input; these tests drive the doorbell with every hostile shape the
// threat model names — wrapped/overflowed head/tail, out-of-range and
// misaligned targets, overlapping PTE ranges in one window, forged sandbox
// ids, orphan/overrun spans, unknown opcodes, mid-drain mutation under an
// injected host preemption — and assert the monitor refuses them without
// charging any per-descriptor Table-4 cost, strike-counts the abuse, poisons
// the ring and quarantines the bound sandbox at the strike limit, and keeps
// the family-5 ring invariants intact after every drain.
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/faultpoint.h"
#include "src/kernel/mmu_ring.h"
#include "src/libos/libos.h"
#include "src/monitor/monitor.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

constexpr uint8_t kBogusOpcode = 0xC7;  // >= RingOp::kCount

class EmcRingTest : public testing::Test {
 protected:
  void Boot(int num_cpus = 1) {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.machine.num_cpus = num_cpus;
    config.machine.memory_frames = 8192;
    world_ = std::make_unique<World>(config);
    ASSERT_TRUE(world_->Boot().ok());
    world_->monitor()->EnableMmuRings(true);
    ASSERT_NE(ring(), nullptr);
  }

  EmcRing* ring(int cpu = 0) { return world_->privops().mmu_ring(cpu); }
  RingState* state(int cpu = 0) { return world_->monitor()->rings().state(cpu); }
  Cpu& cpu0() { return world_->machine().cpu(0); }
  const MonitorCounters& counters() { return world_->monitor()->counters(); }
  uint64_t frames() { return world_->machine().memory().num_frames(); }

  Status Doorbell(int cpu = 0) {
    return world_->privops().RingDoorbell(world_->machine().cpu(cpu));
  }

  // Raw SQ publish, bypassing MmuRingBatch: tests write arbitrary (hostile)
  // descriptor bytes exactly as a malicious kernel would.
  void Publish(const std::vector<RingSqe>& sqes, int cpu = 0) {
    EmcRing* r = ring(cpu);
    uint32_t tail = r->sq_tail.load(std::memory_order_relaxed);
    for (const RingSqe& sqe : sqes) {
      r->sq[tail & EmcRing::kMask] = sqe;
      ++tail;
    }
    r->sq_tail.store(tail, std::memory_order_relaxed);
  }

  // Consumes every posted CQE (advancing cq_head like a well-behaved kernel)
  // and returns them.
  std::vector<RingCqe> ReapAll(int cpu = 0) {
    EmcRing* r = ring(cpu);
    std::vector<RingCqe> out;
    uint32_t head = r->cq_head.load(std::memory_order_relaxed);
    const uint32_t tail = r->cq_tail.load(std::memory_order_relaxed);
    while (head != tail) {
      out.push_back(r->cq[head & EmcRing::kMask]);
      ++head;
    }
    r->cq_head.store(head, std::memory_order_relaxed);
    return out;
  }

  // Cycles charged to vCPU 0 by one doorbell draining `window`.
  uint64_t ChargedCycles(const std::vector<RingSqe>& window, Status* st = nullptr) {
    Publish(window);
    const Cycles before = cpu0().cycles().now();
    const Status status = Doorbell();
    if (st != nullptr) {
      *st = status;
    }
    ReapAll();
    return static_cast<uint64_t>(cpu0().cycles().now() - before);
  }

  static RingSqe Nop() {
    RingSqe sqe;
    sqe.op = RingOp::kNop;
    return sqe;
  }
  static RingSqe Hostile() {
    RingSqe sqe;
    sqe.op = static_cast<RingOp>(kBogusOpcode);
    return sqe;
  }

  // The fixed cost of one doorbell whose descriptors charge nothing (a single
  // kNop): gate round trip + the Table-4 monitor_ring_op unit. Every
  // structural reject must cost exactly this — a hostile window bills nobody.
  uint64_t NopDoorbellCost() { return ChargedCycles({Nop()}); }

  Sandbox* LaunchSandbox(const std::string& name) {
    SandboxSpec spec;
    spec.name = name;
    spec.confined_budget_bytes = 2 << 20;
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = name, .heap_bytes = 1 << 20},
        LibosBackend::kSandboxed);
    auto initialized = std::make_shared<bool>(false);
    auto sandbox = world_->LaunchSandboxProcess(
        name, spec, [env, initialized](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            EXPECT_TRUE(env->Initialize(ctx).ok());
            *initialized = true;
          }
          return StepOutcome::kYield;
        });
    EXPECT_TRUE(sandbox.ok()) << sandbox.status().ToString();
    EXPECT_TRUE(world_->RunUntil([&] { return *initialized; }, 100'000).ok());
    return sandbox.ok() ? *sandbox : nullptr;
  }

  void ExpectInvariantsHold() {
    const Status st = world_->monitor()->AuditInvariants();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  std::unique_ptr<World> world_;
};

TEST_F(EmcRingTest, DoorbellRefusedWhenRingsDisabled) {
  Boot();
  world_->monitor()->EnableMmuRings(false);
  EXPECT_EQ(world_->privops().mmu_ring(0), nullptr);
  EXPECT_EQ(Doorbell().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(EmcRingTest, EmptyWindowDoorbellIsRefusedWithoutStrike) {
  Boot();
  EXPECT_EQ(Doorbell().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(state()->strikes, 0u);
  EXPECT_EQ(counters().ring_strikes, 0u);
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, NopWindowCompletesInOrderAndChargesOnlyTheDoorbell) {
  Boot();
  const uint64_t one = NopDoorbellCost();
  const uint64_t emc_before = counters().emc_total;

  std::vector<RingSqe> window;
  for (uint64_t i = 0; i < 8; ++i) {
    RingSqe sqe = Nop();
    sqe.user_data = 100 + i;
    window.push_back(sqe);
  }
  Publish(window);
  const Cycles before = cpu0().cycles().now();
  ASSERT_TRUE(Doorbell().ok());
  const uint64_t eight = static_cast<uint64_t>(cpu0().cycles().now() - before);

  // One gate crossing for the whole window, nothing billed per kNop: an
  // 8-descriptor drain costs exactly what a 1-descriptor drain costs.
  EXPECT_EQ(eight, one);
  EXPECT_EQ(counters().emc_total, emc_before + 1);

  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cqes[i].user_data, 100 + i);  // completion order == submission order
    EXPECT_EQ(cqes[i].result, 0);
  }
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, FrameReclaimChargesTable4PageZeroPerDescriptor) {
  Boot();
  const uint64_t nop_cost = NopDoorbellCost();
  const FrameNum victim = frames() - 4;  // untouched normal frame
  ASSERT_EQ(world_->monitor()->frame_table().info(victim).type, FrameType::kNormal);

  RingSqe sqe;
  sqe.op = RingOp::kFrameReclaim;
  sqe.arg0 = victim;
  const uint64_t applied_before = counters().ring_descriptors;
  Status st;
  const uint64_t cost = ChargedCycles({sqe}, &st);
  ASSERT_TRUE(st.ok());

  // The descriptor itself bills the Table-4 page_zero cost on top of the
  // fixed doorbell, exactly like the synchronous path would.
  EXPECT_EQ(cost, nop_cost + static_cast<uint64_t>(cpu0().costs().page_zero));
  EXPECT_EQ(counters().ring_descriptors, applied_before + 1);
  ExpectInvariantsHold();
}

// ---- Wrapped / forged indexes (Garmr-class gate-entry abuse) ----

TEST_F(EmcRingTest, OverflowedTailIsStruckAndConsumesNothing)  {
  Boot();
  EmcRing* r = ring();
  const uint32_t head_before = state()->shadow_sq_head;
  // sq_tail claims a window bigger than the ring: wrapped or forged.
  r->sq_tail.store(head_before + EmcRing::kSlots + 5, std::memory_order_relaxed);

  EXPECT_EQ(Doorbell().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(counters().ring_strikes, 1u);
  EXPECT_EQ(state()->strikes, 1u);
  EXPECT_EQ(state()->shadow_sq_head, head_before);  // nothing consumed
  EXPECT_EQ(r->cq_tail.load(std::memory_order_relaxed), 0u);  // nothing posted
  ExpectInvariantsHold();

  // Restore a sane tail: the ring recovers and serves a clean window.
  r->sq_tail.store(head_before, std::memory_order_relaxed);
  Publish({Nop()});
  EXPECT_TRUE(Doorbell().ok());
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, ForgedCqHeadIsStruck) {
  Boot();
  EmcRing* r = ring();
  // cq_head "ahead" of cq_tail by more than a ring: forged consumer index.
  r->cq_head.store(state()->shadow_cq_tail - (EmcRing::kSlots + 1),
                   std::memory_order_relaxed);
  Publish({Nop()});
  EXPECT_EQ(Doorbell().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(state()->strikes, 1u);
  ExpectInvariantsHold();
}

// ---- Hostile descriptor shapes: rejected without any Table-4 charge ----

TEST_F(EmcRingTest, UnknownOpcodeRejectedWithoutCharge) {
  Boot();
  const uint64_t nop_cost = NopDoorbellCost();
  const uint64_t rejects_before = counters().ring_rejects;
  const uint64_t strikes_before = counters().ring_strikes;

  RingSqe sqe = Hostile();
  sqe.user_data = 42;
  Publish({sqe});
  const Cycles before = cpu0().cycles().now();
  ASSERT_TRUE(Doorbell().ok());  // the drain succeeds; the descriptor does not
  EXPECT_EQ(static_cast<uint64_t>(cpu0().cycles().now() - before), nop_cost);

  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].user_data, 42u);
  EXPECT_EQ(cqes[0].result, -static_cast<int32_t>(ErrorCode::kInvalidArgument));
  EXPECT_EQ(counters().ring_rejects, rejects_before + 1);
  EXPECT_EQ(counters().ring_strikes, strikes_before + 1);
  EXPECT_EQ(state()->applied, 0u);
  EXPECT_EQ(state()->rejected, 1u);
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, MisalignedAndOutOfRangeTargetsRejectedWithoutCharge) {
  Boot();
  const uint64_t nop_cost = NopDoorbellCost();
  const uint64_t pte_before = counters().emc_pte;

  RingSqe misaligned;
  misaligned.op = RingOp::kWritePte;
  misaligned.arg0 = 0x1004;  // not 8-byte aligned
  RingSqe out_of_range;
  out_of_range.op = RingOp::kWritePte;
  out_of_range.arg0 = frames() * kPageSize;  // first byte past physical memory
  RingSqe past_end;
  past_end.op = RingOp::kWritePte;
  past_end.arg0 = frames() * kPageSize + 8;
  RingSqe bogus_ptp;
  bogus_ptp.op = RingOp::kRegisterPtp;
  bogus_ptp.arg0 = frames() + 1;
  RingSqe bogus_reclaim;
  bogus_reclaim.op = RingOp::kFrameReclaim;
  bogus_reclaim.arg0 = frames();

  Publish({misaligned, out_of_range, past_end, bogus_ptp, bogus_reclaim});
  const Cycles before = cpu0().cycles().now();
  ASSERT_TRUE(Doorbell().ok());
  // Five structural rejects, zero per-descriptor Table-4 cost.
  EXPECT_EQ(static_cast<uint64_t>(cpu0().cycles().now() - before), nop_cost);
  EXPECT_EQ(counters().emc_pte, pte_before);  // no PTE family activity recorded

  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 5u);
  for (const RingCqe& cqe : cqes) {
    EXPECT_NE(cqe.result, 0);
  }
  EXPECT_EQ(state()->strikes, 5u);
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, OverlappingPteTargetsInOneWindowAreStruck) {
  Boot();
  RingSqe first;
  first.op = RingOp::kWritePte;
  first.arg0 = static_cast<Paddr>(frames() - 4) * kPageSize;  // aligned, in range
  RingSqe duplicate = first;  // same slot again: order-dependent, refused

  const uint64_t strikes_before = counters().ring_strikes;
  Publish({first, duplicate});
  ASSERT_TRUE(Doorbell().ok());
  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 2u);
  // The duplicate is a structural strike; the first is at worst a charged
  // policy denial (not a strike).
  EXPECT_EQ(counters().ring_strikes, strikes_before + 1);
  EXPECT_EQ(cqes[1].result, -static_cast<int32_t>(ErrorCode::kInvalidArgument));
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, OrphanSpanPayloadAndOverrunSpanAreStruck) {
  Boot();
  // A span header claiming more payloads than the window holds, followed by
  // one flagged payload: the header is refused for the overrun, the stranded
  // payload is refused as an orphan on the next iteration.
  RingSqe header;
  header.op = RingOp::kPteSpan;
  header.count = 7;
  RingSqe payload;
  payload.op = RingOp::kWritePte;
  payload.flags = ring_flags::kSpanPayload;
  payload.arg0 = 0x2000;

  Publish({header, payload});
  ASSERT_TRUE(Doorbell().ok());
  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 2u);
  EXPECT_EQ(cqes[0].result, -static_cast<int32_t>(ErrorCode::kOutOfRange));
  EXPECT_EQ(cqes[1].result, -static_cast<int32_t>(ErrorCode::kInvalidArgument));
  EXPECT_EQ(state()->strikes, 2u);
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, DeniedMidSpanLeavesNoPteApplied) {
  Boot();
  // A level-1 page-table page built through the EMCs: a fresh root, then one
  // registered table linked per level below it.
  PrivilegedOps& ops = world_->privops();
  const auto root = world_->kernel().pool().Alloc();
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(ops.RegisterPtp(cpu0(), *root, AddrOf(*root)).ok());
  FrameNum ptp = *root;
  for (int level = 3; level >= 1; --level) {
    const auto child = world_->kernel().pool().Alloc();
    ASSERT_TRUE(child.ok());
    ASSERT_TRUE(ops.RegisterPtp(cpu0(), *child, AddrOf(*root)).ok());
    ASSERT_TRUE(ops.WritePte(cpu0(), AddrOf(ptp),
                             pte::Make(*child, pte::kPresent | pte::kWritable))
                    .ok());
    ptp = *child;
  }
  ASSERT_EQ(world_->monitor()->frame_table().info(ptp).ptp_level, 1);
  const auto target = world_->kernel().pool().Alloc();
  ASSERT_TRUE(target.ok());

  RingSqe header;
  header.op = RingOp::kPteSpan;
  header.count = 2;
  RingSqe entries[2];
  for (RingSqe& entry : entries) {
    entry.op = RingOp::kWritePte;
    entry.flags = ring_flags::kSpanPayload;
  }
  // Entry 0 on its own is perfectly valid...
  entries[0].arg0 = AddrOf(ptp);
  entries[0].arg1 = pte::Make(*target, pte::kPresent | pte::kWritable | pte::kNoExecute);
  // ...entry 1 maps monitor memory user-writable, which is always refused.
  entries[1].arg0 = AddrOf(ptp) + 8;
  entries[1].arg1 = pte::Make(layout::kMonitorFirstFrame,
                              pte::kPresent | pte::kUser | pte::kWritable);

  const uint64_t denials_before = counters().policy_denials;
  const uint64_t strikes_before = counters().ring_strikes;
  Publish({header, entries[0], entries[1]});
  ASSERT_TRUE(Doorbell().ok());
  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].result, -static_cast<int32_t>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(counters().policy_denials, denials_before + 1);
  EXPECT_EQ(counters().ring_strikes, strikes_before);
  EXPECT_EQ(state()->strikes, 0u);
  // All-or-nothing: the valid first entry must not have been applied.
  EXPECT_EQ(world_->machine().memory().Read64(AddrOf(ptp)), 0u);
  EXPECT_EQ(world_->machine().memory().Read64(AddrOf(ptp) + 8), 0u);
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, PolicyRefusalIsADenialNotAStrike) {
  Boot();
  // Reclaiming a monitor/kernel/page-table-typed frame is a *policy* refusal:
  // the descriptor is well-formed, the monitor just says no. Denial counted,
  // error CQE posted, no strike accrued.
  FrameNum protected_frame = 0;
  while (protected_frame < frames() &&
         world_->monitor()->frame_table().info(protected_frame).type ==
             FrameType::kNormal) {
    ++protected_frame;
  }
  ASSERT_LT(protected_frame, frames()) << "no protected frame in a booted world";
  RingSqe sqe;
  sqe.op = RingOp::kFrameReclaim;
  sqe.arg0 = protected_frame;

  const uint64_t denials_before = counters().policy_denials;
  Publish({sqe});
  ASSERT_TRUE(Doorbell().ok());
  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].result, -static_cast<int32_t>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(state()->strikes, 0u);
  EXPECT_GT(counters().policy_denials, denials_before);
  EXPECT_EQ(state()->rejected, 1u);
  ExpectInvariantsHold();
}

// ---- Forged sandbox ids and the strike -> poison -> quarantine ladder ----

TEST_F(EmcRingTest, ForgedSandboxIdNeverExecutesOrBillsTheVictim) {
  Boot(2);
  Sandbox* victim = LaunchSandbox("victim");
  ASSERT_NE(victim, nullptr);
  const uint64_t nop_cost = NopDoorbellCost();

  // The kernel ring (bound to -1) submits a descriptor naming the victim: the
  // lock plan never covered that sandbox, so it must not execute.
  RingSqe sqe;
  sqe.op = RingOp::kFrameReclaim;
  sqe.arg0 = frames() - 4;
  sqe.sandbox_id = victim->id;

  Status st;
  const uint64_t cost = ChargedCycles({sqe}, &st);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(cost, nop_cost);  // no page_zero charge: the reclaim never ran
  EXPECT_EQ(state()->strikes, 1u);
  EXPECT_NE(victim->state, SandboxState::kQuarantined);  // a strike is not a kill
  ExpectInvariantsHold();
}

TEST_F(EmcRingTest, StrikeLimitPoisonsRingAndQuarantinesBoundSandbox) {
  Boot(2);
  Sandbox* bound = LaunchSandbox("bound");
  Sandbox* bystander = LaunchSandbox("bystander");
  ASSERT_NE(bound, nullptr);
  ASSERT_NE(bystander, nullptr);
  ASSERT_TRUE(world_->monitor()->rings().BindSandbox(0, bound->id).ok());

  uint32_t doorbells = 0;
  while (!state()->poisoned) {
    ASSERT_LT(doorbells, 2 * EmcRingTable::kStrikeLimit) << "ring never poisoned";
    Publish({Hostile()});
    ASSERT_TRUE(Doorbell().ok());
    ReapAll();
    ExpectInvariantsHold();  // family-5 invariants hold after every drain
    ++doorbells;
  }
  EXPECT_EQ(doorbells, EmcRingTable::kStrikeLimit);
  EXPECT_GE(state()->strikes, EmcRingTable::kStrikeLimit);

  // Poisoned: every further doorbell is refused before the gate.
  Publish({Nop()});
  EXPECT_EQ(Doorbell().code(), ErrorCode::kPermissionDenied);

  // The bound sandbox is fenced off; the bystander is untouched.
  EXPECT_EQ(bound->state, SandboxState::kQuarantined);
  EXPECT_NE(bystander->state, SandboxState::kQuarantined);
  ExpectInvariantsHold();
}

// ---- CQ backpressure ----

TEST_F(EmcRingTest, CqBackpressurePausesConsumptionUntilTheKernelReaps) {
  Boot();
  // Fill the CQ without reaping, then submit more than the remaining space.
  std::vector<RingSqe> first(200, Nop());
  Publish(first);
  ASSERT_TRUE(Doorbell().ok());  // 200 completions now sit unreaped

  std::vector<RingSqe> second(100, Nop());
  Publish(second);
  ASSERT_TRUE(Doorbell().ok());
  // Only 56 CQ slots were free; the drain must stop there, leaving the rest
  // submitted for a later doorbell.
  EXPECT_EQ(ring()->SqPending(), 44u);
  EXPECT_EQ(ring()->CqPending(), 256u);
  ExpectInvariantsHold();

  EXPECT_EQ(ReapAll().size(), 256u);
  ASSERT_TRUE(Doorbell().ok());  // resumes the leftover window
  EXPECT_EQ(ring()->SqPending(), 0u);
  EXPECT_EQ(ReapAll().size(), 44u);
  ExpectInvariantsHold();
}

// ---- Mid-drain mutation via chaos preempt ----

TEST_F(EmcRingTest, MidDrainMutationUnderInjectedPreemptionIsHarmless) {
  Boot();
  std::vector<RingSqe> window;
  for (uint64_t i = 0; i < 4; ++i) {
    RingSqe sqe = Nop();
    sqe.user_data = 500 + i;
    window.push_back(sqe);
  }
  Publish(window);

  // Arm a host preemption that fires the instant the doorbell's gate entry
  // completes — after the monitor snapshotted the SQ window. The observer
  // plays the preempting "kernel": it scribbles garbage over every submitted
  // slot and publishes three more hostile descriptors mid-drain.
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{"gates.enter", FaultAction::kPreempt,
                                     /*per_mille=*/1000, /*first_hit=*/0,
                                     /*period=*/1, /*max_fires=*/4});
  bool mutated = false;
  FaultInjector::Global().SetObserver([&](const FiredFault&) {
    if (mutated) {
      return;
    }
    mutated = true;
    EmcRing* r = ring();
    const uint32_t tail = r->sq_tail.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i < EmcRing::kSlots; ++i) {
      r->sq[i] = Hostile();
    }
    r->sq_tail.store(tail + 3, std::memory_order_relaxed);
  });
  FaultInjector::Global().Arm(1, schedule);
  const Status st = Doorbell();
  FaultInjector::Global().Disarm();
  FaultInjector::Global().SetObserver(nullptr);
  ASSERT_TRUE(mutated);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // The drain processed the snapshot: four clean kNop completions carrying
  // the original user_data, zero strikes — the mutation changed nothing.
  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cqes[i].user_data, 500 + i);
    EXPECT_EQ(cqes[i].result, 0);
  }
  EXPECT_EQ(state()->strikes, 0u);
  ExpectInvariantsHold();

  // The three descriptors published mid-drain are simply the next window —
  // and being hostile garbage, they are struck on the next doorbell.
  EXPECT_EQ(ring()->SqPending(), 3u);
  ASSERT_TRUE(Doorbell().ok());
  EXPECT_EQ(ReapAll().size(), 3u);
  EXPECT_EQ(state()->strikes, 3u);
  ExpectInvariantsHold();
}

// ---- Seeded fuzz: random descriptor soup never breaks an invariant ----

TEST_F(EmcRingTest, FuzzedWindowsNeverBreakInvariantsOrOvercharge) {
  Boot();
  std::mt19937_64 rng(0xE2EB02);
  const uint64_t nop_cost = NopDoorbellCost();
  uint64_t hostile_windows = 0;

  for (int round = 0; round < 200; ++round) {
    if (state()->poisoned) {
      // Strike accumulation poisoned the ring: re-enable for the next round
      // (fresh ring state, same monitor) to keep fuzzing the drain.
      world_->monitor()->EnableMmuRings(false);
      world_->monitor()->EnableMmuRings(true);
    }
    const int n = 1 + static_cast<int>(rng() % 12);
    std::vector<RingSqe> window;
    bool all_structurally_hostile = true;
    for (int i = 0; i < n; ++i) {
      RingSqe sqe;
      sqe.op = static_cast<RingOp>(rng() % 9);  // includes invalid opcodes
      sqe.flags = (rng() % 4 == 0) ? ring_flags::kSpanPayload : 0;
      sqe.count = static_cast<uint16_t>(rng() % 8);
      sqe.sandbox_id = static_cast<int32_t>(rng() % 3) - 1;  // -1, 0, 1
      sqe.arg0 = (rng() % 2 == 0) ? rng() : (rng() % frames()) * kPageSize;
      sqe.arg1 = rng();
      sqe.user_data = static_cast<uint64_t>(round) << 16 | static_cast<uint64_t>(i);
      // Refused before any charging: unknown opcode, orphan span flag, or a
      // forged sandbox id (no ring in this test is bound to 0 or 1). Anything
      // else may legitimately reach a charged validation.
      const bool pre_charge_reject =
          static_cast<uint8_t>(sqe.op) >= static_cast<uint8_t>(RingOp::kCount) ||
          (sqe.flags & ring_flags::kSpanPayload) != 0 || sqe.sandbox_id != -1;
      all_structurally_hostile = all_structurally_hostile && pre_charge_reject;
      window.push_back(sqe);
    }
    Publish(window);
    const Cycles before = cpu0().cycles().now();
    const Status st = Doorbell();
    const uint64_t charged = static_cast<uint64_t>(cpu0().cycles().now() - before);
    ReapAll();
    EXPECT_TRUE(st.ok()) << st.ToString();

    // Property: a window of nothing-but-structural-hostiles charges exactly
    // one doorbell — no victim is ever billed for a forged submission.
    if (all_structurally_hostile) {
      EXPECT_EQ(charged, nop_cost) << "structural rejects billed Table-4 cost";
      ++hostile_windows;
    }

    // Family-5 invariants (shadow consistency, completion accounting,
    // poison-at-limit) must survive every single drain.
    const Status audit = world_->monitor()->AuditInvariants();
    ASSERT_TRUE(audit.ok()) << "round " << round << ": " << audit.ToString();
  }
  EXPECT_GT(hostile_windows, 0u);
  EXPECT_GT(counters().ring_strikes, 0u);
}

// Regression: quarantining a sandbox (for any reason — here an unrelated one)
// must fence its bound rings. Before the quarantine hook, the ring stayed live
// with pending SQEs that a later doorbell would have applied against frames the
// teardown scrub had already released.
TEST_F(EmcRingTest, QuarantineDrainsAndPoisonsBoundRingsWithPendingSqes) {
  Boot();
  Sandbox* sandbox = LaunchSandbox("quarantine-fence");
  ASSERT_NE(sandbox, nullptr);
  ASSERT_TRUE(world_->monitor()->rings().BindSandbox(0, sandbox->id).ok());

  // The kernel may already have used its ring while the sandbox launched:
  // reap that traffic and snapshot the counters it left behind.
  ReapAll();
  RingState* rs = state();
  const uint64_t head_before = rs->shadow_sq_head;
  const uint64_t applied_before = rs->applied;

  // Stage pending, not-yet-doorbelled submissions (valid shape, in-flight).
  std::vector<RingSqe> pending;
  for (uint64_t i = 0; i < 5; ++i) {
    RingSqe sqe = Nop();
    sqe.user_data = 0xFE00 + i;
    pending.push_back(sqe);
  }
  Publish(pending);
  const uint64_t fenced_before =
      MetricsRegistry::Global().Value("ring.quarantine_fenced");

  ASSERT_TRUE(world_->monitor()
                  ->sandboxes()
                  .Quarantine(cpu0(), *sandbox, "test: unrelated fault path")
                  .ok());

  // The ring is poisoned, every staged SQE was consumed and flushed as a
  // kUnavailable completion, and the accounting stayed balanced.
  EXPECT_TRUE(rs->poisoned);
  EXPECT_EQ(rs->shadow_sq_head, head_before + 5);
  EXPECT_EQ(MetricsRegistry::Global().Value("ring.quarantine_fenced"),
            fenced_before + 1);
  const std::vector<RingCqe> cqes = ReapAll();
  ASSERT_EQ(cqes.size(), 5u);
  for (uint64_t i = 0; i < cqes.size(); ++i) {
    EXPECT_EQ(cqes[i].user_data, 0xFE00 + i);
    EXPECT_EQ(cqes[i].result,
              -static_cast<int32_t>(ErrorCode::kUnavailable));
  }

  // A doorbell after the fence is refused without applying anything.
  Publish({Nop()});
  EXPECT_EQ(Doorbell().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(rs->applied, applied_before);

  // Family-6 invariant: the quarantined sandbox holds no live ring slots and
  // no undelivered stashed records.
  InvariantChecker checker(world_->monitor());
  const Status st = checker.CheckQuarantine();
  EXPECT_TRUE(st.ok()) << st.ToString();
  ExpectInvariantsHold();
}

}  // namespace
}  // namespace erebor
