#include <gtest/gtest.h>

#include "src/libos/libos.h"
#include "src/sim/world.h"
#include "tests/client_data.h"

namespace erebor {
namespace {

// Harness: an Erebor world plus one sandboxed process whose behaviour each test
// scripts through a shared closure.
class SandboxTest : public testing::Test {
 protected:
  void Boot(SimMode mode = SimMode::kEreborFull) {
    WorldConfig config;
    config.mode = mode;
    config.machine.num_cpus = 2;
    world_ = std::make_unique<World>(config);
    ASSERT_TRUE(world_->Boot().ok());
  }

  // Launches a sandboxed process running `body` each slice.
  Sandbox* Launch(ProgramFn body, uint64_t budget = 8ull << 20) {
    SandboxSpec spec;
    spec.name = "test-sandbox";
    spec.confined_budget_bytes = budget;
    auto sandbox = world_->LaunchSandboxProcess("sb", spec, std::move(body), &task_);
    EXPECT_TRUE(sandbox.ok()) << sandbox.status().ToString();
    return sandbox.ok() ? *sandbox : nullptr;
  }

  std::unique_ptr<World> world_;
  Task* task_ = nullptr;
};

TEST_F(SandboxTest, DeclareConfinedMapsPinnedSingleOwnerMemory) {
  Boot();
  bool declared = false;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) {
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    EXPECT_TRUE(env->Initialize(ctx).ok());
    // Confined memory is immediately usable (pinned, pre-populated: no faults).
    const uint64_t pf_before = ctx.task().minor_faults;
    const Bytes data = ToBytes("confined!");
    EXPECT_TRUE(ctx.WriteUser(kLibosArenaBase + 0x100, data.data(), data.size()).ok());
    EXPECT_EQ(ctx.task().minor_faults, pf_before);
    declared = true;
    return StepOutcome::kExited;
  });
  ASSERT_NE(sandbox, nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return declared; }).ok());
  EXPECT_GT(sandbox->confined_bytes, 0u);

  // Frame table: confined type, owner recorded, pinned.
  const auto& [first, count] = sandbox->confined_ranges.at(0);
  const FrameInfo& info = world_->monitor()->frame_table().info(first);
  EXPECT_EQ(info.type, FrameType::kSandboxConfined);
  EXPECT_EQ(info.owner_sandbox, sandbox->id);
  EXPECT_TRUE(info.pinned);

  // Single-mapping: the kernel's direct-map view of those frames is gone.
  const auto walk =
      world_->kernel().kernel_aspace().Lookup(layout::DirectMap(AddrOf(first)));
  EXPECT_FALSE(walk.ok());
}

TEST_F(SandboxTest, ConfinedBudgetEnforced) {
  Boot();
  Status declare_status;
  bool done = false;
  Launch(
      [&](SyscallContext& ctx) {
        auto env = std::make_shared<LibosEnv>(
            LibosManifest{.name = "t", .heap_bytes = 32ull << 20},  // over budget
            LibosBackend::kSandboxed);
        declare_status = env->Initialize(ctx);
        done = true;
        return StepOutcome::kExited;
      },
      /*budget=*/4ull << 20);
  ASSERT_TRUE(world_->RunUntil([&] { return done; }).ok());
  EXPECT_EQ(declare_status.code(), ErrorCode::kResourceExhausted);
}

TEST_F(SandboxTest, KernelCannotMapConfinedFrames) {
  Boot();
  bool ready = false;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) -> StepOutcome {
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    EXPECT_TRUE(env->Initialize(ctx).ok());
    ready = true;
    return StepOutcome::kExited;
  });
  ASSERT_TRUE(world_->RunUntil([&] { return ready; }).ok());
  // A (malicious) kernel tries to map the confined frame into another space.
  const FrameNum confined = sandbox->confined_ranges.at(0).first;
  Cpu& cpu = world_->machine().cpu(0);
  const auto attacker_space = AddressSpace::Create(
      cpu, &world_->machine(), &world_->privops(), &world_->kernel().pool(),
      &world_->kernel().kernel_aspace());
  ASSERT_TRUE(attacker_space.ok());
  const Status st =
      (*attacker_space)
          ->MapFrame(cpu, 0x414000, confined,
                     pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute);
  EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
  EXPECT_GT(world_->monitor()->counters().policy_denials, 0u);
}

TEST_F(SandboxTest, SealedSandboxSyscallIsFatal) {
  Boot();
  bool attempted = false;
  bool go = false;
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  Sandbox* sandbox = Launch([&, env](SyscallContext& ctx) -> StepOutcome {
    if (!env->initialized()) {
      EXPECT_TRUE(env->Initialize(ctx).ok());
      return StepOutcome::kYield;
    }
    if (!go) {
      return StepOutcome::kYield;  // wait for the seal
    }
    // After sealing, a direct syscall must kill the task (claim C8 / AV2).
    attempted = true;
    const auto result = ctx.Syscall(sys::kGetpid);
    EXPECT_EQ(result.status().code(), ErrorCode::kAborted);
    return StepOutcome::kYield;
  });
  ASSERT_NE(sandbox, nullptr);
  // Let it initialize, then seal by installing client data.
  ASSERT_TRUE(world_->RunUntil([&] { return sandbox->state != SandboxState::kInitializing ||
                                            task_->syscall_count > 0; },
                               20000)
                  .ok());
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("secret")).ok());
  EXPECT_EQ(sandbox->state, SandboxState::kSealed);
  go = true;
  world_->kernel().Run(10000);
  EXPECT_TRUE(attempted);
  EXPECT_EQ(task_->state, TaskState::kExited);
  EXPECT_TRUE(task_->killed_by_monitor);
  EXPECT_GT(world_->monitor()->counters().sandbox_kills, 0u);
  // The kill quarantines the sandbox (scrubbed + fenced off like a teardown).
  EXPECT_EQ(sandbox->state, SandboxState::kQuarantined);
}

TEST_F(SandboxTest, SealedSandboxIoctlToMonitorIsPermitted) {
  Boot();
  Bytes received;
  bool got_input = false;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) -> StepOutcome {
    static std::shared_ptr<LibosEnv> env;
    if (!env) {
      env = std::make_shared<LibosEnv>(
          LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    }
    if (!env->initialized()) {
      EXPECT_TRUE(env->Initialize(ctx).ok());
      return StepOutcome::kYield;
    }
    auto input = env->RecvInput(ctx, 4096);
    if (!input.ok()) {
      return StepOutcome::kYield;
    }
    received = *input;
    got_input = true;
    env.reset();
    return StepOutcome::kExited;
  });
  ASSERT_NE(sandbox, nullptr);
  world_->kernel().Run(50);  // initialize
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("payload")).ok());
  ASSERT_TRUE(world_->RunUntil([&] { return got_input; }).ok());
  EXPECT_EQ(received, ToBytes("payload"));
  EXPECT_EQ(task_->state, TaskState::kExited);
  EXPECT_FALSE(task_->killed_by_monitor);
}

TEST_F(SandboxTest, InterruptsScrubRegistersFromKernel) {
  // The kernel's handlers observe the register file during an interrupt; for a sealed
  // sandbox the monitor masks it first (claim C8 / AV1 register snooping) and restores
  // it afterwards. The scrub itself is counted by the monitor.
  Boot();
  bool sealed_spin = false;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) -> StepOutcome {
    static std::shared_ptr<LibosEnv> env;
    if (!env) {
      env = std::make_shared<LibosEnv>(
          LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    }
    if (!env->initialized()) {
      EXPECT_TRUE(env->Initialize(ctx).ok());
      return StepOutcome::kYield;
    }
    // Park a secret in a register and spin past the timer period.
    ctx.cpu().gprs().reg[3] = 0xC0FFEE;
    sealed_spin = true;
    ctx.Compute(3'000'000);
    ctx.Poll();  // timer fires here; interposition must mask reg[3]
    EXPECT_EQ(ctx.cpu().gprs().reg[3], 0xC0FFEEu);  // restored after handling
    return StepOutcome::kYield;
  });
  ASSERT_NE(sandbox, nullptr);
  world_->kernel().Run(50);
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("x")).ok());
  ASSERT_TRUE(world_->RunUntil([&] { return sealed_spin && sandbox->exits.timer_interrupts > 0; },
                               50000)
                  .ok());
  EXPECT_GT(world_->monitor()->counters().scrubbed_interrupts, 0u);
}

TEST_F(SandboxTest, OutputIsPaddedToFixedQuantum) {
  Boot();
  bool sent = false;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) -> StepOutcome {
    static std::shared_ptr<LibosEnv> env;
    if (!env) {
      env = std::make_shared<LibosEnv>(
          LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    }
    if (!env->initialized()) {
      EXPECT_TRUE(env->Initialize(ctx).ok());
      return StepOutcome::kYield;
    }
    EXPECT_TRUE(env->SendOutput(ctx, ToBytes("tiny")).ok());
    env.reset();
    sent = true;
    return StepOutcome::kExited;
  });
  ASSERT_NE(sandbox, nullptr);
  ClientSession session(*world_, sandbox->id, /*seed=*/1, &world_->machine().cpu(0));
  ASSERT_TRUE(session.Handshake().ok());
  ASSERT_TRUE(world_->RunUntil([&] { return sent; }).ok());
  const auto wire = world_->AwaitClientPacket(sandbox->id, &world_->machine().cpu(0));
  ASSERT_TRUE(wire.ok());
  const auto record = ParseRecordWire(*wire);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->ciphertext_len % 4096, 0u);  // fixed-length padding (side-channel close)
  const auto output = session.client().OpenResult(*wire);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(*output, ToBytes("tiny"));
}

TEST_F(SandboxTest, OutputWithoutSessionIsRefused) {
  // Results leave a sandbox only sealed to an attested client; with no session
  // there is no one to seal them for, so the monitor refuses the output ioctl.
  Boot();
  bool tried = false;
  Status send_status;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) -> StepOutcome {
    static std::shared_ptr<LibosEnv> env;
    if (!env) {
      env = std::make_shared<LibosEnv>(
          LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    }
    if (!env->initialized()) {
      EXPECT_TRUE(env->Initialize(ctx).ok());
      return StepOutcome::kYield;
    }
    send_status = env->SendOutput(ctx, ToBytes("plaintext"));
    env.reset();
    tried = true;
    return StepOutcome::kExited;
  });
  ASSERT_NE(sandbox, nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return tried; }).ok());
  EXPECT_EQ(send_status.code(), ErrorCode::kFailedPrecondition) << send_status.ToString();
  EXPECT_TRUE(sandbox->outbound_wire.empty());
}

TEST_F(SandboxTest, DirectFetchRoutesEachResultToItsOwnClient) {
  // ProxyFetch pops the monitor's first pending packet, whichever sandbox owns
  // it. A client waiting on a later sandbox must still get its own result, and
  // the earlier sandbox's result must wait for that sandbox's client.
  Boot();
  auto launch = [&](const std::string& name, bool* sent) -> Sandbox* {
    SandboxSpec spec;
    spec.name = name;
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = name, .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    auto sandbox = world_->LaunchSandboxProcess(
        name, spec, [env, name, sent](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            EXPECT_TRUE(env->Initialize(ctx).ok());
            return StepOutcome::kYield;
          }
          EXPECT_TRUE(env->SendOutput(ctx, ToBytes("for " + name)).ok());
          *sent = true;
          return StepOutcome::kExited;
        });
    EXPECT_TRUE(sandbox.ok());
    return sandbox.ok() ? *sandbox : nullptr;
  };
  bool sent_a = false;
  bool sent_b = false;
  Sandbox* a = launch("a", &sent_a);
  Sandbox* b = launch("b", &sent_b);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Cpu* cpu = &world_->machine().cpu(0);
  ClientSession client_a(*world_, a->id, /*seed=*/1, cpu);
  ClientSession client_b(*world_, b->id, /*seed=*/2, cpu);
  ASSERT_TRUE(client_a.Handshake().ok());
  ASSERT_TRUE(client_b.Handshake().ok());
  ASSERT_TRUE(world_->RunUntil([&] { return sent_a && sent_b; }).ok());
  ASSERT_LT(a->id, b->id);  // a's result comes first in fetch order

  const auto result_b = client_b.Receive();
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();
  EXPECT_EQ(*result_b, ToBytes("for b"));
  const auto result_a = client_a.Receive();
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  EXPECT_EQ(*result_a, ToBytes("for a"));
}

TEST_F(SandboxTest, TeardownZeroizesConfinedMemory) {
  Boot();
  bool wrote = false;
  FrameNum secret_frame = 0;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) -> StepOutcome {
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "t", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    EXPECT_TRUE(env->Initialize(ctx).ok());
    const Bytes secret = ToBytes("PATIENT RECORD 12345");
    EXPECT_TRUE(ctx.WriteUser(kLibosArenaBase, secret.data(), secret.size()).ok());
    wrote = true;
    return StepOutcome::kExited;
  });
  ASSERT_NE(sandbox, nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return wrote; }).ok());
  secret_frame = sandbox->confined_ranges.at(0).first;
  // The secret is present in physical memory before teardown.
  const uint8_t* frame = world_->machine().memory().FramePtrIfPresent(secret_frame);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame[0], 'P');
  ASSERT_TRUE(
      world_->monitor()->TeardownSandbox(world_->machine().cpu(0), *sandbox).ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(frame[i], 0) << "stale secret byte at " << i;
  }
  // Frame returned to the normal pool.
  EXPECT_EQ(world_->monitor()->frame_table().info(secret_frame).type, FrameType::kNormal);
}

TEST_F(SandboxTest, CommonRegionSharedReadOnlyAcrossSandboxes) {
  Boot();
  // Create a common region, attach to two sandboxes, verify both read the same
  // frames and neither can write after sealing.
  auto region = world_->monitor()->CreateCommonRegion("model", 16 * kPageSize);
  ASSERT_TRUE(region.ok());
  world_->machine().memory().FramePtr((*region)->first_frame)[0] = 0x77;

  struct SbState {
    bool read_ok = false;
    bool write_blocked = false;
  };
  auto make_body = [&](std::shared_ptr<SbState> state) -> ProgramFn {
    return [state](SyscallContext& ctx) -> StepOutcome {
      uint8_t value = 0;
      if (!ctx.ReadUser(kLibosCommonBase, &value, 1).ok() || value != 0x77) {
        return StepOutcome::kYield;
      }
      state->read_ok = true;
      uint8_t poke = 1;
      state->write_blocked = !ctx.WriteUser(kLibosCommonBase, &poke, 1).ok();
      return StepOutcome::kExited;
    };
  };
  auto s1 = std::make_shared<SbState>();
  auto s2 = std::make_shared<SbState>();
  Sandbox* sb1 = Launch(make_body(s1));
  SandboxSpec spec2;
  spec2.name = "sb2";
  Task* task2 = nullptr;
  auto sb2r = world_->LaunchSandboxProcess("sb2", spec2, make_body(s2), &task2);
  ASSERT_TRUE(sb2r.ok());
  Sandbox* sb2 = *sb2r;

  Cpu& cpu = world_->machine().cpu(0);
  ASSERT_TRUE(world_->monitor()
                  ->AttachCommon(cpu, *sb1, (*region)->id, kLibosCommonBase, false)
                  .ok());
  ASSERT_TRUE(world_->monitor()
                  ->AttachCommon(cpu, *sb2, (*region)->id, kLibosCommonBase, false)
                  .ok());
  // Seal both (write protection becomes active).
  ASSERT_TRUE(InstallClientData(*world_, *sb1, ToBytes("a")).ok());
  ASSERT_TRUE(InstallClientData(*world_, *sb2, ToBytes("b")).ok());

  ASSERT_TRUE(world_->RunUntil([&] {
    return s1->read_ok && s2->read_ok;
  }).ok());
  EXPECT_TRUE(s1->write_blocked);
  EXPECT_TRUE(s2->write_blocked);
  EXPECT_EQ((*region)->attach_count, 2);

  // Memory accounting: two sandboxes share one physical copy.
  EXPECT_EQ(world_->monitor()->frame_table().CountType(FrameType::kSandboxCommon), 16u);
}

// The common-mapping owner is looked up among live sandboxes only: once torn
// down, a sandbox's root owns no common frames, although its slot (and its list
// of attached regions) stays in the table.
TEST_F(SandboxTest, TornDownSandboxRootOwnsNoCommonFrames) {
  Boot();
  auto region = world_->monitor()->CreateCommonRegion("model", 4 * kPageSize);
  ASSERT_TRUE(region.ok());
  Sandbox* sandbox = Launch([](SyscallContext&) { return StepOutcome::kYield; });
  ASSERT_NE(sandbox, nullptr);
  Cpu& cpu = world_->machine().cpu(0);
  ASSERT_TRUE(world_->monitor()
                  ->AttachCommon(cpu, *sandbox, (*region)->id, kLibosCommonBase,
                                 /*writable_until_seal=*/true)
                  .ok());
  SandboxManager& manager = world_->monitor()->sandboxes();
  const Paddr root = sandbox->aspace->root();
  const FrameNum frame = (*region)->first_frame;
  EXPECT_TRUE(manager.ValidateCommonMapping(root, frame, true).ok());

  ASSERT_TRUE(world_->monitor()->TeardownSandbox(cpu, *sandbox).ok());
  ASSERT_FALSE(sandbox->attached_regions.empty());
  EXPECT_EQ(manager.ValidateCommonMapping(root, frame, false).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(manager.ValidateCommonMapping(root, frame, true).code(),
            ErrorCode::kPermissionDenied);
}

// The proxy's fetch serves the lowest sandbox id with a wire queued, each
// sandbox's wires in order, and nothing of a sandbox torn down meanwhile.
TEST_F(SandboxTest, ProxyFetchServesQueuedSandboxesLowestIdFirst) {
  Boot();
  Sandbox* sb[3];
  for (Sandbox*& sandbox : sb) {
    sandbox = Launch([](SyscallContext&) { return StepOutcome::kYield; });
    ASSERT_NE(sandbox, nullptr);
  }
  sb[2]->outbound_wire.push_back(Bytes{3});
  sb[0]->outbound_wire.push_back(Bytes{1});
  sb[1]->outbound_wire.push_back(Bytes{2});
  sb[0]->outbound_wire.push_back(Bytes{4});
  sb[0]->outbound_wire.push_front(Bytes{0});
  Cpu& cpu = world_->machine().cpu(0);
  ASSERT_TRUE(world_->monitor()->TeardownSandbox(cpu, *sb[1]).ok());

  const std::pair<int, Bytes> expected[] = {
      {sb[0]->id, Bytes{0}}, {sb[0]->id, Bytes{1}}, {sb[0]->id, Bytes{4}},
      {sb[2]->id, Bytes{3}}};
  for (const auto& [id, wire] : expected) {
    int source = -1;
    const auto fetched = world_->monitor()->ProxyFetch(cpu, &source);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(source, id);
    EXPECT_EQ(*fetched, wire);
  }
  EXPECT_EQ(world_->monitor()->ProxyFetch(cpu).status().code(), ErrorCode::kNotFound);
}

TEST_F(SandboxTest, UintrDisabledAtSeal) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  cpu.TrustedWriteMsr(msr::kIa32UintrTt, msr::kUintrTtValid | 0x1000);
  Sandbox* sandbox = Launch([](SyscallContext&) { return StepOutcome::kYield; });
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("x")).ok());
  EXPECT_EQ(*cpu.ReadMsr(msr::kIa32UintrTt) & msr::kUintrTtValid, 0u);
}


TEST_F(SandboxTest, CommonWritableUntilSealForProviderInit) {
  // Paper section 6.1: before client data arrives, sandboxes may write common memory
  // to initialize shared instances; sealing revokes the write permission.
  Boot();
  auto region = world_->monitor()->CreateCommonRegion("warmable", 4 * kPageSize);
  ASSERT_TRUE(region.ok());

  bool wrote = false;
  bool write_blocked_after_seal = false;
  bool go_check = false;
  Sandbox* sandbox = Launch([&](SyscallContext& ctx) -> StepOutcome {
    if (!wrote) {
      const Bytes model = ToBytes("model weights v1");
      const Status st = ctx.WriteUser(kLibosCommonBase, model.data(), model.size());
      EXPECT_TRUE(st.ok()) << st.ToString();
      wrote = true;
      return StepOutcome::kYield;
    }
    if (!go_check) {
      return StepOutcome::kYield;
    }
    uint8_t poke = 1;
    write_blocked_after_seal = !ctx.WriteUser(kLibosCommonBase, &poke, 1).ok();
    // Reads still work.
    uint8_t value = 0;
    EXPECT_TRUE(ctx.ReadUser(kLibosCommonBase, &value, 1).ok());
    EXPECT_EQ(value, 'm');
    return StepOutcome::kExited;
  });
  ASSERT_NE(sandbox, nullptr);
  Cpu& cpu = world_->machine().cpu(0);
  ASSERT_TRUE(world_->monitor()
                  ->AttachCommon(cpu, *sandbox, (*region)->id, kLibosCommonBase,
                                 /*writable_until_seal=*/true)
                  .ok());
  ASSERT_TRUE(world_->RunUntil([&] { return wrote; }).ok());
  // The provider-initialized data is in the shared frames.
  EXPECT_EQ(world_->machine().memory().FramePtr((*region)->first_frame)[0], 'm');

  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("x")).ok());
  go_check = true;
  ASSERT_TRUE(world_->RunUntil([&] { return task_->state == TaskState::kExited; }).ok());
  EXPECT_TRUE(write_blocked_after_seal);
}

TEST_F(SandboxTest, IoctlErrorPaths) {
  Boot();
  // A non-sandbox process cannot use sandbox ioctls, and unknown commands fail.
  bool done = false;
  Status declare_status, unknown_status, single_deliver_status;
  ASSERT_TRUE(
      world_
          ->LaunchProcess("plain",
                          [&](SyscallContext& ctx) -> StepOutcome {
                            const std::string dev = "/dev/erebor";
                            const auto staging = ctx.task().aspace->CreateVma(
                                kPageSize,
                                pte::kPresent | pte::kUser | pte::kWritable |
                                    pte::kNoExecute,
                                VmaKind::kAnon);
                            EXPECT_TRUE(staging.ok());
                            EXPECT_TRUE(ctx.WriteUser(*staging,
                                                      reinterpret_cast<const uint8_t*>(
                                                          dev.data()),
                                                      dev.size())
                                            .ok());
                            const auto fd =
                                ctx.Syscall(sys::kOpen, *staging, dev.size(), 0);
                            EXPECT_TRUE(fd.ok());
                            uint8_t req[16] = {0};
                            EXPECT_TRUE(ctx.WriteUser(*staging, req, 16).ok());
                            declare_status =
                                ctx.Syscall(sys::kIoctl, *fd,
                                            emc_ioctl::kDeclareConfined, *staging)
                                    .status();
                            unknown_status =
                                ctx.Syscall(sys::kIoctl, *fd, 999, *staging).status();
                            single_deliver_status =
                                ctx.Syscall(sys::kIoctl, *fd, 4, *staging).status();
                            done = true;
                            return StepOutcome::kExited;
                          })
          .ok());
  ASSERT_TRUE(world_->RunUntil([&] { return done; }).ok());
  EXPECT_EQ(declare_status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(unknown_status.code(), ErrorCode::kInvalidArgument);
  // Ioctl 4 was the single-packet proxy deliver; kProxyDeliverBatch is the one
  // proxy ingest path, so 4 is just another unknown command.
  EXPECT_EQ(single_deliver_status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(single_deliver_status.message().find("unknown erebor ioctl 4"),
            std::string::npos)
      << single_deliver_status.ToString();
}

TEST_F(SandboxTest, AttachCommonValidatesRegionId) {
  Boot();
  Sandbox* sandbox = Launch([](SyscallContext&) { return StepOutcome::kExited; });
  ASSERT_NE(sandbox, nullptr);
  EXPECT_EQ(world_->monitor()
                ->AttachCommon(world_->machine().cpu(0), *sandbox, 42, kLibosCommonBase,
                               false)
                .code(),
            ErrorCode::kNotFound);
}

}  // namespace
}  // namespace erebor
