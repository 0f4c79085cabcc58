// Security-claims test suite: each test is an *attack* against the simulation,
// mirroring the paper's claims C1-C8 (section 8) and attack vectors AV1-AV3
// (section 3.2). The protections are exercised end to end, not asserted.
#include <gtest/gtest.h>

#include "src/libos/libos.h"
#include "src/sim/world.h"
#include "tests/client_data.h"

namespace erebor {
namespace {

class SecurityTest : public testing::Test {
 protected:
  void Boot() {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.machine.num_cpus = 2;
    world_ = std::make_unique<World>(config);
    ASSERT_TRUE(world_->Boot().ok());
  }

  // Launches a sandbox that initializes a LibOS env, writes a secret into confined
  // memory, and then runs `after` each slice.
  Sandbox* LaunchSecretSandbox(ProgramFn after) {
    SandboxSpec spec;
    spec.name = "victim";
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "victim", .heap_bytes = 1 << 20},
        LibosBackend::kSandboxed);
    auto initialized = std::make_shared<bool>(false);
    auto sandbox = world_->LaunchSandboxProcess(
        "victim", spec,
        [env, initialized, after, this](SyscallContext& ctx) -> StepOutcome {
          if (!*initialized) {
            EXPECT_TRUE(env->Initialize(ctx).ok());
            const Bytes secret = ToBytes(kSecret);
            EXPECT_TRUE(
                ctx.WriteUser(kLibosArenaBase, secret.data(), secret.size()).ok());
            *initialized = true;
            ready_ = true;
            return StepOutcome::kYield;
          }
          return after ? after(ctx) : StepOutcome::kYield;
        },
        &task_);
    EXPECT_TRUE(sandbox.ok());
    return sandbox.ok() ? *sandbox : nullptr;
  }

  static constexpr const char* kSecret = "TOP-SECRET-CLIENT-DATA";
  std::unique_ptr<World> world_;
  Task* task_ = nullptr;
  bool ready_ = false;
};

// C1: un-instrumented kernels never boot.
TEST_F(SecurityTest, C1_MaliciousKernelImageRefused) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.kernel_image.smuggle_sensitive_op = true;
  config.kernel_image.smuggled_op = SensitiveOp::kWrmsr;
  World world(config);
  const Status st = world.Boot();
  EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
  EXPECT_NE(st.message().find("wrmsr"), std::string::npos);
}

// C2: the kernel cannot conjure sensitive instructions at runtime.
TEST_F(SecurityTest, C2_TextPokeCannotInjectSensitiveOps) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  const Bytes evil = EncodeSensitiveOp(SensitiveOp::kMovToCr0);
  const Status st = world_->privops().TextPoke(
      cpu, AddrOf(layout::kKernelTextFirstFrame + 100), evil.data(), evil.size());
  EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, C2_DirectSensitiveExecutionFenced) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  EXPECT_FALSE(cpu.WriteCr4(0).ok());
  EXPECT_FALSE(cpu.WriteMsr(msr::kIa32Pkrs, 0).ok());
}

// C3: the kernel cannot touch monitor memory through the CPU.
TEST_F(SecurityTest, C3_MonitorMemoryProtectedByPks) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  // The direct map covers monitor frames but their PTEs carry the monitor key; the
  // kernel-mode PKRS denies all access.
  const Vaddr monitor_va = layout::DirectMap(AddrOf(layout::kMonitorFirstFrame));
  uint8_t byte = 0;
  Fault fault;
  const Status read = cpu.ReadVirt(monitor_va, &byte, 1, &fault);
  EXPECT_EQ(read.code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(fault.error_code & pf_err::kProtectionKey);
  EXPECT_FALSE(cpu.WriteVirt(monitor_va, &byte, 1).ok());
}

TEST_F(SecurityTest, C3_DeviceDmaCannotReachMonitorMemory) {
  Boot();
  uint8_t buf[16];
  EXPECT_EQ(world_->attacker()
                .DmaReadGuestMemory(AddrOf(layout::kMonitorFirstFrame), buf, sizeof(buf))
                .code(),
            ErrorCode::kPermissionDenied);
}

// C3/C2: page-table pages are write-protected from the kernel.
TEST_F(SecurityTest, C3_PtpWriteBlockedByPks) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  // The kernel root PTP is mapped in the direct map with the PTP key (write-disable).
  const Paddr root = world_->kernel().kernel_aspace().root();
  const Vaddr ptp_va = layout::DirectMap(root);
  uint8_t byte = 0;
  EXPECT_TRUE(cpu.ReadVirt(ptp_va, &byte, 1).ok());  // reads fine (walker needs it)
  Fault fault;
  EXPECT_EQ(cpu.WriteVirt(ptp_va, &byte, 1, &fault).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(fault.error_code & pf_err::kProtectionKey);
}

// C4: control flow cannot enter the monitor except through the gate.
TEST_F(SecurityTest, C4_OnlyEntryGateIsBranchable) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  EXPECT_TRUE(cpu.IndirectBranch(gates.entry_label()).ok());
  EXPECT_FALSE(cpu.IndirectBranch(gates.internal_label()).ok());
}

TEST_F(SecurityTest, C4_InterruptDuringEmcRevokesPermissions) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  EmcGates& gates = world_->monitor()->gates();
  ASSERT_TRUE(gates.Enter(cpu).ok());
  // Host injects an interrupt mid-EMC; the monitor-wrapped handler path revokes the
  // granted PKRS before untrusted code runs.
  Fault fault;
  fault.vector = Vector::kDevice;
  uint64_t pkrs_seen_by_kernel = ~0ull;
  // Route through the kernel entry (as the real delivery path does).
  world_->kernel().SetInterruptInterposer(nullptr);
  world_->kernel().SetInterruptInterposer(
      [&](Cpu& c, const Fault& f, const std::function<void()>& handler) {
        gates.InterruptSave(c);
        pkrs_seen_by_kernel = c.pkrs();
        handler();
        gates.InterruptRestore(c);
      });
  (void)cpu.Deliver(fault);
  EXPECT_EQ(pkrs_seen_by_kernel, KernelModePkrs());
  EXPECT_TRUE(cpu.in_monitor());  // restored after the interrupt
  gates.Exit(cpu);
}

// C5: the untrusted OS cannot obtain attestation digests to impersonate the monitor.
TEST_F(SecurityTest, C5_KernelCannotRequestAttestation) {
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  uint64_t args[2] = {0x1000, 0x2000};
  EXPECT_EQ(world_->privops().Tdcall(cpu, tdcall_leaf::kTdReport, args, 2).code(),
            ErrorCode::kPermissionDenied);
  // Direct tdcall is fenced entirely.
  EXPECT_FALSE(cpu.Tdcall(tdcall_leaf::kTdReport, args, 2).ok());
}

// C6 / AV1: no outside component can read confined sandbox memory.
TEST_F(SecurityTest, C6_KernelCannotReadConfinedViaDirectMap) {
  Boot();
  Sandbox* sandbox = LaunchSecretSandbox(nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return ready_; }).ok());
  const FrameNum frame = sandbox->confined_ranges.at(0).first;
  // Direct map entry was removed (single-mapping policy): walk fails entirely.
  Cpu& cpu = world_->machine().cpu(0);
  uint8_t byte = 0;
  EXPECT_FALSE(cpu.ReadVirt(layout::DirectMap(AddrOf(frame)), &byte, 1).ok());
}

TEST_F(SecurityTest, C6_SmapBlocksKernelAccessViaUserMapping) {
  Boot();
  LaunchSecretSandbox(nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return ready_; }).ok());
  // Kernel (supervisor) walks the sandbox's own page table: SMAP denies the access
  // because the mapping is a user page.
  Cpu& cpu = world_->machine().cpu(0);
  ASSERT_TRUE(world_->privops().WriteCr(cpu, 3, task_->aspace->root()).ok());
  uint8_t byte = 0;
  Fault fault;
  EXPECT_FALSE(cpu.ReadVirt(kLibosArenaBase, &byte, 1, &fault).ok());
  EXPECT_NE(fault.reason.find("SMAP"), std::string::npos);
}

TEST_F(SecurityTest, C6_MonitorRefusesUsercopyFromSealedConfined) {
  Boot();
  Sandbox* sandbox = LaunchSecretSandbox(nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return ready_; }).ok());
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("go")).ok());
  // Malicious kernel asks the monitor's usercopy emulation to exfiltrate.
  Cpu& cpu = world_->machine().cpu(0);
  ASSERT_TRUE(world_->privops().WriteCr(cpu, 3, task_->aspace->root()).ok());
  uint8_t stolen[32];
  const Status st =
      world_->privops().CopyFromUser(cpu, kLibosArenaBase, stolen, sizeof(stolen));
  EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, C6_HostDmaCannotReadConfined) {
  Boot();
  Sandbox* sandbox = LaunchSecretSandbox(nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return ready_; }).ok());
  const FrameNum frame = sandbox->confined_ranges.at(0).first;
  uint8_t buf[32];
  EXPECT_EQ(world_->attacker().DmaReadGuestMemory(AddrOf(frame), buf, sizeof(buf)).code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SecurityTest, C6_KernelCannotConvertConfinedToShared) {
  Boot();
  Sandbox* sandbox = LaunchSecretSandbox(nullptr);
  ASSERT_TRUE(world_->RunUntil([&] { return ready_; }).ok());
  const FrameNum frame = sandbox->confined_ranges.at(0).first;
  Cpu& cpu = world_->machine().cpu(0);
  uint64_t args[3] = {AddrOf(frame), 1, 1};
  EXPECT_EQ(world_->privops().Tdcall(cpu, tdcall_leaf::kMapGpa, args, 3).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_FALSE(world_->machine().memory().IsShared(frame));
}

// C7 / AV2: the sandbox cannot write outside its confined memory.
TEST_F(SecurityTest, C7_SandboxCannotWriteOutsideConfined) {
  Boot();
  bool tried = false;
  LaunchSecretSandbox([&](SyscallContext& ctx) -> StepOutcome {
    uint8_t byte = 0x41;
    // Kernel direct map: supervisor address, user access denied.
    EXPECT_FALSE(
        ctx.WriteUser(layout::DirectMap(AddrOf(layout::kGeneralPoolFirstFrame)), &byte, 1)
            .ok());
    tried = true;
    return StepOutcome::kExited;
  });
  ASSERT_TRUE(world_->RunUntil([&] { return tried; }).ok());
}

// C8 / AV2+AV3: all software exits from a sealed sandbox are intercepted.
TEST_F(SecurityTest, C8_SealedSyscallExfiltrationKilled) {
  Boot();
  bool attempted = false;
  bool go = false;
  Sandbox* sandbox = LaunchSecretSandbox([&](SyscallContext& ctx) -> StepOutcome {
    if (!go) {
      return StepOutcome::kYield;  // wait for the seal
    }
    // The provider's program tries to write the secret to a file (AV2).
    attempted = true;
    const auto result = ctx.Syscall(sys::kOpen, kLibosArenaBase, 10, 1);
    EXPECT_EQ(result.status().code(), ErrorCode::kAborted);
    return StepOutcome::kYield;
  });
  world_->kernel().Run(100);
  go = true;
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("x")).ok());
  world_->kernel().Run(1000);
  EXPECT_TRUE(attempted);
  EXPECT_TRUE(task_->killed_by_monitor);
  // Teardown zeroized the secret.
  const FrameNum frame = sandbox->confined_ranges.empty()
                             ? 0
                             : sandbox->confined_ranges.at(0).first;
  (void)frame;
  EXPECT_EQ(sandbox->state, SandboxState::kQuarantined);
}

TEST_F(SecurityTest, C8_SealedHypercallBlocked) {
  Boot();
  bool attempted = false;
  Sandbox* sandbox = LaunchSecretSandbox([&](SyscallContext& ctx) -> StepOutcome {
    attempted = true;
    // tdcall from user mode raises #GP natively — there is no direct hypercall path.
    uint64_t args[3] = {0, 0, 0};
    EXPECT_FALSE(ctx.cpu().Tdcall(tdcall_leaf::kVmcall, args, 3).ok());
    return StepOutcome::kExited;
  });
  world_->kernel().Run(100);
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("x")).ok());
  world_->kernel().Run(1000);
  EXPECT_TRUE(attempted);
}

TEST_F(SecurityTest, C8_CpuidServedFromCacheWhenSealed) {
  Boot();
  bool probed = false;
  bool go = false;
  Sandbox* sandbox = LaunchSecretSandbox([&](SyscallContext& ctx) -> StepOutcome {
    if (!go) {
      return StepOutcome::kYield;  // wait until the sandbox is sealed
    }
    const auto value = ctx.Cpuid(1);
    EXPECT_TRUE(value.ok());
    probed = true;
    return StepOutcome::kExited;
  });
  world_->kernel().Run(100);
  // Warm the monitor's cpuid cache while unsealed (one hypercall happens here).
  ASSERT_TRUE(InstallClientData(*world_, *sandbox, ToBytes("x")).ok());
  go = true;
  const uint64_t vmcalls_before = world_->tdx().vmcall_count();
  world_->kernel().Run(1000);
  EXPECT_TRUE(probed);
  // No synchronous exit reached the host for the sealed sandbox's cpuid.
  EXPECT_EQ(world_->tdx().vmcall_count(), vmcalls_before);
  EXPECT_GT(world_->monitor()->counters().cached_cpuid_hits, 0u);
}

// AV1: host-level attacks (already covered by the traditional CVM model).
TEST_F(SecurityTest, AV1_HostRegisterSnoopSeesZeros) {
  Boot();
  Cpu& cpu = world_->machine().cpu(1);
  cpu.gprs().reg[2] = 0xFEEDFACE;
  world_->tdx().AsyncExitToHost(cpu);
  EXPECT_TRUE(world_->attacker().SnoopGuestRegisters(1).IsClear());
  world_->tdx().ResumeFromHost(cpu);
  EXPECT_EQ(cpu.gprs().reg[2], 0xFEEDFACEu);
}

TEST_F(SecurityTest, AV3_OutputPaddingClosesSizeChannel) {
  Boot();
  // Two sandboxes emit wildly different output sizes; on the wire they are equal.
  auto run_one = [&](const std::string& name, size_t output_size) -> size_t {
    SandboxSpec spec;
    spec.name = name;
    bool sent = false;
    Task* task = nullptr;
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = name, .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
    auto sandbox = world_->LaunchSandboxProcess(
        name, spec,
        [env, output_size, &sent](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            EXPECT_TRUE(env->Initialize(ctx).ok());
            return StepOutcome::kYield;
          }
          EXPECT_TRUE(env->SendOutput(ctx, Bytes(output_size, 0x11)).ok());
          sent = true;
          return StepOutcome::kExited;
        },
        &task);
    EXPECT_TRUE(sandbox.ok());
    Cpu& cpu = world_->machine().cpu(0);
    ClientSession session(*world_, (*sandbox)->id, /*seed=*/1, &cpu);
    EXPECT_TRUE(session.Handshake().ok());
    EXPECT_TRUE(world_->RunUntil([&] { return sent; }).ok());
    const auto wire = world_->AwaitClientPacket((*sandbox)->id, &cpu);
    EXPECT_TRUE(wire.ok());
    return wire.ok() ? wire->size() : 0;
  };
  EXPECT_EQ(run_one("small", 5), run_one("large", 3000));
}


TEST_F(SecurityTest, C3_RuntimeAllocatedPtpAlsoPksProtected) {
  // Regression for a real hole the invariant audit found: a PTP allocated from the
  // general pool *after* boot already has a writable, default-key direct-map entry.
  // RegisterPtp must retrofit the PTP key onto it, or the kernel could forge page
  // tables through the stale mapping.
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  const auto frame = world_->kernel().pool().Alloc();
  ASSERT_TRUE(frame.ok());
  // Before registration the direct-map write works (it is ordinary kernel memory).
  uint8_t byte = 0x77;
  ASSERT_TRUE(cpu.WriteVirt(layout::DirectMap(AddrOf(*frame)), &byte, 1).ok());
  // Register as PTP; the existing mapping must become write-protected.
  ASSERT_TRUE(world_->privops().RegisterPtp(cpu, *frame, AddrOf(*frame)).ok());
  Fault fault;
  EXPECT_EQ(cpu.WriteVirt(layout::DirectMap(AddrOf(*frame)), &byte, 1, &fault).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(fault.error_code & pf_err::kProtectionKey);
  // Reads stay possible (the walker and kernel diagnostics need them).
  EXPECT_TRUE(cpu.ReadVirt(layout::DirectMap(AddrOf(*frame)), &byte, 1).ok());
}

TEST_F(SecurityTest, C2_LoadedModuleNotWritableViaDirectMap) {
  // Same retrofit for dynamically loaded kernel code: W^X must hold through the
  // direct map, not just through fresh mappings.
  Boot();
  Cpu& cpu = world_->machine().cpu(0);
  const Bytes module(kPageSize, 0x90);
  const auto pa = world_->monitor()->EmcLoadKernelModule(cpu, module);
  ASSERT_TRUE(pa.ok());
  uint8_t byte = 0xCC;  // int3 patch attempt
  EXPECT_FALSE(cpu.WriteVirt(layout::DirectMap(*pa), &byte, 1).ok());
  EXPECT_TRUE(cpu.ReadVirt(layout::DirectMap(*pa), &byte, 1).ok());
  EXPECT_EQ(byte, 0x90);
}

}  // namespace
}  // namespace erebor
