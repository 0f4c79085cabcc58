// Attack demonstrations: runs the paper's attack vectors (section 3.2) against a live
// sandbox holding a secret, and shows each one being stopped by the mechanism the
// paper's design assigns to it. Prints a scorecard.
#include <cstdio>
#include <cstring>

#include "src/libos/libos.h"
#include "src/sim/world.h"

using namespace erebor;

namespace {

int g_passed = 0;
int g_total = 0;

void Report(const char* attack, const char* defense, bool blocked) {
  ++g_total;
  g_passed += blocked;
  std::printf("  [%s] %-58s (%s)\n", blocked ? "BLOCKED" : "LEAKED!", attack, defense);
}

}  // namespace

int main() {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.machine.num_cpus = 2;
  World world(config);
  if (!world.Boot().ok()) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }

  // --- Stage 0: a malicious provider ships a trojaned kernel ---
  std::printf("== boot-time attacks ==\n");
  {
    WorldConfig evil = config;
    evil.kernel_image.smuggle_sensitive_op = true;
    evil.kernel_image.smuggled_op = SensitiveOp::kTdcall;
    World evil_world(evil);
    Report("kernel image with hidden tdcall at unaligned offset",
           "two-stage verified boot: byte scan", !evil_world.Boot().ok());
  }

  // --- A sandbox holding a client secret ---
  const Bytes secret = ToBytes("SSN 078-05-1120, diagnosis: ...");
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "victim", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  bool ready = false;
  SandboxSpec spec;
  spec.name = "victim";
  Task* task = nullptr;
  auto sandbox = world.LaunchSandboxProcess(
      "victim", spec,
      [&](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          (void)env->Initialize(ctx);
          (void)ctx.WriteUser(kLibosArenaBase, secret.data(), secret.size());
          ready = true;
        }
        return StepOutcome::kYield;
      },
      &task);
  if (!sandbox.ok() || !world.RunUntil([&] { return ready; }).ok()) {
    std::fprintf(stderr, "sandbox setup failed\n");
    return 1;
  }
  Cpu& cpu = world.machine().cpu(0);
  // The client attests and sends its request, which seals the sandbox.
  ClientSession victim_client(world, (*sandbox)->id, /*seed=*/1, &cpu);
  if (!victim_client.Handshake().ok() ||
      !victim_client.Send(ToBytes("client-request")).ok()) {
    std::fprintf(stderr, "client session failed\n");
    return 1;
  }
  const FrameNum secret_frame = (*sandbox)->confined_ranges.at(0).first;

  std::printf("== AV1: OS data retrieval ==\n");
  {
    uint8_t buf[32];
    const Status st =
        cpu.ReadVirt(layout::DirectMap(AddrOf(secret_frame)), buf, sizeof(buf));
    Report("kernel reads confined page via the direct map",
           "single-mapping policy: page unmapped", !st.ok());
  }
  {
    (void)world.privops().WriteCr(cpu, 3, task->aspace->root());
    uint8_t buf[32];
    const Status st = cpu.ReadVirt(kLibosArenaBase, buf, sizeof(buf));
    Report("kernel walks the sandbox page table and reads the user page",
           "SMAP (stac is a fenced instruction)", !st.ok());
  }
  {
    uint8_t buf[32];
    const Status st =
        world.privops().CopyFromUser(cpu, kLibosArenaBase, buf, sizeof(buf));
    Report("kernel asks the monitor's usercopy emulation to exfiltrate",
           "monitor refuses sealed confined targets", !st.ok());
  }
  {
    uint64_t args[3] = {AddrOf(secret_frame), 1, 1};
    const Status st = world.privops().Tdcall(cpu, tdcall_leaf::kMapGpa, args, 3);
    Report("kernel converts the confined page to shared for device DMA",
           "monitor GHCI policy: only the IO window converts", !st.ok());
  }
  {
    uint8_t buf[32];
    const Status st =
        world.attacker().DmaReadGuestMemory(AddrOf(secret_frame), buf, sizeof(buf));
    Report("host directs a device to DMA-read the confined page",
           "TDX private memory + IOMMU", !st.ok());
  }
  {
    cpu.gprs().reg[7] = 0x5EC2E7;  // pretend the sandbox parked a secret here
    world.tdx().AsyncExitToHost(cpu);
    const bool blocked = world.attacker().SnoopGuestRegisters(0).IsClear();
    world.tdx().ResumeFromHost(cpu);
    Report("host snoops guest registers across an async exit",
           "TDX module context save/scrub", blocked);
  }

  std::printf("== AV2: program direct leakage ==\n");
  {
    const bool killed_before = task->killed_by_monitor;
    (void)killed_before;
    // The provider's program attempts a write() to disk inside the sealed sandbox.
    bool aborted = false;
    bool attempted = false;
    Task* leak_task = nullptr;
    Sandbox* leaker_ptr = nullptr;
    SandboxSpec leak_spec;
    leak_spec.name = "leaker";
    auto leak_env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "leaker", .heap_bytes = 1 << 20},
        LibosBackend::kSandboxed);
    auto leaker = world.LaunchSandboxProcess(
        "leaker", leak_spec,
        [&](SyscallContext& ctx) -> StepOutcome {
          if (!leak_env->initialized()) {
            (void)leak_env->Initialize(ctx);
            return StepOutcome::kYield;
          }
          if (leaker_ptr == nullptr || leaker_ptr->state != SandboxState::kSealed) {
            return StepOutcome::kYield;
          }
          attempted = true;
          aborted = ctx.Syscall(sys::kOpen, kLibosArenaBase, 8, 1).status().code() ==
                    ErrorCode::kAborted;
          return StepOutcome::kExited;
        },
        &leak_task);
    leaker_ptr = leaker.ok() ? *leaker : nullptr;
    world.kernel().Run(50);
    ClientSession leak_client(world, (*leaker)->id, /*seed=*/2, &cpu);
    (void)leak_client.Handshake();
    (void)leak_client.Send(ToBytes("x"));
    world.kernel().Run(2000);
    Report("sealed program opens a file to write the secret out",
           "exit interposition kills the sandbox", attempted && aborted);
  }
  {
    uint64_t args[3] = {static_cast<uint64_t>(GhciReason::kNetTx), 0, 0};
    cpu.SetMode(CpuMode::kUser);
    const Status st = cpu.Tdcall(tdcall_leaf::kVmcall, args, 3);
    cpu.SetMode(CpuMode::kSupervisor);
    Report("sealed program issues a direct hypercall (tdcall from ring 3)",
           "#GP: privileged instruction", !st.ok());
  }

  std::printf("== AV3: covert leakage ==\n");
  {
    const auto tt = cpu.ReadMsr(msr::kIa32UintrTt);
    Report("program sends user-mode interrupts to a colluding process",
           "monitor cleared IA32_UINTR_TT.valid at seal",
           tt.ok() && (*tt & msr::kUintrTtValid) == 0);
  }
  {
    // Output size as a covert channel: two different result sizes, same wire size.
    const auto small = PadOutput(Bytes(3, 1), 4096);
    const auto large = PadOutput(Bytes(3000, 2), 4096);
    Report("program modulates output length to encode secrets",
           "monitor pads outputs to fixed quanta",
           small.ok() && large.ok() && small->size() == large->size());
  }

  std::printf("== monitor integrity ==\n");
  {
    uint8_t buf[8];
    const Status st =
        cpu.ReadVirt(layout::DirectMap(AddrOf(layout::kMonitorFirstFrame)), buf, 8);
    Report("kernel reads monitor memory", "PKS key 1 access-disable", !st.ok());
  }
  {
    const Status st = cpu.IndirectBranch(world.monitor()->gates().internal_label());
    Report("kernel jumps into the middle of monitor code",
           "CET-IBT: no endbr64 at target", !st.ok());
  }
  {
    const Status st = world.privops().WriteMsr(cpu, msr::kIa32Pkrs, 0);
    Report("kernel rewrites IA32_PKRS to grant itself the monitor key",
           "EMC MSR allow-list", !st.ok());
  }
  {
    const Bytes evil = EncodeSensitiveOp(SensitiveOp::kWrmsr);
    const Status st = world.privops().TextPoke(
        cpu, AddrOf(layout::kKernelTextFirstFrame + 220), evil.data(), evil.size());
    Report("kernel patches wrmsr into its own text via text_poke",
           "monitor re-scans every patch", !st.ok());
  }

  std::printf("\n%d/%d attacks blocked\n", g_passed, g_total);
  return g_passed == g_total ? 0 : 1;
}
