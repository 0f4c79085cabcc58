// Quickstart: boots a full Erebor CVM, runs the "helloworld" demo sandbox from the
// paper's artifact (experiment E2), and prints the output the monitor shepherds out.
//
// A remote client attests the CVM and sends one request; the demo program answers
// with 0x41 ('A') bytes, which the monitor pads and seals for that client alone,
// demonstrating that data leaves a sealed sandbox only through the monitor.
#include <cstdio>

#include "src/libos/libos.h"
#include "src/sim/world.h"

using namespace erebor;

int main() {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  World world(config);
  Status st = world.Boot();
  if (!st.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("== Erebor CVM booted ==\n");
  std::printf("monitor image: %zu bytes (measured into MRTD)\n",
              world.monitor()->monitor_image().size());
  std::printf("kernel image:  scanned + loaded (0 sensitive instructions)\n");

  // The helloworld sandbox program: initialize the LibOS, wait for the client's
  // request, then answer "AAAA...".
  LibosManifest manifest;
  manifest.name = "helloworld";
  manifest.heap_bytes = 1 << 20;
  auto env = std::make_shared<LibosEnv>(manifest, LibosBackend::kSandboxed);

  SandboxSpec spec;
  spec.name = "helloworld";
  spec.confined_budget_bytes = 4 << 20;
  auto sandbox = world.LaunchSandboxProcess(
      "helloworld", spec, [env](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          const Status st = env->Initialize(ctx);
          if (!st.ok()) {
            std::fprintf(stderr, "libos init failed: %s\n", st.ToString().c_str());
            return StepOutcome::kExited;
          }
          return StepOutcome::kYield;
        }
        if (!env->RecvInput(ctx, 4096).ok()) {
          return StepOutcome::kYield;
        }
        const Bytes output(10, 0x41);  // "AAAAAAAAAA"
        const Status st = env->SendOutput(ctx, output);
        if (!st.ok()) {
          std::fprintf(stderr, "send failed: %s\n", st.ToString().c_str());
        }
        return StepOutcome::kExited;
      });
  if (!sandbox.ok()) {
    std::fprintf(stderr, "sandbox launch failed: %s\n",
                 sandbox.status().ToString().c_str());
    return 1;
  }

  st = world.RunUntil([&] { return env->initialized(); });
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // The client attests the CVM and sends its request. This world runs no proxy
  // process, so the client calls the monitor's proxy entry points on cpu0.
  ClientSession session(world, (*sandbox)->id, /*seed=*/1, &world.machine().cpu(0));
  st = session.Handshake();
  if (st.ok()) {
    std::printf("== quote verified; secure channel established ==\n");
    st = session.Send(ToBytes("hello"));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "client session failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto output = session.Receive();
  if (!output.ok()) {
    std::fprintf(stderr, "no output: %s\n", output.status().ToString().c_str());
    return 1;
  }
  std::printf("sandbox output (%zu bytes, padded to %llu and sealed on the wire): ",
              output->size(), static_cast<unsigned long long>(spec.output_pad_bytes));
  for (const uint8_t byte : *output) {
    std::printf("%c", byte);
  }
  std::printf("\n");
  std::printf("EMCs executed: %llu, policy denials: %llu\n",
              static_cast<unsigned long long>(world.monitor()->counters().emc_total),
              static_cast<unsigned long long>(world.monitor()->counters().policy_denials));
  std::printf("OK\n");
  return 0;
}
