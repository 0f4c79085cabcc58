// LLM-inference-as-a-service, end to end (the paper's headline scenario and artifact
// experiment E3):
//
//   1. An Erebor CVM boots: measured firmware+monitor, scanned kernel.
//   2. The service provider launches the llama.cpp-style service in a sandbox, with
//      the model in a shared (common) read-only region.
//   3. A remote client attests the CVM (quote verification pins the monitor binary),
//      establishes the encrypted channel, and sends a private prompt.
//   4. The sealed sandbox runs inference; the monitor pads and encrypts the result.
//   5. The client decrypts the generated text. The host/proxy only ever saw
//      ciphertext — demonstrated by sniffing the network.
#include <algorithm>
#include <cstdio>

#include "src/workloads/llm.h"
#include "src/workloads/workload.h"
#include "src/sim/world.h"

using namespace erebor;

int main() {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.machine.num_cpus = 2;
  World world(config);
  if (!world.Boot().ok()) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }
  if (!world.StartProxy().ok()) {
    std::fprintf(stderr, "proxy failed\n");
    return 1;
  }
  std::printf("== CVM booted; untrusted proxy running ==\n");

  // Service provider: llama.cpp-style service in a sandbox; model in common memory.
  LlmParams params;
  params.generate_tokens = 48;
  params.model_bytes = 8ull << 20;
  LlmWorkload workload(params);
  auto state = std::make_shared<AppState>();
  state->env = std::make_shared<LibosEnv>(workload.Manifest(), LibosBackend::kSandboxed);
  state->common_bytes = workload.common_bytes();
  state->common_base = kLibosCommonBase;

  SandboxSpec spec;
  spec.name = "llama.cpp";
  spec.confined_budget_bytes = workload.Manifest().heap_bytes + (4ull << 20);
  auto sandbox = world.LaunchSandboxProcess("llama.cpp", spec,
                                            workload.MakeProgram(state));
  if (!sandbox.ok()) {
    std::fprintf(stderr, "launch failed: %s\n", sandbox.status().ToString().c_str());
    return 1;
  }
  auto region = world.monitor()->CreateCommonRegion("llama-model",
                                                    workload.common_bytes());
  for (uint64_t i = 0; i < (*region)->num_frames; ++i) {
    workload.FillCommonPage(i, world.machine().memory().FramePtr((*region)->first_frame + i));
  }
  (void)world.monitor()->AttachCommon(world.machine().cpu(0), **sandbox, (*region)->id,
                                      kLibosCommonBase, false);
  (void)world.RunUntil([&] { return state->init_done; });
  std::printf("== sandbox initialized (confined %.1f MB pinned, model %.1f MB shared) ==\n",
              (*sandbox)->confined_bytes / 1048576.0, workload.common_bytes() / 1048576.0);

  // Remote client: attest, then send the private prompt.
  ClientSession session(world, (*sandbox)->id, /*seed=*/2024);
  if (!session.Handshake().ok()) {
    std::fprintf(stderr, "attestation failed\n");
    return 1;
  }
  std::printf("== quote verified: MRTD matches the expected monitor build ==\n");

  const std::string prompt = "Translate to French: private medical summary for patient X";
  std::printf("client prompt: \"%s\"\n", prompt.c_str());
  const Bytes data_wire = session.client().SealData(ToBytes(prompt));
  // Show the host sees only ciphertext.
  const Bytes needle = ToBytes("patient");
  const bool leaked = std::search(data_wire.begin(), data_wire.end(), needle.begin(),
                                  needle.end()) != data_wire.end();
  std::printf("prompt plaintext visible on the wire: %s\n", leaked ? "YES (!)" : "no");
  world.ClientSend(data_wire);

  const auto result = session.Receive();
  if (!result.ok()) {
    std::fprintf(stderr, "no result: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("generated %zu tokens: %s\n", result->size(), ToString(*result).c_str());
  std::printf("sandbox exits while sealed: %llu scrubbed interrupts, %llu kills\n",
              static_cast<unsigned long long>(
                  world.monitor()->counters().scrubbed_interrupts),
              static_cast<unsigned long long>(world.monitor()->counters().sandbox_kills));

  // Session done: Fin zeroizes the sandbox.
  world.ClientSend(session.client().MakeFin());
  (void)world.RunUntil([&] { return (*sandbox)->state == SandboxState::kTornDown; });
  std::printf("== session closed; confined memory zeroized ==\nOK\n");
  return 0;
}
