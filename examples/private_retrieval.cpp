// Private information retrieval (the paper's DrugBank scenario): a provider hosts an
// in-memory medical database as a *shared common region* across sandboxes; each client
// gets a dedicated sandbox, sends encrypted queries and receives encrypted results.
// Two clients are served concurrently from ONE copy of the database, demonstrating the
// resource-efficient isolation of section 6.1.
#include <cstdio>

#include "src/workloads/retrieval.h"
#include "src/sim/world.h"

using namespace erebor;

namespace {

struct Service {
  std::shared_ptr<AppState> state;
  Sandbox* sandbox = nullptr;
};

}  // namespace

int main() {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.machine.num_cpus = 2;
  config.machine.memory_frames = 64 * 1024;
  World world(config);
  if (!world.Boot().ok() || !world.StartProxy().ok()) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }

  RetrievalParams params;
  params.num_queries = 20'000;
  RetrievalWorkload workload(params);

  // One shared database region (provider-prepared).
  auto region = world.monitor()->CreateCommonRegion("drugbank-db",
                                                    workload.common_bytes());
  if (!region.ok()) {
    std::fprintf(stderr, "region failed\n");
    return 1;
  }
  for (uint64_t i = 0; i < (*region)->num_frames; ++i) {
    workload.FillCommonPage(i,
                            world.machine().memory().FramePtr((*region)->first_frame + i));
  }
  std::printf("== database: %.1f MB, shared read-only across all client sandboxes ==\n",
              workload.common_bytes() / 1048576.0);

  // Two client sandboxes against the same database.
  std::vector<Service> services;
  for (int i = 0; i < 2; ++i) {
    Service service;
    service.state = std::make_shared<AppState>();
    service.state->env = std::make_shared<LibosEnv>(workload.Manifest(),
                                                    LibosBackend::kSandboxed);
    service.state->common_bytes = workload.common_bytes();
    service.state->common_base = kLibosCommonBase;
    SandboxSpec spec;
    spec.name = "pir-" + std::to_string(i);
    spec.confined_budget_bytes = workload.Manifest().heap_bytes + (2ull << 20);
    auto sandbox = world.LaunchSandboxProcess(spec.name, spec,
                                              workload.MakeProgram(service.state));
    if (!sandbox.ok()) {
      std::fprintf(stderr, "launch failed\n");
      return 1;
    }
    service.sandbox = *sandbox;
    (void)world.monitor()->AttachCommon(world.machine().cpu(0), **sandbox,
                                        (*region)->id, kLibosCommonBase, false);
    services.push_back(service);
  }
  (void)world.RunUntil([&] {
    return services[0].state->init_done && services[1].state->init_done;
  });

  // Each client attests + queries independently.
  for (int i = 0; i < 2; ++i) {
    ClientSession session(world, services[i].sandbox->id, /*seed=*/1000 + i);
    if (!session.Handshake().ok()) {
      std::fprintf(stderr, "client %d attestation failed\n", i);
      return 1;
    }
    if (!session.Send(workload.MakeClientInput(/*seed=*/100 + i)).ok()) {
      std::fprintf(stderr, "client %d: send failed\n", i);
      return 1;
    }
    const auto result = session.Receive();
    if (!result.ok()) {
      std::fprintf(stderr, "client %d: no result (app failed=%d: %s)\n", i,
                   services[i].state->failed ? 1 : 0,
                   services[i].state->failure.c_str());
      return 1;
    }
    if (result->size() != 24) {
      std::fprintf(stderr, "client %d: bad result\n", i);
      return 1;
    }
    std::printf("client %d: %llu/%llu lookups hit, checksum %016llx\n", i,
                static_cast<unsigned long long>(LoadLe64(result->data())),
                static_cast<unsigned long long>(LoadLe64(result->data() + 16)),
                static_cast<unsigned long long>(LoadLe64(result->data() + 8)));
    world.ClientSend(session.client().MakeFin());
  }
  std::printf("database frames in memory: %llu (one copy, %d sandboxes attached)\n",
              static_cast<unsigned long long>(
                  world.monitor()->frame_table().CountType(FrameType::kSandboxCommon)),
              (*region)->attach_count);
  std::printf("OK\n");
  return 0;
}
