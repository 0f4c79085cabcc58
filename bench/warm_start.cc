// Warm-start ablation (section 9.2): the 11.5%-52.7% initialization overhead is a
// one-time cost, and "containers can be pre-initialized in real settings (warm-start
// techniques)". This bench measures, per workload:
//
//   cold init       - boot a sandbox + declare/pin confined memory + LibOS bring-up
//                     (the Table 4 cold path: attestation op + 2M-cycle bootstrap);
//   warm assignment - a pre-initialized sandbox receives a real client session:
//                     ClientHello through the untrusted proxy, attested ServerHello,
//                     sealed data record installed + verified served result;
//   clone launch    - CloneFromTemplate of a frozen template sandbox: the CoW delta
//                     (one monitor PTE op per shared page) charged against the same
//                     cold baseline.
//
// With EREBOR_BENCH_JSON set, everything lands in BENCH_warm_start.json.
#include <cstdio>
#include <memory>

#include "bench/bench_json.h"
#include "src/libos/libos.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

constexpr uint64_t kSeed = 7;

// Fleet-style echo service: initialize once, then XOR-serve client records.
ProgramFn ServiceProgram(std::shared_ptr<LibosEnv> env, bool* up) {
  return [env, up](SyscallContext& ctx) -> StepOutcome {
    if (!env->initialized()) {
      if (!env->Initialize(ctx).ok()) {
        return StepOutcome::kExited;
      }
      *up = true;
      return StepOutcome::kYield;
    }
    auto input = env->RecvInput(ctx, 256 * 1024);
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

// Drives the real client->proxy->attested-channel session install: handshake,
// sealed data record, served result opened and verified. Returns false on any
// wedge or a result mismatch.
bool InstallSessionAndServe(World& world, Sandbox& sandbox, const Bytes& payload) {
  ClientSession session(world, sandbox.id, kSeed);
  if (!session.Handshake().ok() || !session.Send(payload).ok()) {
    return false;
  }
  const StatusOr<Bytes> result = session.Receive();
  Bytes expected = payload;
  for (uint8_t& b : expected) {
    b ^= 0x5A;
  }
  return result.ok() && *result == expected;
}

}  // namespace
}  // namespace erebor

int main() {
  using namespace erebor;
  std::printf("=== Warm-start ablation (section 9.2) ===\n");
  std::printf("%-10s %16s %20s %18s %12s %12s\n", "heap size", "cold init (Mcyc)",
              "warm install (Mcyc)", "clone (Mcyc)", "warm speedup", "clone speedup");

  bool ok = true;
  Json rows = Json::Array();
  for (const uint64_t heap_mb : {2ull, 6ull, 12ull}) {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.machine.memory_frames = 64 * 1024;
    World world(config);
    if (!world.Boot().ok() || !world.StartProxy().ok()) {
      std::printf("boot failed\n");
      return 1;
    }

    // Cold path: full sandbox bring-up.
    SandboxSpec spec;
    spec.name = "svc";
    spec.confined_budget_bytes = (heap_mb + 2) << 20;
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "svc", .heap_bytes = heap_mb << 20},
        LibosBackend::kSandboxed);
    bool up = false;
    const Cycles cold_start = world.machine().TotalCycles();
    auto sandbox = world.LaunchSandboxProcess("svc", spec, ServiceProgram(env, &up));
    if (!sandbox.ok() || !world.RunUntil([&] { return up; }).ok() || !up) {
      std::printf("cold init failed\n");
      return 1;
    }
    const Cycles cold = world.machine().TotalCycles() - cold_start;

    // Warm path: the pre-initialized sandbox gets a real session — attested
    // handshake through the proxy, sealed record in, served result out.
    const Bytes client_data(64 * 1024, 0x21);
    const Cycles warm_start = world.machine().TotalCycles();
    if (!InstallSessionAndServe(world, **sandbox, client_data)) {
      std::printf("warm assignment failed\n");
      return 1;
    }
    const Cycles warm = world.machine().TotalCycles() - warm_start;

    // Clone path: freeze a second, identical sandbox as a template, then clone.
    auto tmpl_env = std::make_shared<LibosEnv>(
        LibosManifest{.name = "tmpl", .heap_bytes = heap_mb << 20},
        LibosBackend::kSandboxed);
    bool tmpl_up = false;
    SandboxSpec tmpl_spec = spec;
    tmpl_spec.name = "tmpl";
    auto tmpl = world.LaunchSandboxProcess(
        "tmpl", tmpl_spec, [tmpl_env, &tmpl_up](SyscallContext& ctx) -> StepOutcome {
          if (tmpl_up) {
            return StepOutcome::kYield;  // parked: frozen pages are read-only now
          }
          if (!tmpl_env->initialized() && !tmpl_env->Initialize(ctx).ok()) {
            return StepOutcome::kExited;
          }
          tmpl_up = true;
          return StepOutcome::kYield;
        });
    if (!tmpl.ok() || !world.RunUntil([&] { return tmpl_up; }).ok() ||
        !world.monitor()->SnapshotTemplate(world.machine().cpu(0), **tmpl).ok()) {
      std::printf("template freeze failed\n");
      return 1;
    }
    SandboxSpec clone_spec = spec;
    clone_spec.name = "clone";
    const Cycles clone_start = world.machine().TotalCycles();
    auto clone = world.LaunchCloneProcess(
        "clone", **tmpl, clone_spec,
        [](SyscallContext&) -> StepOutcome { return StepOutcome::kYield; });
    if (!clone.ok()) {
      std::printf("clone failed: %s\n", clone.status().ToString().c_str());
      return 1;
    }
    const Cycles clone_cycles = world.machine().TotalCycles() - clone_start;

    const double warm_speedup = static_cast<double>(cold) / warm;
    const double clone_speedup = static_cast<double>(cold) / clone_cycles;
    std::printf("%8lluMB %16.2f %20.3f %18.3f %11.1fx %11.1fx\n",
                static_cast<unsigned long long>(heap_mb), cold / 1e6, warm / 1e6,
                clone_cycles / 1e6, warm_speedup, clone_speedup);
    // The warm install does real work (handshake + crypto) but skips the entire
    // one-time bring-up; the clone pays only its per-page PTE delta.
    ok &= warm < cold && clone_cycles * 10 < cold;
    rows.Push(Json::Object()
                  .Set("heap_mb", heap_mb)
                  .Set("cold_cycles", static_cast<uint64_t>(cold))
                  .Set("warm_install_cycles", static_cast<uint64_t>(warm))
                  .Set("clone_cycles", static_cast<uint64_t>(clone_cycles))
                  .Set("warm_speedup", warm_speedup)
                  .Set("clone_speedup", clone_speedup)
                  .Set("served_verified", true));
  }
  std::printf("\nPre-initialization moves the one-time cost off the client's critical "
              "path; the warm number now includes the full attested handshake and "
              "sealed-record install it previously skipped.\n");

  Json root = Json::Object();
  root.Set("bench", "warm_start").Set("rows", std::move(rows)).Set("pass", ok);
  std::string path;
  if (WriteBenchJson("warm_start", root, &path)) {
    std::printf("warm_start: JSON written to %s\n", path.c_str());
  }
  if (!ok) {
    std::printf("warm_start: FAIL (warm or clone path lost its advantage)\n");
  }
  return ok ? 0 : 1;
}
