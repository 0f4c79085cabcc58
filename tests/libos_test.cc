#include <gtest/gtest.h>

#include "src/libos/libos.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

class LibosTest : public testing::Test {
 protected:
  void Boot(SimMode mode) {
    WorldConfig config;
    config.mode = mode;
    config.machine.num_cpus = 2;
    world_ = std::make_unique<World>(config);
    ASSERT_TRUE(world_->Boot().ok());
  }

  // Runs `body` inside a (possibly sandboxed) process with a fresh LibosEnv.
  void RunApp(std::function<StepOutcome(SyscallContext&, LibosEnv&)> body,
              LibosManifest manifest = {.name = "app", .heap_bytes = 2ull << 20}) {
    auto env = std::make_shared<LibosEnv>(manifest, world_->libos_backend(),
                                          world_->libos_overheads());
    env_ = env;
    done_ = false;
    ProgramFn program = [this, env, body](SyscallContext& ctx) -> StepOutcome {
      if (!env->initialized()) {
        const Status st = env->Initialize(ctx);
        EXPECT_TRUE(st.ok()) << st.ToString();
        if (!st.ok()) {
          done_ = true;
          return StepOutcome::kExited;
        }
        return StepOutcome::kYield;
      }
      const StepOutcome outcome = body(ctx, *env);
      if (outcome == StepOutcome::kExited) {
        done_ = true;
      }
      return outcome;
    };
    if (world_->erebor_active()) {
      SandboxSpec spec;
      spec.name = manifest.name;
      spec.confined_budget_bytes = manifest.heap_bytes + (1 << 20);
      ASSERT_TRUE(world_->LaunchSandboxProcess(manifest.name, spec, program).ok());
    } else {
      ASSERT_TRUE(world_->LaunchProcess(manifest.name, program).ok());
    }
    ASSERT_TRUE(world_->RunUntil([&] { return done_; }).ok());
  }

  std::unique_ptr<World> world_;
  std::shared_ptr<LibosEnv> env_;
  bool done_ = false;
};

TEST_F(LibosTest, HeapAllocSandboxed) {
  Boot(SimMode::kEreborFull);
  RunApp([](SyscallContext& ctx, LibosEnv& env) {
    const auto a = env.Alloc(1000);
    const auto b = env.Alloc(1000);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());
    EXPECT_NE(*a, *b);
    // Allocations are usable memory.
    const Bytes data = ToBytes("heap data");
    EXPECT_TRUE(ctx.WriteUser(*a, data.data(), data.size()).ok());
    return StepOutcome::kExited;
  });
}

TEST_F(LibosTest, HeapExhaustionReported) {
  Boot(SimMode::kEreborFull);
  RunApp([](SyscallContext& ctx, LibosEnv& env) {
    EXPECT_TRUE(env.Alloc(1ull << 20).ok());
    EXPECT_EQ(env.Alloc(4ull << 20).status().code(), ErrorCode::kResourceExhausted);
    return StepOutcome::kExited;
  });
}

TEST_F(LibosTest, MemfsPreloadAndReadBack) {
  Boot(SimMode::kEreborFull);
  LibosManifest manifest{.name = "fsapp", .heap_bytes = 2ull << 20};
  manifest.preload_files.push_back({"config.json", ToBytes("{\"key\":1}")});
  RunApp(
      [](SyscallContext& ctx, LibosEnv& env) {
        EXPECT_TRUE(env.FileExists("config.json"));
        const auto contents = env.FileRead(ctx, "config.json");
        EXPECT_TRUE(contents.ok());
        EXPECT_EQ(ToString(*contents), "{\"key\":1}");
        // Temporary in-memory files work after "stateless" transition.
        EXPECT_TRUE(env.FileCreate(ctx, "/tmp/scratch", ToBytes("xyz")).ok());
        EXPECT_EQ(ToString(*env.FileRead(ctx, "/tmp/scratch")), "xyz");
        EXPECT_FALSE(env.FileRead(ctx, "missing").ok());
        return StepOutcome::kExited;
      },
      manifest);
}

TEST_F(LibosTest, SpinLockSemantics) {
  Boot(SimMode::kLibosOnly);
  RunApp([](SyscallContext& ctx, LibosEnv& env) {
    SpinLock& lock = env.lock(0);
    EXPECT_TRUE(lock.TryAcquire(ctx, 1));
    EXPECT_FALSE(lock.TryAcquire(ctx, 2));  // contended
    EXPECT_EQ(lock.contention_spins(), 1u);
    lock.Release();
    EXPECT_TRUE(lock.TryAcquire(ctx, 2));
    lock.Release();
    return StepOutcome::kExited;
  });
}

TEST_F(LibosTest, WorkersSpawnViaCloneAndShareAddressSpace) {
  Boot(SimMode::kEreborFull);
  auto counter = std::make_shared<int>(0);
  LibosManifest manifest{.name = "mt", .heap_bytes = 2ull << 20};
  manifest.num_threads = 4;
  bool spawned = false;
  RunApp(
      [counter, &spawned](SyscallContext& ctx, LibosEnv& env) -> StepOutcome {
        if (!spawned) {
          std::vector<ProgramFn> workers(3, [counter](SyscallContext&) {
            ++*counter;
            return StepOutcome::kExited;
          });
          EXPECT_TRUE(env.SpawnWorkers(ctx, workers).ok());
          spawned = true;
          return StepOutcome::kYield;
        }
        if (*counter < 3) {
          return StepOutcome::kYield;
        }
        return StepOutcome::kExited;
      },
      manifest);
  EXPECT_EQ(*counter, 3);
}

TEST_F(LibosTest, NativeBackendIoThroughRamfs) {
  Boot(SimMode::kNative);
  (void)world_->kernel().fs().Create("io.client_input", ToBytes("client says hi"));
  Bytes received;
  RunApp(
      [&](SyscallContext& ctx, LibosEnv& env) -> StepOutcome {
        auto in = env.RecvInput(ctx, 4096);
        EXPECT_TRUE(in.ok());
        received = *in;
        EXPECT_TRUE(env.SendOutput(ctx, ToBytes("reply")).ok());
        return StepOutcome::kExited;
      },
      LibosManifest{.name = "io", .heap_bytes = 1ull << 20});
  EXPECT_EQ(received, ToBytes("client says hi"));
  const auto out = world_->kernel().fs().Open("io.client_output", false);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->data, ToBytes("reply"));
}

TEST_F(LibosTest, NativeBaselineChargesNoEmulationOverhead) {
  Boot(SimMode::kNative);
  EXPECT_FALSE(world_->libos_overheads());
  Cycles charged = 0;
  RunApp([&](SyscallContext& ctx, LibosEnv& env) {
    const Cycles before = ctx.cpu().cycles().now();
    env.ChargeRuntime(ctx, 1000);
    charged = ctx.cpu().cycles().now() - before;
    return StepOutcome::kExited;
  });
  EXPECT_EQ(charged, 0u);
}

TEST_F(LibosTest, SandboxedRecvBeforeDataIsEagain) {
  Boot(SimMode::kEreborFull);
  RunApp([](SyscallContext& ctx, LibosEnv& env) {
    const auto in = env.RecvInput(ctx, 4096);
    EXPECT_EQ(in.status().code(), ErrorCode::kUnavailable);
    return StepOutcome::kExited;
  });
}


// ---- Manifests (built in code, as the apps build theirs) ----

TEST(ManifestTest, ManifestDrivesARealSandbox) {
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  World world(config);
  ASSERT_TRUE(world.Boot().ok());
  LibosManifest manifest{.name = "svc", .heap_bytes = 2 << 20};
  manifest.preload_files.emplace_back("cfg", Bytes(128, 0x5A));
  auto env = std::make_shared<LibosEnv>(manifest, LibosBackend::kSandboxed);
  bool up = false;
  SandboxSpec spec;
  spec.name = manifest.name;
  spec.confined_budget_bytes = manifest.heap_bytes + (1 << 20);
  ASSERT_TRUE(world
                  .LaunchSandboxProcess(spec.name, spec,
                                        [env, &up](SyscallContext& ctx) -> StepOutcome {
                                          if (!env->initialized()) {
                                            EXPECT_TRUE(env->Initialize(ctx).ok());
                                            up = true;
                                          }
                                          return StepOutcome::kExited;
                                        })
                  .ok());
  ASSERT_TRUE(world.RunUntil([&] { return up; }).ok());
  EXPECT_TRUE(env->FileExists("cfg"));
}

}  // namespace
}  // namespace erebor
