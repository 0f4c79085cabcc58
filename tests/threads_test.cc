// Real-thread execution engine tests (ctest label: threads).
//
// The contract under test (DESIGN.md "Execution-engine seam"): running the same
// per-vCPU bodies through World::RunOnThreads on real OS threads must be
// indistinguishable from the deterministic single-thread oracle in every
// simulated observable — EMC-family counters, per-vCPU charged cycles, trace
// event counts, and the fault-journal hash under chaos. Wall-clock ordering is
// allowed to differ; charged cycles are not. The suite also tortures the
// LockAudit rank discipline under real contention and exercises the cross-CPU
// TLB invalidation queue directly. scripts/check.sh runs this binary twice:
// once in the normal tree and once under -fsanitize=thread.
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/exec.h"
#include "src/common/faultpoint.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/hw/tlb.h"
#include "src/kernel/addrspace.h"
#include "src/kernel/mmu_ring.h"
#include "src/libos/libos.h"
#include "src/monitor/monitor.h"
#include "src/monitor/sim_lock.h"
#include "src/sim/world.h"

namespace erebor {
namespace {

constexpr int kSandboxes = 2;
constexpr int kRounds = 40;
constexpr uint64_t kPayload = 1024;

// One measured parallel-install run; every field but wall-clock must be
// bit-identical across execution engines.
struct EngineResult {
  MonitorCounters counters{};
  std::vector<uint64_t> cpu_cycles;
  uint64_t channel_traces = 0;
  uint64_t emc_enter_traces = 0;
  uint64_t install_failures = 0;
  uint64_t journal_hash = 0;
  uint64_t faults_fired = 0;
  uint64_t invariant_violations = 0;
};

struct EngineRunConfig {
  int vcpus = 4;
  ExecMode exec = ExecMode::kDeterministic;
  bool chaos = false;
  uint64_t chaos_seed = 7;
};

// Boots a full-Erebor world, launches a small sandbox fleet, seals it
// single-threaded over attested sessions, then drives kRounds sealed-record
// deliveries (one channel-op EMC each) per vCPU through World::RunOnThreads
// under `config.exec`.
testing::AssertionResult RunEngine(const EngineRunConfig& config,
                                   EngineResult* out) {
  Tracer::Global().Enable();
  Tracer::Global().Reset();
  LockAudit::Global().Reset();

  WorldConfig world_config;
  world_config.mode = SimMode::kEreborFull;
  world_config.exec = config.exec;
  world_config.machine.num_cpus = config.vcpus;
  world_config.machine.memory_frames = 16 * 1024;
  World world(world_config);
  if (!world.Boot().ok()) {
    return testing::AssertionFailure() << "boot failed";
  }

  int initialized = 0;
  std::vector<Sandbox*> fleet;
  for (int i = 0; i < kSandboxes; ++i) {
    SandboxSpec spec;
    spec.name = "thr" + std::to_string(i);
    spec.confined_budget_bytes = (1 << 20) + (1 << 20);
    auto env = std::make_shared<LibosEnv>(
        LibosManifest{.name = spec.name, .heap_bytes = 1 << 20},
        LibosBackend::kSandboxed);
    auto sandbox = world.LaunchSandboxProcess(
        spec.name, spec, [env, &initialized](SyscallContext& ctx) -> StepOutcome {
          if (!env->initialized()) {
            if (!env->Initialize(ctx).ok()) {
              return StepOutcome::kExited;
            }
            ++initialized;
          }
          ctx.Compute(10'000);
          return StepOutcome::kYield;
        });
    if (!sandbox.ok()) {
      return testing::AssertionFailure()
             << "launch failed: " << sandbox.status().ToString();
    }
    fleet.push_back(*sandbox);
  }
  if (!world.RunUntil([&] { return initialized == kSandboxes; }, 200'000).ok()) {
    return testing::AssertionFailure() << "sandboxes failed to initialize";
  }

  EreborMonitor* monitor = world.monitor();
  monitor->SetLockContention(false);
  Machine& machine = world.machine();
  const Bytes payload(kPayload, 0x5A);

  // One attested session per sandbox. Its first record seals the sandbox, which
  // writes MSRs on every vCPU and shoots down seal-revoked PTEs; keep that
  // single-threaded so the parallel region is steady-state only.
  std::deque<ClientSession> sessions;
  std::vector<std::vector<Bytes>> first_records;
  for (Sandbox* sandbox : fleet) {
    ClientSession& session = sessions.emplace_back(
        world, sandbox->id, static_cast<uint64_t>(sandbox->id + 1), &machine.cpu(0));
    Status st = session.Handshake();
    if (st.ok()) {
      first_records.push_back({session.client().SealData(payload)});
      st = monitor->ProxyDeliverBatch(machine.cpu(0), first_records.back());
    }
    if (!st.ok()) {
      return testing::AssertionFailure() << "warmup session failed: " << st.ToString();
    }
  }
  // Records stay in sequence per session, so vCPU c < kSandboxes owns sandbox
  // c and delivers its fresh records; every other vCPU shares sandbox
  // c % kSandboxes by re-sending that sandbox's already-admitted first record,
  // which the monitor absorbs as a duplicate under the same sandbox lock.
  std::vector<std::vector<std::vector<Bytes>>> records(config.vcpus);
  for (int c = 0; c < config.vcpus; ++c) {
    for (int round = 0; round < kRounds; ++round) {
      records[c].push_back(
          c < kSandboxes ? std::vector<Bytes>{sessions[c].client().SealData(payload)}
                         : first_records[c % kSandboxes]);
    }
  }

  if (config.chaos) {
    ChaosOptions chaos;
    chaos.seed = config.chaos_seed;
    // Host-probe faults are driven from ThreadChaosTick inside the bodies;
    // no scheduler-driven probes run during the parallel region.
    const Status st = world.EnableChaos(chaos);
    if (!st.ok()) {
      return testing::AssertionFailure()
             << "EnableChaos failed: " << st.ToString();
    }
  }

  std::vector<Cycles> start(config.vcpus);
  for (int c = 0; c < config.vcpus; ++c) {
    start[c] = machine.cpu(c).cycles().now();
  }
  const uint64_t channel_before = Tracer::Global().CountKind(TraceEvent::kEmcChannelOp);
  const uint64_t enter_before = Tracer::Global().CountKind(TraceEvent::kEmcEnter);
  const MonitorCounters counters_before = monitor->counters();

  std::vector<uint64_t> failures(config.vcpus, 0);
  const Status st = world.RunOnThreads([&](int cpu) -> Status {
    Cpu& vcpu = machine.cpu(cpu);
    for (const std::vector<Bytes>& batch : records[cpu]) {
      // Under chaos a delivery may draw an injected transient failure; the
      // body runs a fixed number of rounds either way so every engine visits
      // every fault site the same total number of times.
      if (!monitor->ProxyDeliverBatch(vcpu, batch).ok()) {
        ++failures[cpu];
      }
      if (config.chaos) {
        world.ThreadChaosTick(cpu);
      }
    }
    return OkStatus();
  });
  if (!st.ok()) {
    return testing::AssertionFailure()
           << "RunOnThreads failed: " << st.ToString();
  }

  out->counters = monitor->counters();
  out->counters.emc_total -= counters_before.emc_total;
  out->cpu_cycles.clear();
  for (int c = 0; c < config.vcpus; ++c) {
    out->cpu_cycles.push_back(
        static_cast<uint64_t>(machine.cpu(c).cycles().now() - start[c]));
  }
  out->channel_traces =
      Tracer::Global().CountKind(TraceEvent::kEmcChannelOp) - channel_before;
  out->emc_enter_traces =
      Tracer::Global().CountKind(TraceEvent::kEmcEnter) - enter_before;
  out->install_failures = 0;
  for (const uint64_t f : failures) {
    out->install_failures += f;
  }
  out->journal_hash = FaultInjector::Global().JournalHash();
  out->faults_fired = FaultInjector::Global().fired();
  out->invariant_violations = world.invariant_violations();

  if (LockAudit::Global().violations() != 0) {
    return testing::AssertionFailure()
           << "lock-discipline violations: " << LockAudit::Global().violations();
  }
  if (!monitor->AuditInvariants().ok()) {
    return testing::AssertionFailure() << "invariant audit failed";
  }
  if (config.chaos) {
    world.DisableChaos();
  }
  return testing::AssertionSuccess();
}

TEST(ThreadsOracle, EquivalentUnderShardedLocking) {
  EngineRunConfig config;

  EngineResult threaded, oracle;
  config.exec = ExecMode::kRealThreads;
  ASSERT_TRUE(RunEngine(config, &threaded));
  config.exec = ExecMode::kDeterministic;
  ASSERT_TRUE(RunEngine(config, &oracle));

  // Every simulated observable must be bit-identical across engines.
  EXPECT_EQ(threaded.counters.emc_total, oracle.counters.emc_total);
  EXPECT_EQ(0, std::memcmp(&threaded.counters, &oracle.counters,
                           sizeof(MonitorCounters)));
  EXPECT_EQ(threaded.cpu_cycles, oracle.cpu_cycles);
  EXPECT_EQ(threaded.channel_traces, oracle.channel_traces);
  EXPECT_EQ(threaded.emc_enter_traces, oracle.emc_enter_traces);
  EXPECT_EQ(threaded.install_failures, 0u);
  EXPECT_EQ(oracle.install_failures, 0u);
  // The parallel region drove a known EMC volume.
  EXPECT_EQ(threaded.counters.emc_total,
            static_cast<uint64_t>(kRounds) * config.vcpus);
}

// Chaos soak: the fault-journal *set* (hash), firing count, and induced
// transient-failure count must match between a threaded run and the
// single-thread replay of the same seed. Per-vCPU cycle assignment may differ
// (which thread draws a given shared-site hit is schedule-dependent); the set
// of fired (site, hit) pairs may not.
TEST(ThreadsChaos, JournalMatchesSequentialReplay) {
  for (const uint64_t seed : {7ull, 1234ull}) {
    EngineRunConfig config;
    config.chaos = true;
    config.chaos_seed = seed;

    EngineResult threaded, replay;
    config.exec = ExecMode::kRealThreads;
    ASSERT_TRUE(RunEngine(config, &threaded)) << "seed " << seed;
    config.exec = ExecMode::kDeterministic;
    ASSERT_TRUE(RunEngine(config, &replay)) << "seed " << seed;

    EXPECT_EQ(threaded.journal_hash, replay.journal_hash) << "seed " << seed;
    EXPECT_EQ(threaded.faults_fired, replay.faults_fired) << "seed " << seed;
    EXPECT_EQ(threaded.install_failures, replay.install_failures)
        << "seed " << seed;
    EXPECT_EQ(threaded.counters.emc_total, replay.counters.emc_total)
        << "seed " << seed;
    EXPECT_EQ(threaded.invariant_violations, 0u) << "seed " << seed;
    EXPECT_EQ(replay.invariant_violations, 0u) << "seed " << seed;
  }
}

// ---- LockAudit under real contention ----

// Every thread acquires in the SAME wrong order (monitor-state before a
// sandbox-ranked lock), so there is no deadlock cycle — but each inner
// acquisition violates the rank discipline and LockAudit must say so.
TEST(ThreadsLockAudit, WrongOrderAcquisitionIsReportedNotDeadlocked) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 4});
  LockAudit::Global().Reset();
  SimLock state("torture.monitor_state", kRankMonitorState);
  SimLock sandbox("torture.sandbox", kRankSandbox, /*sub=*/0);

  constexpr int kIters = 200;
  {
    ExecutionEngine::RealThreadsScope scope;
    std::vector<std::thread> threads;
    for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
      threads.emplace_back([&, cpu]() {
        ExecutionEngine::CpuBinding binding(cpu);
        Cpu& vcpu = machine.cpu(cpu);
        for (int i = 0; i < kIters; ++i) {
          state.Acquire(vcpu, false);
          sandbox.Acquire(vcpu, false);  // rank 0 after rank 1: violation
          sandbox.Release(vcpu, false);
          state.Release(vcpu, false);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  EXPECT_EQ(LockAudit::Global().ordering_violations(),
            static_cast<uint64_t>(machine.num_cpus()) * kIters);
  for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    EXPECT_TRUE(LockAudit::Global().NothingHeld(cpu)) << "cpu " << cpu;
  }
  LockAudit::Global().Reset();
}

// Correct-order hammer: one real mutex-backed SimLock protecting a plain
// counter. Mutual exclusion must make the count exact; TSan double-checks the
// lock actually orders the accesses.
TEST(ThreadsLockAudit, ContendedLockProtectsPlainCounter) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 8});
  LockAudit::Global().Reset();
  SimLock lock("torture.counter", kRankMonitorState);

  constexpr int kIters = 2000;
  uint64_t plain_counter = 0;
  {
    ExecutionEngine::RealThreadsScope scope;
    std::vector<std::thread> threads;
    for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
      threads.emplace_back([&, cpu]() {
        ExecutionEngine::CpuBinding binding(cpu);
        Cpu& vcpu = machine.cpu(cpu);
        for (int i = 0; i < kIters; ++i) {
          lock.Acquire(vcpu, false);
          ++plain_counter;  // data race iff the real backing mutex is broken
          lock.Release(vcpu, false);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  EXPECT_EQ(plain_counter,
            static_cast<uint64_t>(machine.num_cpus()) * kIters);
  EXPECT_EQ(LockAudit::Global().violations(), 0u);
  EXPECT_EQ(lock.acquisitions(),
            static_cast<uint64_t>(machine.num_cpus()) * kIters);
}

// CounterAdd is a relaxed atomic add inside a real-thread region and a plain add
// outside one; the same cell must stay exact across both.
TEST(ThreadsCounters, CounterAddIsExactInsideAndOutsideRealThreadRegions) {
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  uint64_t cell = 0;
  {
    ExecutionEngine::RealThreadsScope scope;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cell]() {
        for (int i = 0; i < kIters; ++i) {
          CounterAdd(cell);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  EXPECT_EQ(cell, static_cast<uint64_t>(kThreads) * kIters);
  for (int i = 0; i < kIters; ++i) {
    CounterAdd(cell, 2);
  }
  EXPECT_EQ(CounterLoad(cell), static_cast<uint64_t>(kThreads + 2) * kIters);
}

// ---- Cross-CPU TLB invalidation queue ----

TEST(ThreadsTlbQueue, CrossCpuPostQueuesUntilDrain) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 2});
  Cpu& peer = machine.cpu(1);

  ExecutionEngine::RealThreadsScope scope;
  ExecutionEngine::CpuBinding binding(0);  // we are cpu 0; cpu 1 is remote

  EXPECT_FALSE(peer.tlb_invalidations_pending());
  peer.RequestTlbInvalidation(
      TlbInvalidation{.kind = TlbInvalidation::Kind::kRoot, .root = 0x1000});
  peer.RequestTlbInvalidation(
      TlbInvalidation{.kind = TlbInvalidation::Kind::kEntry, .entry_pa = 0x2000});
  EXPECT_TRUE(peer.tlb_invalidations_pending());
  EXPECT_EQ(peer.tlb_invalidations_drained(), 0u);

  peer.DrainTlbInvalidations();
  EXPECT_FALSE(peer.tlb_invalidations_pending());
  EXPECT_EQ(peer.tlb_invalidations_drained(), 2u);
}

TEST(ThreadsTlbQueue, OwnCpuAndDeterministicApplyDirectly) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 2});

  // Deterministic engine: no queueing even for a "remote" CPU.
  machine.cpu(1).RequestTlbInvalidation(
      TlbInvalidation{.kind = TlbInvalidation::Kind::kRoot, .root = 0x1000});
  EXPECT_FALSE(machine.cpu(1).tlb_invalidations_pending());
  EXPECT_EQ(machine.cpu(1).tlb_invalidations_drained(), 0u);

  // Real-thread engine, own CPU: still direct.
  ExecutionEngine::RealThreadsScope scope;
  ExecutionEngine::CpuBinding binding(1);
  machine.cpu(1).RequestTlbInvalidation(
      TlbInvalidation{.kind = TlbInvalidation::Kind::kRoot, .root = 0x1000});
  EXPECT_FALSE(machine.cpu(1).tlb_invalidations_pending());
}

TEST(ThreadsTlbQueue, ConcurrentPostsAllDrain) {
  Machine machine(MachineConfig{.memory_frames = 64, .num_cpus = 4});
  constexpr int kPosts = 500;
  {
    ExecutionEngine::RealThreadsScope scope;
    std::vector<std::thread> threads;
    for (int cpu = 1; cpu < machine.num_cpus(); ++cpu) {
      threads.emplace_back([&, cpu]() {
        ExecutionEngine::CpuBinding binding(cpu);
        for (int i = 0; i < kPosts; ++i) {
          machine.cpu(0).RequestTlbInvalidation(TlbInvalidation{
              .kind = TlbInvalidation::Kind::kEntry,
              .entry_pa = 0x1000 + static_cast<Paddr>(i) * sizeof(Pte)});
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  machine.cpu(0).DrainTlbInvalidations();
  EXPECT_FALSE(machine.cpu(0).tlb_invalidations_pending());
  EXPECT_EQ(machine.cpu(0).tlb_invalidations_drained(),
            static_cast<uint64_t>(machine.num_cpus() - 1) * kPosts);
}

// Entries of roots that are not loaded survive CR3 writes, so a peer's invalidation
// of such a root must reach them. Under real threads it only queues on the
// receiving vCPU; the receiver's next CR3 write drains the queue, and from then on
// every root it probes, loaded or not, matches a fresh walk. vCPU 0 mutates three
// roots (demand faults, unmaps, revoking and granting protects, teardowns whose
// root frame comes back as the replacement's PML4) while vCPU 1 caches all of
// them; the two alternate in lockstep phases, so page-table stores and walks never
// overlap and TSan sees only the queue itself shared.
TEST(ThreadsTlbQueue, CrossRootCoherenceAfterQueuedPeerInvalidations) {
  constexpr int kSpaces = 3;
  constexpr int kPages = 16;
  constexpr int kRounds = 60;
  constexpr FrameNum kPoolFrames = 48;  // per space: a root, PTPs and data pages
  const Pte flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  Machine machine(MachineConfig{.memory_frames = 1024, .num_cpus = 2});
  NativePrivOps ops(&machine);
  std::unique_ptr<FrameAllocator> pools[kSpaces];
  std::unique_ptr<AddressSpace> spaces[kSpaces];
  Vaddr base[kSpaces] = {};
  // A fresh allocator over a fully released range hands the old root frame out
  // again as the new PML4, at the same VMA addresses.
  auto build = [&](int s, Cpu& cpu) {
    spaces[s].reset();
    pools[s] = std::make_unique<FrameAllocator>(256 + s * kPoolFrames, kPoolFrames);
    spaces[s] = std::move(
        AddressSpace::Create(cpu, &machine, &ops, pools[s].get(), nullptr).value());
    base[s] = spaces[s]->CreateVma(kPages * kPageSize, flags, VmaKind::kAnon).value();
  };
  for (int s = 0; s < kSpaces; ++s) {
    build(s, machine.cpu(0));
  }

  std::atomic<int> phase{0};
  const auto await = [&phase](int value) {
    while (phase.load() != value) {
      std::this_thread::yield();
    }
  };
  int reused_roots = 0;
  int queued_rounds = 0;
  int unloaded_probes = 0;
  int mismatches = 0;
  std::string first_mismatch;
  {
    ExecutionEngine::RealThreadsScope scope;
    std::thread mutator([&] {
      ExecutionEngine::CpuBinding bind(0);
      Cpu& cpu = machine.cpu(0);
      std::mt19937_64 rng(7);
      for (int round = 0; round < kRounds; ++round) {
        await(2 * round + 1);
        for (int op = 0; op < 8; ++op) {
          const int s = static_cast<int>(rng() % kSpaces);
          AddressSpace& space = *spaces[s];
          const Vaddr va = base[s] + (rng() % kPages) * kPageSize;
          switch (rng() % 6) {
            case 0:
            case 1:
              (void)space.HandleDemandFault(cpu, va);
              break;
            case 2:
              (void)space.UnmapPage(cpu, va);
              break;
            case 3:
              (void)space.ProtectPage(cpu, va, pte::kPresent | pte::kUser | pte::kNoExecute);
              break;
            case 4:
              (void)space.ProtectPage(cpu, va, flags);
              break;
            case 5:
              if (rng() % 4 == 0) {
                const Paddr old_root = space.root();
                space.ReleaseUserFrames(cpu);
                build(s, cpu);
                reused_roots += spaces[s]->root() == old_root ? 1 : 0;
              }
              break;
          }
        }
        phase.store(2 * round + 2);
      }
    });
    std::thread cacher([&] {
      ExecutionEngine::CpuBinding bind(1);
      Cpu& cpu = machine.cpu(1);
      for (int round = 0; round < kRounds; ++round) {
        await(2 * round);
        if (round > 0) {
          queued_rounds += cpu.tlb_invalidations_pending() ? 1 : 0;
          cpu.TrustedWriteCr(3, spaces[round % kSpaces]->root());
          for (int s = 0; s < kSpaces; ++s) {
            unloaded_probes += spaces[s]->root() != cpu.cr3() ? kPages : 0;
            for (int p = 0; p < kPages; ++p) {
              const Vaddr va = base[s] + AddrOf(p);
              const auto cached = spaces[s]->LookupCached(cpu, va);
              const auto fresh = spaces[s]->Lookup(va);
              const bool same =
                  cached.ok() == fresh.ok() &&
                  (!fresh.ok() || (cached->pa == fresh->pa &&
                                   cached->writable == fresh->writable &&
                                   cached->leaf == fresh->leaf));
              if (!same && mismatches++ == 0) {
                first_mismatch = "round " + std::to_string(round) + " space " +
                                 std::to_string(s) + " page " + std::to_string(p);
              }
            }
          }
        } else {
          for (int s = 0; s < kSpaces; ++s) {
            for (int p = 0; p < kPages; ++p) {
              (void)spaces[s]->LookupCached(cpu, base[s] + AddrOf(p));
            }
          }
        }
        // Leave one root loaded while vCPU 0 mutates all three.
        cpu.TrustedWriteCr(3, spaces[(round + 1) % kSpaces]->root());
        phase.store(2 * round + 1);
      }
    });
    mutator.join();
    cacher.join();
  }
  EXPECT_EQ(mismatches, 0) << "first stale entry: " << first_mismatch;
  EXPECT_GT(queued_rounds, 0);
  EXPECT_GT(reused_roots, 0);
  EXPECT_GT(unloaded_probes, 0);
}

// ---- MMU rings under real threads ----

// One measured multi-vCPU ring burst: every vCPU publishes frame-reclaim
// windows against disjoint frame ranges and rings its own doorbell. Under
// kRealThreads the drains contend on the real sharded locks; the
// deterministic engine is the oracle. Counters, per-vCPU charged cycles, and
// the ring drain statistics must be bit-identical across engines — and TSan
// (which runs this binary in check.sh) watches the shared-memory ring ABI
// itself for races.
struct RingEngineResult {
  MonitorCounters counters{};
  std::vector<uint64_t> cpu_cycles;
  uint64_t applied = 0;
  uint64_t doorbells = 0;
};

testing::AssertionResult RunRingEngine(ExecMode exec, RingEngineResult* out) {
  constexpr int kVcpus = 4;
  constexpr int kRingRounds = 24;
  constexpr int kReclaimsPerRound = 16;

  LockAudit::Global().Reset();
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.exec = exec;
  config.machine.num_cpus = kVcpus;
  config.machine.memory_frames = 16 * 1024;
  World world(config);
  if (!world.Boot().ok()) {
    return testing::AssertionFailure() << "boot failed";
  }
  EreborMonitor* monitor = world.monitor();
  monitor->EnableMmuRings(true);
  monitor->SetLockContention(false);

  Machine& machine = world.machine();
  const uint64_t base = machine.memory().num_frames() -
                        static_cast<uint64_t>(kVcpus) * kReclaimsPerRound - 16;
  std::vector<Cycles> start(kVcpus);
  for (int c = 0; c < kVcpus; ++c) {
    start[c] = machine.cpu(c).cycles().now();
  }

  const Status st = world.RunOnThreads([&](int cpu) -> Status {
    EmcRing* ring = world.privops().mmu_ring(cpu);
    if (ring == nullptr) {
      return InternalError("ring not enabled for vCPU");
    }
    for (int round = 0; round < kRingRounds; ++round) {
      MmuRingBatch batch(ring);
      for (int i = 0; i < kReclaimsPerRound; ++i) {
        if (!batch.StageFrameReclaim(base + static_cast<uint64_t>(cpu) *
                                                kReclaimsPerRound +
                                     i)) {
          return InternalError("ring burst overflowed the SQ");
        }
      }
      batch.Publish();
      EREBOR_RETURN_IF_ERROR(world.privops().RingDoorbell(machine.cpu(cpu)));
      int32_t first_error = 0;
      batch.Reap(&first_error);
      if (first_error != 0) {
        return InternalError("ring burst descriptor refused");
      }
    }
    return OkStatus();
  });
  if (!st.ok()) {
    return testing::AssertionFailure()
           << "RunOnThreads failed: " << st.ToString();
  }
  if (LockAudit::Global().violations() != 0) {
    return testing::AssertionFailure()
           << "lock-discipline violations: " << LockAudit::Global().violations();
  }
  if (!monitor->AuditInvariants().ok()) {
    return testing::AssertionFailure() << "invariant audit failed";
  }

  out->counters = monitor->counters();
  out->cpu_cycles.clear();
  out->applied = 0;
  out->doorbells = 0;
  for (int c = 0; c < kVcpus; ++c) {
    out->cpu_cycles.push_back(
        static_cast<uint64_t>(machine.cpu(c).cycles().now() - start[c]));
    const RingState* rs = monitor->rings().state(c);
    out->applied += rs->applied;
    out->doorbells += rs->doorbells;
  }
  return testing::AssertionSuccess();
}

TEST(ThreadsRing, ConcurrentDrainsMatchDeterministicOracle) {
  RingEngineResult threaded, oracle;
  ASSERT_TRUE(RunRingEngine(ExecMode::kRealThreads, &threaded));
  ASSERT_TRUE(RunRingEngine(ExecMode::kDeterministic, &oracle));

  EXPECT_EQ(0, std::memcmp(&threaded.counters, &oracle.counters,
                           sizeof(MonitorCounters)));
  EXPECT_EQ(threaded.cpu_cycles, oracle.cpu_cycles);
  EXPECT_EQ(threaded.applied, oracle.applied);
  EXPECT_EQ(threaded.doorbells, oracle.doorbells);
  // The burst drove a known descriptor volume: 4 vCPUs x 24 doorbells x 16
  // reclaims, every one applied.
  EXPECT_EQ(threaded.applied, 4u * 24 * 16);
  EXPECT_EQ(threaded.counters.ring_strikes, 0u);
}

// ---- Metrics / trace concurrency smoke ----

TEST(ThreadsMetrics, ConcurrentCountersHistogramsAndTracesAreExact) {
  Tracer::Global().Enable();
  Tracer::Global().Reset();
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string counter_name = "threads_test.smoke_counter";
  const std::string histogram_name = "threads_test.smoke_histogram";
  const uint64_t counter_before = registry.Value(counter_name);
  const uint64_t traces_before =
      Tracer::Global().CountKind(TraceEvent::kInterrupt);

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  {
    ExecutionEngine::RealThreadsScope scope;
    std::vector<std::thread> threads;
    for (int cpu = 0; cpu < kThreads; ++cpu) {
      threads.emplace_back([&, cpu]() {
        ExecutionEngine::CpuBinding binding(cpu);
        for (int i = 0; i < kIters; ++i) {
          registry.Increment(counter_name);
          registry.GetHistogram(histogram_name)
              ->Observe(static_cast<uint64_t>(i));
          Tracer::Global().Record(TraceEvent::kInterrupt, cpu,
                                  static_cast<Cycles>(i));
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }

  EXPECT_EQ(registry.Value(counter_name) - counter_before,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(Tracer::Global().CountKind(TraceEvent::kInterrupt) - traces_before,
            static_cast<uint64_t>(kThreads) * kIters);
  // The merged export is deterministically ordered by (timestamp, cpu): the
  // same per-CPU streams must export identically however threads interleaved.
  const std::vector<TraceRecord> merged = Tracer::Global().MergedRecords();
  for (size_t i = 1; i < merged.size(); ++i) {
    const bool ordered =
        merged[i - 1].timestamp < merged[i].timestamp ||
        (merged[i - 1].timestamp == merged[i].timestamp &&
         merged[i - 1].cpu <= merged[i].cpu);
    ASSERT_TRUE(ordered) << "merged record " << i << " out of order";
  }
  Tracer::Global().Reset();
}

}  // namespace
}  // namespace erebor
