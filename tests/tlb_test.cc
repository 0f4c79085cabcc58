// Software-TLB test suite.
//
// Three layers:
//   1. Machine-level coherence: a cached translation must always agree with a fresh
//      page-table walk under randomized map/unmap/protect/CR3-switch/revoke/teardown
//      traffic over three roots and two vCPUs, probing roots that are not loaded too
//      (the TLB is an optimization, never an oracle).
//   2. Stale-TLB security regressions: each invalidation hook (Tlb::hooks()) is
//      disabled in turn, the mutation it guards is replayed, and the test asserts the
//      TLB really does go stale — proving the shipped hook is load-bearing, not
//      decorative. The same scenario then passes with the hook enabled.
//   3. Cycle-neutrality: simulated operation/cycle counts are bit-identical with the
//      TLB off and on (EREBOR_TLB only changes host time, never the cost model).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "src/common/metrics.h"
#include "src/fleet/supervisor.h"
#include "src/hw/tlb.h"
#include "src/kernel/addrspace.h"
#include "src/kernel/kernel.h"
#include "src/kernel/layout.h"
#include "src/libos/libos.h"
#include "src/sim/world.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/runner.h"
#include "tests/client_data.h"
#include "tests/small_workloads.h"

namespace erebor {
namespace {

// Restores global TLB knobs even when a test fails mid-way (the suite binary can run
// many tests in one process).
struct TlbStateGuard {
  TlbStateGuard() { Tlb::SetEnabled(true); }
  ~TlbStateGuard() {
    Tlb::hooks() = Tlb::Hooks{};
    Tlb::SetEnabled(true);
  }
};

// ---- Layer 1: machine-level tests on raw page tables and address spaces ----

class TlbMachineTest : public testing::Test {
 protected:
  TlbMachineTest()
      : machine_(MachineConfig{.memory_frames = 8192, .num_cpus = 2}),
        pool_(2048, 4096) {}

  StatusOr<std::unique_ptr<AddressSpace>> Create() {
    return AddressSpace::Create(machine_.cpu(0), &machine_, &ops_, &pool_, nullptr);
  }

  // Hand-builds a 4-level tree for `va` out of frames [base, base+3] mapping `data`.
  // Raw Write64s: this models table state the TLB must track, not a kernel API.
  Paddr BuildTree(FrameNum base, Vaddr va, FrameNum data) {
    PhysMemory& m = machine_.memory();
    const Pte inter = pte::kPresent | pte::kWritable;
    m.Write64(AddrOf(base) + PteIndex(va, 3) * 8, pte::Make(base + 1, inter));
    m.Write64(AddrOf(base + 1) + PteIndex(va, 2) * 8, pte::Make(base + 2, inter));
    m.Write64(AddrOf(base + 2) + PteIndex(va, 1) * 8, pte::Make(base + 3, inter));
    m.Write64(AddrOf(base + 3) + PteIndex(va, 0) * 8,
              pte::Make(data, pte::kPresent | pte::kWritable | pte::kNoExecute));
    return AddrOf(base);
  }

  Paddr LeafPa(FrameNum base, Vaddr va) {
    return AddrOf(base + 3) + PteIndex(va, 0) * 8;
  }

  void ExpectCoherent(AddressSpace& space, Cpu& cpu, Vaddr va) {
    const auto cached = space.LookupCached(cpu, va);
    const auto fresh = space.Lookup(va);
    ASSERT_EQ(cached.ok(), fresh.ok())
        << "cpu" << cpu.index() << " va=" << std::hex << va
        << ": TLB and fresh walk disagree on presence";
    if (!fresh.ok()) {
      return;
    }
    EXPECT_EQ(cached->pa, fresh->pa);
    EXPECT_EQ(cached->writable, fresh->writable);
    EXPECT_EQ(cached->user_accessible, fresh->user_accessible);
    EXPECT_EQ(cached->no_execute, fresh->no_execute);
    EXPECT_EQ(cached->pkey, fresh->pkey);
    EXPECT_EQ(cached->level, fresh->level);
  }

  TlbStateGuard guard_;
  Machine machine_;
  NativePrivOps ops_{&machine_};
  FrameAllocator pool_;
};

TEST_F(TlbMachineTest, HitMissAndStructureCacheCountersWork) {
  const Vaddr va = 0x5A5A5A5A5000;
  const Paddr root = BuildTree(7000, va, 7004);
  Cpu& cpu = machine_.cpu(0);
  const Tlb::Stats before = Tlb::GlobalStats();

  const auto w1 = cpu.WalkCached(root, va, CpuMode::kSupervisor);
  ASSERT_TRUE(w1.ok());
  EXPECT_EQ(w1->pa, AddrOf(7004));
  EXPECT_EQ(Tlb::GlobalStats().misses, before.misses + 1);

  const auto w2 = cpu.WalkCached(root, va + 8, CpuMode::kSupervisor);
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2->pa, AddrOf(7004) + 8);
  EXPECT_EQ(Tlb::GlobalStats().hits, before.hits + 1);

  // A second page in the same 2 MiB region: the leaf TLB misses but the structure
  // cache supplies the level-1 table, costing one walker read instead of four.
  machine_.memory().Write64(
      AddrOf(7003) + PteIndex(va + kPageSize, 0) * 8,
      pte::Make(7005, pte::kPresent | pte::kWritable | pte::kNoExecute));
  const uint64_t reads_before = PageTableWalkReads();
  const auto w3 = cpu.WalkCached(root, va + kPageSize, CpuMode::kSupervisor);
  ASSERT_TRUE(w3.ok());
  EXPECT_EQ(w3->pa, AddrOf(7005));
  EXPECT_EQ(Tlb::GlobalStats().psc_hits, before.psc_hits + 1);
  EXPECT_EQ(PageTableWalkReads(), reads_before + 1);

  // The aggregate counters are registered in the global metrics registry.
  EXPECT_EQ(MetricsRegistry::Global().Value("tlb.hits"), Tlb::GlobalStats().hits);
  EXPECT_EQ(MetricsRegistry::Global().Value("paging.walk_read64s"),
            PageTableWalkReads());
}

TEST_F(TlbMachineTest, CachedErrorTextMatchesFreshWalk) {
  const Vaddr va = 0x5A5A5A5A5000;
  const Paddr root = BuildTree(7000, va, 7004);
  Cpu& cpu = machine_.cpu(0);
  ASSERT_TRUE(cpu.WalkCached(root, va, CpuMode::kSupervisor).ok());
  // A non-present page in an already-built region fails via the structure cache;
  // the error must be byte-identical to the full walk's.
  const Vaddr missing = va + 4 * kPageSize;
  const auto cached = cpu.WalkCached(root, missing, CpuMode::kSupervisor);
  const auto fresh = WalkPageTables(machine_.memory(), root, missing);
  ASSERT_FALSE(cached.ok());
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(cached.status().message(), fresh.status().message());
  EXPECT_EQ(cached.status().code(), fresh.status().code());
}

// CR3 writes keep the root-tagged entries, so entries of roots that are not loaded
// live on across context switches. Three roots, each in its own frame range, take
// demand faults, unmaps, revoking and granting protects (RO->RW: the case a flush at
// CR3 used to heal), monitor-style revocations and teardowns whose root frame comes
// straight back as the replacement's PML4; every vCPU probes every root, loaded or
// not. The invalidations the stores issue are all that keeps the cache exact.
TEST_F(TlbMachineTest, CoherencePropertyUnderRandomMmuTraffic) {
  constexpr int kSpaces = 3;
  constexpr int kPages = 24;
  constexpr FrameNum kPoolFrames = 64;  // per space: a root, PTPs and its data pages
  const Pte flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  std::vector<std::unique_ptr<FrameAllocator>> pools(kSpaces);
  std::unique_ptr<AddressSpace> spaces[kSpaces];
  Vaddr base[kSpaces];
  auto build = [&](int s) {
    spaces[s].reset();
    pools[s] = std::make_unique<FrameAllocator>(6144 + s * kPoolFrames, kPoolFrames);
    auto space = AddressSpace::Create(machine_.cpu(0), &machine_, &ops_, pools[s].get(),
                                      nullptr);
    ASSERT_TRUE(space.ok());
    spaces[s] = std::move(*space);
    const auto va = spaces[s]->CreateVma(kPages * kPageSize, flags, VmaKind::kAnon);
    ASSERT_TRUE(va.ok());
    base[s] = *va;
  };
  for (int s = 0; s < kSpaces; ++s) {
    build(s);
    ASSERT_FALSE(HasFatalFailure());
  }

  std::mt19937_64 rng(42);
  int reused_roots = 0;
  int grants = 0;
  int unloaded_probes = 0;
  for (int step = 0; step < 1200; ++step) {
    const int s = static_cast<int>(rng() % kSpaces);
    AddressSpace& space = *spaces[s];
    Cpu& cpu = machine_.cpu(rng() & 1);
    const Vaddr va = base[s] + (rng() % kPages) * kPageSize;
    switch (rng() % 8) {
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
        if (space.ProtectPage(cpu, va, flags).ok()) {
          ++grants;
        }
        break;
      case 5:
        ASSERT_TRUE(cpu.WriteCr3(space.root()).ok());
        break;
      case 6: {
        // Monitor-style revocation: rewrite the leaf in place (permission narrowing
        // the kernel's writer never saw) and rely on the shootdown broadcast alone.
        const auto walk = space.Lookup(va);
        if (walk.ok()) {
          machine_.memory().Write64(walk->leaf_entry_pa,
                                    pte::WithPkey(walk->leaf, layout::kPtpKey));
          machine_.ShootdownTlbLeaf(walk->leaf_entry_pa, cpu.index());
        }
        break;
      }
      case 7: {
        // Teardown: every frame goes back, and a fresh allocator over the same range
        // hands the old root frame out again as the replacement's PML4, at the same
        // VMA addresses.
        if (rng() % 4 != 0) {
          break;
        }
        const Paddr old_root = space.root();
        space.ReleaseUserFrames(cpu);
        ASSERT_EQ(pools[s]->used(), 0u);
        build(s);
        ASSERT_FALSE(HasFatalFailure());
        ASSERT_EQ(spaces[s]->root(), old_root);
        ++reused_roots;
        break;
      }
    }
    // Every op is followed by coherence probes on both vCPUs, of every root.
    for (int c = 0; c < 2; ++c) {
      Cpu& probe_cpu = machine_.cpu(c);
      for (int ps = 0; ps < kSpaces; ++ps) {
        const Vaddr pva = base[ps] + (rng() % kPages) * kPageSize;
        if (spaces[ps]->root() != probe_cpu.cr3()) {
          ++unloaded_probes;
        }
        ExpectCoherent(*spaces[ps], probe_cpu, pva);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
  EXPECT_GT(reused_roots, 0);
  EXPECT_GT(grants, 0);
  EXPECT_GT(unloaded_probes, 0);
}

// ---- Layer 2: each invalidation hook is load-bearing ----

TEST_F(TlbMachineTest, KernelShootdownHookIsLoadBearing) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const Pte flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  const auto va = (*space)->CreateVma(4 * kPageSize, flags, VmaKind::kAnon);
  ASSERT_TRUE(va.ok());
  Cpu& cpu0 = machine_.cpu(0);
  Cpu& cpu1 = machine_.cpu(1);

  // A native store that skips its TLB maintenance: unmap with the store's
  // shootdown disabled.
  ASSERT_TRUE((*space)->HandleDemandFault(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu1, *va).ok());
  Tlb::hooks().store_shootdown = false;
  ASSERT_TRUE((*space)->UnmapPage(cpu0, *va).ok());
  ASSERT_FALSE((*space)->Lookup(*va).ok());
  EXPECT_TRUE((*space)->LookupCached(cpu0, *va).ok())
      << "without the shootdown the unmapped translation must stay cached";
  EXPECT_TRUE((*space)->LookupCached(cpu1, *va).ok());

  // Shipped behaviour: the unmap's shootdown invalidates every vCPU.
  Tlb::hooks().store_shootdown = true;
  for (int i = 0; i < machine_.num_cpus(); ++i) {
    machine_.cpu(i).tlb().FlushAll();  // drop the deliberately-staled entries
  }
  ASSERT_TRUE((*space)->HandleDemandFault(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu1, *va).ok());
  ASSERT_TRUE((*space)->UnmapPage(cpu0, *va).ok());
  EXPECT_FALSE((*space)->LookupCached(cpu0, *va).ok());
  EXPECT_FALSE((*space)->LookupCached(cpu1, *va).ok())
      << "the shootdown must broadcast to all vCPUs";
}

// The native store owns its invalidation: an unmap of a present, cached page is
// shot down once, by NativePrivOps::WritePte, and the entry is gone.
TEST_F(TlbMachineTest, NativeUnmapIsShotDownOnce) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const auto va = (*space)->CreateVma(
      kPageSize, pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute,
      VmaKind::kAnon);
  ASSERT_TRUE(va.ok());
  Cpu& cpu = machine_.cpu(0);
  ASSERT_TRUE((*space)->HandleDemandFault(cpu, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu, *va).ok());
  const uint64_t shootdowns = Tlb::GlobalStats().shootdowns;
  ASSERT_TRUE((*space)->UnmapPage(cpu, *va).ok());
  EXPECT_EQ(Tlb::GlobalStats().shootdowns, shootdowns + 1);
  EXPECT_FALSE((*space)->LookupCached(cpu, *va).ok());
}

// Under the real-thread engine a peer's shootdown only queues on the owner: until
// the owner drains it, the owner's TLB still holds the page, so a cursor serving it
// is exactly as fresh as TranslateHit; the drain clears the leaf, and the next
// cursor access re-walks.
TEST_F(TlbMachineTest, PeerShootdownBetweenCursorAccessesForcesARewalk) {
  TlbStateGuard guard;
  const Vaddr va = 0x40000000;
  const Paddr root = BuildTree(100, va, 200);
  Cpu& owner = machine_.cpu(0);
  owner.TrustedWriteCr(3, root);
  Task task;
  SyscallContext ctx(nullptr, &task, &owner);
  const Tlb::Stats& stats = Tlb::GlobalStats();
  const auto walks = [&stats] {
    return CounterLoad(stats.misses) + CounterLoad(stats.psc_hits);
  };
  std::atomic<int> phase{0};
  uint8_t* access[3] = {nullptr, nullptr, nullptr};
  uint64_t walks_at[3] = {0, 0, 0};
  bool queued = false;
  {
    ExecutionEngine::RealThreadsScope real_threads;
    std::thread owner_thread([&] {
      ExecutionEngine::CpuBinding bind(0);
      PageCursor pages(ctx);
      access[0] = pages.At(va, false);
      phase.store(1);
      while (phase.load() != 2) {
        std::this_thread::yield();
      }
      walks_at[0] = walks();
      access[1] = pages.At(va, false);
      walks_at[1] = walks();
      queued = owner.tlb_invalidations_pending();
      owner.DrainTlbInvalidations();
      access[2] = pages.At(va, false);
      walks_at[2] = walks();
    });
    std::thread peer_thread([&] {
      ExecutionEngine::CpuBinding bind(1);
      while (phase.load() != 1) {
        std::this_thread::yield();
      }
      machine_.ShootdownTlbLeaf(LeafPa(100, va), /*initiating_cpu=*/1);
      phase.store(2);
    });
    owner_thread.join();
    peer_thread.join();
  }
  ASSERT_NE(access[0], nullptr);
  EXPECT_EQ(access[1], access[0]);
  EXPECT_EQ(access[2], access[0]);
  EXPECT_TRUE(queued) << "a peer's shootdown must queue on the owner, not apply";
  EXPECT_EQ(walks_at[1] - walks_at[0], 0u) << "before the drain the cursor serves";
  EXPECT_EQ(walks_at[2] - walks_at[1], 1u) << "after the drain the cursor re-walks";
  EXPECT_EQ(owner.tlb_invalidations_drained(), 1u);
}

// ---- Layer 2 (continued): monitor-side hooks, exercised in a booted world ----

class TlbWorldTest : public testing::Test {
 protected:
  TlbWorldTest() {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    world_ = std::make_unique<World>(config);
    EXPECT_TRUE(world_->Boot().ok());
  }

  // Builds a standalone 4-level tree through the EMC surface (RegisterPtp +
  // WritePte), the way the deprivileged kernel builds real page tables.
  struct EmcTree {
    Paddr root = 0;
    Paddr leaf_pa = 0;
    FrameNum data = 0;
  };
  StatusOr<EmcTree> BuildEmcTree(Vaddr va) {
    Cpu& cpu = world_->machine().cpu(0);
    PrivilegedOps& priv = world_->privops();
    FrameAllocator& pool = world_->kernel().pool();
    FrameNum level_frames[4];
    for (int i = 0; i < 4; ++i) {
      EREBOR_ASSIGN_OR_RETURN(level_frames[i], pool.Alloc());
    }
    EmcTree tree;
    tree.root = AddrOf(level_frames[0]);
    EREBOR_RETURN_IF_ERROR(priv.RegisterPtp(cpu, level_frames[0], tree.root));
    for (int i = 1; i < 4; ++i) {
      EREBOR_RETURN_IF_ERROR(priv.RegisterPtp(cpu, level_frames[i], tree.root));
      EREBOR_RETURN_IF_ERROR(
          priv.WritePte(cpu, AddrOf(level_frames[i - 1]) + PteIndex(va, 4 - i) * 8,
                        pte::Make(level_frames[i], pte::kPresent | pte::kWritable)));
    }
    EREBOR_ASSIGN_OR_RETURN(tree.data, pool.Alloc());
    tree.leaf_pa = AddrOf(level_frames[3]) + PteIndex(va, 0) * 8;
    EREBOR_RETURN_IF_ERROR(priv.WritePte(
        cpu, tree.leaf_pa,
        pte::Make(tree.data, pte::kPresent | pte::kWritable | pte::kNoExecute)));
    return tree;
  }

  TlbStateGuard guard_;
  std::unique_ptr<World> world_;
};

TEST_F(TlbWorldTest, PteShootdownHookIsLoadBearing) {
  const Vaddr va = 0x5A5A5A5A5000;
  auto tree = BuildEmcTree(va);
  ASSERT_TRUE(tree.ok());
  Cpu& cpu = world_->machine().cpu(0);

  // Malicious-kernel scenario: revoke a mapping straight through EmcWritePte. The
  // kernel issues no invalidation of its own under Erebor; only the monitor
  // store's shootdown protects the TLB.
  ASSERT_EQ(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor)->pa,
            AddrOf(tree->data));
  Tlb::hooks().store_shootdown = false;
  ASSERT_TRUE(world_->privops().WritePte(cpu, tree->leaf_pa, 0).ok());
  ASSERT_FALSE(WalkPageTables(world_->machine().memory(), tree->root, va).ok());
  EXPECT_TRUE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok())
      << "with the monitor shootdown disabled the revoked translation must stay "
         "cached — the hook is load-bearing";

  // Shipped behaviour: remap, re-prime, revoke again — now the walk must fail.
  Tlb::hooks().store_shootdown = true;
  ASSERT_TRUE(world_->privops()
                  .WritePte(cpu, tree->leaf_pa,
                            pte::Make(tree->data, pte::kPresent | pte::kWritable |
                                                      pte::kNoExecute))
                  .ok());
  ASSERT_TRUE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok());
  ASSERT_TRUE(world_->privops().WritePte(cpu, tree->leaf_pa, 0).ok());
  EXPECT_FALSE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok());
  EXPECT_GT(world_->monitor()->counters().tlb_shootdowns, 0u);
}

// Under Erebor the monitor makes the kernel's PTE stores, so the monitor alone
// invalidates them: a kernel unmap of a present, cached page is shot down once,
// and that shootdown is the monitor's.
TEST_F(TlbWorldTest, KernelUnmapIsShotDownOnce) {
  Cpu& cpu = world_->machine().cpu(0);
  auto space = AddressSpace::Create(cpu, &world_->machine(), &world_->privops(),
                                    &world_->kernel().pool(), nullptr);
  ASSERT_TRUE(space.ok());
  const auto va = (*space)->CreateVma(
      kPageSize, pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute,
      VmaKind::kAnon);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE((*space)->HandleDemandFault(cpu, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu, *va).ok());
  const uint64_t shootdowns = Tlb::GlobalStats().shootdowns;
  const uint64_t monitor_shootdowns = world_->monitor()->counters().tlb_shootdowns;
  ASSERT_TRUE((*space)->UnmapPage(cpu, *va).ok());
  EXPECT_EQ(Tlb::GlobalStats().shootdowns, shootdowns + 1)
      << "the store's owner, the monitor, must be the only one to invalidate it";
  EXPECT_EQ(world_->monitor()->counters().tlb_shootdowns, monitor_shootdowns + 1);
  EXPECT_FALSE((*space)->LookupCached(cpu, *va).ok());
  (*space)->ReleaseUserFrames(cpu);
}

// The sandbox manager's trusted stores take the same sink as every other monitor
// store, so their shootdowns count as monitor shootdowns.
TEST_F(TlbWorldTest, TrustedStoreShootdownIsAMonitorShootdown) {
  SandboxSpec spec;
  spec.name = "trusted";
  const auto sandbox = world_->LaunchSandboxProcess(
      "sb", spec, [](SyscallContext&) { return StepOutcome::kExited; });
  ASSERT_TRUE(sandbox.ok()) << sandbox.status().ToString();
  AddressSpace& aspace = *(*sandbox)->aspace;
  PhysMemory& memory = world_->machine().memory();
  const auto frame = world_->kernel().pool().Alloc();
  ASSERT_TRUE(frame.ok());
  const Vaddr va = 0x7000'0000'0000ULL;
  const SandboxManager::TrustedWriter trusted(&world_->monitor()->sandboxes(),
                                              world_->machine().cpu(0), aspace);
  ASSERT_TRUE(MapPage(memory, aspace.root(), va, *frame,
                      pte::kPresent | pte::kUser | pte::kNoExecute, trusted.writer())
                  .ok());
  const uint64_t shootdowns = Tlb::GlobalStats().shootdowns;
  const uint64_t monitor_shootdowns = world_->monitor()->counters().tlb_shootdowns;
  ASSERT_TRUE(UnmapPage(memory, aspace.root(), va, trusted.writer()).ok());
  EXPECT_EQ(Tlb::GlobalStats().shootdowns, shootdowns + 1);
  EXPECT_EQ(world_->monitor()->counters().tlb_shootdowns, monitor_shootdowns + 1);
}

// CR3 writes keep the root-tagged entries (the PCID analogue): after A -> B -> A,
// A's entry still hits with zero walker reads. What evicts an entry of a root that
// is not loaded is the shootdown its PTE store issues: under Erebor the monitor's,
// for a kernel unmap and a revoking EmcWritePte alike.
TEST_F(TlbWorldTest, Cr3SwitchKeepsRootTaggedEntries) {
  Cpu& cpu = world_->machine().cpu(0);
  const uint64_t saved_cr3 = cpu.cr3();
  const Pte flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  std::unique_ptr<AddressSpace> spaces[2];
  Vaddr base[2];
  for (int s = 0; s < 2; ++s) {
    auto space = AddressSpace::Create(cpu, &world_->machine(), &world_->privops(),
                                      &world_->kernel().pool(), nullptr);
    ASSERT_TRUE(space.ok());
    spaces[s] = std::move(*space);
    const auto va = spaces[s]->CreateVma(3 * kPageSize, flags, VmaKind::kAnon);
    ASSERT_TRUE(va.ok());
    base[s] = *va;
    for (int p = 0; p < 3; ++p) {
      ASSERT_TRUE(spaces[s]->HandleDemandFault(cpu, base[s] + AddrOf(p)).ok());
    }
  }
  AddressSpace& a = *spaces[0];
  AddressSpace& b = *spaces[1];
  const auto cached = [&](Vaddr va) {
    return cpu.tlb().ProbeLeaf(a.root(), va, CpuMode::kSupervisor) != nullptr;
  };

  // A -> B -> A: A's entry survives both switches and hits without a walker read.
  cpu.TrustedWriteCr(3, a.root());
  const auto primed = a.LookupCached(cpu, base[0]);
  ASSERT_TRUE(primed.ok());
  cpu.TrustedWriteCr(3, b.root());
  ASSERT_TRUE(b.LookupCached(cpu, base[1]).ok());
  cpu.TrustedWriteCr(3, a.root());
  const uint64_t reads = PageTableWalkReads();
  const uint64_t hits = Tlb::GlobalStats().hits;
  const auto again = a.LookupCached(cpu, base[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(PageTableWalkReads(), reads) << "the switch back to A must not re-walk";
  EXPECT_EQ(Tlb::GlobalStats().hits, hits + 1);
  EXPECT_EQ(again->pa, primed->pa);

  // While B is loaded, a kernel unmap of A's page is a monitor store. With the
  // store's shootdown off the entry survives: nothing else, the switches included,
  // evicts it. With it on the entry is evicted.
  const Vaddr unmapped = base[0] + AddrOf(1);
  const Vaddr kept = base[0] + AddrOf(2);
  ASSERT_TRUE(a.LookupCached(cpu, unmapped).ok());
  ASSERT_TRUE(a.LookupCached(cpu, kept).ok());
  cpu.TrustedWriteCr(3, b.root());
  Tlb::hooks().store_shootdown = false;
  ASSERT_TRUE(a.UnmapPage(cpu, kept).ok());
  cpu.TrustedWriteCr(3, a.root());
  cpu.TrustedWriteCr(3, b.root());
  EXPECT_TRUE(cached(kept)) << "with the store's shootdown disabled the entry must survive";
  Tlb::hooks().store_shootdown = true;
  ASSERT_TRUE(a.UnmapPage(cpu, unmapped).ok());
  EXPECT_FALSE(cached(unmapped));
  EXPECT_FALSE(a.LookupCached(cpu, unmapped).ok());
  cpu.tlb().FlushRoot(a.root());  // drop the deliberately-staled entry

  // While B is loaded, a revoking EmcWritePte (W strip) on A's page evicts A's
  // entry through the monitor's shootdown alone.
  ASSERT_TRUE(a.LookupCached(cpu, base[0]).ok());
  cpu.TrustedWriteCr(3, b.root());
  ASSERT_TRUE(cached(base[0]));
  const auto leaf = a.Lookup(base[0]);
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(world_->privops()
                  .WritePte(cpu, leaf->leaf_entry_pa, leaf->leaf & ~pte::kWritable)
                  .ok());
  EXPECT_FALSE(cached(base[0]));
  const auto revoked = a.LookupCached(cpu, base[0]);
  ASSERT_TRUE(revoked.ok());
  EXPECT_FALSE(revoked->writable);

  cpu.TrustedWriteCr(3, saved_cr3);
  for (auto& space : spaces) {
    space->ReleaseUserFrames(cpu);
  }
}

// A rewrite of a present intermediate entry changes every translation under it, so
// its by-PA shootdown must drop the leaf entries below it, not only the structure
// paths through it. Two hostile-kernel rewrites of a primed leaf's PDE: a relink to
// another level-0 table through EmcWritePte, and a huge-page write the monitor
// splits. Each happens while another root is loaded, so only the shootdown can
// evict the leaf that the switch back would find.
TEST_F(TlbWorldTest, IntermediateRewritesEvictTheLeavesBelow) {
  const Vaddr va = 0x5A5A5A5A5000;
  auto tree = BuildEmcTree(va);
  ASSERT_TRUE(tree.ok());
  Machine& machine = world_->machine();
  PhysMemory& memory = machine.memory();
  PrivilegedOps& priv = world_->privops();
  FrameAllocator& pool = world_->kernel().pool();
  Cpu& cpu = machine.cpu(0);
  const uint64_t other_root = cpu.cr3();
  WalkPath path;
  ASSERT_TRUE(WalkPageTables(memory, tree->root, va, &path).ok());
  const Paddr pde = path.entry_pa[1];

  // Loads the tree's root on cpu, primes its leaf and switches away.
  const auto prime = [&] {
    cpu.TrustedWriteCr(3, tree->root);
    ASSERT_TRUE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok());
    ASSERT_NE(cpu.tlb().ProbeLeaf(tree->root, va, CpuMode::kSupervisor), nullptr);
    cpu.TrustedWriteCr(3, other_root);
  };
  // Switches back and compares the cached walk with a fresh one.
  const auto expect_coherent = [&](Paddr expected_pa) {
    cpu.TrustedWriteCr(3, tree->root);
    const auto cached = cpu.WalkCached(tree->root, va, CpuMode::kSupervisor);
    const auto fresh = WalkPageTables(memory, tree->root, va);
    cpu.TrustedWriteCr(3, other_root);
    ASSERT_EQ(cached.ok(), fresh.ok()) << "the TLB kept a leaf below a rewritten PDE";
    if (fresh.ok()) {
      EXPECT_EQ(cached->pa, fresh->pa);
      EXPECT_EQ(cached->leaf_entry_pa, fresh->leaf_entry_pa);
      EXPECT_EQ(fresh->pa, expected_pa);
    }
  };

  // Relink: the PDE now points at an empty level-0 table, so the page is gone
  // until a leaf is stored there (a store into a non-present slot).
  prime();
  ASSERT_FALSE(HasFatalFailure());
  const auto table = pool.Alloc();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(priv.RegisterPtp(cpu, *table, tree->root).ok());
  ASSERT_TRUE(priv.WritePte(cpu, pde, pte::Make(*table, pte::kPresent | pte::kWritable))
                  .ok());
  expect_coherent(0);
  ASSERT_FALSE(HasFatalFailure());
  const auto data = pool.Alloc();
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(priv.WritePte(cpu, AddrOf(*table) + PteIndex(va, 0) * 8,
                            pte::Make(*data, pte::kPresent | pte::kWritable |
                                                 pte::kNoExecute))
                  .ok());
  expect_coherent(AddrOf(*data));
  ASSERT_FALSE(HasFatalFailure());

  // Huge-page write over the present PDE: the monitor links a fresh level-0 table
  // mapping the 2 MiB range 4 KiB-wise in place of the relinked one.
  prime();
  ASSERT_FALSE(HasFatalFailure());
  const auto range = pool.AllocContiguous(1024);
  ASSERT_TRUE(range.ok());
  const FrameNum huge = (*range + 511) & ~0x1FFULL;
  const uint64_t splits = world_->monitor()->counters().huge_splits;
  ASSERT_TRUE(priv.WritePte(cpu, pde,
                            pte::Make(huge, pte::kPresent | pte::kWritable |
                                                pte::kNoExecute | pte::kPageSize))
                  .ok());
  ASSERT_EQ(world_->monitor()->counters().huge_splits, splits + 1);
  expect_coherent(AddrOf(huge + PteIndex(va, 0)));
}

TEST_F(TlbWorldTest, RetrofitShootdownHookIsLoadBearing) {
  Cpu& cpu = world_->machine().cpu(0);
  FrameAllocator& pool = world_->kernel().pool();

  // Registering a data frame as a PTP retrofits the PTP protection key onto its
  // direct-map leaf. A TLB entry primed before the retrofit would let the kernel
  // keep writing the new page table through the stale, default-key translation.
  const auto f1 = pool.Alloc();
  ASSERT_TRUE(f1.ok());
  const Vaddr dm1 = layout::DirectMap(AddrOf(*f1));
  const auto before = cpu.WalkCached(cpu.cr3(), dm1, CpuMode::kSupervisor);
  ASSERT_TRUE(before.ok());
  ASSERT_NE(before->pkey, layout::kPtpKey);
  Tlb::hooks().store_shootdown = false;
  ASSERT_TRUE(world_->privops().RegisterPtp(cpu, *f1, AddrOf(*f1)).ok());
  const auto fresh1 = WalkPageTables(world_->machine().memory(), cpu.cr3(), dm1);
  ASSERT_TRUE(fresh1.ok());
  EXPECT_EQ(fresh1->pkey, layout::kPtpKey);
  EXPECT_NE(cpu.WalkCached(cpu.cr3(), dm1, CpuMode::kSupervisor)->pkey,
            layout::kPtpKey)
      << "with the retrofit shootdown disabled the stale default-key translation "
         "must persist";

  // Shipped behaviour: the retrofit invalidates the cached translation.
  Tlb::hooks().store_shootdown = true;
  const auto f2 = pool.Alloc();
  ASSERT_TRUE(f2.ok());
  const Vaddr dm2 = layout::DirectMap(AddrOf(*f2));
  ASSERT_TRUE(cpu.WalkCached(cpu.cr3(), dm2, CpuMode::kSupervisor).ok());
  ASSERT_TRUE(world_->privops().RegisterPtp(cpu, *f2, AddrOf(*f2)).ok());
  EXPECT_EQ(cpu.WalkCached(cpu.cr3(), dm2, CpuMode::kSupervisor)->pkey,
            layout::kPtpKey);
}

TEST_F(TlbWorldTest, FlushOnExitHookIsLoadBearing) {
  MitigationConfig config;
  config.flush_on_exit = true;
  world_->monitor()->SetMitigations(config);

  // Sealed sandbox that keeps taking timer exits.
  SandboxSpec spec;
  spec.name = "spin";
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "spin", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  auto sandbox = world_->LaunchSandboxProcess(
      "spin", spec, [env](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          (void)env->Initialize(ctx);
          return StepOutcome::kYield;
        }
        ctx.Compute(3'000'000);
        ctx.Poll();
        return StepOutcome::kYield;
      });
  ASSERT_TRUE(sandbox.ok());
  world_->kernel().Run(20);
  ASSERT_TRUE(InstallClientData(*world_, **sandbox, ToBytes("x")).ok());

  // Synthetic root, raw tables: nothing but a whole-TLB flush can evict it (CR3
  // writes keep the root-tagged entries).
  const Vaddr va = 0x6A6A6A6000;
  PhysMemory& m = world_->machine().memory();
  const FrameNum base = 40 * 1024;  // above the kernel pool
  const Pte inter = pte::kPresent | pte::kWritable;
  m.Write64(AddrOf(base) + PteIndex(va, 3) * 8, pte::Make(base + 1, inter));
  m.Write64(AddrOf(base + 1) + PteIndex(va, 2) * 8, pte::Make(base + 2, inter));
  m.Write64(AddrOf(base + 2) + PteIndex(va, 1) * 8, pte::Make(base + 3, inter));
  const Paddr leaf_pa = AddrOf(base + 3) + PteIndex(va, 0) * 8;
  m.Write64(leaf_pa, pte::Make(base + 4, inter | pte::kNoExecute));
  const Paddr root = AddrOf(base);

  auto prime_all = [&]() {
    for (int i = 0; i < world_->machine().num_cpus(); ++i) {
      ASSERT_TRUE(
          world_->machine().cpu(i).WalkCached(root, va, CpuMode::kSupervisor).ok());
    }
  };
  auto stale_cpus = [&]() {
    int stale = 0;
    for (int i = 0; i < world_->machine().num_cpus(); ++i) {
      const auto w =
          world_->machine().cpu(i).WalkCached(root, va, CpuMode::kSupervisor);
      if (w.ok() && w->pa == AddrOf(base + 4)) {
        ++stale;
      }
    }
    return stale;
  };

  // Hook disabled: the mitigation charges cycles but must leave the TLB stale.
  prime_all();
  m.Write64(leaf_pa, pte::Make(base + 5, inter | pte::kNoExecute));
  Tlb::hooks().flush_on_exit = false;
  const uint64_t flushes_before = Tlb::GlobalStats().flushes;
  world_->kernel().Run(50);
  ASSERT_GT((*sandbox)->exits.timer_interrupts, 0u);
  ASSERT_GT(world_->monitor()->counters().cache_flushes, 0u);
  EXPECT_EQ(Tlb::GlobalStats().flushes, flushes_before);
  EXPECT_EQ(stale_cpus(), world_->machine().num_cpus())
      << "with flush_on_exit disabled every vCPU must keep the stale translation";

  // Hook enabled: the next sandbox exits really flush the exiting CPU's TLB.
  Tlb::hooks().flush_on_exit = true;
  world_->kernel().Run(50);
  EXPECT_GT(Tlb::GlobalStats().flushes, flushes_before);
  EXPECT_LT(stale_cpus(), world_->machine().num_cpus())
      << "the exit flush must have evicted the stale translation on the exiting CPU";
}

// ---- Layer 2 (continued): monitor reads of ioctl arguments ----

// What one /dev/erebor kInput ioctl did.
struct InputIoctlOutcome {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  uint64_t n = 0;
  Bytes received;
  bool operator==(const InputIoctlOutcome&) const = default;
};

// The monitor reads a kInput request through the calling vCPU's TLB when it
// holds the page. In one slice a sealed sandbox writes its request (which
// primes that TLB entry) and issues the ioctl; the page holding the request then
// moves on the other vCPU, and the sandbox issues the same ioctl again, as the
// LibOS does when it polls. Three cases: a request straddling two resident
// pages; a kernel remap of the page to a new frame (the kernel writer's
// shootdown), whose copy of the request is the one the second ioctl must read;
// and a monitor PTE revocation (the monitor's shootdown), after which the second
// ioctl must fail exactly as a fresh walk does. Returns both outcomes of each case; `primed` reports whether the vCPU's
// TLB held the request page after the write and again just before the move.
std::vector<InputIoctlOutcome> RunMovedRequestCases(bool tlb_enabled, bool* primed) {
  TlbStateGuard guard;
  Tlb::SetEnabled(tlb_enabled);
  WorldConfig config;
  config.mode = SimMode::kEreborFull;
  config.machine.num_cpus = 2;
  World world(config);
  EXPECT_TRUE(world.Boot().ok());

  constexpr Pte kAnonFlags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  const Vaddr dst = kLibosArenaBase + (512 << 10);  // confined: the input lands here
  auto env = std::make_shared<LibosEnv>(
      LibosManifest{.name = "moved", .heap_bytes = 1 << 20}, LibosBackend::kSandboxed);
  Vaddr req_pages = 0;  // three anon pages, faulted in before the seal
  std::function<void(SyscallContext&)> step;
  SandboxSpec spec;
  spec.name = "moved";
  auto sandbox = world.LaunchSandboxProcess(
      "moved", spec,
      [&](SyscallContext& ctx) -> StepOutcome {
        if (!env->initialized()) {
          EXPECT_TRUE(env->Initialize(ctx).ok());
          const auto va = ctx.task().aspace->CreateVma(3 * kPageSize, kAnonFlags,
                                                       VmaKind::kAnon);
          EXPECT_TRUE(va.ok());
          const Bytes zeros(3 * kPageSize);
          EXPECT_TRUE(ctx.WriteUser(*va, zeros.data(), zeros.size()).ok());
          req_pages = *va;
          return StepOutcome::kYield;
        }
        if (step) {
          step(ctx);
          step = nullptr;
        }
        return StepOutcome::kYield;
      });
  EXPECT_TRUE(sandbox.ok());
  EXPECT_TRUE(world.RunUntil([&] { return req_pages != 0; }).ok());
  ClientSession session(world, (*sandbox)->id, /*seed=*/5, &world.machine().cpu(0));
  EXPECT_TRUE(session.Handshake().ok());

  auto request = [](Vaddr to, uint64_t cap) {
    Bytes req(16);
    StoreLe64(req.data(), to);
    StoreLe64(req.data() + 8, cap);
    return req;
  };
  std::vector<InputIoctlOutcome> outcomes;
  auto ioctl = [&](SyscallContext& ctx, Vaddr req_va) {
    InputIoctlOutcome outcome;
    const auto n = ctx.Syscall(sys::kIoctl, env->erebor_fd(), emc_ioctl::kInput, req_va);
    outcome.code = n.status().code();
    outcome.message = std::string(n.status().message());
    if (n.ok()) {
      outcome.n = *n;
      outcome.received.resize(*n);
      EXPECT_TRUE(ctx.ReadUser(dst, outcome.received.data(), *n).ok());
    }
    outcomes.push_back(outcome);
  };
  // Writes `req` at `req_va` and issues the ioctl, runs `move` on the other
  // vCPU, then issues the ioctl again.
  *primed = true;
  auto run_case = [&](Vaddr req_va, const Bytes& req,
                      const std::function<void(Cpu&, AddressSpace&)>& move) {
    step = [&, req_va, req, move](SyscallContext& ctx) {
      AddressSpace& aspace = *ctx.task().aspace;
      auto cached = [&] {
        return ctx.cpu().tlb().ProbeLeaf(aspace.root(), req_va, CpuMode::kUser) != nullptr;
      };
      ASSERT_TRUE(ctx.WriteUser(req_va, req.data(), req.size()).ok());
      *primed &= cached();
      ioctl(ctx, req_va);
      *primed &= cached();
      move(world.machine().cpu(1 - ctx.cpu().index()), aspace);
      ioctl(ctx, req_va);
    };
    EXPECT_TRUE(world.RunUntil([&] { return !step; }).ok());
  };

  // Straddling two resident pages: nothing moves.
  EXPECT_TRUE(session.Send(ToBytes("first input")).ok());
  run_case(req_pages + kPageSize - 8, request(dst, 4096), [](Cpu&, AddressSpace&) {});

  // Kernel remap: the primed page is unmapped (the kernel writer's shootdown) and a
  // new frame holding a different request is mapped at the same VA. The primed
  // copy asks for a zero-byte buffer, so the first ioctl fails with kOutOfRange,
  // and so would the second one if it read the old page.
  EXPECT_TRUE(session.Send(ToBytes("second input")).ok());
  const Vaddr remapped = req_pages + 2 * kPageSize + 0x100;
  run_case(remapped, request(dst, 0), [&](Cpu& cpu, AddressSpace& aspace) {
    const Vaddr page = remapped & ~kPageMask;
    ASSERT_TRUE(aspace.UnmapPage(cpu, page).ok());
    const auto frame = world.kernel().pool().Alloc();
    ASSERT_TRUE(frame.ok());
    const Bytes moved = request(dst, 4096);
    ASSERT_TRUE(world.machine()
                    .memory()
                    .Write(AddrOf(*frame) + (remapped & kPageMask), moved.data(), moved.size())
                    .ok());
    ASSERT_TRUE(aspace.MapFrame(cpu, page, *frame, kAnonFlags).ok());
  });

  // Monitor revocation: the kernel clears the leaf through EmcWritePte outside its
  // writer, so only the monitor's shootdown evicts the primed entry. No input
  // is queued, so the first ioctl reads the request and returns EAGAIN.
  Status fresh_walk;
  const Vaddr revoked = req_pages + kPageSize + 0x200;
  run_case(revoked, request(dst, 4096), [&](Cpu& cpu, AddressSpace& aspace) {
    const auto walk = aspace.Lookup(revoked);
    ASSERT_TRUE(walk.ok());
    ASSERT_TRUE(world.privops().WritePte(cpu, walk->leaf_entry_pa, 0).ok());
    fresh_walk = aspace.Lookup(revoked).status();
  });
  EXPECT_FALSE(fresh_walk.ok());
  if (outcomes.size() == 6) {
    EXPECT_EQ(outcomes[5].code, fresh_walk.code());
    EXPECT_EQ(outcomes[5].message, std::string(fresh_walk.message()));
  }
  return outcomes;
}

TEST(TlbGuestAccessTest, IoctlArgumentsFollowMovedPagesAndMatchTheUncachedWalk) {
  bool primed_on = false;
  bool primed_off = true;
  const std::vector<InputIoctlOutcome> on = RunMovedRequestCases(true, &primed_on);
  const std::vector<InputIoctlOutcome> off = RunMovedRequestCases(false, &primed_off);
  EXPECT_TRUE(primed_on) << "the sandbox's write must leave the request page in its TLB";
  EXPECT_FALSE(primed_off);
  ASSERT_EQ(on.size(), 6u);
  // Straddling, resident: the input, then EAGAIN.
  EXPECT_EQ(on[0].code, ErrorCode::kOk) << on[0].message;
  EXPECT_EQ(on[0].received, ToBytes("first input"));
  EXPECT_EQ(on[1].code, ErrorCode::kUnavailable) << on[1].message;
  // Remapped: the old request's zero-byte buffer, then the new request.
  EXPECT_EQ(on[2].code, ErrorCode::kOutOfRange) << on[2].message;
  EXPECT_EQ(on[3].code, ErrorCode::kOk) << "the remapped request must be read: "
                                        << on[3].message;
  EXPECT_EQ(on[3].received, ToBytes("second input"));
  // Revoked: EAGAIN, then the fresh walk's error (checked in the runner).
  EXPECT_EQ(on[4].code, ErrorCode::kUnavailable) << on[4].message;
  EXPECT_NE(on[5].code, ErrorCode::kOk);
  EXPECT_TRUE(on == off) << "TLB on and off must give identical ioctl results";
}

// ---- Layer 3: cycle-neutrality ----

// Every LMBench microbenchmark, native and full Erebor: identical simulated counts
// with the TLB off and on, while the TLB cuts the walker's table reads at least 5x.
TEST(TlbCycleNeutralityTest, SimulatedCountsAreBitIdenticalOffAndOn) {
  TlbStateGuard guard;
  uint64_t reads_off = 0;
  uint64_t reads_on = 0;
  for (const std::string& name : LmbenchNames()) {
    uint64_t reads = PageTableWalkReads();
    Tlb::SetEnabled(false);
    const auto off_native = RunLmbench(name, SimMode::kNative, 200);
    const auto off_erebor = RunLmbench(name, SimMode::kEreborFull, 200);
    reads_off += PageTableWalkReads() - reads;
    reads = PageTableWalkReads();
    Tlb::SetEnabled(true);
    const auto on_native = RunLmbench(name, SimMode::kNative, 200);
    const auto on_erebor = RunLmbench(name, SimMode::kEreborFull, 200);
    reads_on += PageTableWalkReads() - reads;
    ASSERT_TRUE(off_native.ok() && off_erebor.ok() && on_native.ok() &&
                on_erebor.ok());
    EXPECT_EQ(off_native->operations, on_native->operations) << name;
    EXPECT_EQ(off_native->total_cycles, on_native->total_cycles) << name;
    EXPECT_EQ(off_erebor->operations, on_erebor->operations) << name;
    EXPECT_EQ(off_erebor->total_cycles, on_erebor->total_cycles) << name;
    EXPECT_EQ(off_erebor->emc_count, on_erebor->emc_count) << name;
  }
  EXPECT_GE(reads_off, 5 * reads_on) << "off " << reads_off << " on " << reads_on;
}

// The five paper apps at reduced sizes in full Erebor: the software TLB and the
// page cursors it enables change host time only.
TEST(TlbCycleNeutralityTest, PaperAppsAreBitIdenticalOffAndOn) {
  TlbStateGuard guard;
  for (const char* name : {"llama.cpp", "yolo", "drugbank", "graphchi", "unicorn"}) {
    const auto workload = SmallWorkload(name);
    ASSERT_NE(workload, nullptr) << name;
    RunnerOptions options;
    options.memory_frames = 32 * 1024;
    Tlb::SetEnabled(false);
    const RunReport off = RunWorkload(*workload, SimMode::kEreborFull, options);
    Tlb::SetEnabled(true);
    const RunReport on = RunWorkload(*workload, SimMode::kEreborFull, options);
    ASSERT_TRUE(off.ok) << name << ": " << off.error;
    ASSERT_TRUE(on.ok) << name << ": " << on.error;
    EXPECT_EQ(off.init_cycles, on.init_cycles) << name;
    EXPECT_EQ(off.run_cycles, on.run_cycles) << name;
    EXPECT_EQ(off.emc_total, on.emc_total) << name;
    EXPECT_EQ(off.output, on.output) << name;
  }
}

// A counter struct of uint64_t fields as a word list, so a mismatch prints both.
template <typename T>
std::vector<uint64_t> Words(const T& value) {
  static_assert(sizeof(T) % sizeof(uint64_t) == 0);
  std::vector<uint64_t> words(sizeof(T) / sizeof(uint64_t));
  std::memcpy(words.data(), &value, sizeof(T));
  return words;
}

// The serve shape at a small size: fleet vCPUs switch between tenant sandboxes on
// every request, so much of what the TLB serves are entries kept across CR3
// writes. Off and on must agree on every simulated number.
TEST(TlbCycleNeutralityTest, ServingFleetIsBitIdenticalOffAndOn) {
  TlbStateGuard guard;
  struct Run {
    std::vector<uint64_t> tenant_latency;  // per tenant: count, sum, max (ns)
    std::vector<uint64_t> cpu_cycles;
    std::vector<uint64_t> monitor;
    std::vector<uint64_t> kernel;
    uint64_t fingerprint = 0;
  };
  const auto serve = [](bool tlb) {
    Tlb::SetEnabled(tlb);
    FleetConfig config;
    config.num_vcpus = 4;
    config.num_tenants = 4;
    config.standby_pool = 1;
    config.requests_per_tenant = 1;  // one round per RunServing call
    config.payload_bytes = 256;
    FleetSupervisor fleet(config);
    Run run;
    EXPECT_TRUE(fleet.Start().ok());
    for (int call = 0; call < 6; ++call) {
      EXPECT_TRUE(fleet.RunServing().ok());
    }
    const FleetReport report = fleet.Report();
    EXPECT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.total_served, 24u);
    for (int t = 0; t < config.num_tenants; ++t) {
      const LatencyHistogram& h = *MetricsRegistry::Global().GetLatencyHistogram(
          "serving.latency.tenant" + std::to_string(t), 2'000, 4096);
      run.tenant_latency.insert(run.tenant_latency.end(), {h.count(), h.sum(), h.max()});
    }
    World& world = fleet.world();
    for (int c = 0; c < world.machine().num_cpus(); ++c) {
      run.cpu_cycles.push_back(world.machine().cpu(c).cycles().now());
    }
    run.monitor = Words(world.monitor()->counters());
    run.kernel = Words(world.kernel().stats());
    run.fingerprint = report.fingerprint;
    return run;
  };
  const uint64_t hits = Tlb::GlobalStats().hits;
  const Run off = serve(false);
  EXPECT_EQ(Tlb::GlobalStats().hits, hits);
  const Run on = serve(true);
  EXPECT_GT(Tlb::GlobalStats().hits, hits);
  EXPECT_EQ(off.tenant_latency, on.tenant_latency);
  EXPECT_EQ(off.cpu_cycles, on.cpu_cycles);
  EXPECT_EQ(off.monitor, on.monitor);
  EXPECT_EQ(off.kernel, on.kernel);
  EXPECT_EQ(off.fingerprint, on.fingerprint);
}

// ---- Hit path vs full path: every access check, every counter ----

// One point of the grid: a leaf PTE shape, the CPU state the checks read, and the
// TME-MK binding of the page's frame.
struct AccessCase {
  bool user_page, writable, no_execute, dirty;
  uint8_t pkey;
  CpuMode mode;
  AccessType access;
  bool smep, smap, pks, ac, wp;
  uint64_t pkrs;
  enum class KeyIds { kNone, kMatch, kMismatch, kReadShared } keyids;
  bool in_monitor;
};

struct Outcome {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  Fault fault;
  uint8_t* page = nullptr;  // PagePtr only
};

bool operator==(const Outcome& a, const Outcome& b) {
  return a.code == b.code && a.message == b.message && a.page == b.page &&
         a.fault.vector == b.fault.vector && a.fault.error_code == b.fault.error_code &&
         a.fault.address == b.fault.address && a.fault.reason == b.fault.reason;
}

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{" << ErrorCodeName(o.code) << " '" << o.message << "' vec "
            << static_cast<int>(o.fault.vector) << " err 0x" << std::hex
            << o.fault.error_code << " addr 0x" << o.fault.address << std::dec << " '"
            << o.fault.reason << "'}";
}

std::string Describe(const AccessCase& c) {
  std::ostringstream os;
  os << (c.mode == CpuMode::kUser ? "user " : "sup ") << AccessTypeName(c.access)
     << " page{U=" << c.user_page << " W=" << c.writable << " NX=" << c.no_execute
     << " D=" << c.dirty << " pkey=" << int{c.pkey} << "} smep=" << c.smep
     << " smap=" << c.smap << " pks=" << c.pks << " ac=" << c.ac << " wp=" << c.wp
     << " pkrs=0x" << std::hex << c.pkrs << std::dec
     << " keyids=" << static_cast<int>(c.keyids) << " monitor=" << c.in_monitor;
  return os.str();
}

// Reference model of the architectural checks, written from the SDM rules as a
// flat list of "this rule denies" predicates in priority order — independent of
// Cpu::CheckAccess, so a flipped predicate there shows up as a mismatch here.
// Returns the expected "#PF: ..." reason and the check's error bits, or nothing.
std::optional<std::pair<std::string, uint64_t>> ReferenceDenial(const AccessCase& c,
                                                                uint32_t mapped_keyid,
                                                                uint32_t bound_keyid) {
  const bool user = c.mode == CpuMode::kUser;
  const bool rd = c.access == AccessType::kRead;
  const bool wr = c.access == AccessType::kWrite;
  const bool ex = c.access == AccessType::kExecute;
  const bool shadow_stack = !c.writable && c.dirty && !c.user_page;
  const bool pks_applies = !user && !c.user_page && c.pks && (rd || wr);
  const std::string key = std::to_string(c.pkey);
  const uint64_t p = pf_err::kPresent;
  struct Rule {
    bool denies;
    std::string reason;
    uint64_t bits;
  };
  const Rule rules[] = {
      {user && !c.user_page, "user access to supervisor page", p},
      {user && wr && !c.writable, "user write to read-only page", p},
      {!user && c.user_page && ex && c.smep, "SMEP: supervisor execute of user page", p},
      {!user && c.user_page && !ex && c.smap && !c.ac,
       "SMAP: supervisor access to user page", p},
      {pks_applies && (c.pkrs & pkrs::Ad(c.pkey)) != 0,
       "PKS: access-disabled key " + key, p | pf_err::kProtectionKey},
      {pks_applies && wr && (c.pkrs & pkrs::Wd(c.pkey)) != 0,
       "PKS: write-disabled key " + key, p | pf_err::kProtectionKey},
      {wr && shadow_stack, "write to shadow-stack page", p | pf_err::kShadowStack},
      {!user && wr && !c.writable && c.wp, "CR0.WP: supervisor write to read-only page",
       p},
      {ex && c.no_execute, "execute of NX page", p},
      {c.keyids != AccessCase::KeyIds::kNone && !c.in_monitor &&
           mapped_keyid != bound_keyid &&
           (wr || c.keyids != AccessCase::KeyIds::kReadShared),
       "TME-MK: keyID mismatch (mapping " + std::to_string(mapped_keyid) +
           ", frame bound " + std::to_string(bound_keyid) + ")",
       p | pf_err::kProtectionKey},
  };
  for (const Rule& rule : rules) {
    if (rule.denies) {
      return std::make_pair(rule.reason, rule.bits);
    }
  }
  return std::nullopt;
}

// The inputs of the check grid, each behind its own setter.
enum class Knob { kMode, kCr0, kCr4, kPkrs, kAc, kMonitor, kKeyIdMap, kBind };
constexpr Knob kKnobs[] = {Knob::kMode,    Knob::kCr0,      Knob::kCr4,
                           Knob::kPkrs,    Knob::kAc,       Knob::kMonitor,
                           Knob::kKeyIdMap, Knob::kBind};

// c with one knob at a value that allows more: the other CPU mode, the check
// disabled, or (keyIDs) no map at all and a matching binding.
AccessCase Relaxed(AccessCase c, Knob knob) {
  using KeyIds = AccessCase::KeyIds;
  switch (knob) {
    case Knob::kMode:
      c.mode = c.mode == CpuMode::kUser ? CpuMode::kSupervisor : CpuMode::kUser;
      break;
    case Knob::kCr0:
      c.wp = false;
      break;
    case Knob::kCr4:
      c.smep = c.smap = c.pks = false;
      break;
    case Knob::kPkrs:
      c.pkrs = 0;
      break;
    case Knob::kAc:
      c.ac = true;
      break;
    case Knob::kMonitor:
      c.in_monitor = true;
      break;
    case Knob::kKeyIdMap:
      c.keyids = KeyIds::kNone;
      break;
    case Knob::kBind:
      if (c.keyids != KeyIds::kNone) {
        c.keyids = KeyIds::kMatch;
      }
      break;
  }
  return c;
}

class TlbHitPathTest : public testing::Test {
 protected:
  static constexpr Vaddr kBase = 0x40000000;
  static constexpr FrameNum kFirstData = 600;

  TlbHitPathTest()
      : machine_(MachineConfig{.memory_frames = 1024, .num_cpus = 1}),
        keyids_(machine_.memory().num_frames()),
        cpu_(machine_.cpu(0)),
        ctx_(nullptr, &task_, &cpu_) {
    for (int shape = 0; shape < kShapes; ++shape) {
      const AccessCase c = ShapeCase(shape);
      Pte flags = pte::kPresent | (c.user_page ? pte::kUser : 0) |
                  (c.writable ? pte::kWritable : 0) |
                  (c.no_execute ? pte::kNoExecute : 0) | (c.dirty ? pte::kDirty : 0);
      flags = pte::WithPkey(flags, c.pkey);
      Map(PageVa(shape), kFirstData + shape, flags);
    }
    cpu_.TrustedWriteCr(3, root_);
  }

  // Maps va -> frame in the fixture's tree with raw table writes.
  void Map(Vaddr va, FrameNum frame, Pte flags) {
    const auto write_pte = [this](Paddr pa, Pte value) {
      machine_.memory().Write64(pa, value);
      return OkStatus();
    };
    const auto alloc_ptp = [this]() -> StatusOr<FrameNum> { return next_ptp_++; };
    ASSERT_TRUE(
        MapPage(machine_.memory(), root_, va, frame, flags, PteWriter{write_pte, alloc_ptp})
            .ok());
  }

  static constexpr int kShapes = 32;
  static Vaddr PageVa(int shape) { return kBase + static_cast<Vaddr>(shape) * kPageSize; }
  static AccessCase ShapeCase(int shape) {
    AccessCase c{};
    c.user_page = (shape & 1) != 0;
    c.writable = (shape & 2) != 0;
    c.no_execute = (shape & 4) != 0;
    c.dirty = (shape & 8) != 0;
    c.pkey = (shape & 16) != 0 ? 3 : 0;
    return c;
  }
  // One point of the grid: the shape's page, with bits 0..6 of `bits` selecting
  // user mode, SMEP, SMAP, PKS, AC, CR0.WP and the monitor context.
  static AccessCase GridCase(int shape, int bits, AccessType access, uint64_t pkrs,
                             AccessCase::KeyIds keyids) {
    AccessCase c = ShapeCase(shape);
    c.mode = (bits & 1) != 0 ? CpuMode::kUser : CpuMode::kSupervisor;
    c.smep = (bits & 2) != 0;
    c.smap = (bits & 4) != 0;
    c.pks = (bits & 8) != 0;
    c.ac = (bits & 16) != 0;
    c.wp = (bits & 32) != 0;
    c.in_monitor = (bits & 64) != 0;
    c.access = access;
    c.pkrs = pkrs;
    c.keyids = keyids;
    return c;
  }

  // Moves one knob of the CPU state (or the frame's TME-MK binding) to c's value,
  // through the one setter that owns it. kBind rebinds the frame with no CPU call.
  void ApplyKnob(Knob knob, const AccessCase& c, FrameNum frame, uint32_t mapped_keyid) {
    using KeyIds = AccessCase::KeyIds;
    switch (knob) {
      case Knob::kMode:
        cpu_.SetMode(c.mode);
        return;
      case Knob::kCr0:
        cpu_.TrustedWriteCr(0, c.wp ? cr::kCr0Wp : 0);
        return;
      case Knob::kCr4:
        cpu_.TrustedWriteCr(4, (c.smep ? cr::kCr4Smep : 0) | (c.smap ? cr::kCr4Smap : 0) |
                                   (c.pks ? cr::kCr4Pks : 0));
        return;
      case Knob::kPkrs:
        cpu_.TrustedWriteMsr(msr::kIa32Pkrs, c.pkrs);
        return;
      case Knob::kAc:
        cpu_.TrustedSetAc(c.ac);
        return;
      case Knob::kMonitor:
        cpu_.SetMonitorContext(c.in_monitor);
        return;
      case Knob::kKeyIdMap:
        ApplyKnob(Knob::kBind, c, frame, mapped_keyid);
        cpu_.SetKeyIdMap(c.keyids == KeyIds::kNone ? nullptr : &keyids_);
        return;
      case Knob::kBind:
        switch (c.keyids) {
          case KeyIds::kNone:
            return;
          case KeyIds::kMatch:
            keyids_.Bind(frame, mapped_keyid, false);
            return;
          case KeyIds::kMismatch:
            keyids_.Bind(frame, mapped_keyid ^ 1, false);
            return;
          case KeyIds::kReadShared:
            keyids_.Bind(frame, mapped_keyid ^ 1, true);
            return;
        }
    }
  }

  // Loads the case's CPU state and TME-MK binding. None of these writes flushes
  // the TLB: the hit path must re-check against live state.
  void Apply(const AccessCase& c, FrameNum frame, uint32_t mapped_keyid) {
    for (const Knob knob : kKnobs) {
      ApplyKnob(knob, c, frame, mapped_keyid);
    }
  }

  // The operation under test, through Translate, ReadVirt/WriteVirt, PagePtr or a
  // fresh PageCursor (whose first access is a miss, so it must behave as PagePtr).
  enum class Op { kTranslate, kCopy, kPagePtr, kCursor };
  Outcome Run(Op op, Vaddr va, AccessType access) {
    Outcome out;
    Status status;
    uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    switch (op) {
      case Op::kTranslate:
        status = cpu_.Translate(va, access, &out.fault).status();
        break;
      case Op::kCopy:
        status = access == AccessType::kWrite
                     ? cpu_.WriteVirt(va, buf, sizeof(buf), &out.fault)
                     : cpu_.ReadVirt(va, buf, sizeof(buf), &out.fault);
        break;
      case Op::kPagePtr: {
        auto page = ctx_.PagePtr(va, access == AccessType::kWrite);
        status = page.status();
        out.page = page.ok() ? *page : nullptr;
        break;
      }
      case Op::kCursor: {
        PageCursor pages(ctx_);
        out.page = pages.At(va, access == AccessType::kWrite);
        status = pages.status();
        break;
      }
    }
    out.code = status.code();
    out.message = status.message();
    return out;
  }

  TlbStateGuard guard_;
  Machine machine_;
  KeyIdMap keyids_;
  Cpu& cpu_;
  Task task_;
  SyscallContext ctx_;
  FrameNum next_ptp_ = 100;
  const Paddr root_ = AddrOf(next_ptp_++);
};

TEST_F(TlbHitPathTest, WarmHitsMatchTheFullPathAcrossTheCheckGrid) {
  using KeyIds = AccessCase::KeyIds;
  uint64_t cases = 0;
  uint64_t denials = 0;
  for (int shape = 0; shape < kShapes; ++shape) {
    const Vaddr page_va = PageVa(shape);
    const FrameNum frame = kFirstData + shape;
    const auto leaf = cpu_.WalkCached(cpu_.cr3(), page_va, CpuMode::kSupervisor);
    ASSERT_TRUE(leaf.ok());
    const uint32_t mapped_keyid = pte::KeyId(leaf->leaf);
    for (int bits = 0; bits < (1 << 8); ++bits) {
      for (AccessType access :
           {AccessType::kRead, AccessType::kWrite, AccessType::kExecute}) {
        for (uint64_t pkrs : {uint64_t{0}, pkrs::Ad(3), pkrs::Wd(3), pkrs::Ad(0)}) {
          for (KeyIds keyids :
               {KeyIds::kNone, KeyIds::kMatch, KeyIds::kMismatch, KeyIds::kReadShared}) {
            const AccessCase c = GridCase(shape, bits, access, pkrs, keyids);
            const bool via_copy = (bits & 128) != 0;
            Apply(c, frame, mapped_keyid);
            ++cases;

            // Reference outcome: the full path with the TLB off, checked against
            // the independent model.
            const Vaddr va = page_va + 0x10;
            Tlb::SetEnabled(false);
            const Outcome full = Run(Op::kTranslate, va, access);
            const auto expected = ReferenceDenial(c, mapped_keyid, keyids_.KeyOf(frame));
            if (expected.has_value()) {
              ++denials;
              const uint64_t access_bits =
                  (access == AccessType::kWrite ? pf_err::kWrite : 0) |
                  (access == AccessType::kExecute ? pf_err::kInstruction : 0) |
                  (c.mode == CpuMode::kUser ? pf_err::kUser : 0);
              ASSERT_EQ(full.code, ErrorCode::kPermissionDenied) << Describe(c);
              ASSERT_EQ(full.message, "#PF: " + expected->first) << Describe(c);
              ASSERT_EQ(full.fault.vector, Vector::kPageFault) << Describe(c);
              ASSERT_EQ(full.fault.error_code, expected->second | access_bits)
                  << Describe(c);
              ASSERT_EQ(full.fault.address, va) << Describe(c);
              ASSERT_EQ(full.fault.reason, expected->first) << Describe(c);
            } else {
              ASSERT_EQ(full.code, ErrorCode::kOk) << Describe(c) << " " << full;
            }

            // Each operation that takes the hit path, TLB off vs warm TLB: same
            // outcome, and the warm run counts what a plain Translate would —
            // one hit per translation, no miss. A fresh cursor runs where PagePtr
            // does.
            const Op op = access == AccessType::kExecute ? Op::kTranslate
                          : via_copy                     ? Op::kCopy
                                                         : Op::kPagePtr;
            const Op ops[] = {op, Op::kCursor};
            for (int i = 0; i < (op == Op::kPagePtr ? 2 : 1); ++i) {
              const Op run_op = ops[i];
              Tlb::SetEnabled(false);
              const Outcome off = Run(run_op, va, access);
              Tlb::SetEnabled(true);
              ASSERT_TRUE(cpu_.WalkCached(cpu_.cr3(), va, c.mode).ok());  // warm
              const Tlb::Stats before = Tlb::GlobalStats();
              const Outcome warm = Run(run_op, va, access);
              const Tlb::Stats& after = Tlb::GlobalStats();
              ASSERT_EQ(warm, off) << Describe(c);
              // PagePtr retries a denied access once after the (here unhandled) #PF.
              const uint64_t translations =
                  run_op != Op::kTranslate && run_op != Op::kCopy && expected.has_value()
                      ? 2
                      : 1;
              ASSERT_EQ(after.hits - before.hits, translations) << Describe(c);
              ASSERT_EQ(after.misses - before.misses, 0u) << Describe(c);
              ASSERT_EQ(after.psc_hits - before.psc_hits, 0u) << Describe(c);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, uint64_t{kShapes} * 256 * 3 * 4 * 4);
  EXPECT_GT(denials, 0u);
  EXPECT_LT(denials, cases);
}

// A cursor warmed while one knob allowed more, then that knob alone moves to the
// case's value (a keyID rebinding without any CPU call included): the next access
// through the same cursor must match a fresh PagePtr in outcome and in hit, miss
// and structure-cache counts. Each knob's setter is its only epoch input here, so
// a setter that forgets to advance the epoch fails the knob's revoking cases.
TEST_F(TlbHitPathTest, StaleCursorMatchesPagePtrAfterEachStateChange) {
  using KeyIds = AccessCase::KeyIds;
  uint64_t cases = 0;
  uint64_t revoked[std::size(kKnobs)] = {};
  for (int shape = 0; shape < kShapes; ++shape) {
    const Vaddr va = PageVa(shape) + 0x10;
    const FrameNum frame = kFirstData + shape;
    const auto leaf = cpu_.WalkCached(cpu_.cr3(), va, CpuMode::kSupervisor);
    ASSERT_TRUE(leaf.ok());
    const uint32_t mapped_keyid = pte::KeyId(leaf->leaf);
    ASSERT_TRUE(cpu_.WalkCached(cpu_.cr3(), va, CpuMode::kUser).ok());
    for (int bits = 0; bits < (1 << 7); ++bits) {
      for (AccessType access : {AccessType::kRead, AccessType::kWrite}) {
        const bool write = access == AccessType::kWrite;
        for (uint64_t pkrs : {uint64_t{0}, pkrs::Ad(3), pkrs::Wd(3), pkrs::Ad(0)}) {
          for (KeyIds keyids :
               {KeyIds::kNone, KeyIds::kMatch, KeyIds::kMismatch, KeyIds::kReadShared}) {
            const AccessCase c = GridCase(shape, bits, access, pkrs, keyids);
            for (size_t k = 0; k < std::size(kKnobs); ++k) {
              Apply(Relaxed(c, kKnobs[k]), frame, mapped_keyid);
              Outcome stale;
              Tlb::Stats before;
              {
                PageCursor pages(ctx_);
                if (pages.At(va, write) == nullptr) {
                  continue;  // nothing cached, so nothing can go stale
                }
                ApplyKnob(kKnobs[k], c, frame, mapped_keyid);
                before = Tlb::GlobalStats();
                stale.page = pages.At(va, write);
                stale.code = pages.status().code();
                stale.message = pages.status().message();
              }
              const Tlb::Stats mid = Tlb::GlobalStats();
              const Outcome fresh = Run(Op::kPagePtr, va, access);
              const Tlb::Stats& after = Tlb::GlobalStats();
              ++cases;
              ASSERT_EQ(stale, fresh) << Describe(c) << " knob " << k;
              ASSERT_EQ(mid.hits - before.hits, after.hits - mid.hits)
                  << Describe(c) << " knob " << k;
              ASSERT_EQ(mid.misses - before.misses, after.misses - mid.misses);
              ASSERT_EQ(mid.psc_hits - before.psc_hits, after.psc_hits - mid.psc_hits);
              revoked[k] += fresh.code != ErrorCode::kOk;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 0u);
  for (size_t k = 0; k < std::size(kKnobs); ++k) {
    EXPECT_GT(revoked[k], 0u) << "knob " << k << " never revoked a cached access";
  }
}

// Every change to what the TLB's leaf probe returns — a fill that evicts the
// cursor's page and each invalidation primitive — makes the next cursor access
// re-walk exactly as PagePtr would: no hit, one walk. A CR3 switch leaves the
// root-tagged TLB intact; the cursor must still follow the new root and fail as
// PagePtr does.
TEST_F(TlbHitPathTest, TlbChangesForceTheCursorToRewalk) {
  constexpr Vaddr kAliasBase = 0x80000000;
  AccessCase c = ShapeCase(2);  // supervisor read/write page
  c.mode = CpuMode::kSupervisor;
  Apply(c, kFirstData + 2, 0);
  const Vaddr va = PageVa(2) + 0x10;
  const auto leaf = cpu_.WalkCached(cpu_.cr3(), va, CpuMode::kSupervisor);
  ASSERT_TRUE(leaf.ok());

  // An alias page whose fill lands in va's leaf slot. The slot hash is fixed, so
  // the search finds the same page on every run.
  Vaddr evictor = 0;
  for (int i = 0; i < 4096 && evictor == 0; ++i) {
    const Vaddr alias = kAliasBase + static_cast<Vaddr>(i) * kPageSize;
    Map(alias, kFirstData + kShapes, pte::kPresent | pte::kWritable);
    ASSERT_TRUE(cpu_.WalkCached(cpu_.cr3(), va, CpuMode::kSupervisor).ok());
    ASSERT_TRUE(cpu_.WalkCached(cpu_.cr3(), alias, CpuMode::kSupervisor).ok());
    if (cpu_.tlb().ProbeLeaf(cpu_.cr3(), va, CpuMode::kSupervisor) == nullptr) {
      evictor = alias;
    }
  }
  ASSERT_NE(evictor, 0u);

  const std::pair<const char*, std::function<void()>> changes[] = {
      {"evicting fill",
       [&] { ASSERT_TRUE(cpu_.WalkCached(cpu_.cr3(), evictor, CpuMode::kSupervisor).ok()); }},
      {"FlushAll", [&] { cpu_.tlb().FlushAll(); }},
      {"FlushRoot", [&] { cpu_.tlb().FlushRoot(cpu_.cr3()); }},
      {"ShootdownEntry", [&] { cpu_.tlb().ShootdownEntry(leaf->leaf_entry_pa); }},
  };
  for (const auto& [name, change] : changes) {
    ASSERT_TRUE(cpu_.WalkCached(cpu_.cr3(), va, CpuMode::kSupervisor).ok());
    uint8_t* first = nullptr;
    uint8_t* second = nullptr;
    Tlb::Stats before;
    {
      PageCursor pages(ctx_);
      first = pages.At(va, true);
      change();
      before = Tlb::GlobalStats();
      second = pages.At(va, true);
    }
    const Tlb::Stats& after = Tlb::GlobalStats();
    ASSERT_NE(first, nullptr) << name;
    EXPECT_EQ(second, first) << name;
    EXPECT_EQ(after.hits - before.hits, 0u) << name;
    EXPECT_EQ(after.misses + after.psc_hits - before.misses - before.psc_hits, 1u) << name;
  }

  const Paddr empty_root = AddrOf(next_ptp_++);  // never written: maps nothing
  {
    PageCursor pages(ctx_);
    ASSERT_NE(pages.At(va, true), nullptr);
    cpu_.TrustedWriteCr(3, empty_root);
    EXPECT_EQ(pages.At(va, true), nullptr);
    EXPECT_EQ(pages.status(), ctx_.PagePtr(va, true).status());
  }
  cpu_.TrustedWriteCr(3, root_);
}

// A swap to another KeyIdMap with the same generation: only the CPU's epoch step
// across the swap tells the cursor that the binding it checked is gone.
TEST_F(TlbHitPathTest, KeyIdMapSwapRechecksCachedPages) {
  AccessCase c = ShapeCase(2);
  c.mode = CpuMode::kSupervisor;
  Apply(c, kFirstData + 2, 0);
  const Vaddr va = PageVa(2);
  const auto leaf = cpu_.WalkCached(cpu_.cr3(), va, CpuMode::kSupervisor);
  ASSERT_TRUE(leaf.ok());
  const uint32_t mapped_keyid = pte::KeyId(leaf->leaf);
  KeyIdMap other(machine_.memory().num_frames());
  keyids_.Bind(kFirstData + 2, mapped_keyid, false);
  other.Bind(kFirstData + 2, mapped_keyid ^ 1, false);
  ASSERT_EQ(keyids_.generation(), other.generation());
  cpu_.SetKeyIdMap(&keyids_);
  PageCursor pages(ctx_);
  ASSERT_NE(pages.At(va, false), nullptr);
  cpu_.SetKeyIdMap(&other);
  EXPECT_EQ(pages.At(va, false), nullptr);
  EXPECT_EQ(pages.status(), ctx_.PagePtr(va, false).status());
  cpu_.SetKeyIdMap(nullptr);
}

// With the TLB off the cursor caches nothing: every access walks the tables, as
// PagePtr does, and none counts a hit.
TEST_F(TlbHitPathTest, CursorCachesNothingWithTheTlbOff) {
  Tlb::SetEnabled(false);
  AccessCase c = ShapeCase(2);
  c.mode = CpuMode::kSupervisor;
  Apply(c, kFirstData + 2, 0);
  const Vaddr va = PageVa(2);
  uint64_t reads = PageTableWalkReads();
  ASSERT_TRUE(ctx_.PagePtr(va, true).ok());
  const uint64_t reads_per_walk = PageTableWalkReads() - reads;
  ASSERT_GT(reads_per_walk, 0u);
  const uint64_t hits = Tlb::GlobalStats().hits;
  reads = PageTableWalkReads();
  {
    PageCursor pages(ctx_);
    for (int i = 0; i < 4; ++i) {
      ASSERT_NE(pages.At(va + 8 * i, i % 2 == 0), nullptr);
    }
  }
  EXPECT_EQ(PageTableWalkReads() - reads, 4 * reads_per_walk);
  EXPECT_EQ(Tlb::GlobalStats().hits, hits);
}

}  // namespace
}  // namespace erebor
