// Software-TLB test suite.
//
// Three layers:
//   1. Machine-level coherence: a cached translation must always agree with a fresh
//      page-table walk under randomized map/unmap/protect/CR3-switch/revoke traffic
//      across two vCPUs (the TLB is an optimization, never an oracle).
//   2. Stale-TLB security regressions: each invalidation hook (Tlb::hooks()) is
//      disabled in turn, the mutation it guards is replayed, and the test asserts the
//      TLB really does go stale — proving the shipped hook is load-bearing, not
//      decorative. The same scenario then passes with the hook enabled.
//   3. Cycle-neutrality: simulated operation/cycle counts are bit-identical with the
//      TLB off and on (EREBOR_TLB only changes host time, never the cost model).
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>

#include "src/common/metrics.h"
#include "src/hw/tlb.h"
#include "src/kernel/addrspace.h"
#include "src/kernel/kernel.h"
#include "src/kernel/layout.h"
#include "src/libos/libos.h"
#include "src/sim/world.h"
#include "tests/client_data.h"
#include "src/workloads/lmbench.h"

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
  NativePrivOps ops_;
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

TEST_F(TlbMachineTest, CoherencePropertyUnderRandomMmuTraffic) {
  auto a = Create();
  auto b = Create();
  ASSERT_TRUE(a.ok() && b.ok());
  AddressSpace* spaces[2] = {a->get(), b->get()};
  constexpr int kPages = 24;
  const Pte flags =
      pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  Vaddr base[2];
  for (int s = 0; s < 2; ++s) {
    const auto va = spaces[s]->CreateVma(kPages * kPageSize, flags, VmaKind::kAnon);
    ASSERT_TRUE(va.ok());
    base[s] = *va;
  }

  std::mt19937_64 rng(42);
  for (int step = 0; step < 400; ++step) {
    const int s = rng() & 1;
    AddressSpace& space = *spaces[s];
    Cpu& cpu = machine_.cpu(rng() & 1);
    const Vaddr va = base[s] + (rng() % kPages) * kPageSize;
    switch (rng() % 5) {
      case 0:
        (void)space.HandleDemandFault(cpu, va);
        break;
      case 1:
        (void)space.UnmapPage(cpu, va);
        break;
      case 2:
        (void)space.ProtectPage(cpu, va, pte::kPresent | pte::kUser | pte::kNoExecute);
        break;
      case 3:
        ASSERT_TRUE(cpu.WriteCr3(space.root()).ok());
        break;
      case 4: {
        // Monitor-style revocation: rewrite the leaf in place (permission narrowing
        // the kernel never invlpg'd) and rely on the shootdown broadcast alone.
        const auto walk = space.Lookup(va);
        if (walk.ok()) {
          machine_.memory().Write64(walk->leaf_entry_pa,
                                    pte::WithPkey(walk->leaf, layout::kPtpKey));
          machine_.ShootdownTlbLeaf(walk->leaf_entry_pa, cpu.index());
        }
        break;
      }
    }
    // Every op is followed by coherence probes on both vCPUs.
    for (int probe = 0; probe < 3; ++probe) {
      const int ps = rng() & 1;
      const Vaddr pva = base[ps] + (rng() % kPages) * kPageSize;
      ExpectCoherent(*spaces[ps], machine_.cpu(rng() & 1), pva);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---- Layer 2: each invalidation hook is load-bearing ----

TEST_F(TlbMachineTest, Cr3FlushHookIsLoadBearing) {
  const Vaddr va = 0x123456789000;
  const Paddr root_a = BuildTree(7000, va, 7004);
  const Paddr root_b = BuildTree(7010, va, 7014);
  Cpu& cpu = machine_.cpu(0);
  ASSERT_TRUE(cpu.WriteCr3(root_a).ok());

  // Prime, then redirect the leaf with a raw store (hardware-invisible): only the
  // CR3-write flush can bring the TLB back in sync.
  ASSERT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7004));
  machine_.memory().Write64(
      LeafPa(7000, va),
      pte::Make(7005, pte::kPresent | pte::kWritable | pte::kNoExecute));
  ASSERT_TRUE(cpu.WriteCr3(root_b).ok());
  ASSERT_TRUE(cpu.WriteCr3(root_a).ok());
  EXPECT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7005))
      << "context switch must flush the TLB";

  // Same scenario with the hook disabled: the stale frame survives the switches.
  Tlb::hooks().cr3_flush = false;
  ASSERT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7005));
  machine_.memory().Write64(
      LeafPa(7000, va),
      pte::Make(7006, pte::kPresent | pte::kWritable | pte::kNoExecute));
  ASSERT_TRUE(cpu.WriteCr3(root_b).ok());
  ASSERT_TRUE(cpu.WriteCr3(root_a).ok());
  EXPECT_EQ(cpu.WalkCached(root_a, va, CpuMode::kSupervisor)->pa, AddrOf(7005))
      << "with cr3_flush disabled the stale translation must persist "
         "(otherwise the hook is not what provides coherence)";
}

TEST_F(TlbMachineTest, InvlpgHookIsLoadBearing) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const Pte flags = pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute;
  const auto va = (*space)->CreateVma(4 * kPageSize, flags, VmaKind::kAnon);
  ASSERT_TRUE(va.ok());
  Cpu& cpu0 = machine_.cpu(0);
  Cpu& cpu1 = machine_.cpu(1);

  // A buggy/hostile kernel path that skips invlpg: unmap with the hook disabled.
  ASSERT_TRUE((*space)->HandleDemandFault(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu1, *va).ok());
  Tlb::hooks().invlpg = false;
  ASSERT_TRUE((*space)->UnmapPage(cpu0, *va).ok());
  ASSERT_FALSE((*space)->Lookup(*va).ok());
  EXPECT_TRUE((*space)->LookupCached(cpu0, *va).ok())
      << "without invlpg the unmapped translation must stay cached";
  EXPECT_TRUE((*space)->LookupCached(cpu1, *va).ok());

  // Shipped behaviour: the unmap broadcast invalidates every vCPU.
  Tlb::hooks().invlpg = true;
  machine_.FlushAllTlbs();  // drop the deliberately-staled entries
  ASSERT_TRUE((*space)->HandleDemandFault(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu0, *va).ok());
  ASSERT_TRUE((*space)->LookupCached(cpu1, *va).ok());
  ASSERT_TRUE((*space)->UnmapPage(cpu0, *va).ok());
  EXPECT_FALSE((*space)->LookupCached(cpu0, *va).ok());
  EXPECT_FALSE((*space)->LookupCached(cpu1, *va).ok())
      << "invlpg must broadcast to all vCPUs";
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

  // Malicious-kernel scenario: revoke a mapping straight through EmcWritePte,
  // skipping the kernel's own invlpg. Only the monitor's shootdown protects the TLB.
  ASSERT_EQ(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor)->pa,
            AddrOf(tree->data));
  Tlb::hooks().pte_shootdown = false;
  ASSERT_TRUE(world_->privops().WritePte(cpu, tree->leaf_pa, 0).ok());
  ASSERT_FALSE(WalkPageTables(world_->machine().memory(), tree->root, va).ok());
  EXPECT_TRUE(cpu.WalkCached(tree->root, va, CpuMode::kSupervisor).ok())
      << "with the monitor shootdown disabled the revoked translation must stay "
         "cached — the hook is load-bearing";

  // Shipped behaviour: remap, re-prime, revoke again — now the walk must fail.
  Tlb::hooks().pte_shootdown = true;
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
  Tlb::hooks().retrofit_shootdown = false;
  ASSERT_TRUE(world_->privops().RegisterPtp(cpu, *f1, AddrOf(*f1)).ok());
  const auto fresh1 = WalkPageTables(world_->machine().memory(), cpu.cr3(), dm1);
  ASSERT_TRUE(fresh1.ok());
  EXPECT_EQ(fresh1->pkey, layout::kPtpKey);
  EXPECT_NE(cpu.WalkCached(cpu.cr3(), dm1, CpuMode::kSupervisor)->pkey,
            layout::kPtpKey)
      << "with the retrofit shootdown disabled the stale default-key translation "
         "must persist";

  // Shipped behaviour: the retrofit invalidates the cached translation.
  Tlb::hooks().retrofit_shootdown = true;
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

  // Synthetic root, raw tables: nothing but a whole-TLB flush can evict it. CR3
  // flushes would also do that, so disable them to isolate the exit flush.
  Tlb::hooks().cr3_flush = false;
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

// ---- Layer 3: cycle-neutrality ----

TEST(TlbCycleNeutralityTest, SimulatedCountsAreBitIdenticalOffAndOn) {
  TlbStateGuard guard;
  for (const char* name : {"stat", "pagefault"}) {
    Tlb::SetEnabled(false);
    const auto off_native = RunLmbench(name, SimMode::kNative, 200);
    const auto off_erebor = RunLmbench(name, SimMode::kEreborFull, 200);
    Tlb::SetEnabled(true);
    const auto on_native = RunLmbench(name, SimMode::kNative, 200);
    const auto on_erebor = RunLmbench(name, SimMode::kEreborFull, 200);
    ASSERT_TRUE(off_native.ok() && off_erebor.ok() && on_native.ok() &&
                on_erebor.ok());
    EXPECT_EQ(off_native->operations, on_native->operations) << name;
    EXPECT_EQ(off_native->total_cycles, on_native->total_cycles) << name;
    EXPECT_EQ(off_erebor->operations, on_erebor->operations) << name;
    EXPECT_EQ(off_erebor->total_cycles, on_erebor->total_cycles) << name;
    EXPECT_EQ(off_erebor->emc_count, on_erebor->emc_count) << name;
  }
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

class TlbHitPathTest : public testing::Test {
 protected:
  static constexpr Vaddr kBase = 0x40000000;
  static constexpr FrameNum kFirstData = 600;

  TlbHitPathTest()
      : machine_(MachineConfig{.memory_frames = 1024, .num_cpus = 1}),
        keyids_(machine_.memory().num_frames()),
        cpu_(machine_.cpu(0)),
        ctx_(nullptr, &task_, &cpu_) {
    FrameNum next_ptp = 100;
    const auto write_pte = [this](Paddr pa, Pte value) {
      machine_.memory().Write64(pa, value);
      return OkStatus();
    };
    const auto alloc_ptp = [&next_ptp]() -> StatusOr<FrameNum> { return next_ptp++; };
    const PteWriter writer{write_pte, alloc_ptp};
    const Paddr root = AddrOf(next_ptp++);
    for (int shape = 0; shape < kShapes; ++shape) {
      const AccessCase c = ShapeCase(shape);
      Pte flags = pte::kPresent | (c.user_page ? pte::kUser : 0) |
                  (c.writable ? pte::kWritable : 0) |
                  (c.no_execute ? pte::kNoExecute : 0) | (c.dirty ? pte::kDirty : 0);
      flags = pte::WithPkey(flags, c.pkey);
      EXPECT_TRUE(MapPage(machine_.memory(), root, PageVa(shape), kFirstData + shape,
                          flags, writer)
                      .ok());
    }
    cpu_.TrustedWriteCr(3, root);
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

  // Loads the case's CPU state and TME-MK binding. None of these writes flushes
  // the TLB: the hit path must re-check against live state.
  void Apply(const AccessCase& c, FrameNum frame, uint32_t mapped_keyid) {
    cpu_.SetMode(c.mode);
    cpu_.TrustedWriteCr(4, (c.smep ? cr::kCr4Smep : 0) | (c.smap ? cr::kCr4Smap : 0) |
                               (c.pks ? cr::kCr4Pks : 0));
    cpu_.TrustedWriteCr(0, c.wp ? cr::kCr0Wp : 0);
    cpu_.TrustedSetAc(c.ac);
    cpu_.TrustedWriteMsr(msr::kIa32Pkrs, c.pkrs);
    cpu_.SetMonitorContext(c.in_monitor);
    switch (c.keyids) {
      case AccessCase::KeyIds::kNone:
        cpu_.SetKeyIdMap(nullptr);
        return;
      case AccessCase::KeyIds::kMatch:
        keyids_.Bind(frame, mapped_keyid, false);
        break;
      case AccessCase::KeyIds::kMismatch:
        keyids_.Bind(frame, mapped_keyid ^ 1, false);
        break;
      case AccessCase::KeyIds::kReadShared:
        keyids_.Bind(frame, mapped_keyid ^ 1, true);
        break;
    }
    cpu_.SetKeyIdMap(&keyids_);
  }

  // The operation under test, through Translate, ReadVirt/WriteVirt or PagePtr.
  enum class Op { kTranslate, kCopy, kPagePtr };
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
            AccessCase c = ShapeCase(shape);
            c.mode = (bits & 1) != 0 ? CpuMode::kUser : CpuMode::kSupervisor;
            c.smep = (bits & 2) != 0;
            c.smap = (bits & 4) != 0;
            c.pks = (bits & 8) != 0;
            c.ac = (bits & 16) != 0;
            c.wp = (bits & 32) != 0;
            c.in_monitor = (bits & 64) != 0;
            const bool via_copy = (bits & 128) != 0;
            c.access = access;
            c.pkrs = pkrs;
            c.keyids = keyids;
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
            // one hit per translation, no miss.
            const Op op = access == AccessType::kExecute ? Op::kTranslate
                          : via_copy                     ? Op::kCopy
                                                         : Op::kPagePtr;
            const Outcome off = Run(op, va, access);
            Tlb::SetEnabled(true);
            ASSERT_TRUE(cpu_.WalkCached(cpu_.cr3(), va, c.mode).ok());  // warm
            const Tlb::Stats before = Tlb::GlobalStats();
            const Outcome warm = Run(op, va, access);
            const Tlb::Stats& after = Tlb::GlobalStats();
            ASSERT_EQ(warm, off) << Describe(c);
            // PagePtr retries a denied access once after the (here unhandled) #PF.
            const uint64_t translations =
                op == Op::kPagePtr && expected.has_value() ? 2 : 1;
            ASSERT_EQ(after.hits - before.hits, translations) << Describe(c);
            ASSERT_EQ(after.misses - before.misses, 0u) << Describe(c);
            ASSERT_EQ(after.psc_hits - before.psc_hits, 0u) << Describe(c);
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, uint64_t{kShapes} * 256 * 3 * 4 * 4);
  EXPECT_GT(denials, 0u);
  EXPECT_LT(denials, cases);
}

// ---- PteRevokesPermissions classification ----

TEST(PteRevokesPermissionsTest, ClassifiesTransitions) {
  const Pte rw = pte::Make(100, pte::kPresent | pte::kWritable);
  EXPECT_FALSE(PteRevokesPermissions(0, rw));              // fresh map
  EXPECT_FALSE(PteRevokesPermissions(rw, rw));             // no change
  EXPECT_TRUE(PteRevokesPermissions(rw, 0));               // unmap
  EXPECT_TRUE(PteRevokesPermissions(rw, rw & ~pte::kWritable));
  EXPECT_TRUE(PteRevokesPermissions(rw, pte::Make(101, pte::kPresent | pte::kWritable)));
  EXPECT_TRUE(PteRevokesPermissions(rw, rw | pte::kUser));
  EXPECT_TRUE(PteRevokesPermissions(rw, rw | pte::kNoExecute));
  EXPECT_TRUE(PteRevokesPermissions(rw, pte::WithPkey(rw, layout::kPtpKey)));
  EXPECT_FALSE(PteRevokesPermissions(rw, rw | pte::kAccessed));  // grant/no-op bits
}

}  // namespace
}  // namespace erebor
