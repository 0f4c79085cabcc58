// The gated EMC round trip and the PTE-writer paths built on it must not touch the
// heap in steady state: a CVM boot is ~50k of them, so one allocation each is a
// measurable share of every World build. This binary replaces the global
// operator new with a counting one and asserts a zero count over repeated
// warm operations, with tracing off and the fault injector disarmed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/faultpoint.h"
#include "src/common/trace.h"
#include "src/sim/world.h"

namespace {
std::atomic<uint64_t> g_heap_allocations{0};

// Kept out of line so GCC does not pair this free() with an inlined call to the
// replaced operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }

namespace erebor {
namespace {

constexpr int kWarmup = 4;
constexpr int kIterations = 64;

// Heap allocations made by `op` over kIterations calls, after kWarmup calls
// that let lazily grown containers reach their steady-state capacity.
template <typename Op>
uint64_t SteadyStateAllocations(Op op) {
  for (int i = 0; i < kWarmup; ++i) {
    op();
  }
  const uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kIterations; ++i) {
    op();
  }
  return g_heap_allocations.load(std::memory_order_relaxed) - before;
}

class AllocFreeTest : public testing::Test {
 protected:
  void SetUp() override {
    WorldConfig config;
    config.mode = SimMode::kEreborFull;
    config.machine.num_cpus = 2;
    world_ = std::make_unique<World>(config);
    ASSERT_TRUE(world_->Boot().ok());
    Tracer::Global().Disable();
    ASSERT_FALSE(FaultInjector::Armed());
    const auto frame = world_->kernel().pool().Alloc();
    ASSERT_TRUE(frame.ok());
    frame_ = *frame;
  }

  Cpu& cpu() { return world_->machine().cpu(0); }

  std::unique_ptr<World> world_;
  FrameNum frame_ = 0;
};

TEST_F(AllocFreeTest, GatedWritePteAllocatesNothing) {
  // Rewrite the test frame's direct-map leaf: cleared, then restored, so every
  // other store also takes the post-write TLB shootdown.
  const auto walk =
      world_->kernel().kernel_aspace().Lookup(layout::DirectMap(AddrOf(frame_)));
  ASSERT_TRUE(walk.ok());
  const Paddr slot = walk->leaf_entry_pa;
  const Pte leaf = walk->leaf;
  const uint64_t emcs_before = world_->monitor()->counters().emc_total;
  bool ok = true;
  const uint64_t allocations = SteadyStateAllocations([&] {
    ok &= world_->privops().WritePte(cpu(), slot, 0).ok();
    ok &= world_->privops().WritePte(cpu(), slot, leaf).ok();
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(world_->monitor()->counters().emc_total - emcs_before,
            2u * (kWarmup + kIterations));
  EXPECT_EQ(allocations, 0u);
}

TEST_F(AllocFreeTest, MapFrameIntoExistingLeafTableAllocatesNothing) {
  AddressSpace& aspace = world_->kernel().kernel_aspace();
  const Vaddr va = layout::DirectMap(AddrOf(frame_));
  const Pte flags = pte::kPresent | pte::kWritable | pte::kNoExecute;
  bool ok = true;
  const uint64_t allocations = SteadyStateAllocations([&] {
    ok &= aspace.UnmapPage(cpu(), va).ok();
    ok &= aspace.MapFrame(cpu(), va, frame_, flags).ok();
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
  const auto walk = aspace.Lookup(va);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(pte::Frame(walk->leaf), frame_);
}

TEST_F(AllocFreeTest, WalkOfUnmappedPageInBuiltRegionAllocatesNothing) {
  // A demand-fault probe: the page's leaf table exists, its slot is empty. The
  // cached walk takes the structure-cache leaf read after its first call; the
  // plain walk reaches the empty slot the long way.
  AddressSpace& aspace = world_->kernel().kernel_aspace();
  const Vaddr va = layout::DirectMap(AddrOf(frame_));
  ASSERT_TRUE(aspace.UnmapPage(cpu(), va).ok());
  bool failed = true;
  const uint64_t allocations = SteadyStateAllocations([&] {
    failed &= !aspace.LookupCached(cpu(), va).ok();
    failed &= !aspace.Lookup(va).ok();
  });
  EXPECT_TRUE(failed);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(AllocFreeTest, TrustedSandboxMapPageAllocatesNothing) {
  SandboxSpec spec;
  spec.name = "alloc-free";
  Task* task = nullptr;
  const auto sandbox = world_->LaunchSandboxProcess(
      "sb", spec, [](SyscallContext&) { return StepOutcome::kExited; }, &task);
  ASSERT_TRUE(sandbox.ok()) << sandbox.status().ToString();
  AddressSpace& aspace = *(*sandbox)->aspace;
  PhysMemory& memory = world_->machine().memory();
  const Vaddr va = 0x7000'0000'0000ULL;
  const Pte flags = pte::kPresent | pte::kUser | pte::kNoExecute;
  bool ok = true;
  const uint64_t allocations = SteadyStateAllocations([&] {
    // One writer per mapping call, as the sandbox manager's own paths build it.
    const SandboxManager::TrustedWriter trusted(&world_->monitor()->sandboxes(), cpu(),
                                                aspace);
    ok &= MapPage(memory, aspace.root(), va, frame_, flags, trusted.writer()).ok();
    ok &= UnmapPage(memory, aspace.root(), va, trusted.writer()).ok();
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace erebor
