#include <gtest/gtest.h>

#include "src/kernel/addrspace.h"
#include "src/tdx/tdx_module.h"

namespace erebor {
namespace {

class AddrSpaceTest : public testing::Test {
 protected:
  AddrSpaceTest()
      : machine_(MachineConfig{.memory_frames = 8192, .num_cpus = 1}),
        pool_(2048, 4096) {
    cpu_ = &machine_.cpu(0);
  }

  StatusOr<std::unique_ptr<AddressSpace>> Create(const AddressSpace* tmpl = nullptr) {
    return AddressSpace::Create(*cpu_, &machine_, &ops_, &pool_, tmpl);
  }

  Machine machine_;
  NativePrivOps ops_{&machine_};
  FrameAllocator pool_;
  Cpu* cpu_;
};

TEST_F(AddrSpaceTest, CreateVmaAssignsNonOverlappingRanges) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const auto a = (*space)->CreateVma(10 * kPageSize, pte::kPresent | pte::kUser,
                                     VmaKind::kAnon);
  const auto b = (*space)->CreateVma(10 * kPageSize, pte::kPresent | pte::kUser,
                                     VmaKind::kAnon);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(*b, *a + 10 * kPageSize);
}

TEST_F(AddrSpaceTest, FixedVmaOverlapRejected) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  ASSERT_TRUE((*space)
                  ->CreateVma(4 * kPageSize, pte::kPresent | pte::kUser, VmaKind::kAnon,
                              0x10000000)
                  .ok());
  EXPECT_EQ((*space)
                ->CreateVma(4 * kPageSize, pte::kPresent | pte::kUser, VmaKind::kAnon,
                            0x10002000)
                .status()
                .code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(AddrSpaceTest, DemandFaultPopulatesAnonPage) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const auto va = (*space)->CreateVma(
      4 * kPageSize, pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute,
      VmaKind::kAnon);
  ASSERT_TRUE(va.ok());
  EXPECT_FALSE((*space)->Lookup(*va).ok());
  const auto writes = (*space)->HandleDemandFault(*cpu_, *va + 5);
  ASSERT_TRUE(writes.ok());
  EXPECT_GE(*writes, 1);
  const auto walk = (*space)->Lookup(*va);
  ASSERT_TRUE(walk.ok());
  EXPECT_TRUE(walk->user_accessible);
  EXPECT_TRUE(walk->writable);
  // The fresh page reads as zero and gets host backing only on its first write.
  PhysMemory& memory = machine_.memory();
  EXPECT_EQ(memory.FramePtrIfPresent(FrameOf(walk->pa)), nullptr);
  EXPECT_EQ(memory.Read64(walk->pa), 0u);
  memory.Write64(walk->pa, 42);
  EXPECT_NE(memory.FramePtrIfPresent(FrameOf(walk->pa)), nullptr);
}

TEST_F(AddrSpaceTest, DemandFaultOutsideVmaIsSegfault) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  EXPECT_EQ((*space)->HandleDemandFault(*cpu_, 0xDEAD0000).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(AddrSpaceTest, CommonVmaMapsSharedBackingFrames) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const auto va = (*space)->CreateVma(2 * kPageSize, pte::kPresent | pte::kUser,
                                      VmaKind::kCommon, 0x20000000);
  ASSERT_TRUE(va.ok());
  Vma* vma = (*space)->FindVma(*va);
  ASSERT_NE(vma, nullptr);
  vma->backing = {3000, 3001};
  ASSERT_TRUE((*space)->HandleDemandFault(*cpu_, *va + kPageSize).ok());
  const auto walk = (*space)->Lookup(*va + kPageSize);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(FrameOf(walk->pa), 3001u);
}

TEST_F(AddrSpaceTest, KernelTemplateSharesTopHalf) {
  auto kernel_space = Create();
  ASSERT_TRUE(kernel_space.ok());
  // Map something in the kernel half.
  ASSERT_TRUE((*kernel_space)
                  ->MapFrame(*cpu_, 0xFFFF888000000000ULL, 3100,
                             pte::kPresent | pte::kWritable | pte::kNoExecute)
                  .ok());
  auto process_space = Create(kernel_space->get());
  ASSERT_TRUE(process_space.ok());
  const auto walk = (*process_space)->Lookup(0xFFFF888000000000ULL);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(FrameOf(walk->pa), 3100u);
}

TEST_F(AddrSpaceTest, CloneCopiesPrivatePagesSharesCommon) {
  auto parent = Create();
  ASSERT_TRUE(parent.ok());
  // Private page with data.
  const auto anon_va = (*parent)->CreateVma(
      kPageSize, pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute,
      VmaKind::kAnon, 0x30000000);
  ASSERT_TRUE(anon_va.ok());
  ASSERT_TRUE((*parent)->HandleDemandFault(*cpu_, *anon_va).ok());
  const auto parent_walk = (*parent)->Lookup(*anon_va);
  machine_.memory().FramePtr(FrameOf(parent_walk->pa))[0] = 0x42;
  // Common page.
  const auto common_va = (*parent)->CreateVma(kPageSize, pte::kPresent | pte::kUser,
                                              VmaKind::kCommon, 0x40000000);
  ASSERT_TRUE(common_va.ok());
  (*parent)->FindVma(*common_va)->backing = {3200};
  ASSERT_TRUE((*parent)->HandleDemandFault(*cpu_, *common_va).ok());

  auto child = Create();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE((*child)->CloneUserMappings(*cpu_, **parent).ok());

  // Private page duplicated (different frame, same contents).
  const auto child_anon = (*child)->Lookup(*anon_va);
  ASSERT_TRUE(child_anon.ok());
  EXPECT_NE(FrameOf(child_anon->pa), FrameOf(parent_walk->pa));
  EXPECT_EQ(machine_.memory().FramePtr(FrameOf(child_anon->pa))[0], 0x42);
  // Common page shared (same frame).
  const auto child_common = (*child)->Lookup(*common_va);
  ASSERT_TRUE(child_common.ok());
  EXPECT_EQ(FrameOf(child_common->pa), 3200u);
}

TEST_F(AddrSpaceTest, MapRangeBatchedEquivalentToIndividualMaps) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  std::vector<AddressSpace::PageMapping> mappings;
  for (int i = 0; i < 20; ++i) {
    mappings.push_back({0x50000000ULL + AddrOf(i), 3300ull + i,
                        pte::kPresent | pte::kUser | pte::kNoExecute});
  }
  ASSERT_TRUE((*space)->MapRange(*cpu_, mappings).ok());
  for (int i = 0; i < 20; ++i) {
    const auto walk = (*space)->Lookup(0x50000000ULL + AddrOf(i));
    ASSERT_TRUE(walk.ok());
    EXPECT_EQ(FrameOf(walk->pa), 3300ull + i);
    EXPECT_TRUE(walk->user_accessible);
  }
}

TEST_F(AddrSpaceTest, ReleaseUserFramesReturnsToPool) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const uint64_t used_before = pool_.used();
  const auto va = (*space)->CreateVma(
      8 * kPageSize, pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute,
      VmaKind::kAnon);
  ASSERT_TRUE(va.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*space)->HandleDemandFault(*cpu_, *va + AddrOf(i)).ok());
  }
  EXPECT_GT(pool_.used(), used_before);
  (*space)->ReleaseUserFrames(*cpu_);
  EXPECT_LT(pool_.used(), used_before + 2);  // frames + root PTPs freed
}

TEST_F(AddrSpaceTest, DestroyVmaUnmapsEverything) {
  auto space = Create();
  ASSERT_TRUE(space.ok());
  const auto va = (*space)->CreateVma(
      4 * kPageSize, pte::kPresent | pte::kUser | pte::kWritable | pte::kNoExecute,
      VmaKind::kAnon, 0x60000000);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE((*space)->HandleDemandFault(*cpu_, *va).ok());
  ASSERT_TRUE((*space)->DestroyVma(*cpu_, *va).ok());
  EXPECT_FALSE((*space)->Lookup(*va).ok());
  EXPECT_EQ((*space)->FindVma(*va), nullptr);
}

}  // namespace
}  // namespace erebor
