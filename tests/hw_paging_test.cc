#include <gtest/gtest.h>

#include <functional>

#include "src/hw/paging.h"

namespace erebor {
namespace {

class PagingTest : public testing::Test {
 protected:
  PagingTest() : memory_(4096) {
    root_ = 100 * kPageSize;  // frame 100 as PML4
    next_ptp_ = 101;
  }

  PhysMemory memory_;
  Paddr root_;
  FrameNum next_ptp_;
  int pte_writes_ = 0;
  // The writer only refers to its callables, so the fixture owns them.
  std::function<Status(Paddr, Pte)> write_pte_ = [this](Paddr pa, Pte value) {
    memory_.Write64(pa, value);
    ++pte_writes_;
    return OkStatus();
  };
  std::function<StatusOr<FrameNum>()> alloc_ptp_ = [this]() -> StatusOr<FrameNum> {
    return next_ptp_++;
  };
  PteWriter writer_{write_pte_, alloc_ptp_};
};

TEST_F(PagingTest, PteBitHelpers) {
  const Pte e = pte::Make(0x1234, pte::kPresent | pte::kWritable | pte::kUser);
  EXPECT_TRUE(pte::Present(e));
  EXPECT_TRUE(pte::Writable(e));
  EXPECT_TRUE(pte::User(e));
  EXPECT_FALSE(pte::NoExecute(e));
  EXPECT_EQ(pte::Frame(e), 0x1234u);
  EXPECT_EQ(pte::Pkey(e), 0);
  const Pte keyed = pte::WithPkey(e, 5);
  EXPECT_EQ(pte::Pkey(keyed), 5);
  EXPECT_EQ(pte::Frame(keyed), 0x1234u);
}

TEST_F(PagingTest, ShadowStackEncoding) {
  const Pte ss = pte::Make(7, pte::kPresent | pte::kDirty);  // W=0, D=1, U=0
  EXPECT_TRUE(pte::IsShadowStack(ss));
  EXPECT_FALSE(pte::IsShadowStack(ss | pte::kWritable));
  EXPECT_FALSE(pte::IsShadowStack(ss | pte::kUser));
}

TEST_F(PagingTest, MapThenWalk) {
  const Vaddr va = 0x400000;
  ASSERT_TRUE(MapPage(memory_, root_, va, 555,
                      pte::kPresent | pte::kWritable | pte::kUser, writer_)
                  .ok());
  const auto walk = WalkPageTables(memory_, root_, va + 0x123);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->pa, 555 * kPageSize + 0x123);
  EXPECT_TRUE(walk->user_accessible);
  EXPECT_TRUE(walk->writable);
  EXPECT_FALSE(walk->no_execute);
  EXPECT_EQ(walk->level, 0);
}

TEST_F(PagingTest, UnmappedAddressFails) {
  EXPECT_FALSE(WalkPageTables(memory_, root_, 0xdeadbeef000).ok());
}

TEST_F(PagingTest, WalkAccumulatesUserBitAsAnd) {
  // Map a user page; intermediate entries get U=1. A supervisor-only leaf under
  // them must come out non-user-accessible.
  const Vaddr user_va = 0x400000;
  const Vaddr kernel_va = 0x401000;
  ASSERT_TRUE(
      MapPage(memory_, root_, user_va, 1, pte::kPresent | pte::kUser, writer_).ok());
  ASSERT_TRUE(MapPage(memory_, root_, kernel_va, 2, pte::kPresent, writer_).ok());
  EXPECT_TRUE(WalkPageTables(memory_, root_, user_va)->user_accessible);
  EXPECT_FALSE(WalkPageTables(memory_, root_, kernel_va)->user_accessible);
}

TEST_F(PagingTest, NxPropagatesFromLeaf) {
  ASSERT_TRUE(MapPage(memory_, root_, 0x500000, 3,
                      pte::kPresent | pte::kNoExecute, writer_)
                  .ok());
  EXPECT_TRUE(WalkPageTables(memory_, root_, 0x500000)->no_execute);
}

TEST_F(PagingTest, UnmapRemovesLeaf) {
  ASSERT_TRUE(MapPage(memory_, root_, 0x600000, 4, pte::kPresent, writer_).ok());
  ASSERT_TRUE(UnmapPage(memory_, root_, 0x600000, writer_).ok());
  EXPECT_FALSE(WalkPageTables(memory_, root_, 0x600000).ok());
}

TEST_F(PagingTest, ProtectChangesFlagsKeepsFrame) {
  ASSERT_TRUE(MapPage(memory_, root_, 0x700000, 5,
                      pte::kPresent | pte::kWritable | pte::kUser, writer_)
                  .ok());
  ASSERT_TRUE(
      ProtectPage(memory_, root_, 0x700000, pte::kUser | pte::kNoExecute, writer_).ok());
  const auto walk = WalkPageTables(memory_, root_, 0x700000);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(pte::Frame(walk->leaf), 5u);
  EXPECT_FALSE(walk->writable);
  EXPECT_TRUE(walk->no_execute);
}

TEST_F(PagingTest, ProtectOnUnmappedFails) {
  EXPECT_EQ(ProtectPage(memory_, root_, 0x800000, pte::kUser, writer_).code(),
            ErrorCode::kNotFound);
}

TEST_F(PagingTest, SharedIntermediateTables) {
  // Two pages in the same 2 MiB region reuse intermediate PTPs: only one extra leaf
  // write for the second mapping.
  ASSERT_TRUE(MapPage(memory_, root_, 0x400000, 1, pte::kPresent, writer_).ok());
  const int writes_after_first = pte_writes_;
  ASSERT_TRUE(MapPage(memory_, root_, 0x401000, 2, pte::kPresent, writer_).ok());
  EXPECT_EQ(pte_writes_, writes_after_first + 1);
}

TEST_F(PagingTest, PkeyReadFromLeaf) {
  ASSERT_TRUE(MapPage(memory_, root_, 0x900000, 6,
                      pte::WithPkey(pte::kPresent, 3), writer_)
                  .ok());
  EXPECT_EQ(WalkPageTables(memory_, root_, 0x900000)->pkey, 3);
}

class PagingSweepTest : public testing::TestWithParam<Vaddr> {};

TEST_P(PagingSweepTest, RoundTripAcrossAddressSpace) {
  PhysMemory memory(4096);
  const Paddr root = 50 * kPageSize;
  FrameNum next = 51;
  const auto write_pte = [&memory](Paddr pa, Pte value) {
    memory.Write64(pa, value);
    return OkStatus();
  };
  const auto alloc_ptp = [&next]() -> StatusOr<FrameNum> { return next++; };
  const PteWriter writer{write_pte, alloc_ptp};

  const Vaddr va = GetParam();
  ASSERT_TRUE(MapPage(memory, root, va, 999, pte::kPresent | pte::kWritable, writer).ok());
  const auto walk = WalkPageTables(memory, root, va);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->pa, 999 * kPageSize);
}

INSTANTIATE_TEST_SUITE_P(Addresses, PagingSweepTest,
                         testing::Values(0x0ULL, 0x1000ULL, 0x7FFFFFFFF000ULL,
                                         0xFFFF888000000000ULL, 0xFFFFFFFF81000000ULL,
                                         0x0000200000000000ULL));

TEST(PteIndexTest, DecomposesCanonicalAddress) {
  const Vaddr va = 0xFFFF888000000000ULL;
  EXPECT_EQ(PteIndex(va, 3), (va >> 39) & 511);
  EXPECT_EQ(PteIndex(va, 0), (va >> 12) & 511);
}

}  // namespace
}  // namespace erebor
