#include "grid/bitmap.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace spnerf {
namespace {

TEST(BitGrid, StartsClear) {
  BitGrid b({8, 8, 8});
  EXPECT_EQ(b.CountSet(), 0u);
  for (VoxelIndex i = 0; i < 512; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(BitGrid, SetAndClear) {
  BitGrid b({4, 4, 4});
  b.Set(Vec3i{1, 2, 3}, true);
  EXPECT_TRUE(b.Test(Vec3i{1, 2, 3}));
  EXPECT_EQ(b.CountSet(), 1u);
  b.Set(Vec3i{1, 2, 3}, false);
  EXPECT_FALSE(b.Test(Vec3i{1, 2, 3}));
  EXPECT_EQ(b.CountSet(), 0u);
}

TEST(BitGrid, TestOutOfBoundsIsFalse) {
  BitGrid b({4, 4, 4});
  EXPECT_FALSE(b.Test(Vec3i{4, 0, 0}));
  EXPECT_FALSE(b.Test(Vec3i{-1, 0, 0}));
}

TEST(BitGrid, SetOutOfRangeIndexThrows) {
  BitGrid b({2, 2, 2});
  EXPECT_THROW(b.Set(VoxelIndex{8}, true), SpnerfError);
}

TEST(BitGrid, WordBoundaryBits) {
  // Bits 63 and 64 live in adjacent words; both must behave.
  BitGrid b({2, 8, 8});  // 128 voxels
  b.Set(VoxelIndex{63}, true);
  b.Set(VoxelIndex{64}, true);
  EXPECT_TRUE(b.Test(VoxelIndex{63}));
  EXPECT_TRUE(b.Test(VoxelIndex{64}));
  EXPECT_FALSE(b.Test(VoxelIndex{62}));
  EXPECT_FALSE(b.Test(VoxelIndex{65}));
  EXPECT_EQ(b.CountSet(), 2u);
}

TEST(BitGrid, SizeBytesIsOneBitPerVoxel) {
  EXPECT_EQ(BitGrid({8, 8, 8}).SizeBytes(), 64u);          // 512 bits
  EXPECT_EQ(BitGrid({160, 160, 160}).SizeBytes(), 512000u);  // paper scale
  EXPECT_EQ(BitGrid({3, 3, 3}).SizeBytes(), 4u);  // 27 bits -> 4 bytes
}

TEST(BitGrid, FromWordsChecksDimsBeforeAllocating) {
  const BitGrid ok = BitGrid::FromWords(GridDims{4, 4, 5}, {0ull, 7ull});
  EXPECT_EQ(ok.Dims(), (GridDims{4, 4, 5}));
  EXPECT_EQ(ok.CountSet(), 3u);
  // 80 voxels need 2 words, not 1 or 3.
  EXPECT_THROW((void)BitGrid::FromWords(GridDims{4, 4, 5}, {0ull}),
               SpnerfError);
  EXPECT_THROW((void)BitGrid::FromWords(GridDims{4, 4, 5}, {0ull, 0ull, 0ull}),
               SpnerfError);
  EXPECT_THROW((void)BitGrid::FromWords(GridDims{0, 4, 4}, {}), SpnerfError);
  // (2^31-1)^3 voxels overflow u64: rejected, never wrapped into a count
  // that a short word vector could match.
  const int big = 2147483647;
  EXPECT_THROW((void)BitGrid::FromWords(GridDims{big, big, big}, {}),
               SpnerfError);
}

TEST(BitGrid, FromGridMatchesNonZeroSet) {
  DenseGrid g({6, 6, 6});
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    VoxelData v;
    v.density = rng.NextFloat() + 0.1f;
    g.SetVoxel({rng.UniformInt(0, 5), rng.UniformInt(0, 5), rng.UniformInt(0, 5)},
               v);
  }
  const BitGrid b = BitGrid::FromGrid(g);
  EXPECT_EQ(b.CountSet(), g.CountNonZero());
  const u64 total = g.VoxelCount();
  for (VoxelIndex i = 0; i < total; ++i) {
    EXPECT_EQ(b.Test(i), g.IsNonZero(i)) << "voxel " << i;
  }
}

TEST(BitGrid, RandomSetMatchesReference) {
  const GridDims d{10, 10, 10};
  BitGrid b(d);
  std::vector<bool> ref(d.VoxelCount(), false);
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    const auto idx = rng.NextBelow(d.VoxelCount());
    const bool v = rng.NextFloat() < 0.5f;
    b.Set(idx, v);
    ref[idx] = v;
  }
  u64 count = 0;
  for (VoxelIndex i = 0; i < d.VoxelCount(); ++i) {
    EXPECT_EQ(b.Test(i), ref[i]);
    count += ref[i];
  }
  EXPECT_EQ(b.CountSet(), count);
}

}  // namespace
}  // namespace spnerf
