#include "grid/occupancy.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace spnerf {
namespace {

BitGrid MakeFineWithPoint(GridDims dims, Vec3i p) {
  BitGrid b(dims);
  b.Set(p, true);
  return b;
}

TEST(CoarseOccupancy, ReducesDims) {
  const BitGrid fine(GridDims{32, 32, 32});
  const CoarseOccupancy c = CoarseOccupancy::Build(fine, 8);
  EXPECT_EQ(c.CoarseDims(), (GridDims{4, 4, 4}));
  EXPECT_EQ(c.Factor(), 8);
}

TEST(CoarseOccupancy, NonDivisibleDimsRoundUp) {
  const BitGrid fine(GridDims{33, 30, 17});
  const CoarseOccupancy c = CoarseOccupancy::Build(fine, 8);
  EXPECT_EQ(c.CoarseDims(), (GridDims{5, 4, 3}));
}

TEST(CoarseOccupancy, EmptyFineGivesEmptyCoarse) {
  const BitGrid fine(GridDims{16, 16, 16});
  const CoarseOccupancy c = CoarseOccupancy::Build(fine, 4);
  EXPECT_EQ(c.Bits().CountSet(), 0u);
}

TEST(CoarseOccupancy, SinglePointDilatesToNeighborhood) {
  // One fine bit in the middle: its coarse cell plus all 26 neighbours are
  // set (3x3x3 = 27).
  const CoarseOccupancy c = CoarseOccupancy::Build(
      MakeFineWithPoint({32, 32, 32}, {17, 17, 17}), 8);
  EXPECT_EQ(c.Bits().CountSet(), 27u);
  EXPECT_TRUE(c.Bits().Test(Vec3i{2, 2, 2}));
  EXPECT_TRUE(c.Bits().Test(Vec3i{1, 1, 1}));
  EXPECT_TRUE(c.Bits().Test(Vec3i{3, 3, 3}));
  EXPECT_FALSE(c.Bits().Test(Vec3i{0, 0, 0}));
}

TEST(CoarseOccupancy, CornerPointClampsDilation) {
  const CoarseOccupancy c =
      CoarseOccupancy::Build(MakeFineWithPoint({32, 32, 32}, {0, 0, 0}), 8);
  EXPECT_EQ(c.Bits().CountSet(), 8u);  // 2x2x2 corner neighbourhood
}

TEST(CoarseOccupancy, ConservativeOverFineBits) {
  // Safety property: every set fine bit must have its coarse cell set.
  BitGrid fine(GridDims{24, 24, 24});
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    fine.Set(Vec3i{rng.UniformInt(0, 23), rng.UniformInt(0, 23),
                   rng.UniformInt(0, 23)},
             true);
  }
  const CoarseOccupancy c = CoarseOccupancy::Build(fine, 4);
  const GridDims fd = fine.Dims();
  for (VoxelIndex i = 0; i < fd.VoxelCount(); ++i) {
    if (!fine.Test(i)) continue;
    const Vec3i p = fd.Unflatten(i);
    EXPECT_TRUE(c.Bits().Test(Vec3i{p.x / 4, p.y / 4, p.z / 4}));
  }
}

TEST(CoarseOccupancy, WorldQueries) {
  const CoarseOccupancy c = CoarseOccupancy::Build(
      MakeFineWithPoint({32, 32, 32}, {16, 16, 16}), 8);
  EXPECT_TRUE(c.OccupiedAtWorld({0.5f, 0.5f, 0.5f}));
  EXPECT_FALSE(c.OccupiedAtWorld({0.05f, 0.05f, 0.05f}));
  EXPECT_FALSE(c.OccupiedAtWorld({1.5f, 0.5f, 0.5f}));  // out of range
  EXPECT_FALSE(c.OccupiedAtWorld({-0.1f, 0.5f, 0.5f}));
}

TEST(CoarseOccupancy, CellOfWorldClampsToGrid) {
  const BitGrid fine(GridDims{16, 16, 16});
  const CoarseOccupancy c = CoarseOccupancy::Build(fine, 4);
  EXPECT_EQ(c.CellOfWorld({0.999f, 0.999f, 0.999f}), (Vec3i{3, 3, 3}));
  EXPECT_EQ(c.CellOfWorld({1.0f, 1.0f, 1.0f}), (Vec3i{3, 3, 3}));
  EXPECT_EQ(c.CellOfWorld({0.0f, 0.0f, 0.0f}), (Vec3i{0, 0, 0}));
}

TEST(CoarseOccupancy, FactorOneStillDilates) {
  const CoarseOccupancy c =
      CoarseOccupancy::Build(MakeFineWithPoint({8, 8, 8}, {4, 4, 4}), 1);
  EXPECT_EQ(c.CoarseDims(), (GridDims{8, 8, 8}));
  EXPECT_EQ(c.Bits().CountSet(), 27u);
}

}  // namespace
}  // namespace spnerf
