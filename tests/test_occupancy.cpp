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

/// Specification of CoarseOccupancy::Build: the dense per-voxel OR-reduce,
/// then a 27-probe gather per coarse cell.
BitGrid DenseReduceAndGather(const BitGrid& fine, int factor) {
  const GridDims fd = fine.Dims();
  const GridDims cd{(fd.nx + factor - 1) / factor,
                    (fd.ny + factor - 1) / factor,
                    (fd.nz + factor - 1) / factor};
  BitGrid reduced(cd);
  for (VoxelIndex i = 0; i < fd.VoxelCount(); ++i) {
    if (!fine.Test(i)) continue;
    const Vec3i p = fd.Unflatten(i);
    reduced.Set(Vec3i{p.x / factor, p.y / factor, p.z / factor}, true);
  }
  BitGrid dilated(cd);
  for (int x = 0; x < cd.nx; ++x) {
    for (int y = 0; y < cd.ny; ++y) {
      for (int z = 0; z < cd.nz; ++z) {
        bool any = false;
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dz = -1; dz <= 1; ++dz) {
              const Vec3i q{x + dx, y + dy, z + dz};
              if (cd.Contains(q) && reduced.Test(q)) any = true;
            }
          }
        }
        if (any) dilated.Set(Vec3i{x, y, z}, true);
      }
    }
  }
  return dilated;
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

TEST(CoarseOccupancy, BuildMatchesDenseReduceAndGather) {
  // Random fine grids at several densities, plus one set point on every
  // face and corner, over divisible and non-divisible dims (some with
  // z-rows that straddle 64-bit words).
  const GridDims dims_list[] = {{16, 16, 16}, {17, 9, 13}, {5, 33, 7},
                                {1, 1, 1},    {2, 70, 3},  {23, 4, 65}};
  Rng rng(31);
  for (const GridDims& fd : dims_list) {
    for (const double density : {0.0, 0.004, 0.05, 0.4}) {
      BitGrid fine(fd);
      for (VoxelIndex i = 0; i < fd.VoxelCount(); ++i) {
        if (rng.NextDouble() < density) fine.Set(i, true);
      }
      if (density > 0.0) {
        for (const int x : {0, fd.nx - 1}) {
          for (const int y : {0, fd.ny - 1}) {
            for (const int z : {0, fd.nz - 1}) fine.Set(Vec3i{x, y, z}, true);
          }
        }
        const Vec3i mid{fd.nx / 2, fd.ny / 2, fd.nz / 2};
        for (const Vec3i face :
             {Vec3i{0, mid.y, mid.z}, Vec3i{fd.nx - 1, mid.y, mid.z},
              Vec3i{mid.x, 0, mid.z}, Vec3i{mid.x, fd.ny - 1, mid.z},
              Vec3i{mid.x, mid.y, 0}, Vec3i{mid.x, mid.y, fd.nz - 1}}) {
          fine.Set(face, true);
        }
      }
      for (int factor = 1; factor <= 4; ++factor) {
        const CoarseOccupancy built = CoarseOccupancy::Build(fine, factor);
        const BitGrid want = DenseReduceAndGather(fine, factor);
        EXPECT_EQ(built.CoarseDims(), want.Dims());
        EXPECT_EQ(built.Bits().Words(), want.Words())
            << fd.nx << "x" << fd.ny << "x" << fd.nz << ", density "
            << density << ", factor " << factor;
      }
    }
  }
}

}  // namespace
}  // namespace spnerf
