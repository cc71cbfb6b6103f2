// Occupancy-octree tests: build/reduction invariants (parent bit == OR of
// children at every level, leaf level bit-identical to CoarseOccupancy,
// dilation preserved through the pyramid), the shallowest-empty-ancestor
// query, and the octree lattice advance against a brute-force enumeration
// of the lattice on random, axis-aligned, diagonal, boundary-origin,
// cell-face and sub-epsilon-direction rays.
#include "grid/occupancy_octree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "render/camera.hpp"
#include "render/volume_renderer.hpp"

namespace spnerf {
namespace {

BitGrid RandomFine(GridDims dims, int set_bits, u64 seed) {
  BitGrid b(dims);
  Rng rng(seed);
  for (int i = 0; i < set_bits; ++i) {
    b.Set(Vec3i{rng.UniformInt(0, dims.nx - 1), rng.UniformInt(0, dims.ny - 1),
                rng.UniformInt(0, dims.nz - 1)},
          true);
  }
  return b;
}

CoarseOccupancy RandomCoarse(int set_bits = 40, u64 seed = 7) {
  return CoarseOccupancy::Build(RandomFine({40, 40, 40}, set_bits, seed), 4);
}

// ------------------------------------------------------ build invariants --

TEST(OccupancyOctree, LeafLevelIsBitIdenticalToCoarse) {
  const CoarseOccupancy coarse = RandomCoarse();
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  EXPECT_EQ(tree.Leaf().Factor(), coarse.Factor());
  EXPECT_EQ(tree.Leaf().CoarseDims(), coarse.CoarseDims());
  EXPECT_EQ(tree.Leaf().Bits().Words(), coarse.Bits().Words());
  EXPECT_EQ(tree.Level(tree.Levels() - 1).Words(), coarse.Bits().Words());
}

TEST(OccupancyOctree, ParentBitIsOrOfChildrenAtEveryLevel) {
  const OccupancyOctree tree = OccupancyOctree::Build(RandomCoarse());
  ASSERT_GE(tree.Levels(), 2);
  for (int l = 0; l + 1 < tree.Levels(); ++l) {
    const BitGrid& parent = tree.Level(l);
    const BitGrid& child = tree.Level(l + 1);
    const GridDims& pd = parent.Dims();
    const GridDims& cd = child.Dims();
    for (int x = 0; x < pd.nx; ++x) {
      for (int y = 0; y < pd.ny; ++y) {
        for (int z = 0; z < pd.nz; ++z) {
          bool any = false;
          for (int dx = 0; dx < 2 && !any; ++dx) {
            for (int dy = 0; dy < 2 && !any; ++dy) {
              for (int dz = 0; dz < 2 && !any; ++dz) {
                const Vec3i q{2 * x + dx, 2 * y + dy, 2 * z + dz};
                if (cd.Contains(q) && child.Test(q)) any = true;
              }
            }
          }
          EXPECT_EQ(parent.Test(Vec3i{x, y, z}), any)
              << "level " << l << " cell " << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST(OccupancyOctree, RootIsSingleCellAndDimsHalve) {
  const OccupancyOctree tree = OccupancyOctree::Build(RandomCoarse());
  EXPECT_EQ(tree.Level(0).Dims(), (GridDims{1, 1, 1}));
  for (int l = 0; l + 1 < tree.Levels(); ++l) {
    const GridDims& p = tree.Level(l).Dims();
    const GridDims& c = tree.Level(l + 1).Dims();
    EXPECT_EQ(p.nx, (c.nx + 1) / 2);
    EXPECT_EQ(p.ny, (c.ny + 1) / 2);
    EXPECT_EQ(p.nz, (c.nz + 1) / 2);
  }
  // 10^3 leaf cells: 10 -> 5 -> 3 -> 2 -> 1.
  EXPECT_EQ(tree.Levels(), 5);
}

TEST(OccupancyOctree, DilationSurvivesTheReduction) {
  // One fine point dilates to a 3x3x3 coarse neighbourhood; every dilated
  // leaf must be occupied in the tree, and so must every ancestor above it.
  BitGrid fine(GridDims{40, 40, 40});
  fine.Set(Vec3i{20, 20, 20}, true);
  const CoarseOccupancy coarse = CoarseOccupancy::Build(fine, 4);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const int leaf = tree.Levels() - 1;
  for (int x = 4; x <= 6; ++x) {
    for (int y = 4; y <= 6; ++y) {
      for (int z = 4; z <= 6; ++z) {
        EXPECT_TRUE(tree.Leaf().Bits().Test(Vec3i{x, y, z}));
        for (int l = 0; l < leaf; ++l) {
          const int shift = leaf - l;
          EXPECT_TRUE(tree.Level(l).Test(Vec3i{x >> shift, y >> shift, z >> shift}));
        }
      }
    }
  }
}

TEST(OccupancyOctree, EmptySceneReducesToEmptyRoot) {
  const CoarseOccupancy coarse =
      CoarseOccupancy::Build(BitGrid(GridDims{40, 40, 40}), 4);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  EXPECT_FALSE(tree.Level(0).Test(Vec3i{0, 0, 0}));
  OctreeNode node;
  ASSERT_TRUE(tree.FindEmptyNode(Vec3i{3, 7, 9}, node));
  // The root is the shallowest empty node and covers the whole grid.
  EXPECT_EQ(node.level, 0);
  EXPECT_EQ(node.lo, (Vec3i{0, 0, 0}));
  EXPECT_EQ(node.hi, (Vec3i{10, 10, 10}));
}

// --------------------------------------------- empty-node query semantics --

TEST(OccupancyOctree, FindsShallowestEmptyAncestor) {
  const CoarseOccupancy coarse = RandomCoarse();
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const GridDims& ld = tree.Leaf().CoarseDims();
  const int leaf = tree.Levels() - 1;
  for (int x = 0; x < ld.nx; ++x) {
    for (int y = 0; y < ld.ny; ++y) {
      for (int z = 0; z < ld.nz; ++z) {
        const Vec3i c{x, y, z};
        OctreeNode node;
        const bool empty = tree.FindEmptyNode(c, node);
        ASSERT_EQ(empty, !coarse.Bits().Test(c));
        if (!empty) continue;
        ASSERT_TRUE(node.Contains(c));
        // The node's whole leaf range is empty...
        for (int i = node.lo.x; i < node.hi.x; ++i) {
          for (int j = node.lo.y; j < node.hi.y; ++j) {
            for (int k = node.lo.z; k < node.hi.z; ++k) {
              ASSERT_FALSE(coarse.Bits().Test(Vec3i{i, j, k}));
            }
          }
        }
        // ...and it is the shallowest: the parent node (if any) is occupied.
        if (node.level > 0) {
          const int shift = leaf - (node.level - 1);
          EXPECT_TRUE(tree.Level(node.level - 1)
                          .Test(Vec3i{x >> shift, y >> shift, z >> shift}));
        }
      }
    }
  }
}


// ------------------------------------------- lattice advance vs oracle --

/// The lattice indices the sample rule takes, by brute force: every k with
/// t_k < t_far whose point is inside [0,1]^3 with an occupied leaf cell.
std::vector<u32> OracleSamples(const CoarseOccupancy& coarse,
                               const render_detail::LatticeMarch& m) {
  std::vector<u32> taken;
  for (u32 k = 0; m.T(k) < m.t_far; ++k) {
    if (coarse.OccupiedAtWorld(m.Point(k))) taken.push_back(k);
  }
  return taken;
}

/// The lattice indices AdvanceToOccupied takes, walked the way the
/// marchers walk it; adds the walk's jumps to `jumps`.
std::vector<u32> AdvanceSamples(const OccupancyOctree& tree,
                                render_detail::LatticeMarch m, u64& jumps) {
  std::vector<u32> taken;
  Vec3f p;
  while (render_detail::AdvanceToOccupied(&tree, m, p)) {
    EXPECT_EQ(p, m.Point(m.k));  // the position is the lattice point's
    taken.push_back(m.k);
    ++m.k;
  }
  jumps += m.jumps;
  return taken;
}

/// Walks `ray` through `tree` (built from `coarse`) and demands the
/// oracle's sample set; accumulates the walk's jumps.
void ExpectOracleSamples(const CoarseOccupancy& coarse,
                         const OccupancyOctree& tree, const Ray& ray,
                         float step, u64& jumps) {
  const Aabb box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  render_detail::LatticeMarch m;
  m.ray = ray;
  m.step = step;
  if (!IntersectAabb(ray, box, m.t_near, m.t_far)) return;
  EXPECT_EQ(AdvanceSamples(tree, m, jumps), OracleSamples(coarse, m))
      << "origin " << ray.origin << " direction " << ray.direction;
}

/// Runs a ray family through ExpectOracleSamples at a fine and a coarse
/// step; each family crosses some empty space.
template <typename RayAt>
void ExpectFamilyMatchesOracle(const CoarseOccupancy& coarse, int rays,
                               RayAt ray_at) {
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  for (const float step : {0.003f, 0.0173f}) {
    u64 jumps = 0;
    for (int i = 0; i < rays; ++i) {
      ExpectOracleSamples(coarse, tree, ray_at(i), step, jumps);
    }
    EXPECT_GT(jumps, 0u) << "step " << step;
  }
}

TEST(LatticeAdvance, RandomRaysTakeTheOracleSamples) {
  Rng rng(5);
  ExpectFamilyMatchesOracle(RandomCoarse(30, 91), 200, [&](int) {
    Ray ray;
    ray.origin = Vec3f{rng.Uniform(-0.5f, 1.5f), rng.Uniform(-0.5f, 1.5f),
                       rng.Uniform(-0.5f, 1.5f)};
    ray.direction = Vec3f{rng.Uniform(-1.f, 1.f), rng.Uniform(-1.f, 1.f),
                          rng.Uniform(-1.f, 1.f)};
    return ray;
  });
}

TEST(LatticeAdvance, AxisAlignedRaysTakeTheOracleSamples) {
  Rng rng(100);
  ExpectFamilyMatchesOracle(RandomCoarse(50, 13), 180, [&](int i) {
    const int axis = i % 3;
    const float sign = (i / 3) % 2 == 0 ? 1.f : -1.f;
    Ray ray;
    ray.origin = Vec3f{rng.Uniform(0.f, 1.f), rng.Uniform(0.f, 1.f),
                       rng.Uniform(0.f, 1.f)};
    ray.origin[axis] = sign > 0.f ? -0.2f : 1.2f;
    ray.direction = Vec3f{0.f, 0.f, 0.f};
    ray.direction[axis] = sign;
    return ray;
  });
}

TEST(LatticeAdvance, DiagonalAndBoundaryOriginRaysTakeTheOracleSamples) {
  const CoarseOccupancy coarse = RandomCoarse(45, 77);
  // Exact corner-to-corner diagonals.
  const Vec3f diagonals[] = {Vec3f{1.f, 1.f, 1.f}, Vec3f{1.f, -1.f, 1.f},
                             Vec3f{-1.f, 1.f, 1.f}, Vec3f{1.f, 1.f, -1.f}};
  ExpectFamilyMatchesOracle(coarse, 4, [&](int i) {
    const Vec3f d = diagonals[i];
    Ray ray;
    ray.origin = Vec3f{d.x > 0 ? -0.1f : 1.1f, d.y > 0 ? -0.1f : 1.1f,
                       d.z > 0 ? -0.1f : 1.1f};
    ray.direction = d.Normalized();
    return ray;
  });
  // Origins exactly on cell boundaries (t_near = 0 lands on a face).
  const GridDims& ld = coarse.CoarseDims();
  Rng rng(3);
  ExpectFamilyMatchesOracle(coarse, 40, [&](int) {
    Ray ray;
    ray.origin = Vec3f{
        static_cast<float>(rng.UniformInt(0, ld.nx)) / static_cast<float>(ld.nx),
        static_cast<float>(rng.UniformInt(0, ld.ny)) / static_cast<float>(ld.ny),
        static_cast<float>(rng.UniformInt(0, ld.nz)) / static_cast<float>(ld.nz)};
    ray.direction = Vec3f{rng.Uniform(-1.f, 1.f), rng.Uniform(-1.f, 1.f),
                          rng.Uniform(-1.f, 1.f)};
    return ray;
  });
}

TEST(LatticeAdvance, CellFaceAndSubEpsilonRaysTakeTheOracleSamples) {
  // Rays riding exactly in a cell-face plane (their y never changes, or
  // changes by less than kDegenerateDirectionEpsilon per unit t, so no
  // jump takes an exit plane from y): every point sits on the face, and
  // the jumps must still land on the oracle's samples and make progress.
  const CoarseOccupancy coarse = RandomCoarse(60, 29);
  const GridDims& ld = coarse.CoarseDims();
  const float dys[] = {0.f, 1e-13f, -1e-13f};
  Rng rng(41);
  ExpectFamilyMatchesOracle(coarse, 3 * 2 * 20, [&](int i) {
    Ray ray;
    const float face =
        static_cast<float>(rng.UniformInt(0, ld.ny)) / static_cast<float>(ld.ny);
    ray.origin = Vec3f{-0.1f, face, rng.Uniform(0.f, 1.f)};
    const float dz = (i / 3) % 2 == 0 ? 0.f : rng.Uniform(-0.5f, 0.5f);
    ray.direction = Vec3f{1.f, dys[i % 3], dz};
    return ray;
  });
}

TEST(LatticeAdvance, OvershootingExitEstimatesStepBack) {
  // Rays on which a jump's rounded exit distance lands one lattice point
  // past the first point outside the node: that point is occupied, so
  // without the step-back each ray misses one sample. Found by random
  // search over this grid at this step.
  const CoarseOccupancy coarse =
      CoarseOccupancy::Build(RandomFine({40, 40, 40}, 1500, 7), 1);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const Ray rays[] = {
      {{0x1.786ddcp+0f, 0x1.18ff8p-5f, 0x1.23108p-6f},
       {-0x1.dcd7dp-1f, 0x1.e9d154p-1f, 0x1.5dace4p-1f}},
      {{-0x1.21f5fap-2f, -0x1.d3ed6cp-3f, 0x1.2ccc8p-1f},
       {0x1.349cb8p-2f, 0x1.26c6dp-1f, 0x1.7ca82p-4f}},
      {{0x1.0769d4p-2f, 0x1.28475cp-1f, 0x1.087fecp-1f},
       {0x1.5dfb08p-2f, 0x1.44f2dp-2f, 0x1.0f2668p-1f}},
  };
  u64 jumps = 0;
  for (const Ray& ray : rays) {
    ExpectOracleSamples(coarse, tree, ray, 0x1.0624dep-10f, jumps);
  }
}

TEST(LatticeAdvance, EmptySceneIsCrossedInOneOctreeJump) {
  // The octree's root is empty: one jump crosses the whole box.
  const OccupancyOctree tree = OccupancyOctree::Build(
      CoarseOccupancy::Build(BitGrid(GridDims{40, 40, 40}), 4));
  const Aabb box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  render_detail::LatticeMarch m;
  m.ray = Ray{{-0.5f, 0.31f, 0.62f}, Vec3f{1.f, 0.2f, -0.1f}.Normalized()};
  m.step = 0.003f;
  ASSERT_TRUE(IntersectAabb(m.ray, box, m.t_near, m.t_far));
  u64 jumps = 0;
  EXPECT_TRUE(AdvanceSamples(tree, m, jumps).empty());
  EXPECT_EQ(jumps, 1u);
}

TEST(LatticeAdvance, NoSkipStructureTakesEveryLatticePoint) {
  const Aabb box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  render_detail::LatticeMarch m;
  m.ray = Ray{{-0.5f, 0.31f, 0.62f}, Vec3f{1.f, 0.2f, -0.1f}.Normalized()};
  m.step = 0.003f;
  ASSERT_TRUE(IntersectAabb(m.ray, box, m.t_near, m.t_far));
  std::vector<u32> taken;
  Vec3f p;
  while (render_detail::AdvanceToOccupied(nullptr, m, p)) {
    taken.push_back(m.k++);
  }
  ASSERT_FALSE(taken.empty());
  for (std::size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken[i], static_cast<u32>(i));
  }
  EXPECT_LT(m.T(taken.back()), m.t_far);
  EXPECT_GE(m.T(taken.back() + 1), m.t_far);
  EXPECT_EQ(m.jumps, 0u);
}

}  // namespace
}  // namespace spnerf
