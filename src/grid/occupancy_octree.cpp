#include "grid/occupancy_octree.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace spnerf {
namespace {

GridDims ParentDims(const GridDims& child) {
  return {(child.nx + 1) / 2, (child.ny + 1) / 2, (child.nz + 1) / 2};
}

/// OR-reduces one level: parent bit = OR of its (up to) 2x2x2 children.
BitGrid ReduceLevel(const BitGrid& child) {
  BitGrid parent(ParentDims(child.Dims()));
  const GridDims& cd = child.Dims();
  const u64 total = cd.VoxelCount();
  for (VoxelIndex i = 0; i < total; ++i) {
    if (!child.Test(i)) continue;
    const Vec3i p = cd.Unflatten(i);
    parent.Set(Vec3i{p.x / 2, p.y / 2, p.z / 2}, true);
  }
  return parent;
}

/// Root-first level stack reduced from `leaf` up to a 1x1x1 root.
std::vector<BitGrid> ReduceToRoot(BitGrid leaf) {
  std::vector<BitGrid> levels;
  levels.push_back(std::move(leaf));
  while (levels.back().Dims().nx > 1 || levels.back().Dims().ny > 1 ||
         levels.back().Dims().nz > 1) {
    levels.push_back(ReduceLevel(levels.back()));
  }
  std::reverse(levels.begin(), levels.end());
  return levels;
}

}  // namespace

OccupancyOctree OccupancyOctree::Build(const CoarseOccupancy& coarse) {
  OccupancyOctree tree;
  tree.factor_ = coarse.Factor();
  tree.levels_ = ReduceToRoot(coarse.Bits());
  return tree;
}

OccupancyOctree OccupancyOctree::FromLevels(std::vector<BitGrid> levels,
                                            int factor) {
  SPNERF_CHECK_MSG(factor >= 1, "octree factor must be >= 1");
  SPNERF_CHECK_MSG(!levels.empty(), "octree needs at least one level");
  const GridDims& root = levels.front().Dims();
  SPNERF_CHECK_MSG(root.nx == 1 && root.ny == 1 && root.nz == 1,
                   "corrupt octree: root level is " << root.nx << "x"
                       << root.ny << "x" << root.nz << ", expected 1x1x1");
  // Recompute the whole reduction chain from the leaf level and demand a
  // bit-for-bit match: a corrupt pyramid (flipped parent bit, wrong level
  // dims) is rejected here, never traversed.
  for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
    const BitGrid& parent = levels[l];
    const BitGrid& child = levels[l + 1];
    SPNERF_CHECK_MSG(
        ParentDims(child.Dims()) == parent.Dims(),
        "corrupt octree: level " << l << " dims do not halve level " << l + 1);
    const BitGrid expected = ReduceLevel(child);
    SPNERF_CHECK_MSG(expected.Words() == parent.Words(),
                     "corrupt octree: level "
                         << l << " is not the OR-reduction of level " << l + 1);
  }
  OccupancyOctree tree;
  tree.factor_ = factor;
  tree.levels_ = std::move(levels);
  return tree;
}

bool OccupancyOctree::FindEmptyNode(Vec3i c, OctreeNode& node) const {
  const int leaf = Levels() - 1;
  // Leaf probe first: an occupied cell answers in one probe, exactly the
  // flat path's cost, so dense regions pay nothing for the hierarchy.
  if (levels_.back().Test(c)) return false;
  // The leaf is empty, so some empty ancestor chain exists (parent empty
  // <=> all children empty). Descend root-first and stop at the shallowest
  // empty node — the largest region one jump can cross.
  for (int l = 0; l < leaf; ++l) {
    const int shift = leaf - l;
    const Vec3i a{c.x >> shift, c.y >> shift, c.z >> shift};
    if (!levels_[static_cast<std::size_t>(l)].Test(a)) {
      const GridDims& ld = levels_.back().Dims();
      node.lo = Vec3i{a.x << shift, a.y << shift, a.z << shift};
      node.hi = Vec3i{std::min((a.x + 1) << shift, ld.nx),
                      std::min((a.y + 1) << shift, ld.ny),
                      std::min((a.z + 1) << shift, ld.nz)};
      node.level = l;
      return true;
    }
  }
  node.lo = c;
  node.hi = Vec3i{c.x + 1, c.y + 1, c.z + 1};
  node.level = leaf;
  return true;
}

}  // namespace spnerf
