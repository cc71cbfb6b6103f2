#include "grid/occupancy_octree.hpp"

#include <algorithm>

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

}  // namespace

OccupancyOctree OccupancyOctree::Build(const CoarseOccupancy& coarse) {
  OccupancyOctree tree;
  tree.leaf_ = coarse;
  const BitGrid* child = &tree.leaf_.Bits();
  while (child->Dims().nx > 1 || child->Dims().ny > 1 ||
         child->Dims().nz > 1) {
    tree.upper_.push_back(ReduceLevel(*child));
    child = &tree.upper_.back();
  }
  std::reverse(tree.upper_.begin(), tree.upper_.end());
  return tree;
}

bool OccupancyOctree::FindEmptyNode(Vec3i c, OctreeNode& node) const {
  const int leaf = Levels() - 1;
  // Leaf probe first: an occupied cell answers in one probe, so dense
  // regions pay nothing for the hierarchy.
  if (leaf_.Bits().Test(c)) return false;
  // The leaf is empty, so some empty ancestor chain exists (parent empty
  // <=> all children empty). Descend root-first and stop at the shallowest
  // empty node — the largest region one jump can cross.
  for (int l = 0; l < leaf; ++l) {
    const int shift = leaf - l;
    const Vec3i a{c.x >> shift, c.y >> shift, c.z >> shift};
    if (!upper_[static_cast<std::size_t>(l)].Test(a)) {
      const GridDims& ld = leaf_.CoarseDims();
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
