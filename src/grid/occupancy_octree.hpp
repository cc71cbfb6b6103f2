// Hierarchical occupancy octree for multi-level empty-space skipping — the
// ray marchers' one skip structure: a pointerless, level-ordered pyramid of
// occupancy bitmaps reduced bottom-up from the dilated coarse skip bitmap.
// The leaf level IS that CoarseOccupancy (kept whole, so the leaf bits and
// the world-to-cell rule exist once); each coarser level ORs 2x2x2 child
// blocks, so a parent is empty exactly when all its children are empty.
// Node addressing is implicit — the ancestor of leaf cell c at depth d above
// the leaves is simply c >> d — so the whole structure is a handful of
// BitGrids and traversal needs no pointer chasing.
//
// The ray marchers use it to cross empty space a node at a time: when a
// lattice sample lands in an empty leaf, one root-down descent finds the
// SHALLOWEST empty ancestor (FindEmptyNode) and the march jumps past that
// node's whole leaf-cell range in one step. Occupied leaves cost exactly one
// leaf-bit probe, so dense scenes pay no hierarchy tax.
#pragma once

#include <vector>

#include "grid/occupancy.hpp"

namespace spnerf {

/// One octree node as the leaf-cell range [lo, hi) it covers, plus the
/// level it sits at (root = 0, leaf = Levels()-1).
struct OctreeNode {
  Vec3i lo{0, 0, 0};
  Vec3i hi{0, 0, 0};
  i32 level = 0;

  [[nodiscard]] bool Contains(Vec3i c) const {
    return c.x >= lo.x && c.x < hi.x && c.y >= lo.y && c.y < hi.y &&
           c.z >= lo.z && c.z < hi.z;
  }
};

class OccupancyOctree {
 public:
  OccupancyOctree() = default;

  /// Reduces `coarse` bottom-up: the leaf level is a copy of `coarse`
  /// (already dilated), each coarser level ORs 2x2x2 child blocks, down to
  /// a 1x1x1 root. Non-power-of-two dims round up (boundary parents OR the
  /// children that exist). The only way to make an octree, so the pyramid
  /// agrees with its leaf by construction.
  static OccupancyOctree Build(const CoarseOccupancy& coarse);

  /// Number of levels, root (index 0) through leaf (index Levels()-1).
  [[nodiscard]] int Levels() const {
    return static_cast<int>(upper_.size()) + 1;
  }
  [[nodiscard]] const BitGrid& Level(int l) const {
    return l + 1 == Levels() ? leaf_.Bits()
                             : upper_[static_cast<std::size_t>(l)];
  }
  /// The coarse occupancy the tree was reduced from: the leaf bits, their
  /// dims, the factor and the world-to-cell rule (CellOfWorld).
  [[nodiscard]] const CoarseOccupancy& Leaf() const { return leaf_; }

  /// Shallowest (largest) empty node containing leaf cell `c`. Returns
  /// false when the leaf is occupied; otherwise fills `node` with the
  /// node's leaf-cell range [lo, hi) and its level. The leaf bit is probed
  /// first, so an occupied cell costs one probe. `c` must be in range.
  [[nodiscard]] bool FindEmptyNode(Vec3i c, OctreeNode& node) const;

 private:
  CoarseOccupancy leaf_;
  std::vector<BitGrid> upper_;  // root-first levels above the leaf
};

}  // namespace spnerf
