// Hierarchical occupancy octree for multi-level empty-space skipping: a
// pointerless, level-ordered pyramid of occupancy bitmaps reduced bottom-up
// from the dilated coarse skip bitmap. Level L-1 (the leaf level) is
// bit-identical to CoarseOccupancy::Bits(); each coarser level ORs 2x2x2
// child blocks, so a parent is empty exactly when all its children are
// empty. Node addressing is implicit — the ancestor of leaf cell c at depth
// d above the leaves is simply c >> d — so the whole structure is a handful
// of BitGrids and traversal needs no pointer chasing.
//
// The ray marchers use it to cross empty space a node at a time: when a
// lattice sample lands in an empty leaf, one root-down descent finds the
// SHALLOWEST empty ancestor (FindEmptyNode) and the march jumps past that
// node's whole leaf-cell range in one step. Occupied leaves cost exactly one
// leaf-bit probe — the same as the flat path — so dense scenes pay no
// hierarchy tax.
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

  /// Reduces `coarse` bottom-up: the leaf level copies its (already
  /// dilated) bits, each coarser level ORs 2x2x2 child blocks, down to a
  /// 1x1x1 root. Non-power-of-two dims round up (boundary parents OR the
  /// children that exist).
  static OccupancyOctree Build(const CoarseOccupancy& coarse);

  /// Reconstructs from already-reduced levels (the deserialization path).
  /// `levels` is root-first. Throws SpnerfError unless the level dims form
  /// the exact ceil-halving chain and every parent bit equals the OR of its
  /// children — a corrupt pyramid is rejected, never traversed.
  static OccupancyOctree FromLevels(std::vector<BitGrid> levels, int factor);

  /// Number of levels, root (index 0) through leaf (index Levels()-1).
  [[nodiscard]] int Levels() const { return static_cast<int>(levels_.size()); }
  [[nodiscard]] const BitGrid& Level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const BitGrid& LeafBits() const { return levels_.back(); }
  [[nodiscard]] const GridDims& LeafDims() const {
    return levels_.back().Dims();
  }
  /// Fine voxels per leaf cell per axis (CoarseOccupancy::Factor()).
  [[nodiscard]] int Factor() const { return factor_; }

  /// Shallowest (largest) empty node containing leaf cell `c`. Returns
  /// false when the leaf is occupied; otherwise fills `node` with the
  /// node's leaf-cell range [lo, hi) and its level. The leaf bit is probed
  /// first, so an occupied cell costs one probe. `c` must be in range.
  [[nodiscard]] bool FindEmptyNode(Vec3i c, OctreeNode& node) const;

 private:
  std::vector<BitGrid> levels_;  // root-first; back() is the leaf level
  int factor_ = 1;
};

}  // namespace spnerf
