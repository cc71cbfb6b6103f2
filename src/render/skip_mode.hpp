// Empty-space-skip structure identity for run stamps. The ray marchers have
// one skip structure, the occupancy octree (grid/occupancy_octree.hpp); this
// header only names it so reports that record the active skip mode keep a
// stable field.
#pragma once

#include "common/types.hpp"

namespace spnerf::skip {

/// Skip structures. There is one.
enum class Mode : u8 {
  kOctree = 0,
};

/// Lower-case mode name, as recorded in run stamps.
[[nodiscard]] inline const char* ModeName(Mode) { return "octree"; }

/// The skip structure every marcher crosses empty space with.
[[nodiscard]] inline Mode ActiveMode() { return Mode::kOctree; }

}  // namespace spnerf::skip
