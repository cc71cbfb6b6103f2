#include "grid/occupancy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace spnerf {

CoarseOccupancy CoarseOccupancy::Build(const BitGrid& fine, int factor) {
  SPNERF_CHECK_MSG(factor >= 1, "coarse factor must be >= 1");
  const GridDims fd = fine.Dims();
  const GridDims cd{(fd.nx + factor - 1) / factor, (fd.ny + factor - 1) / factor,
                    (fd.nz + factor - 1) / factor};

  CoarseOccupancy occ;
  occ.factor_ = factor;
  BitGrid reduced(cd);

  // OR-reduce fine bits into coarse cells.
  const u64 total = fd.VoxelCount();
  for (VoxelIndex i = 0; i < total; ++i) {
    if (!fine.Test(i)) continue;
    const Vec3i p = fd.Unflatten(i);
    reduced.Set(Vec3i{p.x / factor, p.y / factor, p.z / factor}, true);
  }

  // Dilate by one coarse cell so a skipped cell can never clip the trilinear
  // stencil of an occupied neighbour.
  BitGrid dilated(cd);
  for (int x = 0; x < cd.nx; ++x) {
    for (int y = 0; y < cd.ny; ++y) {
      for (int z = 0; z < cd.nz; ++z) {
        bool any = false;
        for (int dx = -1; dx <= 1 && !any; ++dx) {
          for (int dy = -1; dy <= 1 && !any; ++dy) {
            for (int dz = -1; dz <= 1 && !any; ++dz) {
              const Vec3i q{x + dx, y + dy, z + dz};
              if (cd.Contains(q) && reduced.Test(q)) any = true;
            }
          }
        }
        if (any) dilated.Set(Vec3i{x, y, z}, true);
      }
    }
  }
  occ.coarse_ = std::move(dilated);
  return occ;
}

CoarseOccupancy CoarseOccupancy::FromBits(BitGrid coarse, int factor) {
  SPNERF_CHECK_MSG(factor >= 1, "coarse factor must be >= 1");
  CoarseOccupancy occ;
  occ.factor_ = factor;
  occ.coarse_ = std::move(coarse);
  return occ;
}

Vec3i CoarseOccupancy::CellOfWorld(Vec3f p) const {
  const GridDims& cd = coarse_.Dims();
  const auto cell = [](float w, int n) {
    return std::clamp(static_cast<int>(w * static_cast<float>(n)), 0, n - 1);
  };
  return {cell(p.x, cd.nx), cell(p.y, cd.ny), cell(p.z, cd.nz)};
}

bool CoarseOccupancy::OccupiedAtWorld(Vec3f p) const {
  if (p.x < 0.f || p.x > 1.f || p.y < 0.f || p.y > 1.f || p.z < 0.f ||
      p.z > 1.f) {
    return false;
  }
  return coarse_.Test(CellOfWorld(p));
}

}  // namespace spnerf
