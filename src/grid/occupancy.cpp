#include "grid/occupancy.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace spnerf {
namespace {

/// Calls fn(i) for every set bit i < VoxelCount() of `bits`, ascending.
template <typename Fn>
void ForEachSetBit(const BitGrid& bits, Fn&& fn) {
  const u64 total = bits.Dims().VoxelCount();
  const std::vector<u64>& words = bits.Words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (u64 word = words[w]; word != 0; word &= word - 1) {
      const VoxelIndex i = static_cast<VoxelIndex>(w) * 64 +
                           static_cast<VoxelIndex>(std::countr_zero(word));
      if (i >= total) return;
      fn(i);
    }
  }
}

}  // namespace

CoarseOccupancy CoarseOccupancy::Build(const BitGrid& fine, int factor) {
  SPNERF_CHECK_MSG(factor >= 1, "coarse factor must be >= 1");
  const GridDims fd = fine.Dims();
  const GridDims cd{(fd.nx + factor - 1) / factor, (fd.ny + factor - 1) / factor,
                    (fd.nz + factor - 1) / factor};

  CoarseOccupancy occ;
  occ.factor_ = factor;
  BitGrid reduced(cd);

  // OR-reduce fine bits into coarse cells, visiting the set bits only.
  ForEachSetBit(fine, [&](VoxelIndex i) {
    const Vec3i p = fd.Unflatten(i);
    reduced.Set(Vec3i{p.x / factor, p.y / factor, p.z / factor}, true);
  });

  // Dilate by one coarse cell so a skipped cell can never clip the trilinear
  // stencil of an occupied neighbour: a cell is set iff a cell of its
  // in-bounds 3x3x3 neighbourhood is set in `reduced`. Each set reduced
  // cell scatters to that neighbourhood, the same relation read from the
  // other side.
  BitGrid dilated(cd);
  ForEachSetBit(reduced, [&](VoxelIndex i) {
    const Vec3i c = cd.Unflatten(i);
    for (int x = std::max(c.x - 1, 0); x <= std::min(c.x + 1, cd.nx - 1); ++x) {
      for (int y = std::max(c.y - 1, 0); y <= std::min(c.y + 1, cd.ny - 1);
           ++y) {
        for (int z = std::max(c.z - 1, 0); z <= std::min(c.z + 1, cd.nz - 1);
             ++z) {
          dilated.Set(Vec3i{x, y, z}, true);
        }
      }
    }
  });
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
