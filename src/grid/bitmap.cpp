#include "grid/bitmap.hpp"

#include <bit>

#include "common/error.hpp"

namespace spnerf {

BitGrid::BitGrid(GridDims dims) : dims_(dims) {
  SPNERF_CHECK_MSG(dims.nx > 0 && dims.ny > 0 && dims.nz > 0,
                   "bitmap dims must be positive");
  words_.assign((dims.VoxelCount() + 63) / 64, 0ull);
}

BitGrid BitGrid::FromGrid(const DenseGrid& grid) {
  BitGrid bg(grid.Dims());
  const u64 total = grid.VoxelCount();
  for (VoxelIndex i = 0; i < total; ++i) {
    if (grid.IsNonZero(i)) bg.Set(i, true);
  }
  return bg;
}

BitGrid BitGrid::FromWords(GridDims dims, std::vector<u64> words) {
  // Checked against the words before anything is allocated: corrupt dims
  // must not size (and zero-fill) the bitmap they claim.
  SPNERF_CHECK_MSG(dims.nx > 0 && dims.ny > 0 && dims.nz > 0,
                   "bitmap dims must be positive");
  const u64 plane = static_cast<u64>(dims.nx) * static_cast<u64>(dims.ny);
  SPNERF_CHECK_MSG(plane <= ~u64{0} / static_cast<u64>(dims.nz),
                   "bitmap dims " << dims.nx << "x" << dims.ny << "x"
                                  << dims.nz << " overflow the voxel count");
  const u64 voxels = dims.VoxelCount();
  SPNERF_CHECK_MSG(words.size() == voxels / 64 + (voxels % 64 != 0 ? 1 : 0),
                   "word count does not match bitmap dimensions");
  BitGrid bg;
  bg.dims_ = dims;
  bg.words_ = std::move(words);
  return bg;
}

void BitGrid::Set(VoxelIndex i, bool value) {
  SPNERF_CHECK_MSG(i < dims_.VoxelCount(), "bitmap index out of range");
  if (value) {
    words_[i >> 6] |= (1ull << (i & 63));
  } else {
    words_[i >> 6] &= ~(1ull << (i & 63));
  }
}

u64 BitGrid::CountSet() const {
  u64 n = 0;
  for (u64 w : words_) n += static_cast<u64>(std::popcount(w));
  return n;
}

}  // namespace spnerf
