// Vectorised codebook-training kernels behind the runtime SIMD dispatch
// (common/simd.hpp). Two kernels cover the hot loops of Codebook::Train and
// of the VQ assignment in VqrfModel::Build:
//   * nearest    — the nearest-centroid scan of Codebook::NearestBatch;
//                  lanes are CENTROIDS of a lane-major row copy;
//   * d2_refresh — the k-means++ D^2 refresh of Codebook::Train's seeding;
//                  lanes are SAMPLES of a lane-major sample copy.
//
// Contract: both kernels are BIT-identical to the scalar implementation
// their entry points run when no table is active (Codebook::Nearest, and
// the `std::min(d2[i], Dist2(sample, latest))` refresh loop). Every
// distance keeps Dist2's op order — acc = +0, then acc += (a[c] - b[c])^2
// for c = 0..kColorFeatureDim-1, no FMA contraction — and the nearest scan
// keeps the scalar tie rule (strict `<`, so the lowest index wins). The
// generic implementations live in codebook_kernels_impl.inl, instantiated
// once per ISA (codebook_kernels_{avx2,neon}.cpp) against the lane-ops
// wrappers in common/simd_lanes_*.hpp. They sit in grid/ rather than in
// render/wavefront_kernels because grid is below render.
#pragma once

#include <cstddef>

#include "common/simd.hpp"
#include "grid/codebook.hpp"

namespace spnerf::codebook_kernels {

/// Lane-major copies are padded to a multiple of this many vectors: one
/// kernel block, a whole number of lanes on every ISA.
inline constexpr std::size_t kLanePad = 32;

/// A lane-major copy of feature vectors: component c of vector i sits at
/// cols[c * padded + i]. `padded` is a multiple of kLanePad, `cols` is
/// 64-byte aligned, and the padding vectors hold +inf in every component.
struct LaneMajorView {
  const float* cols = nullptr;
  std::size_t padded = 0;
};

/// out[q] = index of the row nearest to queries[q]: the smallest squared
/// distance below FLT_MAX, ties to the lowest index, and 0 when no distance
/// is below FLT_MAX (NaN never wins). +inf padding rows never win.
/// rows.padded must be at most 2^24 (row indices ride in float lanes).
struct NearestArgs {
  LaneMajorView rows;
  const FeatureVec* queries = nullptr;
  int* out = nullptr;
  std::size_t n = 0;
};

/// d2[i] = min(d2[i], Dist2(sample i, centroid)) over all `samples.padded`
/// lanes (d2 is 64-byte aligned with samples.padded entries), fused with
/// the k-means++ probability total: the kernel returns the double sum of
/// d2[0..n) after the refresh, added in index order from 0.0 like the
/// scalar loop.
struct D2RefreshArgs {
  LaneMajorView samples;
  std::size_t n = 0;  // real samples; the rest of `padded` is padding
  const FeatureVec* centroid = nullptr;
  float* d2 = nullptr;
};

/// One ISA's kernel set. Every compiled table sets both entries, so
/// callers check only the table. Null table == run the scalar
/// implementation.
struct KernelTable {
  void (*nearest)(const NearestArgs&) = nullptr;
  double (*d2_refresh)(const D2RefreshArgs&) = nullptr;
};

/// Kernel table for one path; nullptr when the path has no compiled
/// kernels in this binary. kScalar always returns nullptr.
[[nodiscard]] const KernelTable* ForPath(simd::Path path);

/// Kernel table for the active dispatch path (nullptr => scalar).
[[nodiscard]] const KernelTable* Active();

// Per-ISA tables (nullptr when not compiled for this target).
[[nodiscard]] const KernelTable* Avx2Table();
[[nodiscard]] const KernelTable* NeonTable();

}  // namespace spnerf::codebook_kernels
