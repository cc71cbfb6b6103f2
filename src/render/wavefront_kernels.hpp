// Vectorised wavefront kernels behind the runtime SIMD dispatch
// (common/simd.hpp). Three kernels cover the decode→interpolate→MLP hot
// path the wavefront renderer batches:
//   * spnerf_blend_*   — the decoded corner-vertex blend of
//                        SpNeRFFieldSource::SampleBatch (fp32 + fp16 TIU);
//   * grid_trilinear   — the dense-grid trilinear gather of
//                        GridFieldSource::SampleBatch;
//   * mlp_forward_*    — the blocked Mlp::ForwardBatch / ForwardFp16Batch
//                        GEMM (fp32 + packed-binary16 activations).
//
// Contract: every kernel is BIT-identical to its one scalar
// implementation, which its batch entry point runs when no kernel is
// active: the Sample loop for the field sources (GridFieldSource::Sample,
// SpNeRFFieldSource::Sample), Mlp's private blocked ForwardScalar /
// ForwardFp16Scalar for the MLP. Vectorisation is across the sample/lane
// dimension only, so each sample's accumulation chain keeps the exact
// scalar op order — no FMA contraction, no reassociation. The generic
// implementations live in wavefront_kernels_impl.inl and are instantiated
// once per ISA (wavefront_kernels_{avx2,neon}.cpp) against the lane-ops
// wrappers in common/simd_lanes_*.hpp.
#pragma once

#include <array>
#include <cstddef>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "common/vec.hpp"
#include "grid/dense_grid.hpp"
#include "render/field_source.hpp"

namespace spnerf::wavefront {

/// Sentinel in the per-(sample,corner) reference table: corner not decoded
/// (zero or flushed interpolation weight, or sample outside the volume).
inline constexpr u32 kNoVertexRef = 0xffffffffu;

/// Row-major MLP parameters. The fp32 kernel reads w/b; the fp16 kernel
/// reads wq/bq, the binary16-rounded weights as floats (Half(w).ToFloat(),
/// the quantisation ForwardFp16 applies on the fly).
struct MlpWeightsView {
  const float* w[3] = {nullptr, nullptr, nullptr};
  const float* b[3] = {nullptr, nullptr, nullptr};
  const float* wq[3] = {nullptr, nullptr, nullptr};
  const float* bq[3] = {nullptr, nullptr, nullptr};
};

struct MlpBatchArgs {
  MlpWeightsView weights;
  const std::array<float, kMlpInputDim>* in = nullptr;
  Vec3f* out = nullptr;
  std::size_t n = 0;
};

/// Inputs of the grid trilinear gather pass: per-sample base vertex,
/// fractions and inside flag from the (scalar) setup pass, plus the grid's
/// SoA channel arrays. Flattened indices must fit in i32 — the caller
/// checks VoxelCount()*kColorFeatureDim against INT32_MAX and runs the
/// Sample loop for oversized grids.
struct GridTrilinearArgs {
  const Vec3i* base = nullptr;
  const Vec3f* frac = nullptr;
  const u8* inside = nullptr;
  const float* density = nullptr;
  const float* features = nullptr;  // kColorFeatureDim per voxel
  int ny = 0, nz = 0;
  FieldSample* out = nullptr;
  std::size_t n = 0;
};

/// Inputs of the SpNeRF blend pass: the per-(sample,corner) reference table
/// from the setup pass and the decoded vertex values it indexes. refs is
/// sample-major, 8 per sample, kNoVertexRef = skipped.
struct SpnerfBlendArgs {
  const Vec3f* frac = nullptr;
  const u8* inside = nullptr;
  const u32* refs = nullptr;
  const VoxelData* decoded = nullptr;
  FieldSample* out = nullptr;
  std::size_t n = 0;
};

/// One ISA's kernel set. Every compiled table sets all five entries, so
/// callers check only the table. Null table == run the scalar
/// implementation.
struct KernelTable {
  void (*mlp_forward_fp32)(const MlpBatchArgs&) = nullptr;
  void (*mlp_forward_fp16)(const MlpBatchArgs&) = nullptr;
  void (*grid_trilinear)(const GridTrilinearArgs&) = nullptr;
  void (*spnerf_blend_fp32)(const SpnerfBlendArgs&) = nullptr;
  void (*spnerf_blend_fp16)(const SpnerfBlendArgs&) = nullptr;
};

/// Kernel table for one path; nullptr when the path has no compiled
/// kernels in this binary. kScalar always returns nullptr: each batch entry
/// point runs its one scalar implementation itself.
[[nodiscard]] const KernelTable* ForPath(simd::Path path);

/// Kernel table for the active dispatch path (nullptr => scalar).
[[nodiscard]] const KernelTable* Active();

// Per-ISA tables (nullptr when not compiled for this target).
[[nodiscard]] const KernelTable* Avx2Table();
[[nodiscard]] const KernelTable* NeonTable();

}  // namespace spnerf::wavefront
