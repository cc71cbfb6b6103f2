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
// Contract: every kernel is BIT-identical to the scalar reference loop it
// replaces (the loops stay in mlp.cpp / field_source.cpp as the oracle).
// Vectorisation is across the sample/lane dimension only, so each sample's
// accumulation chain keeps the exact scalar op order — no FMA contraction,
// no reassociation. The generic implementations live in
// wavefront_kernels_impl.inl and are instantiated once per ISA
// (wavefront_kernels_{avx2,neon}.cpp) against the lane-ops wrappers in
// common/simd_lanes_*.hpp.
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

/// Row-major MLP parameters. The fp16 kernels consume the packed binary16
/// copies (wh/bh), which round-trip through Half identically to quantizing
/// the fp32 weights on the fly — see Mlp::PackedHalfWeights.
struct MlpWeightsView {
  const float* w[3] = {nullptr, nullptr, nullptr};
  const float* b[3] = {nullptr, nullptr, nullptr};
  const u16* wh[3] = {nullptr, nullptr, nullptr};
  const u16* bh[3] = {nullptr, nullptr, nullptr};
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
/// scalar loop for oversized grids.
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

/// One ISA's kernel set. Null table == run the scalar reference.
struct KernelTable {
  const char* name = "scalar";
  void (*mlp_forward_fp32)(const MlpBatchArgs&) = nullptr;
  void (*mlp_forward_fp16)(const MlpBatchArgs&) = nullptr;
  void (*grid_trilinear)(const GridTrilinearArgs&) = nullptr;
  void (*spnerf_blend_fp32)(const SpnerfBlendArgs&) = nullptr;
  void (*spnerf_blend_fp16)(const SpnerfBlendArgs&) = nullptr;
};

/// Kernel table for one path; nullptr when the path has no compiled
/// kernels in this binary (kScalar always returns nullptr — the scalar
/// reference is inline at the call sites, not a table entry).
[[nodiscard]] const KernelTable* ForPath(simd::Path path);

/// Kernel table for the active dispatch path (nullptr => scalar).
[[nodiscard]] const KernelTable* Active();

// Per-ISA tables (nullptr when not compiled for this target).
[[nodiscard]] const KernelTable* Avx2Table();
[[nodiscard]] const KernelTable* NeonTable();

}  // namespace spnerf::wavefront
