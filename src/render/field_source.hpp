// Field sources: where the volume renderer gets (density, color feature)
// samples from. One renderer, four sources:
//   * AnalyticFieldSource — the procedural scene itself (ground truth);
//   * GridFieldSource     — trilinear interpolation over a dense grid
//                           (full-precision grid, or VQRF's restored grid);
//   * SpNeRFFieldSource   — the paper's pipeline: per-vertex online hash
//                           decode + trilinear interpolation, optionally with
//                           the TIU's FP16/INT8 arithmetic.
#pragma once

#include <memory>
#include <span>

#include "common/types.hpp"
#include "encoding/spnerf_codec.hpp"
#include "grid/dense_grid.hpp"
#include "scene/scene.hpp"

namespace spnerf {

struct FieldSample {
  float density = 0.0f;
  std::array<float, kColorFeatureDim> features{};
};

class FieldSource {
 public:
  virtual ~FieldSource() = default;
  /// Samples the field at a world position in [0,1]^3.
  [[nodiscard]] virtual FieldSample Sample(Vec3f world) const = 0;
  /// Counter-aware sampling: decode activity is accumulated into `counters`
  /// (caller-owned, may be a per-tile shard). Sources without a decode stage
  /// ignore it. This is the thread-safe entry point the render engine uses;
  /// distinct counter shards may be sampled concurrently.
  [[nodiscard]] virtual FieldSample Sample(Vec3f world,
                                           DecodeCounters* counters) const {
    (void)counters;
    return Sample(world);
  }
  /// Batched sampling: decodes `positions.size()` world positions into `out`
  /// in one call — the wavefront renderer's decode+interpolate stage. The
  /// contract is bit-identity with Sample: `out[i]` must equal
  /// `Sample(positions[i], counters)` exactly (values AND counter activity),
  /// so a batched render is byte-for-byte the scalar render. This default,
  /// the Sample loop, is every source's scalar implementation; an override
  /// only adds a vectorised path and falls back to this loop when no SIMD
  /// kernel is active. Thread-safe like the two-argument Sample: distinct
  /// counter shards may batch concurrently.
  virtual void SampleBatch(std::span<const Vec3f> positions,
                           std::span<FieldSample> out,
                           DecodeCounters* counters) const;
  [[nodiscard]] virtual const char* Name() const = 0;
};

/// Ground truth: evaluates the analytic scene fields directly.
class AnalyticFieldSource final : public FieldSource {
 public:
  explicit AnalyticFieldSource(const Scene& scene) : scene_(&scene) {}
  using FieldSource::Sample;  // keep the counter-aware overload visible
  [[nodiscard]] FieldSample Sample(Vec3f world) const override;
  [[nodiscard]] const char* Name() const override { return "analytic"; }

 private:
  const Scene* scene_;
};

/// Trilinear interpolation over a dense voxel grid (corner-aligned
/// vertices). Used both for the full-precision grid and for VQRF's restored
/// grid.
class GridFieldSource final : public FieldSource {
 public:
  explicit GridFieldSource(const DenseGrid& grid) : grid_(&grid) {}
  using FieldSource::Sample;  // keep the counter-aware overload visible
  [[nodiscard]] FieldSample Sample(Vec3f world) const override;
  /// With a SIMD kernel active, a setup pass computes every sample's base
  /// vertex and fractions into SoA scratch and the grid_trilinear kernel
  /// gathers the grid with Sample's corner and accumulation order, so
  /// results are bit-identical. Otherwise it is the Sample loop.
  void SampleBatch(std::span<const Vec3f> positions,
                   std::span<FieldSample> out,
                   DecodeCounters* counters) const override;
  [[nodiscard]] const char* Name() const override { return "dense-grid"; }

 private:
  const DenseGrid* grid_;
};

/// The SpNeRF online-decoding path: each of the 8 surrounding vertices is
/// decoded through bitmap + hash table + unified 18-bit lookup, then
/// trilinearly blended with Eq. (2) weights.
class SpNeRFFieldSource final : public FieldSource {
 public:
  /// When `fp16_tiu` is set, interpolation weights and accumulation are
  /// rounded to binary16, matching the hardware TIU exactly. The third
  /// parameter is ignored; it is kept so existing three-argument callers
  /// still compile.
  ///
  /// Decode activity goes only to the counter shard a caller hands the
  /// two-argument Sample or SampleBatch; the source itself keeps no mutable
  /// state, so one instance can serve many render workers.
  explicit SpNeRFFieldSource(const SpNeRFModel& model, bool fp16_tiu = false,
                             bool /*ignored*/ = false)
      : model_(&model),
        fp16_tiu_(fp16_tiu),
        masking_(model.Params().bitmap_masking) {}

  /// Overrides the model's bitmap-masking setting for this source (used by
  /// the Fig 6(b) pre-mask vs post-mask comparison).
  void SetMasking(bool masking) { masking_ = masking; }
  [[nodiscard]] bool Masking() const { return masking_; }

  [[nodiscard]] FieldSample Sample(Vec3f world) const override {
    return Sample(world, nullptr);
  }
  [[nodiscard]] FieldSample Sample(Vec3f world,
                                   DecodeCounters* counters) const override;
  /// With a SIMD kernel active, the paper's dataflow in software: the setup
  /// pass computes bases/fractions and gives every non-zero-weight corner
  /// its own vertex slot in (sample, corner) order, one
  /// SpNeRFModel::DecodeBatch call decodes each slot once — Sample's
  /// Decode() calls, batched — and a spnerf_blend kernel applies Sample's
  /// corner loop against the decoded table. Counters count one query per
  /// decoded slot, so they — like the blended values — are bit-identical to
  /// Sample. Otherwise it is the Sample loop.
  void SampleBatch(std::span<const Vec3f> positions,
                   std::span<FieldSample> out,
                   DecodeCounters* counters) const override;

  [[nodiscard]] const char* Name() const override { return "spnerf"; }

 private:
  const SpNeRFModel* model_;
  bool fp16_tiu_;
  bool masking_;
};

namespace detail {

/// Computes the base vertex and interpolation fractions for a world position
/// (corner-aligned vertices); false when outside [0,1]^3.
inline bool SetupTrilinear(const GridDims& dims, Vec3f world, Vec3i& base,
                           Vec3f& frac) {
  if (world.x < 0.f || world.x > 1.f || world.y < 0.f || world.y > 1.f ||
      world.z < 0.f || world.z > 1.f) {
    return false;
  }
  const Vec3f g{world.x * static_cast<float>(dims.nx - 1),
                world.y * static_cast<float>(dims.ny - 1),
                world.z * static_cast<float>(dims.nz - 1)};
  base = Floor(g);
  base.x = Clamp(base.x, 0, dims.nx - 2);
  base.y = Clamp(base.y, 0, dims.ny - 2);
  base.z = Clamp(base.z, 0, dims.nz - 2);
  frac = g - ToFloat(base);
  frac = Clamp(frac, Vec3f{0.f, 0.f, 0.f}, Vec3f{1.f, 1.f, 1.f});
  return true;
}

}  // namespace detail

/// Generic trilinear field source over any codec exposing
/// `Dims()` and `VoxelData Decode(Vec3i)` — used by encoding extensions
/// (e.g. the two-choice codec) so they plug into the same renderer.
template <typename Codec>
class CodecFieldSource final : public FieldSource {
 public:
  explicit CodecFieldSource(const Codec& codec) : codec_(&codec) {}

  using FieldSource::Sample;  // keep the counter-aware overload visible
  [[nodiscard]] FieldSample Sample(Vec3f world) const override {
    FieldSample out;
    Vec3i base;
    Vec3f frac;
    if (!detail::SetupTrilinear(codec_->Dims(), world, base, frac)) return out;
    for (int corner = 0; corner < 8; ++corner) {
      const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                    base.z + ((corner >> 2) & 1)};
      const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
      const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
      const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
      const float w = wx * wy * wz;
      if (w == 0.0f) continue;
      const VoxelData d = codec_->Decode(v);
      out.density += w * d.density;
      for (int c = 0; c < kColorFeatureDim; ++c)
        out.features[c] += w * d.features[c];
    }
    return out;
  }
  [[nodiscard]] const char* Name() const override { return "codec"; }

 private:
  const Codec* codec_;
};

}  // namespace spnerf
