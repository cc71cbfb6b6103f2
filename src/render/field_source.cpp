#include "render/field_source.hpp"

#include <climits>
#include <cmath>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "render/wavefront_kernels.hpp"

namespace spnerf {

void FieldSource::SampleBatch(std::span<const Vec3f> positions,
                              std::span<FieldSample> out,
                              DecodeCounters* counters) const {
  SPNERF_CHECK_MSG(out.size() == positions.size(),
                   "SampleBatch span sizes must match");
  for (std::size_t i = 0; i < positions.size(); ++i) {
    out[i] = Sample(positions[i], counters);
  }
}

FieldSample AnalyticFieldSource::Sample(Vec3f world) const {
  FieldSample s;
  s.density = scene_->Density(world);
  if (s.density > 0.0f) s.features = scene_->ColorFeature(world);
  return s;
}

FieldSample GridFieldSource::Sample(Vec3f world) const {
  FieldSample out;
  Vec3i base;
  Vec3f frac;
  if (!detail::SetupTrilinear(grid_->Dims(), world, base, frac)) return out;

  for (int corner = 0; corner < 8; ++corner) {
    const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                  base.z + ((corner >> 2) & 1)};
    // Eq. (2): w = (1-|xp-xg|)(1-|yp-yg|)(1-|zp-zg|) in grid units.
    const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
    const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
    const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
    const float w = wx * wy * wz;
    if (w == 0.0f) continue;
    const VoxelIndex idx = grid_->Dims().Flatten(v);
    out.density += w * grid_->Density(idx);
    const float* f = grid_->Features(idx);
    for (int c = 0; c < kColorFeatureDim; ++c) out.features[c] += w * f[c];
  }
  return out;
}

void GridFieldSource::SampleBatch(std::span<const Vec3f> positions,
                                  std::span<FieldSample> out,
                                  DecodeCounters* counters) const {
  // The kernel gathers with 32-bit indices, so a grid whose flattened
  // feature index could overflow i32 takes the Sample loop too.
  const wavefront::KernelTable* kt = wavefront::Active();
  const GridDims& dims = grid_->Dims();
  if (kt == nullptr ||
      dims.VoxelCount() * kColorFeatureDim > static_cast<u64>(INT_MAX)) {
    FieldSource::SampleBatch(positions, out, counters);
    return;
  }
  SPNERF_CHECK_MSG(out.size() == positions.size(),
                   "SampleBatch span sizes must match");
  struct Scratch {
    AlignedVector<Vec3i> base;
    AlignedVector<Vec3f> frac;
    AlignedVector<u8> inside;
  };
  thread_local Scratch s;
  const std::size_t n = positions.size();
  s.base.resize(n);
  s.frac.resize(n);
  s.inside.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.inside[i] =
        detail::SetupTrilinear(dims, positions[i], s.base[i], s.frac[i]) ? 1
                                                                         : 0;
  }
  wavefront::GridTrilinearArgs args;
  args.base = s.base.data();
  args.frac = s.frac.data();
  args.inside = s.inside.data();
  args.density = grid_->DensityRaw().data();
  args.features = grid_->FeaturesRaw().data();
  args.ny = dims.ny;
  args.nz = dims.nz;
  args.out = out.data();
  args.n = n;
  kt->grid_trilinear(args);
}

FieldSample SpNeRFFieldSource::Sample(Vec3f world,
                                      DecodeCounters* counters) const {
  FieldSample out;
  Vec3i base;
  Vec3f frac;
  if (!detail::SetupTrilinear(model_->Dims(), world, base, frac)) return out;

  if (!fp16_tiu_) {
    for (int corner = 0; corner < 8; ++corner) {
      const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                    base.z + ((corner >> 2) & 1)};
      const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
      const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
      const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
      const float w = wx * wy * wz;
      if (w == 0.0f) continue;
      const VoxelData d = model_->Decode(v, masking_, counters);
      out.density += w * d.density;
      for (int c = 0; c < kColorFeatureDim; ++c)
        out.features[c] += w * d.features[c];
    }
    return out;
  }

  // FP16 TIU path: weights from the GID's FP16 multipliers, accumulation via
  // FP16 FMAs (C_interp = sum_i w_i * (s * C_i), paper IV-B).
  Half density_acc(0.0f);
  Half feat_acc[kColorFeatureDim] = {};
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                  base.z + ((corner >> 2) & 1)};
    const Half wx((corner & 1) ? frac.x : 1.0f - frac.x);
    const Half wy(((corner >> 1) & 1) ? frac.y : 1.0f - frac.y);
    const Half wz(((corner >> 2) & 1) ? frac.z : 1.0f - frac.z);
    const Half w = wx * wy * wz;
    if (w.IsZero()) continue;
    const VoxelData d = model_->Decode(v, masking_, counters);
    density_acc = Half::Fma(w, Half(d.density), density_acc);
    for (int c = 0; c < kColorFeatureDim; ++c)
      feat_acc[c] = Half::Fma(w, Half(d.features[c]), feat_acc[c]);
  }
  out.density = density_acc.ToFloat();
  for (int c = 0; c < kColorFeatureDim; ++c)
    out.features[c] = feat_acc[c].ToFloat();
  return out;
}

void SpNeRFFieldSource::SampleBatch(std::span<const Vec3f> positions,
                                    std::span<FieldSample> out,
                                    DecodeCounters* counters) const {
  // The blend kernels gather the decoded table with 32-bit indices. A
  // sample decodes at most 8 corners, so a front whose table could overflow
  // them takes the Sample loop too.
  const wavefront::KernelTable* kt = wavefront::Active();
  const std::size_t n = positions.size();
  if (kt == nullptr ||
      n * 8 * (1 + kColorFeatureDim) > static_cast<std::size_t>(INT_MAX)) {
    FieldSource::SampleBatch(positions, out, counters);
    return;
  }
  SPNERF_CHECK_MSG(out.size() == positions.size(),
                   "SampleBatch span sizes must match");
  constexpr u32 kNoRef = wavefront::kNoVertexRef;
  struct Scratch {
    AlignedVector<Vec3i> base;
    AlignedVector<Vec3f> frac;
    AlignedVector<u8> inside;
    AlignedVector<u32> refs;  // 8 per sample: vertex slot or kNoRef
    std::vector<Vec3i> vertices;  // one per decoded (sample, corner)
    AlignedVector<VoxelData> decoded;
    std::vector<DecodeClass> classes;
  };
  thread_local Scratch s;
  s.base.resize(n);
  s.frac.resize(n);
  s.inside.resize(n);
  s.refs.assign(n * 8, kNoRef);
  s.vertices.clear();

  const GridDims& dims = model_->Dims();

  // Setup pass: every corner Sample() would decode (non-zero Eq. (2)
  // weight, under the active arithmetic mode) gets its own vertex slot, in
  // (sample, corner) order.
  for (std::size_t i = 0; i < n; ++i) {
    s.inside[i] =
        detail::SetupTrilinear(dims, positions[i], s.base[i], s.frac[i]) ? 1
                                                                         : 0;
    if (!s.inside[i]) continue;
    const Vec3i base = s.base[i];
    const Vec3f frac = s.frac[i];
    for (int corner = 0; corner < 8; ++corner) {
      const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
      const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
      const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
      // Replicate Sample()'s skip test exactly: float product for the FP32
      // path, binary16 product for the TIU path (which may flush where the
      // float product is tiny-but-non-zero).
      const bool skip = fp16_tiu_ ? (Half(wx) * Half(wy) * Half(wz)).IsZero()
                                  : (wx * wy * wz) == 0.0f;
      if (skip) continue;
      const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                    base.z + ((corner >> 2) & 1)};
      s.refs[i * 8 + static_cast<std::size_t>(corner)] =
          static_cast<u32>(s.vertices.size());
      s.vertices.push_back(v);
    }
  }

  // Decode pass: bitmap/hash/18-bit lookup once per reference, exactly
  // Sample()'s Decode() calls, so counters count each one directly.
  s.decoded.resize(s.vertices.size());
  s.classes.resize(s.vertices.size());
  model_->DecodeBatch(s.vertices, masking_, s.decoded, s.classes);
  if (counters) {
    for (const DecodeClass cls : s.classes) counters->AddQuery(cls);
  }

  // Blend pass: Sample()'s corner loop, vectorised across samples.
  wavefront::SpnerfBlendArgs args;
  args.frac = s.frac.data();
  args.inside = s.inside.data();
  args.refs = s.refs.data();
  args.decoded = s.decoded.data();
  args.out = out.data();
  args.n = n;
  (fp16_tiu_ ? kt->spnerf_blend_fp16 : kt->spnerf_blend_fp32)(args);
}

}  // namespace spnerf
