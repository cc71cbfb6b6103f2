#include "render/volume_renderer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/aligned.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/embedding.hpp"
#include "render/render_engine.hpp"

namespace spnerf {

namespace {

/// Pre-resolved metric handles for the skip instrumentation (handle lookup
/// takes the registry mutex; resolving once keeps the march wait-free).
/// Octrees deeper than kMaxLevels fold into the last bucket — 12 levels
/// already covers a 2048^3 coarse grid.
struct SkipObsHandles {
  static constexpr int kMaxLevels = 12;
  std::array<obs::Counter*, kMaxLevels> level{};  // octree jumps per level
  obs::Counter* outside = nullptr;  // octree jumps from outside [0,1]^3
  /// Empty-space jumps per ray (RenderStats::coarse_skips, per ray).
  obs::Histogram* cells_per_ray = nullptr;

  SkipObsHandles() {
    auto& reg = obs::MetricsRegistry::Global();
    for (int l = 0; l < kMaxLevels; ++l) {
      level[static_cast<std::size_t>(l)] =
          &reg.GetCounter("render/skip-l" + std::to_string(l));
    }
    outside = &reg.GetCounter("render/skip-outside");
    cells_per_ray = &reg.GetHistogram("render/skipped-cells-per-ray");
  }
};

SkipObsHandles& SkipObs() {
  static SkipObsHandles handles;
  return handles;
}

}  // namespace

namespace render_detail {

/// Local accumulator for the per-level jump counters; flushed to the
/// registry once per ray (scalar path) or tile (wavefront).
struct SkipShard {
  std::array<u32, SkipObsHandles::kMaxLevels> level{};
  u32 outside = 0;

  void Flush() const {
    SkipObsHandles& h = SkipObs();
    for (std::size_t l = 0; l < level.size(); ++l) {
      if (level[l] != 0) h.level[l]->Add(level[l]);
    }
    if (outside != 0) h.outside->Add(outside);
  }
};

namespace {

/// Largest index a jump lands on directly; guards the float-to-index
/// conversion when a ray has no exit plane ahead (t_far near FLT_MAX).
constexpr float kMaxJumpIndex = 1073741824.f;  // 2^30

bool InUnitCube(Vec3f p) {
  return !(p.x < 0.f || p.x > 1.f || p.y < 0.f || p.y > 1.f || p.z < 0.f ||
           p.z > 1.f);
}

/// The lattice index a jump across the empty `node` from index m.k lands
/// on. The candidate is the first index at or past the ray's exit from the
/// node box (capped at t_far), and at least m.k + 1, so grazing and
/// degenerate rays still progress. The exit distance is rounded, so the
/// candidate may overshoot: step back while the point before it already
/// lies outside the node. Every cell coordinate is monotone in k (o + d*t
/// under round-to-nearest and CellOfWorld's truncation both are), so the
/// lattice points inside the node form one interval containing m.k; once
/// point next-1 is inside, every point of (m.k, next) is, and all of them
/// are empty. An undershoot only costs one more jump.
u32 JumpPast(const CoarseOccupancy& leaf, const OctreeNode& node,
             const LatticeMarch& m) {
  const GridDims& dims = leaf.CoarseDims();
  float t_exit = m.t_far;
  for (int axis = 0; axis < 3; ++axis) {
    const float d = m.ray.direction[axis];
    if (std::fabs(d) < kDegenerateDirectionEpsilon) continue;
    const int n = axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz;
    const int face = d > 0.f ? node.hi[axis] : node.lo[axis];
    const float plane = static_cast<float>(face) / static_cast<float>(n);
    t_exit = std::min(t_exit, (plane - m.ray.origin[axis]) / d);
  }
  u32 next = m.k + 1;
  const float k_exit = std::ceil((t_exit - m.t_near) / m.step);
  if (k_exit > static_cast<float>(next)) {
    next = k_exit < kMaxJumpIndex ? static_cast<u32>(k_exit)
                                  : static_cast<u32>(kMaxJumpIndex);
  }
  while (next - 1 > m.k &&
         !node.Contains(leaf.CellOfWorld(m.Point(next - 1)))) {
    --next;
  }
  return next;
}

}  // namespace

bool AdvanceToOccupied(const OccupancyOctree* octree, LatticeMarch& m,
                       Vec3f& p, SkipShard* shard) {
  while (true) {
    const float t = m.T(m.k);
    if (!(t < m.t_far)) return false;
    p = m.ray.At(t);
    if (octree == nullptr) return true;
    const bool inside = InUnitCube(p);
    const CoarseOccupancy& leaf = octree->Leaf();
    OctreeNode node;
    const bool empty = octree->FindEmptyNode(leaf.CellOfWorld(p), node);
    if (!empty && inside) return true;
    // Outside points clamp onto a boundary cell. Over an empty one they
    // jump like inside points (no point in that cell is taken); over an
    // occupied one only this point is dropped.
    m.k = empty ? JumpPast(leaf, node, m) : m.k + 1;
    ++m.jumps;
    if (shard != nullptr) {
      if (inside) {
        ++shard->level[static_cast<std::size_t>(
            std::min(node.level, SkipObsHandles::kMaxLevels - 1))];
      } else {
        ++shard->outside;
      }
    }
  }
}

}  // namespace render_detail

Vec3f VolumeRenderer::RenderRay(const FieldSource& source, const Mlp& mlp,
                                const Ray& ray, RenderStats* stats,
                                DecodeCounters* counters) const {
  const Aabb scene_box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  float t_near = 0.f, t_far = 0.f;
  if (stats) ++stats->rays;
  if (!IntersectAabb(ray, scene_box, t_near, t_far)) {
    if (stats) ++stats->missed_rays;
    return options_.background;
  }

  const ViewEmbedding view = EmbedViewDirection(ray.direction);
  Vec3f color{0.f, 0.f, 0.f};
  float transmittance = 1.0f;
  u64 ray_steps = 0;
  u64 ray_evals = 0;
  bool terminated = false;

  const bool count_obs = obs::CountersEnabled();
  render_detail::SkipShard shard;
  render_detail::SkipShard* shard_ptr =
      (count_obs && options_.skip != nullptr) ? &shard : nullptr;

  render_detail::LatticeMarch march;
  march.ray = ray;
  march.t_near = t_near;
  march.t_far = t_far;
  march.step = options_.step_size;
  Vec3f p;
  // Empty-space skipping: jump over unoccupied lattice points until the
  // next occupied sample position (or out of the box).
  while (render_detail::AdvanceToOccupied(options_.skip, march, p,
                                          shard_ptr)) {
    ++march.k;
    ++ray_steps;
    const FieldSample s = source.Sample(p, counters);

    // Stored density is post-activation sigma; negative values (possible
    // after lossy decode) clamp to zero.
    const float sigma = s.density > 0.0f ? s.density : 0.0f;
    const float alpha = 1.0f - std::exp(-sigma * options_.step_size);
    if (alpha <= options_.alpha_threshold) continue;

    ++ray_evals;
    const auto in = AssembleMlpInput(s.features, view);
    const Vec3f rgb = options_.fp16_mlp ? mlp.ForwardFp16(in) : mlp.Forward(in);
    const float weight = transmittance * alpha;
    color += rgb * weight;
    transmittance *= 1.0f - alpha;
    if (transmittance < options_.termination_transmittance) {
      terminated = true;
      break;
    }
  }

  color += options_.background * transmittance;
  if (stats) {
    stats->steps += ray_steps;
    stats->coarse_skips += march.jumps;
    stats->mlp_evals += ray_evals;
    if (terminated) ++stats->terminated_rays;
  }
  if (count_obs) {
    if (shard_ptr != nullptr) shard_ptr->Flush();
    SkipObs().cells_per_ray->Record(march.jumps);
  }
  return color;
}

namespace {

/// Per-ray march state of the wavefront tile marcher. The sample/shade
/// buffers of the front are SoA (see WavefrontScratch); this is the per-ray
/// bookkeeping that survives between wavefront iterations.
struct WavefrontRay {
  render_detail::LatticeMarch march;
  ViewEmbedding view{};
  Vec3f color{0.f, 0.f, 0.f};
  float transmittance = 1.0f;
  u64 steps = 0;
  u64 evals = 0;
  bool missed = false;
  bool terminated = false;
};

/// Reusable SoA buffers of one wavefront tile; thread_local so a pool
/// worker's buffers warm up once and are reused across every tile it
/// renders, with no cross-thread sharing. 64-byte aligned (AlignedVector)
/// so the SIMD wavefront kernels can use natural aligned vector accesses
/// on every front buffer.
struct WavefrontScratch {
  std::vector<WavefrontRay> rays;      // per tile pixel, row-major
  AlignedVector<u32> active;           // ray indices still marching
  AlignedVector<u32> next_active;
  AlignedVector<Vec3f> positions;      // front: sample positions
  AlignedVector<u32> front_ray;        // front: owning ray index
  AlignedVector<FieldSample> samples;  // front: SampleBatch output
  AlignedVector<float> alphas;         // survivors: alpha at their sample
  AlignedVector<u32> survivor_ray;     // survivors: owning ray index
  AlignedVector<std::array<float, kMlpInputDim>> mlp_in;
  AlignedVector<Vec3f> mlp_out;
};

}  // namespace

void VolumeRenderer::RenderTileWavefront(const FieldSource& source,
                                         const Mlp& mlp, const Camera& camera,
                                         int x0, int y0, int x1, int y1,
                                         Image& out, RenderStats* stats,
                                         DecodeCounters* counters) const {
  thread_local WavefrontScratch s;
  const Aabb scene_box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  const int width = x1 - x0;
  const bool count_obs = obs::CountersEnabled();
  render_detail::SkipShard skip_shard;
  render_detail::SkipShard* skip_shard_ptr =
      (count_obs && options_.skip != nullptr) ? &skip_shard : nullptr;

  // Ray setup, row-major over the tile (the same enumeration the scalar
  // loop uses; every per-ray quantity below reduces in this order).
  s.rays.clear();
  s.active.clear();
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      WavefrontRay r;
      r.march.ray = camera.PixelRay(x, y);
      if (!IntersectAabb(r.march.ray, scene_box, r.march.t_near,
                         r.march.t_far)) {
        r.missed = true;
      } else {
        r.view = EmbedViewDirection(r.march.ray.direction);
        r.march.step = options_.step_size;
        s.active.push_back(static_cast<u32>(s.rays.size()));
      }
      s.rays.push_back(r);
    }
  }

  // Wavefront march: each iteration advances every active ray to its next
  // in-volume sample (empty-space skipping is per-ray control flow and
  // needs no field access), gathers the front into one SampleBatch, gates
  // it on the alpha threshold and shades the survivors through one
  // ForwardBatch. A ray contributes at most one sample per iteration, so
  // its compositing chain runs in strict t order with exactly the scalar
  // path's arithmetic.
  while (!s.active.empty()) {
    s.positions.clear();
    s.front_ray.clear();
    for (const u32 idx : s.active) {
      WavefrontRay& r = s.rays[idx];
      // Advance to the next sample position (the scalar loop's lattice
      // advance, shared).
      Vec3f p;
      if (!render_detail::AdvanceToOccupied(options_.skip, r.march, p,
                                            skip_shard_ptr)) {
        continue;  // marched out of the box: ray retires
      }
      ++r.march.k;
      ++r.steps;
      s.positions.push_back(p);
      s.front_ray.push_back(idx);
    }

    // Decode + interpolate the whole front in one call.
    if (obs::CountersEnabled()) {
      static obs::Histogram& front_size =
          obs::MetricsRegistry::Global().GetHistogram("render/front-size");
      front_size.Record(s.positions.size());
    }
    s.samples.resize(s.positions.size());
    source.SampleBatch(s.positions, s.samples, counters);

    // Alpha gate: survivors assemble their MLP inputs; the rest keep
    // marching without shading, exactly like the scalar `continue`.
    s.alphas.clear();
    s.survivor_ray.clear();
    s.mlp_in.clear();
    for (std::size_t e = 0; e < s.samples.size(); ++e) {
      const FieldSample& smp = s.samples[e];
      const float sigma = smp.density > 0.0f ? smp.density : 0.0f;
      const float alpha = 1.0f - std::exp(-sigma * options_.step_size);
      if (alpha <= options_.alpha_threshold) continue;
      WavefrontRay& r = s.rays[s.front_ray[e]];
      ++r.evals;
      s.alphas.push_back(alpha);
      s.survivor_ray.push_back(s.front_ray[e]);
      s.mlp_in.push_back(AssembleMlpInput(smp.features, r.view));
    }

    // Shade the survivors as one blocked matrix product.
    s.mlp_out.resize(s.mlp_in.size());
    if (options_.fp16_mlp) {
      mlp.ForwardFp16Batch(s.mlp_in, s.mlp_out);
    } else {
      mlp.ForwardBatch(s.mlp_in, s.mlp_out);
    }

    // Composite. Each ray appears at most once per front, so per-ray
    // accumulation order equals t order.
    for (std::size_t k = 0; k < s.survivor_ray.size(); ++k) {
      WavefrontRay& r = s.rays[s.survivor_ray[k]];
      const float alpha = s.alphas[k];
      const float weight = r.transmittance * alpha;
      r.color += s.mlp_out[k] * weight;
      r.transmittance *= 1.0f - alpha;
      if (r.transmittance < options_.termination_transmittance) {
        r.terminated = true;
      }
    }

    // Next front: rays that sampled this round and neither terminated nor
    // marched out. Front order preserves active order, so the active list
    // stays in tile row-major order (determinism is not affected either
    // way; rays are independent).
    s.next_active.clear();
    for (const u32 idx : s.front_ray) {
      if (!s.rays[idx].terminated) s.next_active.push_back(idx);
    }
    s.active.swap(s.next_active);
  }

  // Finalize: each ray's pixel, plus its integer stat counters (integer
  // adds, so the totals match the scalar loop in any order).
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      const WavefrontRay& r =
          s.rays[static_cast<std::size_t>(y - y0) *
                     static_cast<std::size_t>(width) +
                 static_cast<std::size_t>(x - x0)];
      if (r.missed) {
        out.At(x, y) = options_.background;
        if (stats) {
          ++stats->rays;
          ++stats->missed_rays;
        }
        continue;
      }
      out.At(x, y) = r.color + options_.background * r.transmittance;
      if (count_obs) SkipObs().cells_per_ray->Record(r.march.jumps);
      if (stats) {
        ++stats->rays;
        stats->steps += r.steps;
        stats->mlp_evals += r.evals;
        stats->coarse_skips += r.march.jumps;
        if (r.terminated) ++stats->terminated_rays;
      }
    }
  }
  if (skip_shard_ptr != nullptr) skip_shard_ptr->Flush();
}

void VolumeRenderer::RenderTile(const FieldSource& source, const Mlp& mlp,
                                const Camera& camera, int x0, int y0, int x1,
                                int y1, Image& out, RenderStats* stats,
                                DecodeCounters* counters) const {
  if (options_.wavefront) {
    RenderTileWavefront(source, mlp, camera, x0, y0, x1, y1, out, stats,
                        counters);
    return;
  }
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      out.At(x, y) =
          RenderRay(source, mlp, camera.PixelRay(x, y), stats, counters);
    }
  }
}

Image VolumeRenderer::Render(const FieldSource& source, const Mlp& mlp,
                             const Camera& camera, RenderStats* stats,
                             const RenderEngine* engine) const {
  RenderJob job;
  job.source = &source;
  job.mlp = &mlp;
  job.camera = camera;
  job.options = options_;
  job.collect_stats = stats != nullptr;
  const RenderEngine& eng = engine != nullptr ? *engine : RenderEngine::Shared();
  RenderResult result = eng.Render(job);
  if (stats) stats->Merge(result.stats);
  return std::move(result.image);
}

}  // namespace spnerf
